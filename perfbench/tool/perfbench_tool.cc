// perfbench_tool: the in-process half of the dpjoin_serve benchmark.
//
//   perfbench_tool oracle < requests.jsonl > answers.jsonl
//     One JSON object per input line: {"csv": <path>, "spec": <text>}.
//     Answers with the planner's predicted error for the spec (the paper's
//     bound, as PlanRelease evaluates it) and the EXACT workload answers,
//     computed here from the CSV by this file's own aggregation code — not
//     through relational/join or query/evaluation — so the benchmark's
//     accuracy checks do not trust the code they check.
//
//   perfbench_tool trace <replay.jsonl> <work_dir>
//     Replays request lines in-process through the layers' public
//     functions, with a span around each call, in four passes:
//       "plain"   the decomposed request path with spans off (only each
//                 request's total is timed) — the tracing-overhead base;
//       "traced"  the same path with a span per layer call (each line goes
//                 through "plain" and "traced" in turn);
//       "server"  each line through ReleaseServer::HandleLine, whose query
//                 answers must equal the decomposed path's;
//       "batched" query lines, kTraceBatch at a time, through
//                 QueryBatcher::Enqueue/TakeGroups/ExecuteGroup.
//     Spans stay in memory and are written to <work_dir>/spans.jsonl at the
//     end, each with its self time (duration minus the part its children
//     cover).

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/json.h"
#include "common/rng.h"
#include "common/strings.h"
#include "core/independent_laplace.h"
#include "core/multi_table.h"
#include "core/uniformize.h"
#include "engine/budget_ledger.h"
#include "engine/catalog.h"
#include "engine/planner.h"
#include "engine/query_batcher.h"
#include "engine/release_spec.h"
#include "engine/server.h"
#include "engine/serving.h"
#include "hierarchical/uniformize_hierarchical.h"
#include "net/line_framer.h"
#include "release/pmw.h"
#include "relational/io.h"
#include "sensitivity/residual_sensitivity.h"

namespace dpjoin {
namespace {

// Query requests per flush in the "batched" pass.
constexpr size_t kTraceBatch = 16;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

[[noreturn]] void Die(const std::string& what) {
  std::cerr << "perfbench_tool: " << what << "\n";
  std::exit(1);
}

template <typename T>
T Unwrap(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).value();
}

// ---------------------------------------------------------------------------
// Spans

struct Span {
  std::string pass;
  int64_t trace = 0;  // request sequence number within the pass
  int64_t id = 0;
  int64_t parent = 0;  // 0 = root
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  std::vector<std::pair<std::string, double>> attrs;
};

class Tracer {
 public:
  // Switches to `pass`; each pass numbers its requests from 1.
  void SetPass(const std::string& pass, bool enabled) {
    pass_ = pass;
    enabled_ = enabled;
  }
  void BeginRequest() { trace_ = ++traces_[pass_]; }
  bool enabled() const { return enabled_; }

  // Opens a span; returns its index in spans_ (or -1 when disabled).
  int64_t Open(const std::string& name, bool force = false) {
    if (!enabled_ && !force) return -1;
    Span span;
    span.pass = pass_;
    span.trace = trace_;
    span.id = static_cast<int64_t>(spans_.size()) + 1;
    span.parent = stack_.empty() ? 0 : spans_[stack_.back()].id;
    span.name = name;
    spans_.push_back(std::move(span));
    stack_.push_back(static_cast<int64_t>(spans_.size()) - 1);
    spans_.back().start_ns = NowNs();
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Close(int64_t index) {
    if (index < 0) return;
    spans_[index].end_ns = NowNs();
    stack_.pop_back();
  }
  void Attr(int64_t index, const std::string& key, double value) {
    if (index >= 0) spans_[index].attrs.emplace_back(key, value);
  }

  Status Write(const std::string& path) const {
    // Self time = duration minus the union of the children's intervals;
    // children of one span never overlap (the replay is sequential), so
    // the union is their sum.
    std::unordered_map<int64_t, int64_t> child_ns;
    for (const Span& s : spans_) {
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
    std::ofstream out(path);
    if (!out) return Status::Internal("cannot write " + path);
    for (const Span& s : spans_) {
      JsonValue v = JsonValue::Object();
      v.Set("pass", JsonValue::String(s.pass));
      v.Set("trace", JsonValue::Number(static_cast<double>(s.trace)));
      v.Set("id", JsonValue::Number(static_cast<double>(s.id)));
      v.Set("parent", JsonValue::Number(static_cast<double>(s.parent)));
      v.Set("name", JsonValue::String(s.name));
      v.Set("start_ns", JsonValue::Number(static_cast<double>(s.start_ns)));
      v.Set("end_ns", JsonValue::Number(static_cast<double>(s.end_ns)));
      const int64_t dur = s.end_ns - s.start_ns;
      const auto it = child_ns.find(s.id);
      v.Set("self_ns", JsonValue::Number(static_cast<double>(
                           dur - (it == child_ns.end() ? 0 : it->second))));
      JsonValue attrs = JsonValue::Object();
      for (const auto& [key, value] : s.attrs) {
        attrs.Set(key, JsonValue::Number(value));
      }
      v.Set("attrs", std::move(attrs));
      out << v.Serialize() << "\n";
    }
    return out.good() ? Status::OK() : Status::Internal("write failed");
  }

 private:
  std::string pass_;
  bool enabled_ = false;
  int64_t trace_ = 0;
  std::map<std::string, int64_t> traces_;
  std::vector<Span> spans_;
  std::vector<int64_t> stack_;
};

class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, bool force = false)
      : tracer_(tracer), index_(tracer.Open(name, force)) {}
  ~ScopedSpan() { tracer_.Close(index_); }
  void Attr(const std::string& key, double value) {
    tracer_.Attr(index_, key, value);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int64_t index_;
};

// ---------------------------------------------------------------------------
// Shared helpers

// "NAME:SIZE" / "NAME:A,B" arrays of a register request → JoinQuery.
Result<JoinQuery> QueryFromRegister(const JsonValue& request) {
  std::vector<AttributeSpec> attrs;
  for (const JsonValue& item : request.Find("attributes")->items()) {
    const std::vector<std::string> parts = SplitAndTrim(item.AsString(), ':');
    if (parts.size() != 2) return Status::InvalidArgument("bad attribute");
    attrs.push_back({parts[0], std::stoll(parts[1])});
  }
  std::vector<std::vector<std::string>> edges;
  for (const JsonValue& item : request.Find("relations")->items()) {
    const std::string& text = item.AsString();
    edges.push_back(SplitAndTrim(text.substr(text.find(':') + 1), ','));
  }
  return JoinQuery::Create(std::move(attrs), std::move(edges));
}

void AddPerf(ScopedSpan& span, const PmwResult::Perf& perf) {
  double eval = 0, update = 0, normalize = 0;
  for (double v : perf.eval_us) eval += v;
  for (double v : perf.update_us) update += v;
  for (double v : perf.normalize_us) normalize += v;
  span.Attr("pmw_rounds", static_cast<double>(perf.eval_us.size()));
  span.Attr("pmw_eval_us", eval);
  span.Attr("pmw_update_us", update);
  span.Attr("pmw_normalize_us", normalize);
  span.Attr("pmw_sparse_rounds", static_cast<double>(perf.sparse_rounds));
  span.Attr("pmw_dense_rounds", static_cast<double>(perf.dense_rounds));
  span.Attr("pmw_scale_only_rounds",
            static_cast<double>(perf.scale_only_rounds));
}

// Cells one id-list answer scans: the synthetic tensor's storage (dense
// cells, or the factored backing's Σ factor cells); 1 for direct answers.
double CellsPerId(const ServingHandle& handle) {
  if (handle.dataset() == nullptr) return 1.0;
  return static_cast<double>(handle.dataset()->distribution().StorageCells());
}

// ---------------------------------------------------------------------------
// The decomposed request path: the server's pipeline, one public layer call
// at a time, each inside its own span.

class Replayer {
 public:
  Replayer(Tracer& tracer, const std::string& ledger_path)
      : tracer_(tracer),
        ledger_(PrivacyParams(1e6, 0.5)),
        ledger_path_(ledger_path) {}

  // Returns the response bytes.
  std::string Handle(const std::string& line) {
    tracer_.BeginRequest();
    ScopedSpan root(tracer_, "request", /*force=*/true);
    std::string framed;
    {
      ScopedSpan span(tracer_, "net.frame");
      LineFramer framer;
      const std::string bytes = line + "\n";
      framer.Append(bytes.data(), bytes.size());
      if (!framer.PopLine(&framed)) Die("framer lost a line");
    }
    JsonValue request;
    {
      ScopedSpan span(tracer_, "json.parse");
      request = Unwrap(JsonValue::Parse(framed), "request json");
    }
    const std::string& cmd = request.Find("cmd")->AsString();
    JsonValue response;
    if (cmd == "register") {
      root.Attr("register", 1);
      response = Register(request);
    } else if (cmd == "release") {
      response = Release(request, root);
    } else if (cmd == "query") {
      root.Attr("query", 1);
      response = Query(request, root);
    } else {
      Die("replay has no path for cmd " + cmd);
    }
    ScopedSpan span(tracer_, "json.serialize");
    std::string bytes = response.Serialize();
    span.Attr("bytes", static_cast<double>(bytes.size()));
    return bytes;
  }

 private:
  JsonValue Register(const JsonValue& request) {
    ScopedSpan span(tracer_, "catalog.register");
    auto query = std::make_shared<JoinQuery>(
        Unwrap(QueryFromRegister(request), "register schema"));
    auto handle = Unwrap(
        catalog_.RegisterSource(request.Find("name")->AsString(),
                                request.Find("source")->AsString(), query),
        "register");
    JsonValue response = JsonValue::Object();
    response.Set("ok", JsonValue::Bool(true));
    response.Set("fingerprint",
                 JsonValue::String(JsonHexId(handle->fingerprint())));
    return response;
  }

  JsonValue Release(const JsonValue& request, ScopedSpan& root) {
    ReleaseSpec spec;
    {
      ScopedSpan span(tracer_, "spec.parse");
      spec = Unwrap(ParseReleaseSpec(request.Find("spec")->AsString()),
                    "spec");
    }
    std::shared_ptr<const JoinQuery> query;
    {
      ScopedSpan span(tracer_, "spec.build_query");
      query = std::make_shared<JoinQuery>(
          Unwrap(spec.BuildQuery(), "spec query"));
    }
    std::shared_ptr<const DatasetHandle> data;
    {
      ScopedSpan span(tracer_, "catalog.resolve");
      data = Unwrap(
          catalog_.Resolve(request.Find("dataset")->AsString(), query),
          "resolve");
    }
    const uint64_t release_id = spec.Hash() ^ data->fingerprint();
    const auto cached = cache_.find(release_id);
    if (cached != cache_.end()) {
      root.Attr("release_hit", 1);
      return ReleaseResponse(release_id, true);
    }
    root.Attr("release_fresh", 1);
    const Instance& instance = data->instance();
    QueryFamily family;
    {
      ScopedSpan span(tracer_, "spec.workload_build");
      family = Unwrap(spec.BuildWorkload(instance.query()), "workload");
    }
    int64_t ticket = 0;
    {
      ScopedSpan span(tracer_, "ledger.reserve");
      ticket = Unwrap(ledger_.Reserve(spec.name, spec.Budget()), "reserve");
    }
    Plan plan;
    {
      ScopedSpan span(tracer_, "planner.plan");
      plan = Unwrap(PlanRelease(spec, instance, family), "plan");
    }
    if (tracer_.enabled() && instance.num_relations() > 1) {
      // PlanRelease computes RS^β inside; this probe repeats the call so
      // the sensitivity layer gets a span of its own. It is excluded from
      // the request total (and skipped when spans are off).
      ScopedSpan span(tracer_, "sensitivity.residual");
      span.Attr("probe", 1);
      const double beta = 1.0 / spec.Budget().Lambda();
      const ResidualSensitivityResult rs = ResidualSensitivity(instance, beta);
      span.Attr("value", rs.value);
    }
    const ReleaseOptions options = spec.BuildReleaseOptions();
    const PrivacyParams budget = spec.Budget();
    Rng rng(static_cast<uint64_t>(request.Find("seed")->AsDouble()));
    PrivacyAccountant accountant;
    std::shared_ptr<const ReleasedDataset> dataset;
    std::shared_ptr<const WorkloadEvaluator> evaluator;
    std::vector<double> direct;
    switch (plan.mechanism) {
      case MechanismKind::kLaplace: {
        ScopedSpan span(tracer_, "core.laplace");
        auto result = Unwrap(AnswerIndependently(instance, family, budget,
                                                 spec.laplace_rule, rng),
                             "laplace");
        accountant = result.accountant;
        direct = std::move(result.answers);
        break;
      }
      case MechanismKind::kTwoTable: {
        ScopedSpan span(tracer_, "core.two_table");
        auto result = Unwrap(
            UniformizeTwoTable(instance, family, budget, options, rng),
            "two_table");
        AddPerf(span, result.release.pmw_perf);
        accountant = result.release.accountant;
        dataset = std::make_shared<const ReleasedDataset>(
            instance.query_ptr(), std::move(result.release.synthetic));
        break;
      }
      case MechanismKind::kHierarchical: {
        ScopedSpan span(tracer_, "hierarchical.uniformize");
        auto result = Unwrap(
            UniformizeHierarchical(instance, family, budget, options, rng),
            "hierarchical");
        AddPerf(span, result.release.pmw_perf);
        accountant = result.release.accountant;
        dataset = std::make_shared<const ReleasedDataset>(
            instance.query_ptr(), std::move(result.release.synthetic));
        break;
      }
      case MechanismKind::kPmw: {
        if (instance.num_relations() > 1) {
          ScopedSpan span(tracer_, "core.multi_table");
          auto result = Unwrap(
              MultiTable(instance, family, budget, options, rng),
              "multi_table");
          AddPerf(span, result.pmw_perf);
          accountant = result.accountant;
          evaluator = std::move(result.evaluator);
          dataset = std::make_shared<const ReleasedDataset>(
              instance.query_ptr(), std::move(result.synthetic));
          break;
        }
        PmwOptions pmw;
        pmw.params = budget;
        pmw.delta_tilde = 1.0;
        pmw.num_rounds = options.pmw_rounds;
        pmw.max_rounds = options.pmw_max_rounds;
        pmw.per_round_epsilon_override = options.pmw_epsilon_prime_override;
        pmw.use_factored_loop = options.pmw_use_factored;
        if (plan.factored) {
          ScopedSpan span(tracer_, "release.pmw_factored");
          auto result = Unwrap(PrivateMultiplicativeWeightsFactored(
                                   instance, family, plan.factor_groups, pmw,
                                   rng),
                               "pmw_factored");
          AddPerf(span, result.perf);
          accountant = result.accountant;
          evaluator = std::move(result.evaluator);
          dataset = std::make_shared<const ReleasedDataset>(
              instance.query_ptr(), std::move(result.factored_synthetic));
        } else {
          ScopedSpan span(tracer_, "release.pmw");
          auto result = Unwrap(
              PrivateMultiplicativeWeights(instance, family, pmw, rng),
              "pmw");
          AddPerf(span, result.perf);
          accountant = result.accountant;
          evaluator = std::move(result.evaluator);
          dataset = std::make_shared<const ReleasedDataset>(
              instance.query_ptr(), std::move(result.synthetic));
        }
        break;
      }
      case MechanismKind::kAuto:
        Die("planner returned an unresolved plan");
    }
    std::shared_ptr<const ServingHandle> handle;
    if (dataset == nullptr) {
      handle = std::make_shared<const ServingHandle>(std::move(direct),
                                                     family, plan);
    } else {
      // With no evaluator from the mechanism, the handle builds the
      // WorkloadEvaluator here (the per-mode query matrices).
      ScopedSpan span(tracer_, "query.evaluator_build");
      span.Attr("shared", evaluator != nullptr ? 1 : 0);
      handle = std::make_shared<const ServingHandle>(dataset, family, plan,
                                                     evaluator);
    }
    {
      ScopedSpan span(tracer_, "ledger.commit");
      ledger_.Commit(ticket, accountant);
    }
    {
      ScopedSpan span(tracer_, "ledger.save");
      const Status saved = ledger_.SaveJson(ledger_path_);
      if (!saved.ok()) Die("ledger save: " + saved.ToString());
      struct stat st;
      if (::stat(ledger_path_.c_str(), &st) == 0) {
        span.Attr("bytes", static_cast<double>(st.st_size));
      }
    }
    cache_[release_id] = handle;
    return ReleaseResponse(release_id, false);
  }

  JsonValue ReleaseResponse(uint64_t release_id, bool from_cache) {
    double spent_e, spent_d, rem_e, rem_d;
    int64_t committed;
    ledger_.Snapshot(&spent_e, &spent_d, &rem_e, &rem_d, &committed);
    JsonValue response = JsonValue::Object();
    response.Set("ok", JsonValue::Bool(true));
    response.Set("cmd", JsonValue::String("release"));
    response.Set("release", JsonValue::String(JsonHexId(release_id)));
    response.Set("from_cache", JsonValue::Bool(from_cache));
    JsonValue spent = JsonValue::Object();
    spent.Set("epsilon", JsonValue::Number(spent_e));
    spent.Set("delta", JsonValue::Number(spent_d));
    response.Set("spent", std::move(spent));
    return response;
  }

  JsonValue Query(const JsonValue& request, ScopedSpan& root) {
    QueryCommand cmd;
    {
      ScopedSpan span(tracer_, "server.parse_query");
      cmd = Unwrap(ParseQueryCommand(request), "query command");
    }
    const auto it = cache_.find(cmd.release_id);
    if (it == cache_.end()) Die("replayed query names an unknown release");
    const ServingHandle& handle = *it->second;
    std::vector<double> answers;
    if (cmd.all) {
      root.Attr("all", 1);
      ScopedSpan span(tracer_, "serving.answer_all");
      span.Attr("answers", static_cast<double>(handle.NumQueries()));
      answers = handle.AnswerAll();
    } else {
      ScopedSpan span(tracer_, "serving.answer_batch");
      span.Attr("ids", static_cast<double>(cmd.ids.size()));
      span.Attr("cells_per_id", CellsPerId(handle));
      answers = Unwrap(handle.AnswerBatch(cmd.ids), "answer batch");
    }
    return QueryAnswersResponse(answers);
  }

  Tracer& tracer_;
  DataCatalog catalog_;
  BudgetLedger ledger_;
  std::string ledger_path_;
  std::unordered_map<uint64_t, std::shared_ptr<const ServingHandle>> cache_;
};

int RunTrace(const std::string& replay_path, const std::string& work_dir) {
  std::vector<std::string> lines;
  {
    std::ifstream in(replay_path);
    if (!in) Die("cannot read " + replay_path);
    std::string line;
    while (std::getline(in, line)) {
      if (!line.empty()) lines.push_back(line);
    }
  }
  Tracer tracer;

  // Each line goes through both, in alternating order, so neither pass
  // gets the warmer caches or allocator.
  Replayer plain(tracer, work_dir + "/trace_plain_ledger.json");
  Replayer traced(tracer, work_dir + "/trace_ledger.json");
  std::vector<std::string> plain_responses(lines.size());
  for (size_t i = 0; i < lines.size(); ++i) {
    for (int k = 0; k < 2; ++k) {
      if ((i + k) % 2 == 0) {
        tracer.SetPass("plain", false);
        plain_responses[i] = plain.Handle(lines[i]);
      } else {
        tracer.SetPass("traced", true);
        traced.Handle(lines[i]);
      }
    }
  }

  // The real server path: every line through HandleLine; query lines also
  // through the cross-client batcher, kTraceBatch requests per flush.
  tracer.SetPass("server", true);
  ReleaseEngine engine(PrivacyParams(1e6, 0.5), 64);
  ServerOptions options;
  options.ledger_path = work_dir + "/trace_server_ledger.json";
  ReleaseServer server(engine, options);
  std::vector<std::string> query_lines;
  size_t first_query = lines.size();
  std::string first_query_response;
  int64_t differing = 0;
  for (size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    tracer.BeginRequest();
    const bool is_query = line.find("\"cmd\": \"query\"") != std::string::npos;
    const bool is_release =
        line.find("\"cmd\": \"release\"") != std::string::npos;
    ScopedSpan span(tracer, is_query     ? "server.query_line"
                            : is_release ? "server.release_line"
                                         : "server.other_line");
    const std::string response = server.HandleLine(line);
    if (response.rfind("{\"ok\": true", 0) != 0) {
      Die("server replay failed: " + response.substr(0, 300));
    }
    if (is_release) {
      span.Attr("hit", response.find("\"from_cache\": true") !=
                               std::string::npos
                           ? 1
                           : 0);
    }
    if (is_query) {
      query_lines.push_back(line);
      if (first_query == lines.size()) {
        first_query = i;
        first_query_response = response;
      }
      if (response != plain_responses[i]) ++differing;
    }
  }
  if (differing > 0) {
    // The decomposed path copies the engine's release path to hang spans on
    // it. Its answers differ from HandleLine's either because the copy went
    // stale, or because the engine's noise no longer follows the client
    // seed: a second server fed the same lines tells the two apart.
    ReleaseEngine probe_engine(PrivacyParams(1e6, 0.5), 64);
    ServerOptions probe_options;
    probe_options.ledger_path = work_dir + "/trace_probe_ledger.json";
    ReleaseServer probe(probe_engine, probe_options);
    std::string probe_response;
    for (size_t i = 0; i <= first_query; ++i) {
      probe_response = probe.HandleLine(lines[i]);
    }
    if (probe_response == first_query_response) {
      Die(std::to_string(differing) +
          " query answers of the decomposed path differ from HandleLine's: "
          "it no longer follows the engine's release path");
    }
    std::cerr << "perfbench_tool: the engine's answers do not follow the "
                 "client seed, so the decomposed path is not compared with "
                 "HandleLine\n";
  }

  tracer.SetPass("batched", true);
  QueryBatcher::Options batch_options;
  QueryBatcher batcher(server, batch_options);
  int64_t answered = 0;
  for (size_t begin = 0; begin < query_lines.size(); begin += kTraceBatch) {
    tracer.BeginRequest();
    const int64_t batch_start_ns = NowNs();
    const size_t end = std::min(query_lines.size(), begin + kTraceBatch);
    for (size_t i = begin; i < end; ++i) {
      const JsonValue request =
          Unwrap(JsonValue::Parse(query_lines[i]), "query json");
      batcher.Enqueue(Unwrap(ParseQueryCommand(request), "query command"),
                      [&answered](std::string) { ++answered; });
    }
    std::vector<QueryBatcher::ReleaseGroup> groups = batcher.TakeGroups();
    for (QueryBatcher::ReleaseGroup& group : groups) {
      ScopedSpan span(tracer, "batcher.execute");
      span.Attr("requests", static_cast<double>(group.members.size()));
      // From the batch's first Enqueue to this group's execution: the
      // batcher's own queueing, without the batch window the daemon
      // waits out on top.
      span.Attr("wait_us", static_cast<double>(NowNs() - batch_start_ns) / 1e3);
      batcher.ExecuteGroup(group, 0);
    }
  }
  if (answered != static_cast<int64_t>(query_lines.size())) {
    Die("batcher lost responses");
  }

  const Status written = tracer.Write(work_dir + "/spans.jsonl");
  if (!written.ok()) Die(written.ToString());
  return 0;
}

// ---------------------------------------------------------------------------
// Oracle: exact answers by this file's own aggregation.

struct Table {
  std::vector<int> attrs;  // attribute indices, ascending
  std::vector<std::pair<std::vector<int64_t>, double>> tuples;
};

// Reads the dpjoin-instance v1 CSV (relation index, values..., frequency).
std::vector<Table> ReadTables(const std::string& path, const JoinQuery& query) {
  std::vector<Table> tables(static_cast<size_t>(query.num_relations()));
  for (int r = 0; r < query.num_relations(); ++r) {
    tables[r].attrs = query.attribute_order_of(r);
  }
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::vector<int64_t> fields;
    std::stringstream row(line);
    std::string cell;
    while (std::getline(row, cell, ',')) fields.push_back(std::stoll(cell));
    Table& table = tables.at(static_cast<size_t>(fields.front()));
    table.tuples.emplace_back(
        std::vector<int64_t>(fields.begin() + 1, fields.end() - 1),
        static_cast<double>(fields.back()));
  }
  return tables;
}

// Exact q(I) for every flat query id. A product query's answer is a sum
// over join results of Π_r f_r(t_r)·q_r(t_r). Each relation's tuples are
// first aggregated by their values on the join attributes (those shared
// with another relation): W_r[key][j] = Σ_{t_r ↦ key} f_r(t_r)·q_rj(t_r).
// Then for every assignment of the join attributes, the answer of flat
// query (j_1..j_m) gains Π_r W_r[key_r][j_r].
std::vector<double> ExactAnswers(const JoinQuery& query,
                                 const std::vector<Table>& tables,
                                 const QueryFamily& family) {
  const int m = query.num_relations();
  std::vector<int> uses(static_cast<size_t>(query.num_attributes()), 0);
  for (const Table& t : tables) {
    for (int a : t.attrs) ++uses[a];
  }
  std::vector<int> join_attrs;
  for (int a = 0; a < query.num_attributes(); ++a) {
    if (uses[a] > 1) join_attrs.push_back(a);
  }
  // W_r keyed by the relation's projection onto the join attributes,
  // encoded in the join-attribute mixed radix (other digits 0).
  std::vector<int64_t> join_stride(static_cast<size_t>(query.num_attributes()),
                                   0);
  int64_t join_cells = 1;
  for (int a : join_attrs) {
    join_stride[a] = join_cells;
    join_cells *= query.domain_size(a);
  }
  std::vector<std::map<int64_t, std::vector<double>>> w(
      static_cast<size_t>(m));
  for (int r = 0; r < m; ++r) {
    const Table& table = tables[r];
    const MixedRadix& coder = query.tuple_space(r);
    const std::vector<TableQuery>& qs = family.table_queries(r);
    for (const auto& [values, freq] : table.tuples) {
      int64_t key = 0;
      for (size_t d = 0; d < table.attrs.size(); ++d) {
        key += join_stride[table.attrs[d]] * values[d];
      }
      const int64_t code = coder.Encode(values);
      std::vector<double>& acc = w[r][key];
      acc.resize(qs.size(), 0.0);
      for (size_t j = 0; j < qs.size(); ++j) {
        acc[j] += freq * TableQueryValue(qs[j], coder, code);
      }
    }
  }
  const int64_t total = family.TotalCount();
  std::vector<std::vector<int64_t>> digits(static_cast<size_t>(total));
  for (int64_t f = 0; f < total; ++f) digits[f] = family.Decompose(f);
  std::vector<double> answers(static_cast<size_t>(total), 0.0);
  std::vector<const std::vector<double>*> parts(static_cast<size_t>(m));
  for (int64_t assignment = 0; assignment < join_cells; ++assignment) {
    bool present = true;
    for (int r = 0; r < m && present; ++r) {
      int64_t key = 0;
      for (int a : tables[r].attrs) {
        if (uses[a] > 1) {
          key += join_stride[a] *
                 ((assignment / join_stride[a]) % query.domain_size(a));
        }
      }
      const auto it = w[r].find(key);
      present = it != w[r].end();
      if (present) parts[r] = &it->second;
    }
    if (!present) continue;
    for (int64_t f = 0; f < total; ++f) {
      double product = 1.0;
      for (int r = 0; r < m; ++r) product *= (*parts[r])[digits[f][r]];
      answers[f] += product;
    }
  }
  return answers;
}

// For a marginal_all family: per (relation, attribute), the flat ids of the
// queries that are a value indicator of that attribute on that relation and
// all-ones elsewhere. Each group's answers sum to the counting query's.
JsonValue MarginalGroups(const JoinQuery& query, const QueryFamily& family) {
  JsonValue groups = JsonValue::Array();
  const int m = query.num_relations();
  for (int r = 0; r < m; ++r) {
    int64_t offset = 1;  // index 0 of every Q_r is the all-ones query
    for (int a : query.attribute_order_of(r)) {
      JsonValue ids = JsonValue::Array();
      for (int64_t v = 0; v < query.domain_size(a); ++v) {
        std::vector<int64_t> digits(static_cast<size_t>(m), 0);
        digits[r] = offset + v;
        ids.Append(JsonValue::Number(
            static_cast<double>(family.index().Encode(digits))));
      }
      offset += query.domain_size(a);
      groups.Append(std::move(ids));
    }
  }
  return groups;
}

int RunOracle() {
  std::string line;
  while (std::getline(std::cin, line)) {
    if (line.empty()) continue;
    const JsonValue request = Unwrap(JsonValue::Parse(line), "oracle json");
    const std::string csv = request.Find("csv")->AsString();
    const ReleaseSpec spec =
        Unwrap(ParseReleaseSpec(request.Find("spec")->AsString()), "spec");
    auto query = std::make_shared<JoinQuery>(Unwrap(spec.BuildQuery(), "q"));
    const QueryFamily family =
        Unwrap(spec.BuildWorkload(*query), "workload");
    std::ifstream csv_in(csv);
    const Instance instance =
        Unwrap(ReadInstanceCsv(query, csv_in), "instance csv");
    const Plan plan = Unwrap(PlanRelease(spec, instance, family), "plan");
    const std::vector<double> exact =
        ExactAnswers(*query, ReadTables(csv, *query), family);

    JsonValue out = JsonValue::Object();
    out.Set("mechanism", JsonValue::String(MechanismName(plan.mechanism)));
    out.Set("factored", JsonValue::Bool(plan.factored));
    out.Set("predicted_error", JsonValue::Number(plan.predicted_error));
    out.Set("num_queries",
            JsonValue::Number(static_cast<double>(family.TotalCount())));
    JsonValue answers = JsonValue::Array();
    for (double a : exact) answers.Append(JsonValue::Number(a));
    out.Set("exact", std::move(answers));
    if (spec.workload == WorkloadFamilyKind::kMarginalAll) {
      out.Set("marginal_groups", MarginalGroups(*query, family));
    }
    std::cout << out.Serialize() << "\n" << std::flush;
  }
  return 0;
}

}  // namespace
}  // namespace dpjoin

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "";
  if (mode == "oracle" && argc == 2) return dpjoin::RunOracle();
  if (mode == "trace" && argc == 4) return dpjoin::RunTrace(argv[2], argv[3]);
  std::cerr << "usage: perfbench_tool oracle < requests.jsonl\n"
               "       perfbench_tool trace <replay.jsonl> <work_dir>\n";
  return 2;
}
