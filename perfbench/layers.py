"""Per-layer metrics of the dpjoin_serve benchmark (--trace 1).

Span-based metrics come from the in-process replay (perfbench_tool trace):
medians of each layer call's self time, over the replayed requests. Counts
come from the daemon itself: its `stats` before and after the timed phase,
and /proc/<pid>. The `wall.*` metrics are the run's wall-clock latencies
and rates. The traced per-request totals sit next to the untraced
wall-clock latencies of the same run, so the part the replay does not cover
(sockets, batch window, queueing) and the tracing overhead both show.
"""

import statistics

# name -> (unit, better); the order is the order of the output.
PER_LAYER = {
    "net.frame_us": ("us", "lower"),
    "net.resp_bytes": ("bytes", "lower"),
    "json.parse_us": ("us", "lower"),
    "json.serialize_us": ("us", "lower"),
    "server.query_line_us": ("us", "lower"),
    "server.release_line_us": ("us", "lower"),
    "batcher.batch_size": ("count", "higher"),
    "batcher.group_wait_us": ("us", "lower"),
    "batcher.execute_us": ("us", "lower"),
    "catalog.register_ms": ("ms", "lower"),
    "catalog.resolve_us": ("us", "lower"),
    "spec.parse_us": ("us", "lower"),
    "spec.workload_build_ms": ("ms", "lower"),
    "planner.plan_ms": ("ms", "lower"),
    "sensitivity.residual_ms": ("ms", "lower"),
    "ledger.reserve_commit_us": ("us", "lower"),
    "ledger.save_ms": ("ms", "lower"),
    "ledger.file_bytes": ("bytes", "lower"),
    "core.two_table_ms": ("ms", "lower"),
    "hierarchical.uniformize_ms": ("ms", "lower"),
    "core.multi_table_ms": ("ms", "lower"),
    "release.pmw_call_ms": ("ms", "lower"),
    "release.pmw_factored_call_ms": ("ms", "lower"),
    "core.laplace_ms": ("ms", "lower"),
    "release.pmw_rounds": ("count", "lower"),
    "release.pmw_eval_us_per_round": ("us", "lower"),
    "release.pmw_update_us_per_round": ("us", "lower"),
    "release.pmw_normalize_us_per_round": ("us", "lower"),
    "release.pmw_sparse_rounds": ("count", "higher"),
    "release.pmw_dense_rounds": ("count", "lower"),
    "release.pmw_scale_only_rounds": ("count", "higher"),
    "query.evaluator_build_ms": ("ms", "lower"),
    "serving.answer_all_us": ("us", "lower"),
    "serving.answer_batch_us_per_id": ("us", "lower"),
    "serving.cells_per_id": ("count", "lower"),
    "cache.hit_rate": ("ratio", "higher"),
    "cache.lookups": ("count", "higher"),
    "cache.evictions": ("count", "lower"),
    "server.cpu_util": ("ratio", "higher"),
    "host.steal_pct": ("%", "lower"),
    "release_hit_cpu_us": ("us", "lower"),
    "wall.setup_s": ("s", "lower"),
    "wall.release_p50_ms": ("ms", "lower"),
    "wall.release_hit_us": ("us", "lower"),
    "wall.releases_per_s": ("1/s", "higher"),
    "wall.query_qps": ("1/s", "higher"),
    "wall.query_p50_us": ("us", "lower"),
    "wall.query_tail_us": ("us", "lower"),
    "trace.release_total_ms": ("ms", "lower"),
    "trace.release_untraced_ms": ("ms", "lower"),
    "trace.release_uncovered_ms": ("ms", "lower"),
    "trace.query_total_us": ("us", "lower"),
    "trace.query_untraced_us": ("us", "lower"),
    "trace.query_uncovered_us": ("us", "lower"),
    "trace.overhead_pct": ("%", "lower"),
}

MECHANISM_SPANS = {
    "core.two_table": "core.two_table_ms",
    "hierarchical.uniformize": "hierarchical.uniformize_ms",
    "core.multi_table": "core.multi_table_ms",
    # The end-to-end release.pmw_cpu_ms / release.pmw_factored_cpu_ms are
    # whole requests; these are the mechanism calls alone.
    "release.pmw": "release.pmw_call_ms",
    "release.pmw_factored": "release.pmw_factored_call_ms",
    "core.laplace": "core.laplace_ms",
}


def median(values, what):
    if not values:
        raise ValueError("the traced replay produced no %s spans" % what)
    return statistics.median(values)


def metrics(run, spans):
    by_pass = {}
    for s in spans:
        s["dur"] = s["end_ns"] - s["start_ns"]
        by_pass.setdefault(s["pass"], []).append(s)
    traced = by_pass["traced"]
    roots = {s["trace"]: s for s in traced if s["name"] == "request"}
    query_traces = {t for t, r in roots.items() if r["attrs"].get("query")}

    def self_ns(name, only_queries=False):
        return [s["self_ns"] for s in traced if s["name"] == name and
                (not only_queries or s["trace"] in query_traces)]

    us, ms = 1e-3, 1e-6
    m = {}
    m["net.frame_us"] = median(self_ns("net.frame", True), "net.frame") * us
    m["net.resp_bytes"] = run.query_resp_bytes / run.query_count
    m["json.parse_us"] = median(self_ns("json.parse", True), "parse") * us
    m["json.serialize_us"] = median(self_ns("json.serialize", True),
                                    "serialize") * us
    server = by_pass["server"]
    m["server.query_line_us"] = median(
        [s["dur"] for s in server if s["name"] == "server.query_line"],
        "server.query_line") * us
    m["server.release_line_us"] = median(
        [s["dur"] for s in server if s["name"] == "server.release_line" and
         s["attrs"].get("hit")], "cached server.release_line") * us

    view = run.daemon_view
    s0, s1 = view["stats0"], view["stats1"]
    sv0, sv1 = s0["serving"], s1["serving"]
    calls = sv1["engine_calls"] - sv0["engine_calls"]
    m["batcher.batch_size"] = (sv1["query_requests"] -
                               sv0["query_requests"]) / max(1, calls)

    executes = [s for s in by_pass["batched"]
                if s["name"] == "batcher.execute"]
    m["batcher.group_wait_us"] = median(
        [s["attrs"]["wait_us"] for s in executes], "batcher.execute")
    m["batcher.execute_us"] = median([s["dur"] for s in executes],
                                     "batcher.execute") * us

    m["catalog.register_ms"] = median(self_ns("catalog.register"),
                                      "register") * ms
    m["catalog.resolve_us"] = median(self_ns("catalog.resolve"),
                                     "resolve") * us
    m["spec.parse_us"] = median(self_ns("spec.parse"), "spec.parse") * us
    m["spec.workload_build_ms"] = median(self_ns("spec.workload_build"),
                                         "workload_build") * ms
    m["planner.plan_ms"] = median(self_ns("planner.plan"), "plan") * ms
    m["sensitivity.residual_ms"] = median(self_ns("sensitivity.residual"),
                                          "residual") * ms
    per_trace = {}
    for s in traced:
        if s["name"] in ("ledger.reserve", "ledger.commit"):
            per_trace[s["trace"]] = per_trace.get(s["trace"], 0) + s["dur"]
    m["ledger.reserve_commit_us"] = median(list(per_trace.values()),
                                           "ledger") * us
    saves = [s for s in traced if s["name"] == "ledger.save"]
    m["ledger.save_ms"] = median([s["dur"] for s in saves], "save") * ms
    m["ledger.file_bytes"] = max(s["attrs"].get("bytes", 0) for s in saves)

    perf = {"rounds": 0, "eval": 0.0, "update": 0.0, "normalize": 0.0,
            "sparse": 0, "dense": 0, "scale": 0, "runs": 0}
    for span, metric in MECHANISM_SPANS.items():
        found = [s for s in traced if s["name"] == span]
        m[metric] = median([s["dur"] for s in found], span) * ms
        for s in found:
            a = s["attrs"]
            if "pmw_rounds" in a:
                perf["runs"] += 1
                perf["rounds"] += a["pmw_rounds"]
                perf["eval"] += a["pmw_eval_us"]
                perf["update"] += a["pmw_update_us"]
                perf["normalize"] += a["pmw_normalize_us"]
                perf["sparse"] += a["pmw_sparse_rounds"]
                perf["dense"] += a["pmw_dense_rounds"]
                perf["scale"] += a["pmw_scale_only_rounds"]
    runs, rounds = max(1, perf["runs"]), max(1, perf["rounds"])
    m["release.pmw_rounds"] = perf["rounds"] / runs
    m["release.pmw_eval_us_per_round"] = perf["eval"] / rounds
    m["release.pmw_update_us_per_round"] = perf["update"] / rounds
    m["release.pmw_normalize_us_per_round"] = perf["normalize"] / rounds
    m["release.pmw_sparse_rounds"] = perf["sparse"] / runs
    m["release.pmw_dense_rounds"] = perf["dense"] / runs
    m["release.pmw_scale_only_rounds"] = perf["scale"] / runs

    m["query.evaluator_build_ms"] = median(
        [s["dur"] for s in traced if s["name"] == "query.evaluator_build"
         and not s["attrs"].get("shared")], "evaluator build") * ms
    m["serving.answer_all_us"] = median(self_ns("serving.answer_all"),
                                        "answer_all") * us
    batches = [s for s in traced if s["name"] == "serving.answer_batch"]
    ids = sum(s["attrs"]["ids"] for s in batches)
    m["serving.answer_batch_us_per_id"] = (
        sum(s["dur"] for s in batches) / max(1, ids) * us)
    m["serving.cells_per_id"] = sum(
        s["attrs"]["cells_per_id"] * s["attrs"]["ids"]
        for s in batches) / max(1, ids)

    cache = s1["cache"]
    lookups = cache["hits"] + cache["misses"]
    m["cache.hit_rate"] = cache["hit_rate"]
    m["cache.lookups"] = lookups
    m["cache.evictions"] = cache["misses"] - cache["size"]
    m["server.cpu_util"] = view["cpu_s"] / view["wall_s"]
    m["host.steal_pct"] = view["steal_pct"]

    # Per-request totals: the traced pass (probe spans excluded) against the
    # same requests with spans off, and both against the daemon's latency.
    probe = {}
    for s in traced:
        if s["attrs"].get("probe"):
            probe[s["trace"]] = probe.get(s["trace"], 0) + s["dur"]

    # Plain and traced passes replay the same lines in the same order, so
    # a request's trace number names the same request in both.
    kind_of = {s["trace"]: s["name"] for s in traced
               if s["name"] in MECHANISM_SPANS}

    def totals(pass_spans, what):
        return [s for s in pass_spans
                if s["name"] == "request" and s["attrs"].get(what)]

    def release_total(pass_spans):
        # As wall.release_p50_ms: the median over mechanisms of their
        # medians.
        by_kind = {}
        for s in totals(pass_spans, "release_fresh"):
            by_kind.setdefault(kind_of[s["trace"]], []).append(
                s["dur"] - probe.get(s["trace"], 0) * (pass_spans is traced))
        return median([statistics.median(v) for v in by_kind.values()],
                      "release request") * ms

    def query_total(pass_spans):
        return median([s["dur"] for s in totals(pass_spans, "query")],
                      "query request") * us
    rel_t, rel_u = release_total(traced), release_total(by_pass["plain"])
    q_t, q_u = query_total(traced), query_total(by_pass["plain"])
    # The daemon CPU time of a cached re-release (~100 us) moves 60-117 us
    # with the load on the host, too much for a bound of 0.25.
    m["release_hit_cpu_us"] = statistics.median(run.hit_cpu) / 1e3
    m.update(run.wall())
    m["trace.release_total_ms"] = rel_t
    m["trace.release_untraced_ms"] = rel_u
    m["trace.release_uncovered_ms"] = m["wall.release_p50_ms"] - rel_u
    m["trace.query_total_us"] = q_t
    m["trace.query_untraced_us"] = q_u
    m["trace.query_uncovered_us"] = m["wall.query_p50_us"] - q_u
    m["trace.overhead_pct"] = 100.0 * (q_t - q_u) / q_u
    return {name: (m[name], PER_LAYER[name][0]) for name in PER_LAYER}
