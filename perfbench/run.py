#!/usr/bin/env python3
"""End-to-end benchmark of the dpjoin_serve daemon over TCP.

    python3 perfbench/run.py --workload <release_menu|query_fanin|mixed_churn>
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds dpjoin_serve and perfbench_tool from
source into .bench_build/, generates every input from --seed into
.bench_work/, starts the daemon with --port=0 and a fresh --ledger, drives
the workload from this one process (at most 4 connections, one thread),
checks every output, and prints one JSON result as the last stdout line.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they are
the per-layer ones, from the daemon's `stats`, /proc, and an in-process
traced replay of the same requests (perfbench_tool trace). See README.md.
"""

import argparse
import json
import os
import random
import re
import selectors
import shutil
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("release_menu", "query_fanin", "mixed_churn")

# The daemon's privacy cap: large enough for every release of a run, so no
# request is refused for budget. Every other flag keeps its default.
CAP_FLAGS = ["--epsilon=1000000", "--delta=0.5"]

SETUPS = 5             # timed set-ups per --trace 0 run (after one warm-up)
HITS_PER_CYCLE = 10    # cached re-releases per release-menu cycle
MENU_MIN_CYCLES = 13   # release_menu runs at least this many cycles:
                       # rss_peak_mb read 612 MB after 9, 670 after 10 and
                       # 721-722 from 12 on, once the 64-slot cache is full
PROBE_CYCLES = 10      # release-menu cycles after the timed phase of
                       # query_fanin and mixed_churn (see probe())
FANIN_CONNS = 4        # query_fanin connections
FANIN_DEPTH = 8        # pipelined requests each keeps outstanding
FANIN_KINDS = ("pmw", "two_table", "pmw_factored", "laplace")
POOL_ID_LISTS = 32     # id-list requests per set-up release in the pool
CHURN_QUERY_CONNS = 3
CHURN_MINTS = 72       # fresh releases per round (> cache capacity 64)
CHURN_PACE = 4         # interactive queries per connection per mint
CACHE_CAPACITY = 64    # dpjoin_serve's default --cache
TAIL_WINDOW = 500      # completions per window of the tail latency
LONE_QUERIES = 200     # one-id queries sent alone after the timed phase


def now_ns():
    return time.perf_counter_ns()


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def log(msg):
    print("perfbench: " + msg, file=sys.stderr, flush=True)


def dumps(obj):
    return json.dumps(obj).encode() + b"\n"


# ---------------------------------------------------------------------------
# Build


def build(root):
    if not (os.path.isfile(os.path.join(root, "CMakeLists.txt")) and
            os.path.isdir(os.path.join(root, "src"))):
        fail("no dpjoin source tree in %s (run from the repository root)"
             % root)
    bdir = os.path.join(root, ".bench_build")
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", bdir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    subprocess.run(["cmake", "--build", bdir, "--target", "dpjoin_serve",
                    "perfbench_tool", "-j4"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return (os.path.join(bdir, "dpjoin", "examples", "dpjoin_serve"),
            os.path.join(bdir, "perfbench_tool"))


# ---------------------------------------------------------------------------
# Daemon and connections


class Daemon:
    """dpjoin_serve on a kernel-assigned port with a fresh ledger file."""

    running = []  # every daemon not yet reaped; main() kills leftovers

    def __init__(self, exe, ledger_path):
        self.ledger_path = ledger_path
        self.proc = subprocess.Popen(
            [exe, "--port=0", "--ledger=" + ledger_path] + CAP_FLAGS,
            stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE)
        Daemon.running.append(self)
        line = b""
        deadline = time.monotonic() + 60
        while b"listening on" not in line:
            line = self.proc.stderr.readline()
            if not line or time.monotonic() > deadline:
                self.kill()
                fail("daemon did not start")
        self.port = int(re.search(rb":(\d+)\s*$", line).group(1))

        # The daemon's process-wide CPU clock, which clock_gettime reads for
        # another process by this id: the CPU time of all its threads, in
        # ns, without the time the host stole from the virtual CPUs they ran
        # on. A thread's current slice is added only when the thread stops
        # or at a tick, so it is exact only while the daemon idles.
        self.cpu_clock = ((~self.proc.pid) << 3) | 2

    def cpu_ns(self):
        return time.clock_gettime_ns(self.cpu_clock)

    def wait_idle(self):
        """Waits until none of the daemon's threads is running (at most
        50 ms), so that cpu_ns() holds all the work done so far."""
        task = "/proc/%d/task" % self.proc.pid
        deadline = now_ns() + 50 * 10**6
        while now_ns() < deadline:
            running = False
            for tid in os.listdir(task):
                try:
                    with open("%s/%s/stat" % (task, tid)) as f:
                        state = f.read().rsplit(")", 1)[1].split()[0]
                except OSError:  # the thread ended meanwhile
                    continue
                if state == "R":
                    running = True
                    break
            if not running:
                return

    def rss_peak_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        fail("no VmHWM in /proc/%d/status" % self.proc.pid)

    def stop(self, conn):
        resp = conn.call_json({"cmd": "shutdown"})
        conn.close()
        if not resp.get("ok"):
            fail("shutdown refused")
        try:
            self.proc.wait(timeout=60)
        finally:
            self.kill()

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.proc.stderr.close()
        if self in Daemon.running:
            Daemon.running.remove(self)


class Conn:
    """One TCP connection. call() is closed-loop; the drive() loop below
    pipelines on several connections at once."""

    def __init__(self, daemon):
        self.sock = socket.create_connection(("127.0.0.1", daemon.port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = bytearray()
        self.daemon = daemon
        self.last_cpu_ns = 0

    def readline(self):
        while True:
            i = self.buf.find(b"\n")
            if i >= 0:
                line = bytes(self.buf[:i])
                del self.buf[:i + 1]
                return line
            data = self.sock.recv(1 << 20)
            if not data:
                fail("daemon closed the connection")
            self.buf += data

    def call(self, line):
        """Sends one request and waits for its response. Returns the
        response and its latency; last_cpu_ns is the daemon CPU time spent
        meanwhile, which is the request's own when no other connection has
        work in flight (the daemon idles before and after it)."""
        c0 = self.daemon.cpu_ns()
        t0 = now_ns()
        self.sock.sendall(line)
        resp = self.readline()
        lat = now_ns() - t0
        self.daemon.wait_idle()
        self.last_cpu_ns = self.daemon.cpu_ns() - c0
        return resp, lat

    def call_json(self, obj):
        return json.loads(self.call(dumps(obj))[0])

    def close(self):
        self.sock.close()


def drive(drivers):
    """Runs drivers, one per connection, until each is finished. A driver
    has .conn, .depth, next_request() -> bytes or None (nothing to send
    now), and on_response(request, response, latency_ns). After every
    response each driver may send again, so one driver can pace another;
    the run ends when nothing is in flight."""
    sel = selectors.DefaultSelector()
    inflight = {d: [] for d in drivers}
    for d in drivers:
        sel.register(d.conn.sock, selectors.EVENT_READ, d)
        fill(d, inflight[d])
    while any(inflight.values()):
        for key, _ in sel.select():
            d = key.data
            data = d.conn.sock.recv(1 << 20)
            if not data:
                fail("daemon closed the connection")
            t = now_ns()
            buf = d.conn.buf
            buf += data
            start = 0
            q = inflight[d]
            while True:
                i = buf.find(b"\n", start)
                if i < 0:
                    break
                sent, req = q.pop(0)
                d.on_response(req, bytes(buf[start:i]), t - sent)
                start = i + 1
            del buf[:start]
            if start:
                for other in drivers:
                    fill(other, inflight[other])
    sel.close()


def fill(d, q):
    out = []
    while len(q) + len(out) < d.depth:
        req = d.next_request()
        if req is None:
            break
        out.append(req)
    if out:
        t = now_ns()
        for req in out:
            q.append((t, req))
        d.conn.sock.sendall(b"".join(out))


# ---------------------------------------------------------------------------
# Run state


class Run:
    def __init__(self, args, root, exe, tool):
        self.args = args
        self.seed = args.seed
        self.exe = exe
        self.tool = tool
        self.work = os.path.join(root, ".bench_work",
                                 "run-%d-%d" % (os.getpid(), args.seed))
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.rng = random.Random("run/%d" % args.seed)
        self.workload_seed = 1000 + args.seed
        self.attempted = 0
        self.failed = 0
        self.phase_ops = None
        self.hits_sent = 0
        self.problems = []
        # Latency samples (ns) and counters behind the metrics.
        self.reset_samples()
        self.err_rel = {k["kind"]: [] for k in inputs.MENU}
        self.setup_cpu = []   # daemon CPU seconds of each set-up
        self.setup_wall = []
        self.replay = []       # request lines for the traced replay
        self.live_sample = {}  # real outputs for the liveness self-check
        self.data_paths = {}
        self.oracles = {}

    def begin_phase(self, daemon, conn):
        self.daemon, self.conn = daemon, conn
        self.phase_host = host_cpu_ticks()
        self.phase_stats = conn.call_json({"cmd": "stats"})
        daemon.wait_idle()
        self.phase_cpu = daemon.cpu_ns()
        # attempted/failed count the timed phase's whole rounds only, so
        # the failed share is the same in every run.
        self.attempted = self.failed = 0
        self.phase_t0 = now_ns()

    def end_phase(self):
        """Freezes the counts of the timed phase: operations, wall and CPU
        time, and the daemon's stats."""
        wall = (now_ns() - self.phase_t0) / 1e9
        self.daemon.wait_idle()
        cpu = self.daemon.cpu_ns()
        self.phase_ops = (self.attempted, self.failed)
        steal, total = (b - a for a, b in zip(self.phase_host,
                                              host_cpu_ticks()))
        self.daemon_view = {
            "steal_pct": 100.0 * steal / max(1, total),
            "stats0": self.phase_stats,
            "stats1": self.conn.call_json({"cmd": "stats"}),
            "cpu_s": (cpu - self.phase_cpu) / 1e9, "wall_s": wall,
            "ops": self.attempted}

    def reset_samples(self):
        self.reset_release_samples()
        self.release_wall_ns = 0
        self.release_count = 0
        self.query_lat = []
        self.query_wall_ns = 0
        self.query_count = 0
        self.query_resp_bytes = 0

    def reset_release_samples(self):
        self.fresh_lat = {k["kind"]: [] for k in inputs.MENU}
        self.fresh_cpu = {k["kind"]: [] for k in inputs.MENU}
        self.hit_lat = []
        self.hit_cpu = []
        self.lone_lat = []

    def problem(self, msg):
        if len(self.problems) < 20:
            self.problems.append(msg)

    # -- inputs -------------------------------------------------------------

    def make_inputs(self):
        for name in inputs.DATASETS:
            path = os.path.join(self.work, name + ".csv")
            with open(path, "w") as f:
                f.write(inputs.dataset_csv(
                    inputs.generate_dataset(name, self.seed)))
            self.data_paths[name] = path
        reqs = []
        for entry in inputs.MENU:
            reqs.append(json.dumps({
                "csv": self.data_paths[entry["dataset"]],
                "spec": inputs.spec_text(entry, "oracle",
                                         self.workload_seed)}))
        out = subprocess.run([self.tool, "oracle"],
                             input="\n".join(reqs) + "\n", text=True,
                             capture_output=True)
        if out.returncode != 0:
            fail("oracle failed: " + out.stderr)
        for entry, line in zip(inputs.MENU, out.stdout.splitlines()):
            oracle = json.loads(line)
            if oracle["mechanism"] != inputs.MECHANISM_OF_KIND[entry["kind"]]:
                fail("planner picks %s for %s" % (oracle["mechanism"],
                                                   entry["kind"]))
            self.oracles[entry["kind"]] = oracle

    def release_line(self, kind, name):
        entry = inputs.MENU_BY_KIND[kind]
        return dumps(inputs.release_request(
            entry, name, self.workload_seed, self.rng.randrange(1 << 40)))

    # -- set-up -------------------------------------------------------------

    def setup(self, tag, record_lines=None, keep=True):
        """Starts a daemon, registers every dataset and releases one spec of
        each menu kind. Returns (daemon, conn, releases), or stops the
        daemon when not `keep`."""
        t0 = now_ns()
        daemon = Daemon(self.exe, os.path.join(self.work, tag + ".ledger"))
        conn = Conn(daemon)
        lines = []
        for name in inputs.DATASETS:
            line = dumps(inputs.register_request(name,
                                                 self.data_paths[name]))
            resp, _ = conn.call(line)
            lines.append((line, resp))
            if not json.loads(resp).get("ok"):
                fail("register %s: %s" % (name, resp[:300]))
        releases = []
        for entry in inputs.MENU:
            kind = entry["kind"]
            rel = self.fresh_release(conn, kind, "s%d_%s" % (self.seed, kind))
            releases.append(rel)
            lines.append((rel["line"], rel["resp"]))
        # conn.call() left the daemon idle, so its CPU clock holds the
        # whole set-up since exec.
        self.setup_cpu.append(daemon.cpu_ns() / 1e9)
        self.setup_wall.append((now_ns() - t0) / 1e9)
        if record_lines is not None:
            record_lines.extend(lines)
        for rel in releases:
            self.verify(conn, rel, timed=False)
        # The traced replay starts with the set-up, each release re-sent
        # once (a cache hit), and the set-up's checking queries.
        self.replay = [line for line, _ in lines]
        for rel in releases:
            self.replay += [rel["line"]] + rel["verify_lines"]
        if not keep:
            daemon.stop(conn)
        return daemon, conn, releases

    def fresh_release(self, conn, kind, name):
        line = self.release_line(kind, name)
        resp, lat = conn.call(line)
        self.attempted += 1
        return self.on_fresh(kind, name, line, resp, lat, conn.last_cpu_ns)

    def on_fresh(self, kind, name, line, resp, lat, cpu=None):
        """Checks a fresh release's response and records its latency, and
        its daemon CPU time when that is its own (`cpu`)."""
        r = json.loads(resp)
        if not r.get("ok") or r.get("from_cache"):
            fail("release %s: %s" % (name, resp[:300]))
        if r["mechanism"] != inputs.MECHANISM_OF_KIND[kind]:
            self.problem("%s released by %s" % (kind, r["mechanism"]))
        self.fresh_lat[kind].append(lat)
        if cpu is not None:
            self.fresh_cpu[kind].append(cpu)
        self.release_wall_ns += lat
        self.release_count += 1
        return {"kind": kind, "name": name, "line": line, "resp": resp,
                "id": r["release"], "spent": r["spent"]["epsilon"]}

    def cached_release(self, conn, rel, spent_now=None):
        resp, lat = conn.call(rel["line"])
        self.attempted += 1
        self.hit_cpu.append(conn.last_cpu_ns)
        return self.on_cached(rel, resp, lat, spent_now)

    def on_cached(self, rel, resp, lat, spent_now=None):
        r = json.loads(resp)
        if not (r.get("ok") and r.get("from_cache") and
                r["release"] == rel["id"]):
            self.problem("re-release of %s not served from cache: %s"
                         % (rel["name"], resp[:200]))
        elif spent_now is not None and r["spent"]["epsilon"] != spent_now:
            self.problem("cached re-release of %s spent budget"
                         % rel["name"])
        self.hit_lat.append(lat)
        return resp

    # -- checks -------------------------------------------------------------

    def check_answers(self, rel, answers):
        oracle = self.oracles[rel["kind"]]
        informative = inputs.MENU_BY_KIND[rel["kind"]]["informative"]
        # Independent Laplace answers carry independent noise, so only
        # synthetic-data releases are consistent across queries.
        synthetic = rel["kind"] != "laplace"
        problem, rel_err = checks.release_answers(answers, oracle,
                                                  informative, synthetic)
        if problem is not None:
            self.problem("%s: %s" % (rel["name"], problem))
        self.err_rel[rel["kind"]].append(rel_err)
        if "answers" not in self.live_sample and informative and synthetic:
            self.live_sample.update(answers=answers, oracle=oracle)

    def verify(self, conn, rel, timed):
        """all:true and an id-list query against a fresh release; checks
        accuracy, marginal consistency and id-list agreement."""
        all_line = dumps({"cmd": "query", "release": rel["id"], "all": True})
        ids = inputs.zipf_id_lists(self.rng, len(self.oracles[rel["kind"]]
                                                 ["exact"]), 16)[-1]
        id_line = dumps({"cmd": "query", "release": rel["id"],
                         "queries": ids})
        t0 = now_ns()
        all_resp, lat_a = conn.call(all_line)
        id_resp, lat_b = conn.call(id_line)
        if timed:
            self.attempted += 2
            self.query_wall_ns += now_ns() - t0
            self.query_count += 2
            self.query_lat += [lat_a, lat_b]
            self.query_resp_bytes += len(all_resp) + len(id_resp)
        rel["verify_lines"] = [all_line, id_line]
        a = json.loads(all_resp)
        b = json.loads(id_resp)
        if not (a.get("ok") and b.get("ok")):
            self.problem("query on %s failed: %s" % (rel["name"],
                                                     all_resp[:200]))
            return None
        self.check_answers(rel, a["answers"])
        problem = checks.id_list(ids, b["answers"], a["answers"])
        if problem is not None:
            self.problem("%s: %s" % (rel["name"], problem))
        return all_resp

    def check_ledger(self, conn, fresh):
        """Live `ledger` against the fresh releases, then the --ledger file
        reloaded by a second (stdio) daemon against the live one."""
        live = conn.call_json({"cmd": "ledger"})["ledger"]
        last = max(fresh, key=lambda r: r["spent"])["spent"]
        names = [(r["name"], r["kind"]) for r in fresh]
        nominal = inputs.SPEC_EPSILON
        problem = checks.ledger(live, names, nominal, last)
        if problem is not None:
            self.problem("ledger: " + problem)
        self.live_sample.update(ledger=live, fresh=names,
                                nominal_epsilon=nominal,
                                last_spent_epsilon=last)
        return live

    def check_reloaded(self, ledger_path, live):
        with open(ledger_path) as f:
            on_disk = json.load(f)
        problem = checks.same_total(live, on_disk)
        out = subprocess.run(
            [self.exe, "--ledger=" + ledger_path] + CAP_FLAGS,
            input=b'{"cmd": "ledger"}\n', capture_output=True, timeout=60)
        reloaded = json.loads(out.stdout.splitlines()[0])["ledger"]
        problem = problem or checks.same_total(live, reloaded)
        if problem is not None:
            self.problem("reloaded ledger: " + problem)

    def stdio_responses(self, lines):
        out = subprocess.run(
            [self.exe, "--ledger=" + os.path.join(self.work, "stdio.ledger")]
            + CAP_FLAGS, input=b"".join(lines), capture_output=True,
            timeout=120)
        return out.stdout.splitlines()

    # -- query pool ---------------------------------------------------------

    def build_pool(self, conn, releases):
        """Request lines against the set-up releases, each with the one
        response it must get: all:true per release plus POOL_ID_LISTS
        Zipf-skewed id lists (1-16 ids). The expected bytes are learned
        here, once, after checking the answers; the timed phase then only
        compares bytes."""
        pool = {}
        for rel in releases:
            all_line = dumps({"cmd": "query", "release": rel["id"],
                              "all": True})
            all_resp, _ = conn.call(all_line)
            all_answers = json.loads(all_resp)["answers"]
            n = len(all_answers)
            lists = inputs.zipf_id_lists(self.rng, n, POOL_ID_LISTS)
            lines = [dumps({"cmd": "query", "release": rel["id"],
                            "queries": ids}) for ids in lists]
            for line in lines:
                conn.sock.sendall(line)
            for ids, line in zip(lists, lines):
                resp = conn.readline()
                problem = checks.id_list(ids, json.loads(resp)["answers"],
                                         all_answers)
                if problem is not None:
                    self.problem("pool %s: %s" % (rel["name"], problem))
                pool[line] = resp
            pool[all_line] = all_resp
            rel["all_line"] = all_line
            rel["id_lines"] = lines
        return pool

    def traffic(self, releases, length):
        """A request sequence over the pool: alternately all:true and an id
        list, cycling through the releases and through each release's id
        lists, so every seed sends the same mix."""
        seq = []
        offset = self.rng.randrange(len(releases))
        for i in range(length):
            rel = releases[(offset + i // 2) % len(releases)]
            lines = rel["id_lines"]
            seq.append(rel["all_line"] if i % 2 == 0
                       else lines[(i // (2 * len(releases))) % len(lines)])
        return seq

    # -- workloads ----------------------------------------------------------

    def menu_cycle(self, conn, tag, previous, timed):
        """One release-menu cycle: a fresh release of every menu kind back to
        back, then HITS_PER_CYCLE re-sends of earlier specs (each must be a
        cache hit that spends nothing), then an all:true and an id-list
        query checking each fresh release. Returns (releases, hit lines)."""
        rels = [self.fresh_release(conn, e["kind"],
                                   "%s_%s" % (tag, e["kind"]))
                for e in inputs.MENU]
        hits = []
        for h in range(HITS_PER_CYCLE):
            again = previous[(self.hits_sent + h) % len(previous)]
            hits.append((again["line"],
                         self.cached_release(conn, again, rels[-1]["spent"])))
        self.hits_sent += HITS_PER_CYCLE
        for rel in rels:
            self.verify(conn, rel, timed)
        return rels, hits

    def run_release_menu(self, conn, setup_rels, setup_lines):
        """Release-menu cycles until the time is up, at least
        MENU_MIN_CYCLES; the first two are replayed by the traced run, the
        first is also piped through a stdio daemon, whose response bytes
        must match."""
        fresh = list(setup_rels)
        previous = setup_rels
        diff_lines = list(setup_lines)
        deadline = now_ns() + self.args.seconds * 10**9
        cycle = 0
        while now_ns() < deadline or cycle < MENU_MIN_CYCLES:
            rels, hits = self.menu_cycle(
                conn, "m%d_c%d" % (self.seed, cycle), previous, timed=True)
            fresh += rels
            if cycle == 0:
                diff_lines += [(r["line"], r["resp"]) for r in rels] + hits
            if cycle < 2:
                for rel in rels:
                    self.replay += [rel["line"]] + rel["verify_lines"]
                self.replay += [line for line, _ in hits]
            previous = rels
            cycle += 1
        self.end_phase()
        self.lone_queries(conn, previous)
        live = self.check_ledger(conn, fresh)
        tcp = [resp for _, resp in diff_lines]
        stdio = self.stdio_responses([line for line, _ in diff_lines])
        problem = checks.identical(tcp, stdio)
        if problem is not None:
            self.problem("stdio/TCP differential: " + problem)
        self.live_sample["lines"] = tcp
        return live

    def run_query_fanin(self, daemon, conn, setup_rels, pool):
        """FANIN_CONNS closed-loop connections, each keeping FANIN_DEPTH
        pipelined queries outstanding; half all:true, half id lists."""
        rels = [r for r in setup_rels if r["kind"] in FANIN_KINDS]
        deadline = now_ns() + self.args.seconds * 10**9
        run = self

        class Fanin:
            depth = FANIN_DEPTH

            def __init__(self, c):
                self.conn = c
                self.seq = run.traffic(rels, 4096)
                self.pos = 0

            def next_request(self):
                if now_ns() >= deadline:
                    return None
                req = self.seq[self.pos % len(self.seq)]
                self.pos += 1
                return req

            def on_response(self, req, resp, lat):
                run.on_pooled(pool, req, resp, lat)

        conns = [conn] + [Conn(daemon) for _ in range(FANIN_CONNS - 1)]
        drivers = [Fanin(c) for c in conns]
        t0 = now_ns()
        drive(drivers)
        self.query_wall_ns += now_ns() - t0
        for c in conns[1:]:
            c.close()
        self.replay += drivers[0].seq[:256]
        self.live_sample["lines"] = [pool[req] for req in drivers[0].seq[:64]]
        self.end_phase()
        # No mechanism runs in the timed phase, so wall.releases_per_s comes
        # from the probes too.
        fresh = list(setup_rels) + self.probe(conn, setup_rels)
        return self.check_ledger(conn, fresh)

    def probe(self, conn, previous):
        """PROBE_CYCLES untimed release-menu cycles after the timed phase,
        whose first cycle re-sends `previous` (releases recent enough to be
        cached), then the lone queries (lone_queries). They give the
        per-mechanism release figures and the cache-hit figures of
        query_fanin and mixed_churn, measured on one connection, so that
        the daemon CPU time of each request is its own. Returns the fresh
        releases."""
        self.reset_release_samples()
        fresh = []
        for cycle in range(PROBE_CYCLES):
            previous, _ = self.menu_cycle(
                conn, "p%d_c%d" % (self.seed, cycle), previous, timed=False)
            fresh += previous
        self.lone_queries(conn, previous)
        return fresh

    def lone_queries(self, conn, rels):
        """LONE_QUERIES one-id queries, one at a time, against the Laplace
        release among `rels` (recent, so cached), on a daemon with no other
        work: the latency a user sees for a small query, which the batch
        window sets more than the CPU does. Each answer must equal the
        all:true answer at that id."""
        rel = next(r for r in rels if r["kind"] == "laplace")
        resp, _ = conn.call(dumps({"cmd": "query", "release": rel["id"],
                                   "all": True}))
        answers = json.loads(resp)["answers"]
        for i in range(LONE_QUERIES):
            ids = [i % len(answers)]
            resp, lat = conn.call(dumps({"cmd": "query", "release": rel["id"],
                                         "queries": ids}))
            self.lone_lat.append(lat)
            r = json.loads(resp)
            problem = (checks.id_list(ids, r["answers"], answers)
                       if r.get("ok") else "lone query failed: " + resp[:200])
            if problem is not None:
                self.problem("%s: %s" % (rel["name"], problem))

    def on_pooled(self, pool, req, resp, lat):
        self.attempted += 1
        self.query_count += 1
        self.query_lat.append(lat)
        self.query_resp_bytes += len(resp)
        if resp != pool[req]:
            self.failed += 1
            self.problem("query response differs from its checked bytes")

    def run_mixed_churn(self, daemon, conn, setup_rels, pool):
        """Rounds of: one connection mints CHURN_MINTS fresh releases (more
        than the cache holds), cycling through the menu, queries each mint
        once (all:true) and re-sends HITS_PER_CYCLE of the latest specs,
        while CHURN_QUERY_CONNS connections send CHURN_PACE interactive
        queries per mint each, one outstanding, against the set-up
        releases. One untimed round first fills the cache, so that every
        timed round starts from the same full cache."""
        fresh = list(setup_rels)
        run = self
        # Set-up releases stay cached (the interactive queries keep them
        # recent), so at most each round's oldest mints beyond the rest are
        # evicted.
        evicted_per_round = CHURN_MINTS - (CACHE_CAPACITY - len(setup_rels))
        qconns = [Conn(daemon) for _ in range(CHURN_QUERY_CONNS)]

        class Minter:
            depth = 1

            def __init__(self, round_no):
                self.conn = conn
                self.round = round_no
                self.mints = []
                self.revisits = []
                self.hits = []

            def next_request(self):
                i = len(self.mints)
                if i < CHURN_MINTS:
                    kind = inputs.MENU[i % len(inputs.MENU)]["kind"]
                    name = "x%d_r%d_%d" % (run.seed, self.round, i)
                    self.pending = (kind, name)
                    return run.release_line(kind, name)
                j = len(self.revisits)
                if j < CHURN_MINTS:
                    return dumps({"cmd": "query", "all": True,
                                  "release": self.mints[j]["id"]})
                if len(self.hits) < HITS_PER_CYCLE:
                    # Re-send one of the latest mints: cached, so nothing
                    # is spent.
                    self.pending = self.mints[-1 - len(self.hits)]
                    return self.pending["line"]
                return None

            def on_response(self, req, resp, lat):
                run.attempted += 1
                if len(self.mints) < CHURN_MINTS:
                    kind, name = self.pending
                    self.mints.append(run.on_fresh(kind, name, req, resp,
                                                   lat))
                elif len(self.revisits) < CHURN_MINTS:
                    self.revisits.append((req, resp, lat))
                else:
                    self.hits.append(run.on_cached(self.pending, resp, lat))

        class Interactive:
            """CHURN_PACE queries per mint, one outstanding: paced by the
            minter, so every round sends the same queries against the
            same release traffic."""
            depth = 1

            def __init__(self, c, minter):
                self.conn = c
                self.minter = minter
                self.seq = run.traffic(setup_rels, CHURN_PACE * CHURN_MINTS)
                self.pos = 0

            def next_request(self):
                allowed = CHURN_PACE * (len(self.minter.mints) + 1)
                if self.pos >= min(len(self.seq), allowed):
                    return None
                self.pos += 1
                return self.seq[self.pos - 1]

            def on_response(self, req, resp, lat):
                run.on_pooled(pool, req, resp, lat)

        round_no = 0
        deadline = None
        while deadline is None or now_ns() < deadline:
            if round_no == 1:
                self.reset_samples()
                self.begin_phase(daemon, conn)
                deadline = now_ns() + self.args.seconds * 10**9
            minter = Minter(round_no)
            t0 = now_ns()
            drive([minter] + [Interactive(c, minter) for c in qconns])
            self.query_wall_ns += now_ns() - t0
            fresh += minter.mints
            for j, (req, resp, lat) in enumerate(minter.revisits):
                r = json.loads(resp)
                if not r.get("ok"):
                    # A paid release lost to cache eviction: the fault this
                    # workload counts until releases are durable. Only the
                    # round's oldest mints can be evicted, and only they may
                    # answer NotFound; once the fault is mended they answer
                    # and are checked like the rest.
                    if (j >= evicted_per_round or
                            "NotFound" not in r.get("error", "")):
                        self.problem("revisit %d of round %d failed: %s" % (
                            j, round_no, resp[:200]))
                    self.failed += 1
                    continue
                self.query_lat.append(lat)
                self.query_count += 1
                self.query_resp_bytes += len(resp)
                self.check_answers(minter.mints[j], r["answers"])
            if round_no == 0:
                self.replay += [m["line"] for m in minter.mints[-8:]]
                self.replay += [req for req, _, _ in minter.revisits[-8:]]
            round_no += 1
        for c in qconns:
            c.close()
        self.replay += self.traffic(setup_rels, 64)
        self.live_sample["lines"] = list(pool.values())[:64]
        self.end_phase()
        # wall.releases_per_s stays the rate of the contended mints.
        rate = (self.release_count, self.release_wall_ns)
        fresh += self.probe(conn, minter.mints[-len(inputs.MENU):])
        self.release_count, self.release_wall_ns = rate
        return self.check_ledger(conn, fresh)

    # -- whole run ----------------------------------------------------------

    def execute(self):
        self.make_inputs()
        if not self.args.trace:
            # One untimed warm-up set-up (page cache, CPU clocks), then
            # SETUPS timed ones; the last stays up for the workload.
            self.setup("warmup", keep=False)
            self.setup_cpu, self.setup_wall = [], []
            for k in range(SETUPS - 1):
                self.setup("setup%d" % k, keep=False)
        setup_lines = []
        daemon, conn, rels = self.setup("main", setup_lines)
        pool = None
        if self.args.workload != "release_menu":
            pool = self.build_pool(conn, rels)
        # Release latencies come from the warm daemon, not from set-ups.
        self.reset_samples()
        self.begin_phase(daemon, conn)
        if self.args.workload == "release_menu":
            live = self.run_release_menu(conn, rels, setup_lines)
        elif self.args.workload == "query_fanin":
            live = self.run_query_fanin(daemon, conn, rels, pool)
        else:
            live = self.run_mixed_churn(daemon, conn, rels, pool)
        self.attempted, self.failed = self.phase_ops
        self.daemon_view["rss_mb"] = daemon.rss_peak_mb()
        daemon.stop(conn)
        self.check_reloaded(daemon.ledger_path, live)
        blind = checks.liveness(self.live_sample)
        if blind:
            self.problem("checks blind to corruption: " + ",".join(blind))

    # -- metrics ------------------------------------------------------------

    def end_to_end(self):
        """The bounded metrics. Set-up, release and query costs are the
        daemon's CPU time, which the host's steal of virtual CPUs leaves out;
        the wall-clock times, which it inflates, are in wall()."""
        def ms(ns):
            return statistics.median(ns) / 1e6
        # The median over mechanisms of each one's median, so that the mix
        # of mechanisms a run happens to complete cannot move it.
        per_kind = [ms(v) for v in self.fresh_cpu.values()]
        m = {
            "setup_s": (statistics.median(self.setup_cpu), "s"),
            "release_cpu_ms": (statistics.median(per_kind), "ms"),
        }
        for kind in self.fresh_cpu:
            m["release.%s_cpu_ms" % kind] = (ms(self.fresh_cpu[kind]), "ms")
        view = self.daemon_view
        m.update({
            "op_cpu_us": (view["cpu_s"] * 1e6 / view["ops"], "us"),
            "query_lone_us": (statistics.median(self.lone_lat) / 1e3, "us"),
            "rss_peak_mb": (view["rss_mb"], "MB"),
            "release_err_rel": (err_rel(self.err_rel), "ratio"),
        })
        return m

    def wall(self):
        """Wall-clock latencies and rates of the same run, unbounded: on a
        host that steals 2-54% of the virtual CPUs' time they spread wider
        than any bound could hold."""
        lat = self.query_lat
        per_kind = [statistics.median(v) / 1e6
                    for v in self.fresh_lat.values()]
        return {
            "wall.setup_s": statistics.median(self.setup_wall),
            "wall.release_p50_ms": statistics.median(per_kind),
            "wall.release_hit_us": statistics.median(self.hit_lat) / 1e3,
            "wall.releases_per_s": (self.release_count /
                                    (self.release_wall_ns / 1e9)),
            "wall.query_qps": self.query_count / (self.query_wall_ns / 1e9),
            "wall.query_p50_us": statistics.median(lat) / 1e3,
            "wall.query_tail_us": tail(lat) / 1e3,
        }

    def per_layer(self):
        spans = run_trace(self)
        return layers.metrics(self, spans)


def err_rel(by_kind):
    """The geometric mean over mechanisms of each one's median max error /
    join size: a mechanism that gets k times less accurate moves it by the
    same factor whatever the others' scale, and the mix of mechanisms a run
    checks cannot move it."""
    medians = {k: statistics.median(v) for k, v in by_kind.items()}
    log("max error / join size by mechanism: " + ", ".join(
        "%s %.4g" % kv for kv in medians.items()))
    return statistics.geometric_mean(medians.values())


def host_cpu_ticks():
    """(steal, total) CPU ticks of the machine so far: the time the host
    kept this machine's CPUs from running, which inflates every latency."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:9]]
    return fields[7], sum(fields)


def tail(lat):
    """The tail latency: in each window of TAIL_WINDOW consecutive
    completions, the latency with exactly ten samples beyond it (the
    highest percentile that still has ten), and the median of that over
    the windows, so one stall of the machine moves one window only."""
    windows = [lat[i:i + TAIL_WINDOW]
               for i in range(0, len(lat) - TAIL_WINDOW + 1, TAIL_WINDOW)]
    windows = windows or [lat]
    return statistics.median(sorted(w)[max(0, len(w) - 11)]
                             for w in windows)


def run_trace(run):
    path = os.path.join(run.work, "replay.jsonl")
    with open(path, "wb") as f:
        f.write(b"".join(run.replay))
    out = subprocess.run([run.tool, "trace", path, run.work],
                         stdout=sys.stderr)
    if out.returncode != 0:
        fail("traced replay failed")
    spans_path = os.path.join(run.work, "spans.jsonl")
    with open(spans_path) as f:
        spans = [json.loads(line) for line in f]
    keep = os.path.join(os.path.dirname(run.work),
                        "spans-%s.jsonl" % run.args.workload)
    shutil.copyfile(spans_path, keep)
    return spans


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = os.getcwd()
    exe, tool = build(root)
    run = Run(args, root, exe, tool)
    try:
        run.execute()
        metrics = run.per_layer() if args.trace else run.end_to_end()
    finally:
        for daemon in list(Daemon.running):
            daemon.kill()
        shutil.rmtree(run.work, ignore_errors=True)
    for p in run.problems:
        log("CHECK FAILED: " + p)
    result = {
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
