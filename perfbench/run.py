#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the clear fault-injection simulator.

    python3 perfbench/run.py --workload campaign|explore_warm|fleet \
        --seed N --seconds S --trace 0|1

Run from the repository root.  Builds the `clear` CLI and the per-layer
probe (perfbench/layers.cpp) from source into .bench_build/, runs the
workload as a closed loop (each invocation starts when the previous one has
returned) for S seconds, checks every output file's sha256, and prints one
JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (programs run with
CLEAR_METRICS=0); --trace 1 reports the per-layer split (CLEAR_METRICS=1)
and the tracing overhead.  perfbench/NOTES.md explains the workloads and
every metric.
"""
import argparse
import hashlib
import json
import os
import re
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
CLEAR = os.path.join(BUILD, "clear", "clear")
LAYERS = os.path.join(BUILD, "perfbench_layers")
EXPECTED = os.path.join(HERE, "expected.json")

# The seed whose output hashes are committed in expected.json; any other
# seed is checked for agreement between the repetitions of one run.
DEFAULT_SEED = 1
THREADS = 4            # nproc of the reference machine
FLEET_WORKERS = 2
FLEET_SHARDS = 128
WORKER_THREADS = 2
PROC_TIMEOUT_S = 150

CAMPAIGN_STANZAS = [
    "--core InO --bench gcc --injections 84000",
    "--core InO --bench fft1d --variant eddi --injections 84000",
    "--core InO --bench mcf --injections 84000 --confidence 0.1",
    "--core OoO --bench mcf --injections 84000",
    "--core OoO --bench gcc --variant monitor --recovery rob --injections 84000",
]
FLEET_STANZAS = [
    "--core InO --bench gcc --injections 120000",
    "--core OoO --bench mcf --injections 120000",
]
# A three-benchmark suite keeps the cold fill short enough to repeat
# within a run, while covering both ABFT kinds (fft1d detection,
# inner_product correction) so no combination is skipped.
EXPLORE_SUITE = "gcc,fft1d,inner_product"
EXPLORE_CORES = ("InO", "OoO")
EXPLORE_METRICS = ("sdc", "due", "joint")
EXPLORE_TARGETS = ("5", "50", "500")
# Set-ups measured per run before the timed phase (explore_warm's is a
# multi-second cache fill; the others are process start-ups of a few ms,
# repeated more so their median settles).
SETUP_REPEATS = {"campaign": 10, "explore_warm": 3, "fleet": 10}

END_TO_END = [  # name, unit
    ("samples_per_s", "1/s"),
    ("shards_per_s", "1/s"),
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
]

# Per-layer timings: each reported as <name>.p50, <name>.tail (the highest
# of TAIL_PCTS with at least 10 samples beyond it) and <name>.n.
LAYER_TIMINGS = [
    ("arch.snapshot_us", "us"),
    ("arch.restore_us", "us"),
    ("arch.state_matches_us", "us"),
    ("inject.sample_us", "us"),
    ("inject.classify_ns", "ns"),
    ("inject.wire.encode_us", "us"),
    ("inject.wire.decode_us", "us"),
    ("inject.cachepack.open_ms", "ms"),
    ("inject.cachepack.get_us", "us"),
    ("inject.cachepack.put_us", "us"),
    ("soft.variant_build_us", "us"),
    ("core.profiles_ms", "ms"),
    ("core.evaluate_combo_us", "us"),
    ("core.cost_lower_bound_us", "us"),
    ("explore.ledger.append_us", "us"),
    ("engine.submit_cached_us", "us"),
    ("engine.queue_wait_us", "us"),
    ("plan.resolve_ms", "ms"),
    ("fleet.ack_rtt_us", "us"),
    ("fleet.shard_turnaround_ms", "ms"),
]
LAYER_VALUES = [
    ("arch.ino.cycles_per_s", "1/s"),
    ("arch.ooo.cycles_per_s", "1/s"),
    ("isa.iss.instrs_per_s", "1/s"),
    ("inject.fork_replay_share", "frac"),
    ("inject.restore_share", "frac"),
    ("inject.golden_share", "frac"),
    ("inject.wire.merge_total_ms", "ms"),
    ("explore.pruned_frac", "frac"),
    ("fleet.worker_idle_frac", "frac"),
    ("protocol.frame_decode_mb_per_s", "MB/s"),
    ("obs.overhead_frac", "frac"),
]
TAIL_PCTS = (50, 75, 90, 95, 99, 99.9)


class BenchError(Exception):
    """The benchmark itself cannot proceed (build or set-up failure)."""


# ---- statistics helpers ------------------------------------------------------

def percentile(values, pct):
    """Linear-interpolated percentile (0..100) of a non-empty sequence."""
    xs = sorted(values)
    pos = (len(xs) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_pct(n):
    """Highest of TAIL_PCTS that leaves at least 10 of n samples beyond it."""
    best = TAIL_PCTS[0]
    for p in TAIL_PCTS:
        if round(n * (100.0 - p) / 100.0, 9) >= 10:
            best = p
    return best


def summarize(values):
    """(median, tail value, tail percentile, n) of raw timings."""
    p = tail_pct(len(values))
    return percentile(values, 50), percentile(values, p), p, len(values)


def hist_quantile(buckets, q):
    """Quantile q (0..1) of a clear-metrics-v1 sparse log2 histogram.

    `buckets` is [[bucket_lo, count], ...]: bucket_lo 0 holds zeros, any
    other covers [lo, 2*lo).  Interpolates linearly inside the bucket.
    """
    total = sum(c for _, c in buckets)
    if total == 0:
        return 0.0
    rank = q * total
    seen = 0
    for lo, count in sorted(buckets):
        if count and seen + count >= rank:
            if lo == 0:
                return 0.0
            return lo + lo * max(0.0, rank - seen) / count
        seen += count
    lo = max(b for b, _ in buckets)
    return 2.0 * lo


def summarize_hist(hist, scale):
    """summarize() for a histogram row, values multiplied by `scale`."""
    buckets = hist["buckets"] if hist else []
    n = sum(c for _, c in buckets)
    if n == 0:
        return 0.0, 0.0, TAIL_PCTS[0], 0
    p = tail_pct(n)
    return (hist_quantile(buckets, 0.5) * scale,
            hist_quantile(buckets, p / 100.0) * scale, p, n)


def quartile_spread(values):
    """(Q3 - Q1) / median, quartiles as statistics.quantiles(n=4) gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else float("inf")


def sha256_file(path):
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


class OutputChecker:
    """Checks each operation's output files against reference hashes.

    The reference is the committed expected.json entry for the default
    seed; for any other seed it is the first delivered set of hashes, so
    later repetitions must agree with it.  A missing file or a mismatch
    fails the operation; it never raises.
    """

    def __init__(self, reference=None):
        self.reference = dict(reference or {})
        self.adopt = reference is None

    def check(self, op_files):
        """op_files: {op name: {label: path}} -> {op name: ok}."""
        result = {}
        for op, files in op_files.items():
            ok = True
            for label, path in files.items():
                try:
                    digest = sha256_file(path)
                except OSError:
                    ok = False
                    continue
                want = self.reference.get(label)
                if want is None and self.adopt:
                    self.reference[label] = digest
                elif want != digest:
                    ok = False
            result[op] = ok
        return result


# ---- processes ---------------------------------------------------------------

class Proc:
    """A finished child: exit code, wall seconds, user+sys seconds, peak RSS."""

    def __init__(self, rc, wall, cpu, rss_mb, out_path):
        self.rc, self.wall, self.cpu, self.rss_mb = rc, wall, cpu, rss_mb
        self.out_path = out_path

    def stdout(self):
        with open(self.out_path, errors="replace") as f:
            return f.read()


def program_env(cache_dir, metrics, threads=THREADS):
    env = {k: v for k, v in os.environ.items() if not k.startswith("CLEAR_")}
    env.update(CLEAR_THREADS=str(threads), CLEAR_METRICS="1" if metrics else "0",
               CLEAR_CACHE_DIR=cache_dir)
    return env


class Child:
    """A started process whose rusage is collected with wait4."""

    def __init__(self, argv, env, cwd, out_path):
        self.out_path = out_path
        with open(out_path, "wb") as out:
            self.t0 = time.monotonic()
            self.popen = subprocess.Popen(argv, env=env, cwd=cwd, stdout=out,
                                          stderr=subprocess.STDOUT,
                                          stdin=subprocess.DEVNULL)

    def wait(self, timeout=PROC_TIMEOUT_S):
        timer = threading.Timer(timeout, self.kill)
        timer.start()
        try:
            _, status, ru = os.wait4(self.popen.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - self.t0
        self.popen.returncode = os.waitstatus_to_exitcode(status)
        return Proc(self.popen.returncode, wall, ru.ru_utime + ru.ru_stime,
                    ru.ru_maxrss / 1024.0, self.out_path)

    def kill(self):
        self.signal(signal.SIGKILL)

    def terminate(self):
        self.signal(signal.SIGTERM)

    def signal(self, sig):
        try:
            self.popen.send_signal(sig)
        except OSError:
            pass

    def running(self):
        return self.popen.returncode is None


def run(argv, env, cwd, out_path):
    return Child(argv, env, cwd, out_path).wait()


class Work:
    """Scratch directories for one benchmark invocation, and its children."""

    def __init__(self, workload):
        self.root = os.path.join(ROOT, ".bench_build", "work",
                                 "%s-%d" % (workload, os.getpid()))
        shutil.rmtree(self.root, ignore_errors=True)
        os.makedirs(self.root)
        self.count = 0
        self.children = []

    def fresh(self, name):
        self.count += 1
        path = os.path.join(self.root, "%s-%d" % (name, self.count))
        os.makedirs(path)
        return path

    def spawn(self, argv, env, cwd, out_path):
        child = Child(argv, env, cwd, out_path)
        self.children.append(child)
        return child

    def close(self):
        for child in self.children:
            if child.running():
                child.kill()
                child.wait()
        shutil.rmtree(self.root, ignore_errors=True)


# ---- build -------------------------------------------------------------------

def build():
    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        raise BenchError("no CMakeLists.txt at %s: not a clear checkout" % ROOT)
    log = sys.stderr
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD,
                        "-DCMAKE_BUILD_TYPE=Release"], check=True,
                       stdout=log, stderr=log)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(THREADS), "--target",
                    "clear_cli", "perfbench_layers"], check=True, stdout=log,
                   stderr=log)


# ---- workloads ---------------------------------------------------------------

def load_expected(workload, seed):
    if seed != DEFAULT_SEED or not os.path.exists(EXPECTED):
        return None
    with open(EXPECTED) as f:
        return json.load(f).get(workload)


def write_manifest(path, stanzas, seed, outs=False):
    lines = []
    for i, stanza in enumerate(stanzas):
        if i:
            lines.append("---")
        extra = " --out campaign%d.csr" % i if outs else ""
        lines.append("%s --seed %d%s" % (stanza, seed, extra))
    with open(path, "w") as f:
        f.write("\n".join(lines) + "\n")


def read_metrics(path):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError):
        return None


def merge_metrics(docs):
    """Adds counters and histogram buckets of clear-metrics-v1 documents."""
    out = {"counters": {}, "histograms": {}}
    for doc in docs:
        if not doc:
            continue
        for name, v in doc.get("counters", {}).items():
            out["counters"][name] = out["counters"].get(name, 0) + v
        for name, h in doc.get("histograms", {}).items():
            acc = out["histograms"].setdefault(
                name, {"count": 0, "sum": 0, "buckets": {}})
            acc["count"] += h["count"]
            acc["sum"] += h["sum"]
            for lo, c in h["buckets"]:
                acc["buckets"][lo] = acc["buckets"].get(lo, 0) + c
    for h in out["histograms"].values():
        h["buckets"] = sorted(h["buckets"].items())
    return out


def csr_samples(paths, work):
    """Samples in each .csr file, via `clear report --format json`."""
    proc = run([CLEAR, "report", "--format", "json"] + paths,
               program_env("", False), work.root,
               os.path.join(work.fresh("report"), "out.json"))
    if proc.rc != 0:
        raise BenchError("clear report failed on %s" % paths)
    return [row["totals"]["samples"] for row in json.loads(proc.stdout())]


def ledger_records(explore_stdout):
    """Evaluated + anchor + pruned + skipped records `clear explore run`
    reports for its ledger (0 when the summary line is missing)."""
    m = re.search(r"(\d+) evaluated \+ (\d+) anchors, (\d+) pruned, "
                  r"(\d+) skipped", explore_stdout)
    return sum(int(g) for g in m.groups()) if m else 0


class Iteration:
    """One closed-loop invocation of a workload."""

    def __init__(self):
        self.setup_s = []
        self.wall = 0.0
        self.cpu = 0.0
        self.rss_mb = 0.0
        self.ops = {}        # op name -> delivered with verified bytes
        self.samples = 0     # delivered samples
        self.shards = 0      # delivered shard files
        self.combos = 0      # delivered ledger records (explore_warm)
        self.metrics = []    # clear-metrics-v1 documents (traced runs)
        self.dir = self.cache = None  # campaign: work and cache directories
        self.driver = None   # fleet: the driver's Proc

    def add(self, proc):
        self.cpu += proc.cpu
        self.rss_mb = max(self.rss_mb, proc.rss_mb)


class Campaign:
    name = "campaign"

    def __init__(self, seed, work):
        self.seed, self.work = seed, work
        self.checker = OutputChecker(load_expected(self.name, seed))
        self.samples = None
        self.setup_s = []

    def prepare(self, traced):
        """Set-up: a fresh empty cache directory and a dry run that resolves
        every stanza's plan (nothing is simulated)."""
        d = self.work.fresh("campaign")
        manifest = os.path.join(d, "campaign.spec")
        write_manifest(manifest, CAMPAIGN_STANZAS, self.seed, outs=True)
        t0 = time.monotonic()
        cache = os.path.join(d, "cache")
        os.makedirs(cache)
        dry = run([CLEAR, "run", "--spec", manifest, "--dry-run"],
                  program_env(cache, traced), d, os.path.join(d, "dry.txt"))
        dt = time.monotonic() - t0
        if dry.rc != 0:
            raise BenchError("campaign manifest does not resolve")
        return d, manifest, cache, dt

    def setup(self, repeats=SETUP_REPEATS[name]):
        self.setup_s += [self.prepare(False)[3] for _ in range(repeats)]

    def iterate(self, traced):
        it = Iteration()
        d, manifest, cache, dt = self.prepare(traced)
        it.setup_s.append(dt)
        argv = [CLEAR, "run", "--spec", manifest]
        if traced:
            argv += ["--metrics-out", os.path.join(d, "metrics.json")]
        proc = run(argv, program_env(cache, traced), d, os.path.join(d, "out.txt"))
        it.wall = proc.wall
        it.add(proc)
        outs = [os.path.join(d, "campaign%d.csr" % i)
                for i in range(len(CAMPAIGN_STANZAS))]
        files = {"stanza%d" % i: {os.path.basename(path): path}
                 for i, path in enumerate(outs)}
        it.ops = self.checker.check(files) if proc.rc == 0 else {
            op: False for op in files}
        if self.samples is None and all(it.ops.values()):
            self.samples = csr_samples(outs, self.work)
        for i in range(len(outs)):
            if it.ops["stanza%d" % i] and self.samples:
                it.samples += self.samples[i]
                it.shards += 1
        if traced:
            it.metrics.append(read_metrics(os.path.join(d, "metrics.json")))
        it.dir, it.cache = d, cache
        return it


class ExploreWarm:
    name = "explore_warm"

    def __init__(self, seed, work):
        self.seed, self.work = seed, work
        self.checker = OutputChecker(load_expected(self.name, seed))
        self.cache = None
        self.setup_s = []
        self.samples_per_call = {}

    def calls(self):
        out = []
        for core in EXPLORE_CORES:
            for metric in EXPLORE_METRICS:
                for target in EXPLORE_TARGETS:
                    for prune in (True, False):
                        name = "%s-%s-%s-%s" % (core, metric, target,
                                                "prune" if prune else "full")
                        args = ["--core", core, "--metric", metric,
                                "--target", target]
                        out.append((name, args + ([] if prune else ["--no-prune"])))
        return out

    def explore_argv(self, core_args, ledger):
        return [CLEAR, "explore", "run", "--seed", str(self.seed), "--benches",
                EXPLORE_SUITE, "--ledger", ledger, "--quiet"] + core_args

    def fill(self):
        """One cold `explore run --no-prune` per core into a fresh cache."""
        d = self.work.fresh("fill")
        cache = os.path.join(d, "cache")
        t0 = time.monotonic()
        os.makedirs(cache)
        for core in EXPLORE_CORES:
            argv = self.explore_argv(["--core", core, "--no-prune"],
                                     os.path.join(d, core + ".cxl"))
            proc = run(argv, program_env(cache, False), d,
                       os.path.join(d, core + ".txt"))
            if proc.rc != 0:
                raise BenchError("explore cache fill failed on %s" % core)
        return time.monotonic() - t0, cache

    def setup(self, repeats=SETUP_REPEATS[name]):
        for _ in range(repeats):
            dt, self.cache = self.fill()
            self.setup_s.append(dt)
        # Samples each call reads back from the pack: every call profiles
        # all of its core's layer variants, so one traced call per core
        # counts them (cache hits x per-FF samples x flip-flops).
        d = self.work.fresh("calibrate")
        for core in EXPLORE_CORES:
            m = os.path.join(d, core + ".json")
            proc = run(self.explore_argv(["--core", core, "--metrics-out", m],
                                         os.path.join(d, core + ".cxl")),
                       program_env(self.cache, True), d,
                       os.path.join(d, core + ".txt"))
            dry = run([CLEAR, "run", "--core", core, "--bench", "gcc",
                       "--dry-run"], program_env("", False), d,
                      os.path.join(d, core + ".dry"))
            doc = read_metrics(m)
            if proc.rc != 0 or dry.rc != 0 or not doc:
                raise BenchError("explore calibration failed on %s" % core)
            per_ff = int(proc.stdout().split(" per-FF samples")[0].split()[-1])
            ffs = int(dry.stdout().split(" flip-flops")[0].split()[-1])
            self.samples_per_call[core] = doc["counters"]["cache.hit"] * per_ff * ffs

    def iterate(self, traced):
        it = Iteration()
        d = self.work.fresh("sweep")
        files, records = {}, {}
        it.ops = {}
        for name, args in self.calls():
            ledger = os.path.join(d, name + ".cxl")
            argv = self.explore_argv(args, ledger)
            if traced:
                argv += ["--metrics-out", os.path.join(d, name + ".json")]
            proc = run(argv, program_env(self.cache, traced), d,
                       os.path.join(d, name + ".txt"))
            it.wall += proc.wall
            it.add(proc)
            records[name] = ledger_records(proc.stdout())
            if proc.rc == 0:
                files[name] = {name + ".cxl": ledger}
            else:
                it.ops[name] = False
            if traced:
                it.metrics.append(read_metrics(os.path.join(d, name + ".json")))
        it.ops.update(self.checker.check(files))
        for name, ok in it.ops.items():
            if ok:
                it.shards += 1
                it.samples += self.samples_per_call[name.split("-")[0]]
                it.combos += records[name]
        return it


class Fleet:
    name = "fleet"

    def __init__(self, seed, work):
        self.seed, self.work = seed, work
        self.checker = OutputChecker(load_expected(self.name, seed))
        self.samples = None
        self.setup_s = []

    def setup(self, repeats=SETUP_REPEATS[name]):
        for _ in range(repeats):
            workers, _, _, dt = self.start_workers(self.work.fresh("setup"), False)
            self.setup_s.append(dt)
            for w in workers:
                w.terminate()
            for w in workers:
                if w.wait().rc != 0:
                    raise BenchError("fleet worker did not exit cleanly")

    def start_workers(self, d, traced):
        """Starts the loopback workers; returns (children, sockets, caches, s)."""
        t0 = time.monotonic()
        children, socks, caches = [], [], []
        for w in range(FLEET_WORKERS):
            sock = os.path.join(d, "w%d.sock" % w)
            cache = os.path.join(d, "cache%d" % w)
            os.makedirs(cache)
            argv = [CLEAR, "serve", "--socket", sock, "--quiet", "--name",
                    "w%d" % w]
            if traced:
                argv += ["--heartbeat-ms", "100"]
            children.append(self.work.spawn(
                argv, program_env(cache, traced, WORKER_THREADS), d,
                os.path.join(d, "w%d.txt" % w)))
            socks.append(sock)
            caches.append(cache)
        for sock in socks:
            while True:
                if time.monotonic() - t0 > 30:
                    raise BenchError("fleet worker did not start listening")
                try:
                    with socket.socket(socket.AF_UNIX) as s:
                        s.connect(sock)
                    break
                except OSError:
                    time.sleep(0.002)
        return children, socks, caches, time.monotonic() - t0

    def iterate(self, traced, probe=False):
        it = Iteration()
        d = self.work.fresh("fleet")
        manifest = os.path.join(d, "fleet.spec")
        write_manifest(manifest, FLEET_STANZAS, self.seed)
        workers, socks, caches, setup = self.start_workers(d, traced)
        it.setup_s.append(setup)
        out_dir = os.path.join(d, "out")
        if probe:
            argv = [LAYERS, "fleet", "--spec", manifest, "--shards",
                    str(FLEET_SHARDS), "--out-dir", out_dir, "--pack", caches[0],
                    "--scratch", d] + socks
            env = program_env("", True)
        else:
            argv = [CLEAR, "fleet", "run", "--spec", manifest, "--shards",
                    str(FLEET_SHARDS), "--out-dir", out_dir, "--quiet",
                    "--shutdown"] + socks
            if traced:
                argv += ["--metrics-out", os.path.join(d, "metrics.json")]
            env = program_env("", traced)
        driver = self.work.spawn(argv, env, d, os.path.join(d, "driver.txt"))
        proc = driver.wait()
        if proc.rc != 0:
            for w in workers:
                w.kill()
        it.wall = proc.wall
        it.add(proc)
        it.driver = proc
        for w in workers:
            it.add(w.wait())
        files = {"campaign%d.csr" % i: os.path.join(out_dir, "campaign%d.csr" % i)
                 for i in range(len(FLEET_STANZAS))}
        ok = proc.rc == 0 and all(self.checker.check({"run": files}).values())
        it.ops = {"shard%d" % k: ok for k in range(FLEET_SHARDS)}
        if ok:
            if self.samples is None:
                self.samples = sum(csr_samples(sorted(files.values()), self.work))
            it.samples = self.samples
            it.shards = FLEET_SHARDS
        if traced and not probe:
            it.metrics.append(read_metrics(os.path.join(d, "metrics.json")))
        return it


WORKLOADS = {w.name: w for w in (Campaign, ExploreWarm, Fleet)}


# ---- end-to-end run ------------------------------------------------------------

def closed_loop(bench, seconds, traced_pattern):
    """Runs iterations until `seconds` have passed (at least 3)."""
    its = []
    t0 = time.monotonic()
    i = 0
    while len(its) < 3 or time.monotonic() - t0 < seconds:
        its.append((traced_pattern(i), bench.iterate(traced_pattern(i))))
        i += 1
    return its


def end_to_end(bench, seconds):
    its = [it for _, it in closed_loop(bench, seconds, lambda i: False)]
    setup = bench.setup_s + [s for it in its for s in it.setup_s]
    walls = [it.wall for it in its]
    metrics = {
        "samples_per_s": statistics.median(it.samples / it.wall for it in its),
        "shards_per_s": statistics.median(it.shards / it.wall for it in its),
        "wall_s": statistics.median(walls),
        "cpu_s": statistics.median(it.cpu for it in its),
        "peak_rss_mb": statistics.median(it.rss_mb for it in its),
        "setup_s": statistics.median(setup),
        # Printed only: a ledger-record rate exists on explore_warm alone.
        "combos_per_s": statistics.median(it.combos / it.wall for it in its),
    }
    return its, metrics


# ---- traced run ------------------------------------------------------------------

def layer_timing(out, name, median, tail, pct, n):
    out[name + ".p50"] = median
    out[name + ".tail"] = tail
    out[name + ".n"] = n
    out[name + ".tail_pct"] = pct  # printed, not part of the JSON metrics


def probe_output(proc, mode):
    """The JSON object perfbench_layers prints as its last line."""
    if proc.rc != 0:
        raise BenchError("perfbench_layers %s failed:\n%s" % (mode, proc.stdout()))
    return json.loads(proc.stdout().strip().splitlines()[-1])


def probe(mode, args, work, cache=""):
    d = work.fresh("probe-" + mode)
    proc = run([LAYERS, mode] + args + ["--scratch", d], program_env(cache, True),
               d, os.path.join(d, "out.json"))
    return probe_output(proc, mode)


def hist(doc, name):
    return (doc or {}).get("histograms", {}).get(name)


def hist_sum(doc, name):
    h = hist(doc, name)
    return h["sum"] if h else 0


def campaign_layers(seed, work, traced_it, out):
    """Campaign histograms (sample split) plus the campaign-mode probe."""
    doc = merge_metrics(traced_it.metrics)
    layer_timing(out, "inject.sample_us",
                 *summarize_hist(hist(doc, "campaign.sample.classify"), 1e-3))
    worker = (hist_sum(doc, "campaign.sample.classify") +
              hist_sum(doc, "campaign.golden.record"))
    out["inject.fork_replay_share"] = hist_sum(doc, "campaign.fork.replay") / worker
    out["inject.restore_share"] = hist_sum(doc, "campaign.snapshot.restore") / worker
    spec = os.path.join(traced_it.dir, "probe.spec")
    write_manifest(spec, CAMPAIGN_STANZAS, seed)  # without the --out flags
    d = probe("campaign", ["--spec", spec, "--pack", traced_it.cache], work)
    for name in ("arch.snapshot_us", "arch.restore_us", "arch.state_matches_us",
                 "inject.classify_ns", "inject.cachepack.put_us"):
        layer_timing(out, name, *summarize(d["samples"][name]))
    for name in ("arch.ino.cycles_per_s", "arch.ooo.cycles_per_s",
                 "isa.iss.instrs_per_s"):
        out[name] = d["values"][name]


def explore_layers(seed, work, bench, traced_it, out):
    """Engine queue wait of the traced sweep plus the explore-mode probe;
    returns the probe's cache misses."""
    doc = merge_metrics(traced_it.metrics)
    layer_timing(out, "engine.queue_wait_us",
                 *summarize_hist(hist(doc, "engine.queue.wait"), 1e-3))
    d = probe("explore", ["--cache", bench.cache, "--seed", str(seed),
                          "--benches", EXPLORE_SUITE], work, bench.cache)
    for name in ("inject.cachepack.open_ms", "inject.cachepack.get_us",
                 "soft.variant_build_us", "core.profiles_ms",
                 "core.evaluate_combo_us", "core.cost_lower_bound_us",
                 "explore.ledger.append_us", "engine.submit_cached_us"):
        layer_timing(out, name, *summarize(d["samples"][name]))
    v = d["values"]
    out["explore.pruned_frac"] = (
        sum(v["explore.pruned." + c] for c in EXPLORE_CORES) /
        sum(v["explore.records." + c] for c in EXPLORE_CORES))
    return d["metrics"]["counters"].get("cache.miss", 0)


def fleet_layers(bench, out):
    """A fleet iteration driven by the probe; returns the iteration and the
    driver's steal + redispatch count."""
    it = bench.iterate(True, probe=True)
    d = probe_output(it.driver, "fleet")
    for name in ("inject.wire.encode_us", "inject.wire.decode_us",
                 "plan.resolve_ms", "fleet.shard_turnaround_ms"):
        layer_timing(out, name, *summarize(d["samples"][name]))
    layer_timing(out, "fleet.ack_rtt_us",
                 *summarize_hist(hist(d["metrics"], "fleet.ack.rtt"), 1e-3))
    for name in ("inject.wire.merge_total_ms", "fleet.worker_idle_frac",
                 "protocol.frame_decode_mb_per_s", "fleet.run_s"):
        out[name] = d["values"][name]
    wm = d["worker_metrics"] or {}
    worker = (hist_sum(wm, "campaign.sample.classify") +
              hist_sum(wm, "campaign.golden.record"))
    out["inject.golden_share"] = (hist_sum(wm, "campaign.golden.record") / worker
                                  if worker else 0.0)
    # The probe's own obs counters are the driver-side scheduling record.
    counters = d["metrics"]["counters"]
    return it, counters.get("fleet.steal", 0) + counters.get("fleet.redispatch", 0)


def traced(bench, seconds, work, seed):
    """Tracing overhead of `bench`, its guard, and the full per-layer split.

    Untraced and traced iterations of the workload alternate for `seconds`;
    the split is then taken layer by layer, each on the workload the layer
    table in NOTES.md names, so every traced run reports every layer.
    """
    its = closed_loop(bench, seconds, lambda i: i % 2 == 1)
    plain = [it.wall for t, it in its if not t]
    trace = [it for t, it in its if t]
    out = {"obs.overhead_frac": statistics.median(it.wall for it in trace) /
           statistics.median(plain) - 1.0}
    docs = [m for it in trace for m in it.metrics]
    # A counter absent from a metrics document was never incremented.
    c = merge_metrics(docs)["counters"]
    guards = {"traced metrics documents present":
              bool(docs) and all(m is not None for m in docs)}
    if bench.name == "campaign":
        guards["campaign cache.hit == 0"] = c.get("cache.hit", 0) == 0
    elif bench.name == "explore_warm":
        guards["explore cache.miss == 0"] = c.get("cache.miss", 0) == 0
        guards["explore campaign.samples == 0"] = c.get("campaign.samples", 0) == 0
    else:
        guards["fleet steal == redispatch == 0"] = (
            c.get("fleet.steal", 0) == 0 and c.get("fleet.redispatch", 0) == 0)

    camp = bench if bench.name == "campaign" else Campaign(seed, work)
    camp_it = trace[0] if bench.name == "campaign" else camp.iterate(True)
    campaign_layers(seed, work, camp_it, out)

    exp = bench if bench.name == "explore_warm" else ExploreWarm(seed, work)
    if exp is not bench:
        exp.setup(repeats=1)
    exp_it = trace[0] if bench.name == "explore_warm" else exp.iterate(True)
    probe_misses = explore_layers(seed, work, exp, exp_it, out)
    if bench.name == "explore_warm":
        guards["explore probe cache.miss == 0"] = probe_misses == 0

    flt = bench if bench.name == "fleet" else Fleet(seed, work)
    flt_it, requeued = fleet_layers(flt, out)
    if bench.name == "fleet":
        guards["fleet probe steal == redispatch == 0"] = requeued == 0
    ops = [ok for _, it in its for ok in it.ops.values()]
    ops += list(camp_it.ops.values()) + list(exp_it.ops.values())
    ops += list(flt_it.ops.values())
    return out, guards, ops


# ---- main ------------------------------------------------------------------------

def make_result(values, trace, ops, guards):
    """The result object: correct/attempted/failed and the metric table."""
    failed = sum(1 for ok in ops if not ok)
    return {
        "correct": failed == 0 and all(guards.values()),
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in metric_table(trace)},
    }


def metric_table(trace):
    if not trace:
        return [(n, u) for n, u in END_TO_END]
    rows = []
    for name, unit in LAYER_TIMINGS:
        rows += [(name + ".p50", unit), (name + ".tail", unit),
                 (name + ".n", "count")]
    return rows + LAYER_VALUES


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expected", action="store_true",
                    help="record this run's output hashes as the committed "
                         "reference for the default seed")
    args = ap.parse_args(argv)
    if args.write_expected and args.seed != DEFAULT_SEED:
        ap.error("--write-expected needs the default seed")

    build()
    work = Work(args.workload)
    try:
        bench = WORKLOADS[args.workload](args.seed, work)
        if args.write_expected:
            bench.checker = OutputChecker()
        bench.setup()
        guards = {}
        if args.trace:
            values, guards, ops = traced(bench, args.seconds, work, args.seed)
        else:
            its, values = end_to_end(bench, args.seconds)
            ops = [ok for it in its for ok in it.ops.values()]
            print("iterations wall_s " + " ".join("%.3f" % it.wall for it in its))
            if values["combos_per_s"]:
                print("info       combos_per_s %.6g 1/s" % values["combos_per_s"])
        if args.write_expected:
            expected = {}
            if os.path.exists(EXPECTED):
                with open(EXPECTED) as f:
                    expected = json.load(f)
            expected[args.workload] = bench.checker.reference
            with open(EXPECTED, "w") as f:
                json.dump(expected, f, indent=2, sort_keys=True)
                f.write("\n")
    finally:
        work.close()

    failed = sum(1 for ok in ops if not ok)
    for name, ok in sorted(guards.items()):
        print("guard      %-40s %s" % (name, "ok" if ok else "TRIPPED: run invalid"))
    print("operations %d attempted, %d failed (failed_frac %.6f)"
          % (len(ops), failed, failed / len(ops)))
    if args.trace:
        print("info       fleet run %.3f s (probe-driven), of which the live "
              "re-merge replays in %.3f s" % (values["fleet.run_s"],
                                             values["inject.wire.merge_total_ms"] / 1e3))
    for name, unit in metric_table(args.trace):
        extra = ""
        if name.endswith(".tail"):
            extra = "  (p%g)" % values[name[:-5] + ".tail_pct"]
        print("metric     %-34s %16.6g %s%s" % (name, values[name], unit, extra))
    print(json.dumps(make_result(values, args.trace, ops, guards)))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, subprocess.CalledProcessError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        sys.exit(1)
