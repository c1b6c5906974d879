#!/usr/bin/env python3
"""End-to-end benchmark of reomp's record and replay (paper section VI).

Runs the paper's programs under its seven configurations -- without reomp
("plain") and {ST, DC, DE} x {record, replay} -- at 2 threads, checks every
output, and prints the metrics as one JSON object on the last line of
standard output.

    python3 e2ebench/run.py --workload gate_storm --seed 1 --seconds 25 --trace 0
    python3 e2ebench/run.py --smoke        # every workload, tiny, every check

Run from anywhere inside a source tree: the helper binary is built from
src/ (see e2ebench/CMakeLists.txt) into $CARGO_TARGET_DIR (default
.bench_build) under the tree's root, and record traces are written there
too. See e2ebench/README.md for the workloads, the metrics and how to read
them.
"""

import argparse
import contextlib
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time

T_IMPORT = time.monotonic()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

THREADS = 2
STRATEGIES = ("st", "dc", "de")
CONFIGS = ("plain",) + tuple(f"{s}_{m}" for s in STRATEGIES
                             for m in ("record", "replay"))
# Every operation of the workloads runs in well under a second on the
# reference host; one that is still running at the deadline is hung.
OP_DEADLINE_S = 3.0
LAYER_DEADLINE_S = 8.0
# The plain pass is short, so each round times it this many times.
PLAIN_REPEATS = 3
# A hung attempt is killed and the operation run again, up to this many
# attempts in all; only an operation that hangs on every attempt counts as
# failed (see README, "Hung operations").
OP_ATTEMPTS = 6

# The synthetic benchmarks' defaults (src/apps/synthetic.hpp).
SYNTH_TOTAL_ITERS = 60000
SYNTH_REDUCTION_ITERS = 50000000
SYNTHETICS = ("omp_reduction", "omp_critical", "omp_atomic", "data_race")

FLIGHT_ENV = {"REOMP_TRACE_COMPRESS": "delta+lz",
              "REOMP_TRACE_WINDOW_EVENTS": "50000"}

# name -> (programs as (name, scale), REOMP_* settings of every operation).
# Each program is scaled on its own so that its operations take tens to
# hundreds of milliseconds here: long enough that the ~2 ms of engine
# set-up does not dominate, short enough for several rounds in a run.
WORKLOADS = {
    "gate_storm": ([("omp_reduction", 8.0), ("omp_critical", 4.0),
                    ("omp_atomic", 4.0), ("data_race", 4.0)], {}),
    "proxy_apps": ([("AMG", 60.0), ("QuickSilver", 60.0), ("miniFE", 40.0),
                    ("HACC", 20.0), ("HPCCG", 2.0)], {}),
    "flight_recorder": ([("data_race", 4.0), ("miniFE", 40.0)], FLIGHT_ENV),
}
SMOKE_SCALE = 0.05
SMOKE_WINDOW_EVENTS = "2000"

END_TO_END = {
    "setup_s": "s", "plain_s": "s",
    "st_record_s": "s", "dc_record_s": "s", "de_record_s": "s",
    "st_replay_s": "s", "dc_replay_s": "s", "de_replay_s": "s",
    "st_trace_bytes": "bytes", "dc_trace_bytes": "bytes",
    "de_trace_bytes": "bytes",
}


def die(msg):
    print(f"e2ebench: {msg}", file=sys.stderr)
    sys.exit(2)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def process_start():
    """Monotonic time at which this process started (from /proc)."""
    try:
        with open("/proc/self/stat") as f:
            fields = f.read().rsplit(")", 1)[1].split()
        age = (time.clock_gettime(time.CLOCK_BOOTTIME)
               - int(fields[19]) / os.sysconf("SC_CLK_TCK"))
        return min(T_IMPORT, time.monotonic() - age)
    except (OSError, ValueError, IndexError):
        return T_IMPORT


# ------------------------------------------------------------------ tracing

class Tracer:
    """Spans (name, parent, start, end) kept in memory, written at exit."""

    def __init__(self, enabled):
        self.enabled = enabled
        self.spans = []
        self.stack = []
        self.last_closed = -1

    @contextlib.contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append({"name": name, "parent": parent,
                           "t0": time.monotonic_ns(), "t1": 0})
        self.stack.append(idx)
        try:
            yield
        finally:
            self.stack.pop()
            self.spans[idx]["t1"] = time.monotonic_ns()
            self.last_closed = idx

    def adopt(self, child_spans, last_closed=False):
        """Attach spans a child process reported under the open span (or
        under the span that closed last)."""
        if not self.enabled:
            return
        base = len(self.spans)
        if last_closed:
            top = self.last_closed
        else:
            top = self.stack[-1] if self.stack else -1
        for s in child_spans:
            self.spans.append({"name": s["name"],
                               "parent": top if s["parent"] < 0
                               else base + s["parent"],
                               "t0": s["t0"], "t1": s["t1"]})

    def self_times(self):
        """Self time per span name: duration minus what children cover."""
        children = {}
        for i, s in enumerate(self.spans):
            children.setdefault(s["parent"], []).append(i)
        out = {}
        for i, s in enumerate(self.spans):
            covered, end = 0, s["t0"]
            for j in sorted(children.get(i, []),
                            key=lambda k: self.spans[k]["t0"]):
                c0 = max(self.spans[j]["t0"], end)
                c1 = min(self.spans[j]["t1"], s["t1"])
                if c1 > c0:
                    covered += c1 - c0
                    end = c1
            key = s["name"]
            out[key] = out.get(key, 0.0) + (s["t1"] - s["t0"] - covered) * 1e-9
        return out


# -------------------------------------------------------------------- build

def source_digest():
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    files = []
    for d, _, names in os.walk(src):
        files += [os.path.join(d, n) for n in names
                  if n.endswith((".cpp", ".hpp"))]
    files += [os.path.join(HERE, n) for n in ("CMakeLists.txt", "e2e_tool.cpp")]
    for path in sorted(files):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def build_root():
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.abspath(os.path.join(ROOT, d))


def ensure_built():
    """Build e2e_tool unless a build of these sources from this tree is
    there. The build directory is keyed by the tree and its source digest,
    so two trees sharing one $CARGO_TARGET_DIR do not overwrite each
    other's build."""
    if not os.path.isdir(os.path.join(ROOT, "src", "core")):
        die(f"no reomp source tree at {ROOT}/src: nothing to benchmark")
    digest = source_digest()
    key = hashlib.sha256(f"{ROOT}\0{digest}".encode()).hexdigest()[:16]
    bdir = os.path.join(build_root(), "e2ebench", f"build-{key}")
    exe = os.path.join(bdir, "e2e_tool")
    stamp = os.path.join(bdir, "source.sha256")
    with contextlib.suppress(OSError):
        with open(stamp) as f:
            if f.read().strip() == digest and os.access(exe, os.X_OK):
                return exe, digest
    log("e2ebench: building e2e_tool ...")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    for cmd in (["cmake", "-S", HERE, "-B", bdir,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                ["cmake", "--build", bdir, "-j", jobs]):
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            die("build failed: " + " ".join(cmd))
    with open(stamp, "w") as f:
        f.write(digest + "\n")
    return exe, digest


# --------------------------------------------------------------- host facts

def host_facts(bdir, trace_root, pin, digest):
    facts = {"nproc": os.cpu_count(),
             "affinity_cpus": len(os.sched_getaffinity(0)),
             "threads": THREADS, "pinned": bool(pin),
             "src_sha256": digest[:16]}
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    facts["cpu"] = line.split(":", 1)[1].strip()
                    break
    cache = {}
    with contextlib.suppress(OSError):
        with open(os.path.join(bdir, "CMakeCache.txt")) as f:
            for line in f:
                if ":" in line and "=" in line:
                    k, v = line.rstrip("\n").split("=", 1)
                    cache[k.split(":")[0]] = v
    facts["build_type"] = cache.get("CMAKE_BUILD_TYPE", "?")
    cxx = cache.get("CMAKE_CXX_COMPILER")
    if cxx:
        with contextlib.suppress(OSError):
            out = subprocess.run([cxx, "--version"], capture_output=True,
                                 text=True).stdout
            facts["compiler"] = out.splitlines()[0] if out else cxx
    git = shutil.which("git")
    sha = None
    if git:
        r = subprocess.run([git, "-C", ROOT, "rev-parse", "HEAD"],
                           capture_output=True, text=True)
        sha = r.stdout.strip() if r.returncode == 0 else None
    facts["git_sha"] = sha or "unknown (not a git checkout)"
    best = ("", "?")
    with contextlib.suppress(OSError):
        real = os.path.realpath(trace_root)
        with open("/proc/mounts") as f:
            for line in f:
                parts = line.split()
                mnt, fstype = parts[1], parts[2]
                if (real == mnt or real.startswith(mnt.rstrip("/") + "/")) \
                        and len(mnt) >= len(best[0]):
                    best = (mnt, fstype)
    facts["trace_fs"] = f"{best[1]} ({best[0]})"
    return facts


def cpu_ticks():
    """(steal, total) jiffies of the whole machine, from /proc/stat."""
    with contextlib.suppress(OSError, ValueError, IndexError):
        with open("/proc/stat") as f:
            ticks = [int(x) for x in f.readline().split()[1:]]
        return ticks[7] if len(ticks) > 7 else 0, sum(ticks[:8])
    return None


def steal_share(before):
    """Share of CPU time the hypervisor gave to other guests since
    `before`: when it rises, every time metric of the run rises with it."""
    after = cpu_ticks()
    if before is None or after is None or after[1] <= before[1]:
        return None
    return round((after[0] - before[0]) / (after[1] - before[1]), 4)


# --------------------------------------------------------------- operations

class Runner:
    def __init__(self, tool, trace_root, pin, tracer):
        self.tool = tool
        self.trace_root = trace_root
        self.pin = pin
        self.tracer = tracer
        self.process_attempts = 0
        self.hung_retries = 0
        self.base_env = {k: v for k, v in os.environ.items()
                         if not k.startswith("REOMP_")}

    def call(self, argv, env, deadline, span):
        """Run the tool once per attempt; a hung attempt is killed at the
        deadline and retried. Returns (parsed JSON or None, error text)."""
        err = ""
        for _ in range(OP_ATTEMPTS):
            self.process_attempts += 1
            with self.tracer.span(span):
                proc = subprocess.Popen([self.tool] + argv, env=env,
                                        stdout=subprocess.PIPE,
                                        stderr=subprocess.PIPE, text=True)
                try:
                    out, errout = proc.communicate(timeout=deadline)
                except subprocess.TimeoutExpired:
                    proc.kill()
                    proc.communicate()
                    self.hung_retries += 1
                    err = f"outlived its {deadline:g} s deadline: killed"
                    log(f"e2ebench: {span}: {err}")
                    continue
                except BaseException:
                    proc.kill()
                    proc.communicate()
                    raise
            lines = out.strip().splitlines()
            try:
                res = json.loads(lines[-1]) if lines else None
            except json.JSONDecodeError:
                res = None
            if proc.returncode != 0 or res is None or "error" in res:
                detail = (res or {}).get("error") or errout.strip()[-300:]
                return None, f"exit {proc.returncode}: {detail}"
            return res, ""
        return None, err

    def op(self, program, scale, seed, mode, strategy, env_extra,
           deadline=OP_DEADLINE_S):
        env = dict(self.base_env)
        env.update(env_extra)
        env["REOMP_MODE"] = mode
        if mode != "off":
            env["REOMP_STRATEGY"] = strategy
            env["REOMP_DIR"] = self.rec_dir(program, strategy)
        argv = ["op", "--program", program, "--scale", repr(scale),
                "--seed", str(seed), "--threads", str(THREADS),
                "--pin", "1" if self.pin else "0"]
        cfg = "plain" if mode == "off" else f"{strategy}_{mode}"
        return self.call(argv, env, deadline, f"op.{program}.{cfg}")

    def rec_dir(self, program, strategy):
        return os.path.join(self.trace_root, f"{program}.{strategy}")


def dir_bytes(path):
    total = 0
    for d, _, names in os.walk(path):
        for n in names:
            total += os.path.getsize(os.path.join(d, n))
    return total


def scaled(scale, base, min_value):
    """Mirror of apps::scaled (src/apps/app_common.hpp)."""
    return max(int(float(base) * scale), min_value)


def synthetic_expectations(program, scale):
    """(expected gated events, checksum predicate) from the parameters."""
    iters = scaled(scale, SYNTH_TOTAL_ITERS, 100)
    if program == "omp_reduction":
        red = scaled(scale, SYNTH_REDUCTION_ITERS, 1000)
        return THREADS, (lambda v: v == float(red)), f"== {red}"
    if program in ("omp_critical", "omp_atomic"):
        return iters, (lambda v: v == float(iters)), f"== {iters}"
    if program == "data_race":
        return 2 * iters, (lambda v: 0 < v <= iters), f"in (0, {iters}]"
    raise ValueError(program)


def check_op(program, scale, cfg, res):
    """Problems with one operation's own output."""
    problems = []
    if program in SYNTHETICS:
        events, ok, want = synthetic_expectations(program, scale)
        if not ok(res["checksum_value"]):
            problems.append(f"{program} {cfg}: sum {res['checksum_value']!r}"
                            f" not {want}")
        if cfg != "plain" and res["events"] != events:
            problems.append(f"{program} {cfg}: {res['events']} gated events,"
                            f" parameters give {events}")
    if cfg.endswith("_record") and res["decoded_entries"] != res["events"]:
        problems.append(f"{program} {cfg}: {res['decoded_entries']} entries"
                        f" decoded from the trace, engine counted"
                        f" {res['events']}")
    return problems


def check_replay(program, strategy, rec, rep):
    """A replay must reproduce its recording bit for bit."""
    problems = []
    if rep["checksum"] != rec["checksum"]:
        problems.append(f"{program} {strategy}_replay: checksum"
                        f" {rep['checksum']} != recorded {rec['checksum']}")
    if rep["events"] != rec["events"]:
        problems.append(f"{program} {strategy}_replay: {rep['events']} events"
                        f" != recorded {rec['events']}")
    return problems


def check_strategies_agree(program, records):
    """Synthetic gated-event counts do not depend on the strategy."""
    counts = {s: r["events"] for s, r in records.items()}
    if program in SYNTHETICS and len(set(counts.values())) > 1:
        return [f"{program}: event counts differ across strategies {counts}"]
    return []


class Round:
    """One pass over a workload's programs in all seven configurations."""

    def __init__(self):
        self.times = {c: [0.0] * (PLAIN_REPEATS if c == "plain" else 1)
                      for c in CONFIGS}
        self.complete = {c: True for c in CONFIGS}
        self.bytes = {s: 0 for s in STRATEGIES}
        self.events = {s: 0 for s in STRATEGIES}
        self.per_program = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, cfg, what):
        self.failed += 1
        self.complete[cfg] = False
        log(f"e2ebench: FAILED {what}")


def run_round(runner, programs, seeds, env_extra, deadline=OP_DEADLINE_S):
    rnd = Round()
    for program, scale in programs:
        seed = seeds[program]

        def op(mode, strategy, cfg, repeat=0):
            rnd.attempted += 1
            res, err = runner.op(program, scale, seed, mode, strategy,
                                 env_extra, deadline)
            if res is None:
                rnd.fail(cfg, f"{program} {cfg}: {err}")
                return None
            rnd.problems += check_op(program, scale, cfg, res)
            rnd.times[cfg][repeat] += res["elapsed_s"]
            rnd.per_program.setdefault((program, cfg), []).append(
                res["elapsed_s"])
            runner.tracer.adopt([{"name": f"apps.{program}.{cfg}",
                                  "parent": -1, "t0": res["t0_ns"],
                                  "t1": res["t1_ns"]}], last_closed=True)
            return res

        for k in range(PLAIN_REPEATS):
            op("off", "", "plain", k)
        records = {}
        for s in STRATEGIES:
            rec = op("record", s, f"{s}_record")
            if rec is None:
                # The replay has nothing to replay: not attempted, and not
                # counted as a second failure.
                rnd.complete[f"{s}_replay"] = False
                continue
            records[s] = rec
            nbytes = dir_bytes(runner.rec_dir(program, s))
            rnd.bytes[s] += nbytes
            rnd.per_program[(program, f"{s}_bytes")] = [nbytes]
            rnd.events[s] += rec["events"]
            rnd.per_program[(program, f"{s}_events")] = [rec["events"]]
            rep = op("replay", s, f"{s}_replay")
            if rep is not None:
                rnd.problems += check_replay(program, s, rec, rep)
        rnd.problems += check_strategies_agree(program, records)
    return rnd


# ------------------------------------------------------------------- layers

def run_layers(runner, programs, env_extra, smoke):
    """Per-layer metrics from the helper's timed calls into each layer."""
    env = dict(runner.base_env)
    env.update(env_extra)
    common = ["--threads", str(THREADS), "--pin", "1" if runner.pin else "0",
              "--gate-iters", "2000" if smoke else "40000",
              "--reps", "1" if smoke else "5",
              "--scratch", os.path.join(runner.trace_root, "layers")]
    sections = [["--section", "romp"]]
    sections += [["--section", "gate", "--strategy", s] for s in STRATEGIES]
    sections += [["--section", "openfin", "--strategy", s] for s in STRATEGIES]
    sections += [["--section", "recorded", "--strategy", s]
                 + [a for p, _ in programs
                    for a in ("--dir", runner.rec_dir(p, s))]
                 for s in STRATEGIES]
    sections.append(["--section", "lz"]
                    + [a for p, _ in programs for s in STRATEGIES
                       for a in ("--dir", runner.rec_dir(p, s))])
    metrics, problems = {}, []
    for argv in sections:
        name = "layers." + argv[1] + (f".{argv[3]}" if "--strategy" in argv
                                      else "")
        with runner.tracer.span(name):
            res, err = runner.call(["layers"] + common + argv, env,
                                   LAYER_DEADLINE_S, name + ".call")
            if res is None:
                problems.append(f"{name}: {err}")
                continue
            runner.tracer.adopt(res["spans"])
        metrics.update(res["metrics"])
    return metrics, problems


PER_LAYER_UNITS = {
    "apps.%s_s": "s",
    "core.events.%s": "count",
    "core.gate_record_ns.%s": "ns", "core.gate_replay_ns.%s": "ns",
    "core.record_open_ms": "ms", "core.replay_open_ms.%s": "ms",
    "core.finalize_ms.%s": "ms",
    "trace.decode_ms.%s": "ms", "trace.stream_read_ms.%s": "ms",
    "trace.encode_ms.%s": "ms",
    "trace.entries.%s": "count", "trace.raw_bytes.%s": "bytes",
    "trace.wire_bytes.%s": "bytes",
    "common.lz_compress_MBps": "MB/s", "common.lz_decompress_MBps": "MB/s",
    "romp.region_us": "us", "romp.barrier_us": "us",
    "romp.team_setup_ms": "ms",
    "ops.hung_retries": "count",
}


def per_layer_names():
    names = {}
    for pattern, unit in PER_LAYER_UNITS.items():
        if "%s" not in pattern:
            names[pattern] = unit
        elif pattern.startswith("apps."):
            for c in CONFIGS:
                names[pattern % c] = unit
        else:
            for s in STRATEGIES:
                names[pattern % s] = unit
    return names


def attribution(e2e, layer, n_programs):
    """How much of each configuration's gap over plain the layer costs
    explain: events x gate cost + engine open + finalize."""
    rows = []
    for s in STRATEGIES:
        for mode in ("record", "replay"):
            gap = e2e[f"{s}_{mode}_s"] - e2e["plain_s"]
            events = layer[f"core.events.{s}"]
            gate = events * layer[f"core.gate_{mode}_ns.{s}"] * 1e-9
            if mode == "record":
                opened = n_programs * layer["core.record_open_ms"] * 1e-3
                fin = n_programs * layer[f"core.finalize_ms.{s}"] * 1e-3
            else:
                opened = layer[f"core.replay_open_ms.{s}"] * 1e-3
                fin = 0.0
            explained = gate + opened + fin
            rows.append({"config": f"{s}_{mode}", "gap_s": gap,
                         "gate_s": gate, "open_s": opened, "finalize_s": fin,
                         "unexplained_share":
                             (gap - explained) / gap if gap > 0 else None})
    return rows


# --------------------------------------------------------------------- main

def median_of(rounds, pick):
    """Median over rounds of pick(round): a number, a list of samples, or
    None when the round has no sample."""
    vals = []
    for r in rounds:
        v = pick(r)
        if v is not None:
            vals += v if isinstance(v, list) else [v]
    return statistics.median(vals) if vals else None


def run_workload(name, seed, seconds, trace, pin, smoke, tool, t_start):
    programs, env_extra = WORKLOADS[name]
    env_extra = dict(env_extra)
    if smoke:
        programs = [(p, s * SMOKE_SCALE) for p, s in programs]
        if "REOMP_TRACE_WINDOW_EVENTS" in env_extra:
            env_extra["REOMP_TRACE_WINDOW_EVENTS"] = SMOKE_WINDOW_EVENTS
    rng = random.Random(f"{name}:{seed}")
    seeds = {p: rng.getrandbits(32) for p, _ in programs}

    trace_root = os.path.join(build_root(), "e2ebench", "traces",
                              str(os.getpid()))
    shutil.rmtree(trace_root, ignore_errors=True)
    os.makedirs(trace_root)
    tracer = Tracer(trace)
    runner = Runner(tool, trace_root, pin, tracer)
    try:
        with tracer.span("setup.warmup"):
            # Cold start of every program once, plus one recorded and
            # replayed pass of the first, before anything is timed.
            for program, scale in programs:
                runner.op(program, scale, seeds[program], "off", "",
                          env_extra)
            p0, s0 = programs[0]
            runner.op(p0, s0, seeds[p0], "record", "de", env_extra)
            runner.op(p0, s0, seeds[p0], "replay", "de", env_extra)
        setup_s = time.monotonic() - t_start

        rounds = []
        t0 = time.monotonic()
        while not rounds or time.monotonic() - t0 < seconds:
            with tracer.span(f"round.{len(rounds)}"):
                rounds.append(run_round(runner, programs, seeds, env_extra))
            log(f"round {len(rounds) - 1}: " + " ".join(
                f"{c} {statistics.median(rounds[-1].times[c]):.4f}"
                for c in CONFIGS))
        layer, layer_problems = ({}, [])
        if trace:
            layer, layer_problems = run_layers(runner, programs, env_extra,
                                               smoke)
    finally:
        shutil.rmtree(trace_root, ignore_errors=True)

    problems = [p for r in rounds for p in r.problems] + layer_problems
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)

    e2e = {"setup_s": setup_s}
    for c in CONFIGS:
        e2e[f"{c}_s"] = median_of(
            rounds, lambda r, c=c: r.times[c] if r.complete[c] else None)
    for s in STRATEGIES:
        e2e[f"{s}_trace_bytes"] = median_of(
            rounds, lambda r, s=s: r.bytes[s] if r.complete[f"{s}_record"]
            else None)

    unmeasured = [k for k, v in e2e.items() if v is None]
    if unmeasured:
        problems.append(f"no complete pass for {unmeasured}")

    info = {"workload": name, "seed": seed, "trace": trace,
            "rounds": len(rounds),
            "programs": [{"program": p, "scale": s, "seed": seeds[p]}
                         for p, s in programs],
            "env": env_extra, "hung_retries": runner.hung_retries,
            "process_attempts": runner.process_attempts,
            # Every operation's time, bytes and events, round by round.
            "samples": [{f"{p}.{k}": v for (p, k), v in r.per_program.items()}
                        for r in rounds]}
    if not trace:
        metrics = {k: {"value": e2e[k], "unit": u}
                   for k, u in END_TO_END.items()}
        return metrics, attempted, failed, problems, info

    for c in CONFIGS:
        layer[f"apps.{c}_s"] = e2e[f"{c}_s"]
    for s in STRATEGIES:
        layer[f"core.events.{s}"] = median_of(
            rounds, lambda r, s=s: r.events[s] if r.complete[f"{s}_record"]
            else None)
    layer["ops.hung_retries"] = runner.hung_retries
    units = per_layer_names()
    metrics = {k: {"value": layer.get(k), "unit": u} for k, u in units.items()}
    missing = [k for k, m in metrics.items() if m["value"] is None]
    if missing:
        problems.append(f"per-layer metrics not measured: {missing}")

    table = {}
    for p, _ in programs:
        row = {}
        for c in CONFIGS:
            row[f"{c}_s"] = median_of(
                rounds, lambda r, key=(p, c): r.per_program.get(key))
        row["events"] = median_of(
            rounds, lambda r, key=(p, "de_events"): r.per_program.get(key))
        table[p] = row
    info["per_program"] = table
    if not missing:
        info["attribution"] = attribution(
            e2e, layer, len(programs))
    info["self_time_s"] = tracer.self_times()
    info["spans"] = tracer.spans
    return metrics, attempted, failed, problems, info


def write_report(info, host):
    out_dir = os.path.join(build_root(), "e2ebench", "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{info['workload']}-seed{info['seed']}"
                                 f"-trace{info['trace']}.json")
    with open(path, "w") as f:
        json.dump({"host": host, **info}, f, indent=1)
    return path


def print_trace_summary(info):
    log(f"{'program':14s} " + " ".join(f"{c:>10s}" for c in CONFIGS)
        + f" {'events':>9s}")
    for p, row in info["per_program"].items():
        log(f"{p:14s} " + " ".join(
            f"{row[c + '_s']:10.4f}" if row[c + "_s"] is not None
            else f"{'-':>10s}" for c in CONFIGS)
            + f" {row['events'] or 0:9.0f}")
    for a in info.get("attribution", []):
        share = a["unexplained_share"]
        log(f"{a['config']:10s} gap {a['gap_s']:8.4f} s = gate"
            f" {a['gate_s']:.4f} + open {a['open_s']:.4f} + finalize"
            f" {a['finalize_s']:.4f} + unexplained "
            + (f"{share:.0%}" if share is not None else "n/a"))


def main():
    t_start = process_start()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Unpinned by default: a busy process of another tenant on cpu 0 or 1
    # halves a pinned worker's share and slows every metric (README).
    ap.add_argument("--pin", type=int, choices=(0, 1), default=0,
                    help="pin worker k to cpu k (the apps' own default)")
    ap.add_argument("--smoke", action="store_true",
                    help="every workload at tiny size, with every check")
    args = ap.parse_args()
    if not args.smoke and not args.workload:
        ap.error("--workload is required (or --smoke)")

    t_build = time.monotonic()
    tool, digest = ensure_built()
    # setup_s is the program's set-up, not the benchmark's own build step.
    t_start += time.monotonic() - t_build
    bdir = os.path.dirname(tool)
    host = host_facts(bdir, os.path.join(build_root(), "e2ebench"),
                      args.pin, digest)

    if args.smoke:
        bad = 0
        for name in WORKLOADS:
            t0 = time.monotonic()
            for trace in (0, 1):
                metrics, att, failed, problems, _ = run_workload(
                    name, args.seed, 0, trace, args.pin, True, tool, t0)
                bad += failed + len(problems)
                for p in problems:
                    log(f"e2ebench: CHECK FAILED {p}")
                log(f"smoke {name} trace={trace}: {att} operations,"
                    f" {failed} failed, {len(problems)} check failures,"
                    f" {len(metrics)} metrics")
        print(json.dumps({"smoke": "ok" if bad == 0 else "FAILED"}))
        return 0 if bad == 0 else 1

    steal0 = cpu_ticks()
    metrics, attempted, failed, problems, info = run_workload(
        args.workload, args.seed, args.seconds, args.trace, args.pin, False,
        tool, t_start)
    for p in problems:
        log(f"e2ebench: CHECK FAILED {p}")
    host["rounds"] = info["rounds"]
    host["hung_retries"] = info["hung_retries"]
    host["steal_share"] = steal_share(steal0)
    with contextlib.suppress(OSError):
        with open("/proc/loadavg") as f:
            host["loadavg_1m"] = float(f.read().split()[0])
    host["report"] = os.path.relpath(write_report(info, host), ROOT)
    if args.trace:
        print_trace_summary(info)
    print(json.dumps({"host": host}))
    # Killed attempts are retried (README, "Hung operations"), so they are
    # not in `failed`; this line shows their rate in every run.
    print(json.dumps({"hung": {"killed_attempts": info["hung_retries"],
                               "process_attempts": info["process_attempts"],
                               "deadline_s": OP_DEADLINE_S,
                               "max_attempts": OP_ATTEMPTS}}))
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
