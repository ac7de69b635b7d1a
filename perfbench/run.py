#!/usr/bin/env python3
"""Benchmark of the ``sectoral`` package.

Run from the root of a checkout (the directory holding ``src/sectoral``):

    python3 perfbench/run.py --workload dense_sweep --seed 1 --seconds 25 \\
        --trace 0

Each workload is a closed loop: one process, one caller, each task sent
after the previous one completes (see ``workloads.py`` for the tasks and
the acceptance bounds they are checked against).  Every measurement runs
in a fresh child process (``worker.py``) with the BLAS thread variables
fixed to one thread before numpy is imported.  ``hard_spectra`` is the
accuracy stress; it fails on a third of its tasks at present, so it is
run by hand and is not listed in BENCHMARK.json, whose workloads must not
fail.

``--trace 0`` prints the end-to-end metrics: set-up time (median of
several fresh processes), the median cost of one pass over the workload
and the task cost p50/p90, and peak resident memory.  Costs are in
``ref`` units: each task's time divided by the time of a fixed reference
kernel sampled around it (``worker.SpeedProbe``), because on a shared host
the time of the same work drifts by up to half from one second to the
next, and the ratio does not.  The measured times (``wall_s``,
``task_p50_ms``, ``task_p90_ms``) and the failed share of tasks by kind
are printed too, but are not part of the result.  ``--trace 1`` runs the
workload traced, untraced and traced again, wrapping each layer's public
functions from outside (``tracer.py``), and prints the per-layer metrics
after checking that the tracer missed no call and changed no output.

The human-readable report precedes the last line of standard output,
which is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  CLI reports go to a temporary directory in
the checkout that is deleted before exit.
"""
import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
# The workloads workloads.build knows, and the failure kinds of a task
# (workloads.TaskFailure).
WORKLOADS = ("dense_sweep", "hard_spectra", "operator_decay",
             "operator_session")
FAILURE_KINDS = ("raised", "refused", "off_oracle", "silent", "bound")
SETUP_SAMPLES = 5          # fresh processes timed for setup_s
DEADLINE_S = 170.0         # the whole run, children included
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# One caller, one core: the speed samples (worker.SpeedProbe) run on the
# caller's core, and on a shared 2-CPU host a second BLAS thread made every
# workload slower (small-n passes by about 20%) and its times less steady.
BLAS_THREADS = 1

# Layer modules in the order they are reported.
LAYERS = ("linalg", "contour", "projections", "symbol1d", "experiments",
          "topology", "presets", "cli")


class BenchError(Exception):
    """The benchmark itself could not run."""


def _parse(argv):
    p = argparse.ArgumentParser(
        description="Benchmark of the sectoral package (run from the "
                    "checkout root).")
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, default=None,
                   help="input seed (default: the acceptance suite's seeds)")
    p.add_argument("--seconds", type=float, default=25.0,
                   help="measurement time per run")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment and child processes

def _cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _child_env(root, tmp):
    """Environment of every child: BLAS threads fixed before numpy is
    imported, the checkout's ``src`` first on the path, no bytecode
    written."""
    nproc = len(os.sched_getaffinity(0))
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = str(min(BLAS_THREADS, nproc))
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["PERFBENCH_TMP"] = tmp
    env.pop("SECTORAL_OUT", None)
    record = {"nproc": nproc, "cpu_model": _cpu_model(),
              **{var: env[var] for var in THREAD_VARS}}
    return env, record


def _run_child(args, env, deadline, mode, extra=()):
    cmd = [sys.executable, WORKER, "--mode", mode, "--workload",
           args.workload, "--seconds", str(args.seconds), *extra]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before a child started")
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE,
                              text=True, timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} child exceeded the time budget") from None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{mode} child failed with exit code "
                         f"{proc.returncode}")
    return json.loads(lines[-1])


# ---------------------------------------------------------------------------
# end-to-end metrics

def _percentile(sorted_values, q):
    """Nearest-rank percentile and the number of samples beyond it."""
    rank = max(1, math.ceil(q / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def _failures(passes):
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    kinds = {k: sum(p["kinds"].get(k, 0) for p in passes)
             for k in FAILURE_KINDS}
    return attempted, failed, kinds


def _print_failures(passes, attempted, failed, kinds):
    frac = failed / attempted
    print(f"{'ops_failed_frac':<16} {frac:<14.6g} {'1':<6} {attempted} "
          f"tasks; by kind: "
          + ", ".join(f"{k} {v}" for k, v in kinds.items()))
    for name, kind, detail in passes[0]["failures"][:40]:
        print(f"  failed [{kind}] {name}: {detail}")


def normalized_costs(rec, window=1.0):
    """Task times divided by the local reference time: the median of the
    speed samples taken from ``window`` seconds before a task starts to
    ``window`` seconds after it ends (worker.SpeedProbe).  The ratio
    cancels the drift of the machine's speed on a shared host."""
    samples = rec["speed_samples"]
    costs = []
    for t0, dt in zip(rec["starts_s"], rec["latencies_s"]):
        near = [d for t, d in samples if t0 - window <= t <= t0 + dt + window]
        costs.append(dt / statistics.median(near or [d for _, d in samples]))
    return costs


def measure(args, env, deadline):
    result = _run_child(args, env, deadline, "measure")
    setups = [result["setup_s"]]
    for _ in range(SETUP_SAMPLES - 1):
        setups.append(_run_child(args, env, deadline, "setup")["setup_s"])
    passes = result["passes"]
    n_pass = f"{len(passes)} passes"
    lat = sorted(1e3 * x for p in passes for x in p["latencies_s"])
    costs = [normalized_costs(p) for p in passes]
    units = sorted(c for pc in costs for c in pc)
    refs = [1e3 * d for p in passes for _, d in p["speed_samples"]]
    metrics = {
        "setup_s": (statistics.median(setups), "s",
                    f"{len(setups)} processes"),
        "wall_ref": (statistics.median(sum(pc) for pc in costs), "ref",
                     n_pass),
    }
    shown = {"wall_s": (statistics.median(p["wall_s"] for p in passes), "s",
                        n_pass)}
    for q in (50, 90):
        value, beyond = _percentile(units, q)
        metrics[f"task_p{q}_ref"] = (value, "ref",
                                     f"{len(units)} tasks, {beyond} beyond")
        value, beyond = _percentile(lat, q)
        shown[f"task_p{q}_ms"] = (value, "ms",
                                  f"{len(lat)} tasks, {beyond} beyond")
    metrics["peak_rss_mb"] = (result["peak_rss_mb"], "MB", "1 process")
    shown["reference_ms"] = (statistics.median(refs), "ms",
                             f"{len(refs)} timings")
    print(f"{'metric':<16} {'value':<14} {'unit':<6} samples")
    for name, (value, unit, samples) in {**metrics, **shown}.items():
        print(f"{name:<16} {value:<14.6g} {unit:<6} {samples}")
    attempted, failed, kinds = _failures(passes)
    _print_failures(passes, attempted, failed, kinds)
    return result, attempted, failed, {
        name: {"value": value, "unit": unit}
        for name, (value, unit, _) in metrics.items()}


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of one traced pass

def layer_metrics(spans, counts):
    """calls / busy_s / self_s per wrapped function plus the derived
    ratios.  Busy time counts only the outermost span of a name; self time
    is a span's duration minus the time covered by its wrapped children."""
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[1] >= 0:
            child_time[s[1]] += s[4] - s[3]

    def ancestors(s):
        while s[1] >= 0:
            s = by_id[s[1]]
            yield s

    busy, self_s = defaultdict(float), defaultdict(float)
    solve_in_projection, gflop = 0, 0.0
    specs, eig_repeats, seen = set(), 0, set()
    for s in spans:
        sid, parent, name, t0, t1, _, task, attr = s
        self_s[name] += (t1 - t0) - child_time[sid]
        names_above = [a[2] for a in ancestors(s)]
        if name not in names_above:
            busy[name] += t1 - t0
        if name == "linalg.solve":
            n, k = attr
            gflop += (8.0 / 3.0 * n ** 3 + 8.0 * n * n * k) / 1e9
            if "projections.sectorial_projection" in names_above:
                solve_in_projection += 1
        elif name == "contour.quad_nodes":
            specs.add(attr)
        elif name == "linalg.eig":
            if (task, attr) in seen:
                eig_repeats += 1
            seen.add((task, attr))

    out = {}
    for label in sorted(counts, key=lambda k: (LAYERS.index(k.split(".")[0]),
                                               k)):
        out[f"{label}.calls"] = (counts[label], "count")
        if label != "linalg.as_matrix":
            out[f"{label}.busy_s"] = (busy[label], "s")
            out[f"{label}.self_s"] = (self_s[label], "s")

    def ratio(a, b):
        return a / b if b else 0.0

    out["contour.quad_nodes.calls_per_spec"] = (
        ratio(counts["contour.quad_nodes"], len(specs)), "ratio")
    out["linalg.eig.repeat_frac"] = (
        ratio(eig_repeats, counts["linalg.eig"]), "fraction")
    out["linalg.solve.calls_per_projection"] = (
        ratio(solve_in_projection,
              counts["projections.sectorial_projection"]), "ratio")
    out["linalg.solve.gflop_computed"] = (gflop, "GFLOP")
    return out


def self_check(result, spans):
    """Reasons the traced run is not trustworthy (empty when it is)."""
    problems = []
    probe = [s for s in spans if s[5] == "probe"]
    tops = [s for s in probe if s[2] == "projections.sectorial_projection"]
    solves = sum(1 for s in probe if s[2] == "linalg.solve")
    rules = sum(1 for s in probe if s[2] == "contour.quad_nodes")
    if len(tops) != 1 or solves != result["rule_nodes"] or rules != 1:
        problems.append(
            f"probe projection recorded {len(tops)} projection, {solves} "
            f"linalg.solve (want {result['rule_nodes']}) and {rules} "
            "quad_nodes (want 1) calls")
    untraced, first, second = result["passes"]
    if first["counts"] != second["counts"]:
        diff = {k: (first["counts"][k], second["counts"][k])
                for k in first["counts"]
                if first["counts"][k] != second["counts"][k]}
        problems.append(f"call counts differ between traced passes: {diff}")
    if len({untraced["digest"], first["digest"], second["digest"]}) != 1:
        problems.append("traced outputs differ from the untraced outputs")
    return problems


def trace(args, env, deadline, tmp):
    spans_path = os.path.join(tmp, "spans.json")
    result = _run_child(args, env, deadline, "trace",
                        ["--spans", spans_path])
    with open(spans_path) as fh:
        spans = [tuple(s) for s in json.load(fh)]
    untraced, first, second = result["passes"]
    layers = layer_metrics([s for s in spans if s[5] == "traced_1"],
                           first["counts"])
    layers["projections.max_oracle_dev"] = (first["max_oracle_dev"], "norm")
    layers["projections.silent_error_count"] = (
        first["kinds"].get("silent", 0), "count")
    for kind in FAILURE_KINDS:
        layers[f"tasks.failed_{kind}"] = (first["kinds"].get(kind, 0),
                                          "count")
    layers["trace.overhead_s"] = (
        (first["wall_s"] + second["wall_s"]) / 2 - untraced["wall_s"], "s")
    for name, (value, unit) in layers.items():
        print(f"{name:<48} {value:<14.6g} {unit}")
    problems = self_check(result, spans)
    for problem in problems:
        print(f"tracer self-check FAILED: {problem}")
    if not problems:
        print("tracer self-check passed: probe recorded "
              f"{result['rule_nodes']} solves and 1 rule; counts and outputs "
              "identical across passes")
    attempted, failed, kinds = _failures(result["passes"])
    _print_failures(result["passes"], attempted, failed, kinds)
    metrics = {name: {"value": value, "unit": unit}
               for name, (value, unit) in layers.items()}
    return result, attempted, failed, metrics, not problems


def _terminate(signum, frame):
    # SystemExit unwinds through subprocess.run, which kills and waits for
    # the running child, and through the finally that removes the run
    # directory.
    sys.exit(128 + signum)


def main(argv=None):
    args = _parse(argv)
    signal.signal(signal.SIGTERM, _terminate)
    deadline = time.monotonic() + DEADLINE_S
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sectoral",
                                       "__init__.py")):
        print("error: run from the root of a sectoral checkout "
              "(src/sectoral not found)", file=sys.stderr)
        return 2
    tmp = tempfile.mkdtemp(prefix=".perfbench-", dir=root)
    try:
        env, env_record = _child_env(root, tmp)
        print(f"perfbench {args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace}")
        if args.trace:
            result, attempted, failed, metrics, ok = trace(args, env,
                                                           deadline, tmp)
        else:
            result, attempted, failed, metrics = measure(args, env, deadline)
            ok = True
        print("env " + json.dumps({**env_record, **result["env"]},
                                  sort_keys=True))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    print(json.dumps({"correct": ok and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
