"""One benchmark process: set up one workload and run it.

``run.py`` starts this script in a fresh process for every measurement,
with the BLAS thread variables already fixed, and reads the JSON object it
prints as its last line.  Modes:

- ``setup``: import ``sectoral`` and build the workload's inputs; report
  the time taken since the interpreter reached this file.
- ``measure``: set up, then run passes over the workload's tasks in a
  closed loop while the next pass fits in ``--seconds``, sampling the
  machine's speed with ``SpeedProbe`` meanwhile.  Pass 0 runs the
  inputs built during set-up; each later pass draws fresh inputs from the
  seed, outside the timed region.
- ``trace``: set up; with the layer tracer installed, project one probe
  matrix; then run pass 0 traced, untraced and traced again.  The spans
  are written to ``--spans``.
"""
import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import signal  # noqa: E402
import sys  # noqa: E402


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--mode", choices=("setup", "measure", "trace"),
                   required=True)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--spans", help="span output file (trace mode)")
    return p.parse_args(argv)


def _digest_line(name, kind, quantities):
    return json.dumps([name, kind, quantities], sort_keys=True,
                      default=repr).encode()


class SpeedProbe:
    """Samples how fast the machine runs while the workload runs.

    A timer interrupts the process every ``PERIOD`` seconds and the signal
    handler times a fixed reference kernel that does not use ``sectoral``:
    an interpreter loop and small LU factorizations, plus, with
    ``memory=True``, a pass over a 4 MB matrix.  On a shared host the same
    work takes up to half as long again from one second to the next;
    dividing a task's time by the reference time sampled around it cancels
    most of that drift.  The handler runs between bytecodes of the main
    thread, so it competes with nothing for a core; it adds 1-2% to the
    measured time."""

    PERIOD = 0.05

    def __init__(self, memory):
        import numpy as np
        import scipy.linalg
        rng = np.random.default_rng(0)
        self._matrix = rng.standard_normal((12, 12)) + 0j
        self._big = rng.standard_normal((513, 513)) + 0j if memory else None
        self._lu = scipy.linalg.lu_factor
        self.samples = []

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        acc = 0
        for i in range(3000):
            acc += i * i
        for _ in range(3):
            self._lu(self._matrix)
        if self._big is not None:
            self._big.sum()
        self.samples.append((t0, time.perf_counter() - t0))

    def __enter__(self):
        self.samples = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.PERIOD, self.PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


# The workload whose tasks work on n=513 matrices (4 MB each): its speed
# follows cache and memory contention that the register-bound part of the
# reference kernel does not see, so its probe also sweeps memory.  The
# others are interpreter- and small-LU-bound, like the register-bound part.
MEMORY_PROBE = ("operator_decay",)


def run_pass(tasks, workloads, refusal, tracer=None):
    """Run every task once, in order; return the pass record."""
    starts, latencies, kinds, failures = [], [], {}, []
    digest = hashlib.sha256()
    max_dev = 0.0
    for index, (name, fn) in enumerate(tasks):
        if tracer is not None:
            tracer.task = index
        kind, q = None, None
        t0 = time.perf_counter()
        starts.append(t0)
        try:
            q = fn()
        except workloads.TaskFailure as exc:
            kind, q = exc.kind, exc.quantities
        except refusal as exc:
            kind, q = "refused", f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # any other error is a failed task
            kind, q = "raised", f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if kind is not None:
            kinds[kind] = kinds.get(kind, 0) + 1
            failures.append([name, kind, str(q)[:300]])
        if isinstance(q, dict) and "deviation" in q:
            max_dev = max(max_dev, float(q["deviation"]))
        digest.update(_digest_line(name, kind, q))
    return {"wall_s": sum(latencies), "latencies_s": latencies,
            "starts_s": starts, "attempted": len(tasks),
            "failed": sum(kinds.values()), "kinds": kinds,
            "failures": failures, "max_oracle_dev": max_dev,
            "digest": digest.hexdigest()}


def _probe(workloads, projections, presets):
    """One default-contour projection of a small seeded matrix."""
    import numpy as np
    A, _, _ = workloads.random_diagonalizable(np.random.default_rng(5), dim=6)
    projections.sectorial_projection(A, presets.contour_imag())


def main(argv=None):
    args = _parse(argv)
    root = os.getcwd()
    import sectoral
    from sectoral import contour, presets, projections
    from sectoral.errors import SectoralError
    src = os.path.join(root, "src", "sectoral")
    if os.path.dirname(os.path.abspath(sectoral.__file__)) != src:
        sys.exit(f"imported sectoral from {sectoral.__file__}, not {src}")
    import workloads
    tasks = workloads.build(args.workload, args.seed, 0)
    setup_s = time.perf_counter() - T_START
    out = {"setup_s": setup_s}

    if args.mode == "measure":
        passes = []
        probe = SpeedProbe(memory=args.workload in MEMORY_PROBE)
        t_begin = time.perf_counter()
        while True:
            with probe:
                rec = run_pass(tasks, workloads, SectoralError)
            rec["speed_samples"] = probe.samples
            passes.append(rec)
            if time.perf_counter() - t_begin + rec["wall_s"] > args.seconds:
                break
            tasks = workloads.build(args.workload, args.seed, len(passes))
        out["passes"] = passes

    elif args.mode == "trace":
        import tracer as tracing
        rule_nodes = len(contour.quad_nodes(presets.contour_imag()).nodes)
        tr = tracing.Tracer(extra_modules=[workloads])

        def traced(label, fn):
            tr.install()
            try:
                tr.start(label)
                result = fn()
                return result, tr.stop()
            finally:
                tr.uninstall()

        traced("probe", lambda: _probe(workloads, projections, presets))
        # traced, untraced, traced: the two traced passes bracket the
        # untraced one in time, so a steady drift of the machine's speed
        # cancels from the tracing overhead.
        first, counts_1 = traced("traced_1", lambda: run_pass(
            tasks, workloads, SectoralError, tr))
        untraced = run_pass(tasks, workloads, SectoralError)
        second, counts_2 = traced("traced_2", lambda: run_pass(
            tasks, workloads, SectoralError, tr))
        first["counts"], second["counts"] = counts_1, counts_2
        with open(args.spans, "w") as fh:
            json.dump(tr.spans, fh, separators=(",", ":"))
        out.update(rule_nodes=rule_nodes, passes=[untraced, first, second])

    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.mode != "setup":
        out["env"] = _environment()
    print(json.dumps(out))


def _environment():
    import numpy
    import scipy
    blas = {}
    for mod in (numpy, scipy):
        try:
            dep = mod.show_config(mode="dicts")["Build Dependencies"]["blas"]
            blas[mod.__name__] = f"{dep.get('name')} {dep.get('version')}"
        except (KeyError, TypeError, AttributeError):
            blas[mod.__name__] = "unknown"
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas}


if __name__ == "__main__":
    main()
