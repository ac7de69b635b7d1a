"""Workloads of the sectoral benchmark: seeded inputs and checked tasks.

A workload is a list of tasks that one caller runs in a closed loop, each
task sent after the previous one completes.  A task is one matrix case or
one command: it calls the public ``sectoral`` API and checks the outputs
against the bounds of the acceptance criterion it reproduces (c1-c9).  The
bounds below are copied from ``tests/test_acceptance.py`` and
``tests/test_experiments.py``; none is loosened.

The library is always reached through module attributes looked up at call
time (``projections.sectorial_projection``), so that the layer tracer,
which replaces those attributes, sees every call the benchmark makes.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import tempfile

import numpy as np

from sectoral import cli, contour, experiments, linalg, presets, projections
from sectoral import topology

# Seeds of the acceptance suite; used when no --seed is given, so that the
# default inputs are exactly the criteria's inputs.
ACCEPTANCE_SEEDS = {"c1": 20250601, "c6": 777, "c8": 12021, "c9": 404}

TAU = 2.0 * math.pi


class TaskFailure(Exception):
    """Raised by a check; ``quantities`` holds the checked values and
    ``kind`` is one of:

    - ``off_oracle``: a projection broke a bound and reported
      resolved=False;
    - ``silent``: a projection broke a bound yet reported resolved=True;
    - ``bound``: any other task broke its criterion's bound;
    - ``refused``: the CLI exited with code 1 (a library refusal).

    The worker adds ``refused`` for a raised SectoralError and ``raised``
    for any other exception."""

    def __init__(self, kind, quantities, broken):
        super().__init__(f"broke {', '.join(broken)}")
        self.kind = kind
        self.quantities = quantities


# ---------------------------------------------------------------------------
# seeded input generators (copies of the acceptance suite's helpers, so the
# benchmark does not import tests/)

def random_diagonalizable(rng, dim=None, cond_max=1e3, min_abs_re=0.7,
                          abs_min=1.1, abs_max=5.0):
    """Random diagonalizable matrix whose spectrum clears the standard
    imaginary-axis sector contour (R=0.5) by at least 0.5; the same draws
    as the acceptance suite's generator of the same name."""
    if dim is None:
        dim = int(rng.integers(2, 21))
    values = np.empty(dim, dtype=complex)
    for i in range(dim):
        while True:
            re = rng.uniform(-abs_max, abs_max)
            im = rng.uniform(-abs_max, abs_max)
            z = re + 1j * im
            if abs(re) >= min_abs_re and abs_min <= abs(z) <= abs_max:
                values[i] = z
                break
    q1, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                         + 1j * rng.standard_normal((dim, dim)))
    q2, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                         + 1j * rng.standard_normal((dim, dim)))
    sing = np.geomspace(1.0, rng.uniform(2.0, min(50.0, cond_max)), dim)
    V = q1 @ np.diag(sing) @ q2
    A = V @ np.diag(values) @ np.linalg.inv(V)
    return A, values, V


def random_hermitian(rng, dim):
    """Hermitian with eigenvalue magnitudes in [0.7, 3], random signs."""
    d = rng.uniform(0.7, 3.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
    Z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, _ = np.linalg.qr(Z)
    return (Q * d) @ Q.conj().T


def _well_conditioned(rng, dim):
    q1, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                         + 1j * rng.standard_normal((dim, dim)))
    q2, _ = np.linalg.qr(rng.standard_normal((dim, dim))
                         + 1j * rng.standard_normal((dim, dim)))
    return q1 @ np.diag(np.geomspace(1.0, rng.uniform(2.0, 50.0), dim)) @ q2


def grcar(n):
    """Grcar matrix: 1 on the diagonal and three superdiagonals, -1 on the
    subdiagonal; strongly non-normal."""
    G = np.eye(n) - np.eye(n, k=-1)
    for k in (1, 2, 3):
        G += np.eye(n, k=k)
    return G.astype(complex)


def in_sector(c, z):
    """Membership in the positive sector of a sector contour: |z| > R and
    arg z in (alpha2, alpha1), the part swept by the arc parameter."""
    return abs(z) > c.R and 0.0 < (c.alpha1 - np.angle(z)) % TAU < c.theta


def _rng(seed, tag, pass_index, acceptance_seed=None):
    """Generator for one input family.  Without a seed, pass 0 of a family
    that reproduces a criterion draws exactly the acceptance suite's
    inputs; every other pass and seed draws fresh ones."""
    if seed is None and pass_index == 0 and acceptance_seed is not None:
        return np.random.default_rng(acceptance_seed)
    return np.random.default_rng([0 if seed is None else seed, tag,
                                  pass_index])


# ---------------------------------------------------------------------------
# checks

def _violations(checks):
    return [name for name, ok in checks if not ok]


def _projection_checks(A, res, oracle_P):
    """c1 (oracle deviation <= 1e-5, when an oracle exists) and c2
    (resolved; idempotency and commutation excess <= 0)."""
    trunc = res.truncation_error_estimate
    q = {"resolved": bool(res.resolved),
         "idempotency_excess": res.idempotency_defect - max(1e-6, 10 * trunc),
         "commutation_excess": (linalg.operator_norm_2(A @ res.P - res.P @ A)
                                - 10 * trunc * linalg.operator_norm_2(A))}
    checks = [("c2_resolved", q["resolved"]),
              ("c2_idempotency", q["idempotency_excess"] <= 0),
              ("c2_commutation", q["commutation_excess"] <= 0)]
    if oracle_P is not None:
        q["deviation"] = linalg.operator_norm_2(res.P - oracle_P)
        checks.append(("c1_deviation", q["deviation"] <= 1e-5))
    return q, _violations(checks)


def _finish_projection(q, bad):
    if bad:
        kind = "silent" if q["resolved"] else "off_oracle"
        raise TaskFailure(kind, q, bad)
    return q


def _finish(q, bad):
    if bad:
        raise TaskFailure("bound", q, bad)
    return q


# ---------------------------------------------------------------------------
# matrix-case tasks

def task_oracle_case(A, c, oracle=None):
    """c1/c2 on one matrix: sectorial projection against an oracle.  With
    no explicit oracle matrix the eigendecomposition oracle is used."""
    def run():
        res = projections.sectorial_projection(A, c)
        P = oracle
        if P is None:
            P = projections.eigen_projection_oracle(
                A, lambda z: in_sector(c, z)).P
        return _finish_projection(*_projection_checks(A, res, P))
    return run


def task_idempotency_case(A, c):
    """c2 only, for a matrix without a usable oracle."""
    def run():
        res = projections.sectorial_projection(A, c)
        return _finish_projection(*_projection_checks(A, res, None))
    return run


def task_branch_identity(A, s, c):
    """c6: branch-identity residual <= 1e-6."""
    def run():
        r = projections.wodzicki_residual(A, s, np.pi / 2, -np.pi / 2, c)
        return _finish({"residual": r}, _violations([("c6", r <= 1e-6)]))
    return run


def task_aps_case(H, c):
    """c8 on one random Hermitian matrix: APS excess <= 0, Riesz gap
    <= 1e-9."""
    def run():
        res = projections.sectorial_projection(H, c)
        P_aps = projections.aps_projection(H, 0.0).P
        q = {"resolved": bool(res.resolved),
             "aps_excess": float(np.abs(res.P - P_aps).max()
                                 - 10 * res.truncation_error_estimate),
             "riesz_gap": float(np.abs(projections.aps_projection(
                 projections.riesz_transform(H), 0.0).P - P_aps).max())}
        return _finish_projection(q, _violations(
            [("c8_aps", q["aps_excess"] <= 0),
             ("c8_riesz", q["riesz_gap"] <= 1e-9)]))
    return run


def task_component_index_sweep(cases):
    """c9: for each matrix, the component index equals the count of
    eigenvalues with Re > 0."""
    def run():
        got = [topology.component_index(A) for A, _ in cases]
        want = [int(np.sum(values.real > 0)) for _, values in cases]
        return _finish({"indices": got},
                       _violations([("c9_index", got == want)]))
    return run


def task_continuity_2x2():
    """c7: the analytic 2x2 linear-response ratio 0.5 +/- 0.005."""
    A2 = np.diag([1.0, -1.0]).astype(complex)
    dA2 = np.array([[0.0, 1.0], [0.0, 0.0]])

    def run():
        rep = experiments.perturbation_experiment(
            A2, dA2, np.geomspace(1e-4, 1e-1, 9), 0.0, presets.contour_imag())
        ratios = [rr for _, rr in rep.parameters["ratio_table"]]
        return _finish({"ratios": ratios}, _violations(
            [("c7_ratio", all(abs(rr - 0.5) <= 0.005 for rr in ratios))]))
    return run


def task_boundedness(A):
    """Boundedness at K=32 (the only caller of parametrix_phi0): norms of
    the diagonal 0/1 projection are 1 to 1e-6 and each gap is at most the
    norm, as tests/test_experiments.py requires."""
    def run():
        out = experiments.boundedness_check(A, presets.contour_imag(),
                                            s_list=[-1.0, 0.0, 1.0])
        per_s = {str(s): v for s, v in out["per_s"].items()}
        ok = all(abs(v["norm_P"] - 1.0) <= 1e-6
                 and v["gap"] <= v["norm_P"] + 1e-9 for v in per_s.values())
        return _finish({"per_s": per_s}, _violations([("boundedness", ok)]))
    return run


# ---------------------------------------------------------------------------
# command tasks

def _run_cli(argv):
    """Run ``sectoral <argv>`` in-process with its reports sent to a fresh
    temporary directory under SECTORAL_OUT; return (exit code, printed
    line, record).  The directory is removed before returning."""
    root = os.environ["PERFBENCH_TMP"]
    out_dir = tempfile.mkdtemp(dir=root)
    os.environ["SECTORAL_OUT"] = out_dir
    try:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(list(argv))
        records = [f for f in os.listdir(out_dir) if f.endswith(".json")]
        record = None
        if len(records) == 1:
            with open(os.path.join(out_dir, records[0])) as fh:
                record = json.load(fh)
        return rc, buf.getvalue().strip(), record
    finally:
        del os.environ["SECTORAL_OUT"]
        shutil.rmtree(out_dir)


def task_cli(argv, check):
    """One CLI command: exit code 0, a printed ``pass``, one JSON record,
    and the criterion's own bound on that record (``check``)."""
    def run():
        rc, line, record = _run_cli(argv)
        if rc == 1:
            raise TaskFailure("refused", {"line": line}, ["exit_code"])
        if record is None:
            raise TaskFailure("bound", {"line": line}, ["record"])
        q = {"record": cli.canonical_json(record)}
        checks = [("exit_code", rc == 0), ("pass", ": pass ->" in line),
                  ("record_pass", record.get("pass") is True)]
        checks += check(record)
        return _finish(q, _violations(checks))
    return run


def _slope(want, tol):
    """c3-c5: |slope - want| <= tol and r^2 >= 0.98."""
    return lambda rec: [
        ("slope", abs(rec["fitted_slope"] - want) <= tol),
        ("r_squared", rec["r_squared"] >= 0.98)]


def _multiplier_gap(rec):
    """c5: exact multiplier composition gap <= 1e-12."""
    return [("multiplier_gap", max(y for _, y in rec["samples"]) <= 1e-12)]


def _wodzicki(rec):
    return [("c6", rec["residual"] <= 1e-6)]


def _chern(want_abs):
    return lambda rec: [
        ("chern", abs(rec["chern_number"]) == want_abs),
        ("rounding", rec["rounding_residual"] < 0.05),
        ("hyperbolic", rec["hyperbolic_everywhere"] is True)]


def _flow(want):
    return lambda rec: [("flow", rec["flow"] == want)]


def _no_extra(rec):
    return []


# ---------------------------------------------------------------------------
# workloads

def dense_sweep(seed, pass_index):
    """c1/c2 (100 random diagonalizable matrices, n in 2..20) and c8 (10
    random Hermitian 12x12 APS cases), all with clearance >= 0.5: the
    contour kernel at small n, where per-node overhead dominates.  c6 runs
    in hard_spectra instead: on fresh draws its 1e-6 bound breaks about
    once in 300 cases (seed 1003, third pass: residual 1.29e-6 at n=2)."""
    imag = presets.contour_imag()
    tasks = []
    rng = _rng(seed, 1, pass_index, ACCEPTANCE_SEEDS["c1"])
    for i in range(100):
        A, _, _ = random_diagonalizable(rng)
        tasks.append((f"c1[{i}] n={A.shape[0]}", task_oracle_case(A, imag)))
    rng = _rng(seed, 8, pass_index, ACCEPTANCE_SEEDS["c8"])
    c8 = presets.contour_imag(R=0.35)
    for i in range(10):
        H = random_hermitian(rng, 12)
        tasks.append((f"c8[{i}]", task_aps_case(H, c8)))
    return tasks


# Three non-default sectors (alpha1, alpha2, R) for the accuracy family.
HARD_SECTORS = ((3 * np.pi / 4, -np.pi / 4, 0.5),
                (np.pi / 3, -np.pi / 3, 0.8),
                (np.pi, np.pi / 4, 0.3))


def _near_contour_matrix(rng, c, where, dist, dim=8):
    """Diagonalizable matrix with one eigenvalue at distance ``dist`` from
    the contour (beside ray 1, ray 2 or the arc, on a random side) and the
    others at least 0.5 away."""
    side = rng.choice([-1.0, 1.0])
    if where == "arc":
        phi = c.alpha1 - rng.uniform(0.2, 0.8) * c.theta
        lam0 = (c.R + side * dist) * np.exp(1j * phi)
    else:
        alpha = c.alpha1 if where == "ray1" else c.alpha2
        r = rng.uniform(1.0, 4.0)
        lam0 = (r + side * dist * 1j) * np.exp(1j * alpha)
    values = [lam0]
    while len(values) < dim:
        z = complex(*rng.uniform(-5.0, 5.0, size=2))
        if (1.1 <= abs(z) <= 5.0
                and contour.point_contour_distance(z, c) >= 0.5):
            values.append(z)
    V = _well_conditioned(rng, dim)
    return V @ np.diag(values) @ np.linalg.inv(V)


def _jordan_matrix(rng):
    """V diag(J_k(l_in), J_m(l_out)) V^-1 with l_in inside the sector and
    l_out outside; its projection is V diag(I_k, 0) V^-1 exactly."""
    k, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
    l_in = complex(rng.uniform(1.0, 3.0), rng.uniform(-1.0, 1.0))
    l_out = complex(rng.uniform(-3.0, -1.0), rng.uniform(-1.0, 1.0))
    J = np.zeros((k + m, k + m), dtype=complex)
    J[np.arange(k), np.arange(k)] = l_in
    J[np.arange(k, k + m), np.arange(k, k + m)] = l_out
    for i in list(range(k - 1)) + list(range(k, k + m - 1)):
        J[i, i + 1] = 1.0
    V = _well_conditioned(rng, k + m)
    Vinv = np.linalg.inv(V)
    D = np.diag([1.0] * k + [0.0] * m).astype(complex)
    return V @ J @ Vinv, V @ D @ Vinv


def hard_spectra(seed, pass_index):
    """Accuracy stress on the same kernel: 60 random 12x12 matrices over
    three non-default sectors, eigenvalues at clearance 1e-1/1e-2/1e-3 from
    each ray and the arc, the 40x40 Grcar matrix, Jordan blocks with an
    analytic projection, and c6's 50 branch-identity cases.  Failures here
    are the recorded baseline."""
    imag = presets.contour_imag()
    tasks = []
    rng = _rng(seed, 6, pass_index, ACCEPTANCE_SEEDS["c6"])
    for i in range(50):
        A, _, _ = random_diagonalizable(rng)
        s = float(rng.uniform(-2.0, 2.0))
        tasks.append((f"c6[{i}] n={A.shape[0]}",
                      task_branch_identity(A, s, imag)))
    rng = _rng(seed, 101, pass_index)
    for i in range(60):
        c = contour.make_sector_contour(*HARD_SECTORS[i % 3])
        A, _, _ = random_diagonalizable(rng, dim=12)
        tasks.append((f"sector{i % 3}[{i}]", task_oracle_case(A, c)))
    for dist in (1e-1, 1e-2, 1e-3):
        for where in ("ray1", "ray2", "arc"):
            A = _near_contour_matrix(rng, imag, where, dist)
            tasks.append((f"clearance {where} {dist:g}",
                          task_oracle_case(A, imag)))
    tasks.append(("grcar40", task_idempotency_case(grcar(40), imag)))
    for i in range(4):
        A, P = _jordan_matrix(rng)
        tasks.append((f"jordan[{i}] n={A.shape[0]}",
                      task_oracle_case(A, imag, oracle=P)))
    return tasks


def operator_decay(seed, pass_index):
    """c3 (p in {0, 1/2, 1} at K=256), c4 and c5 (both symbol pairs), each
    through the CLI at the subcommand defaults, which equal the criteria's
    parameters: symbol assembly, n=513 solves and full-SVD Sobolev norms;
    no quadrature rule is built."""
    tasks = [(f"resolvent-decay p={p}",
              task_cli(["resolvent-decay", "--p", str(p)], _slope(want, 0.1)))
             for p, want in ((0.0, -1.0), (0.5, -0.5), (1.0, 0.0))]
    tasks.append(("parametrix", task_cli(["parametrix"], _slope(-1.0, 0.15))))
    tasks.append(("compose-gap resolvent_pair",
                  task_cli(["compose-gap", "--pair", "resolvent_pair"],
                           _slope(-1.0, 0.15))))
    tasks.append(("compose-gap multiplier_pair",
                  task_cli(["compose-gap", "--pair", "multiplier_pair"],
                           _multiplier_gap)))
    _rng(seed, 3, pass_index).shuffle(tasks)
    return tasks


def operator_session(seed, pass_index, boundedness_operator):
    """The remaining large-n projection work and all of the topology: CLI
    project (K=64, n=129), perturb (K=32, 13 epsilons, n=65), wodzicki,
    obstruction for the three bundles at level 4, spectral-flow for each
    path; the c7 2x2 ratio, boundedness at K=32 and c9's 100-matrix index
    sweep as one task.  Level 5 (3.7 s a bundle) would make one command
    most of a pass and the task percentiles follow its noise alone."""
    tasks = [
        ("project K=64", task_cli(["project", "--K", "64"], _no_extra)),
        ("perturb", task_cli(["perturb"], _slope(1.0, 0.1))),
        ("wodzicki", task_cli(["wodzicki"], _wodzicki)),
        ("obstruction monopole 4",
         task_cli(["obstruction", "--preset", "monopole", "--level", "4"],
                  _chern(1))),
        ("obstruction antimonopole 4",
         task_cli(["obstruction", "--preset", "antimonopole", "--level", "4"],
                  _chern(1))),
        ("obstruction trivial 4",
         task_cli(["obstruction", "--preset", "trivial", "--level", "4"],
                  _chern(0))),
        ("continuity 2x2", task_continuity_2x2()),
        ("boundedness K=32", task_boundedness(boundedness_operator)),
    ]
    for path, flow in (("crossing", 1), ("constant", 0), ("loop", 0)):
        tasks.append((f"spectral-flow {path}",
                      task_cli(["spectral-flow", "--path", path],
                               _flow(flow))))
    rng = _rng(seed, 9, pass_index, ACCEPTANCE_SEEDS["c9"])
    cases = [random_diagonalizable(rng, dim=10)[:2] for _ in range(100)]
    tasks.append(("c9 index sweep", task_component_index_sweep(cases)))
    _rng(seed, 4, pass_index).shuffle(tasks)
    return tasks


def build(name, seed, pass_index):
    """The task list of one pass of a workload; pass 0 is built during
    set-up."""
    if name == "dense_sweep":
        return dense_sweep(seed, pass_index)
    if name == "hard_spectra":
        return hard_spectra(seed, pass_index)
    if name == "operator_decay":
        return operator_decay(seed, pass_index)
    if name == "operator_session":
        return operator_session(seed, pass_index,
                                presets.get_operator("dtheta_shift", 32))
    raise ValueError(f"unknown workload {name!r}")
