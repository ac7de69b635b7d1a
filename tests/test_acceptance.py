"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line.  The whole suite of measurements runs once per
session (module fixture); the determinism criterion reruns it with the
same seeds and compares canonical report serializations.
"""
import time

import numpy as np
import pytest

from sectoral import linalg, presets, topology
from sectoral.cli import canonical_json
from sectoral.experiments import (composition_gap_experiment,
                                  parametrix_gap_experiment,
                                  perturbation_experiment,
                                  resolvent_decay_experiment)
from sectoral.projections import (aps_projection, eigen_projection_oracle,
                                  riesz_transform, sectorial_projection,
                                  wodzicki_residual)
from sectoral.symbol1d import CutoffFunction
from conftest import random_diagonalizable
import golden

IMAG = presets.contour_imag()


def _random_hermitian(rng, dim):
    """Hermitian with eigenvalue magnitudes in [0.7, 3], random signs."""
    d = rng.uniform(0.7, 3.0, size=dim) * rng.choice([-1.0, 1.0], size=dim)
    Z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    Q, _ = np.linalg.qr(Z)
    return (Q * d) @ Q.conj().T


def _run_suite():
    records = {}
    runtimes = {}

    # -- criteria 1 and 2: oracle equivalence, idempotency/commutation ----
    rng = np.random.default_rng(20250601)
    t0 = time.perf_counter()
    max_dev = 0.0
    max_idem_excess = -np.inf
    max_comm_excess = -np.inf
    all_resolved = True
    for _ in range(100):
        A, _, _ = random_diagonalizable(rng)
        res = sectorial_projection(A, IMAG)
        oracle = eigen_projection_oracle(A, lambda z: z.real > 0)
        max_dev = max(max_dev, linalg.operator_norm_2(res.P - oracle.P))
        all_resolved = all_resolved and res.resolved
        trunc = res.truncation_error_estimate
        max_idem_excess = max(
            max_idem_excess,
            res.idempotency_defect - max(1e-6, 10 * trunc))
        comm = linalg.operator_norm_2(A @ res.P - res.P @ A)
        max_comm_excess = max(
            max_comm_excess, comm - 10 * trunc * linalg.operator_norm_2(A))
    runtimes["c1"] = time.perf_counter() - t0
    records["c1"] = {"n_cases": 100, "max_deviation": max_dev,
                     "pass": bool(max_dev <= 1e-5)}
    records["c2"] = {"max_idempotency_excess": max_idem_excess,
                     "max_commutation_excess": max_comm_excess,
                     "pass": bool(all_resolved and max_idem_excess <= 0
                                  and max_comm_excess <= 0)}

    # -- criterion 3: resolvent decay slopes at m = 1 ----------------------
    t0 = time.perf_counter()
    A256 = presets.op_dtheta_shift(256)
    c3 = {"per_p": {}, "pass": True}
    for p, want in ((0.0, -1.0), (0.5, -0.5), (1.0, 0.0)):
        rep = resolvent_decay_experiment(A256, np.pi / 2, 0.0, p,
                                         (6.4, 64.0))
        ok = abs(rep.fitted_slope - want) <= 0.1 and rep.r_squared >= 0.98
        c3["per_p"][str(p)] = {"slope": rep.fitted_slope,
                               "r_squared": rep.r_squared, "pass": ok}
        c3["pass"] = bool(c3["pass"] and ok)
    runtimes["c3"] = time.perf_counter() - t0
    records["c3"] = c3

    # -- criterion 4: parametrix gap slope --------------------------------
    rep = parametrix_gap_experiment(presets.op_variable_coeff_shift(128),
                                    CutoffFunction(4.0), np.pi / 2, 0.0,
                                    (10.0, 50.0))
    records["c4"] = {"slope": rep.fitted_slope, "r_squared": rep.r_squared,
                     "pass": bool(abs(rep.fitted_slope + 1.0) <= 0.15
                                  and rep.r_squared >= 0.98)}

    # -- criterion 5: composition gap -------------------------------------
    f_fam, g_fam, tol = presets.pair_resolvent(1.0)
    rep = composition_gap_experiment(f_fam, g_fam, 0.0, (10.0, 50.0),
                                     K=128, tolerance=tol)
    f2, g2, _ = presets.pair_multiplier(1.0)
    rep0 = composition_gap_experiment(f2, g2, 0.0, (10.0, 50.0), K=128)
    max_gap0 = max(y for _, y in rep0.samples)
    records["c5"] = {"slope": rep.fitted_slope, "r_squared": rep.r_squared,
                     "multiplier_max_gap": max_gap0,
                     "pass": bool(abs(rep.fitted_slope + 1.0) <= 0.15
                                  and rep.r_squared >= 0.98
                                  and max_gap0 <= 1e-12)}

    # -- criterion 6: power-law branch identity ---------------------------
    rng = np.random.default_rng(777)
    worst = 0.0
    for _ in range(50):
        A, _, _ = random_diagonalizable(rng)
        s = float(rng.uniform(-2.0, 2.0))
        worst = max(worst, wodzicki_residual(A, s, np.pi / 2, -np.pi / 2,
                                             IMAG))
    records["c6"] = {"n_cases": 50, "max_residual": worst,
                     "pass": bool(worst <= 1e-6)}

    # -- criterion 7: continuity / linear response ------------------------
    A2 = np.diag([1.0, -1.0]).astype(complex)
    dA2 = np.array([[0.0, 1.0], [0.0, 0.0]])
    rep2 = perturbation_experiment(A2, dA2, np.geomspace(1e-4, 1e-1, 9),
                                   0.0, IMAG)
    ratios = [rr for _, rr in rep2.parameters["ratio_table"]]
    ratio_ok = all(abs(rr - 0.5) <= 0.005 for rr in ratios)
    slopes = {}
    for K in (32, 64):
        rep = perturbation_experiment(
            presets.get_operator("variable_coeff_shift", K),
            presets.perturbation_cos_theta_lower(K),
            np.geomspace(1e-4, 1e-1, 13), 0.0, IMAG)
        slopes[K] = (rep.fitted_slope, rep.r_squared)
    slope_ok = all(abs(sl - 1.0) <= 0.1 and r2 >= 0.98
                   for sl, r2 in slopes.values())
    doubling_ok = abs(slopes[32][0] - slopes[64][0]) < 0.05
    records["c7"] = {"ratio_2x2": ratios, "slopes": {str(k): v for k, v
                                                     in slopes.items()},
                     "pass": bool(ratio_ok and slope_ok and doubling_ok)}

    # -- criterion 8: half-spectrum projection compatibility ---------------
    ok8 = True
    detail8 = {}
    A = presets.op_dtheta_shift(32)
    H = A.matrix
    res = sectorial_projection(H, presets.contour_imag(R=0.15))
    gap_aps = np.abs(res.P - aps_projection(H, 0.0).P).max()
    gap_riesz = np.abs(aps_projection(riesz_transform(H), 0.0).P
                       - aps_projection(H, 0.0).P).max()
    detail8["dtheta_shift"] = {"aps_gap": float(gap_aps),
                               "riesz_gap": float(gap_riesz)}
    ok8 &= gap_aps <= 10 * res.truncation_error_estimate
    ok8 &= gap_riesz <= 1e-9
    rng = np.random.default_rng(12021)
    worst_aps, worst_riesz = 0.0, 0.0
    for _ in range(10):
        H = _random_hermitian(rng, 12)
        res = sectorial_projection(H, presets.contour_imag(R=0.35))
        Paps = aps_projection(H, 0.0).P
        worst_aps = max(worst_aps, float(np.abs(res.P - Paps).max()
                                         - 10 * res.truncation_error_estimate))
        worst_riesz = max(worst_riesz, float(np.abs(
            aps_projection(riesz_transform(H), 0.0).P - Paps).max()))
    detail8["random_hermitian"] = {"worst_aps_excess": worst_aps,
                                   "worst_riesz_gap": worst_riesz}
    ok8 &= worst_aps <= 0 and worst_riesz <= 1e-9
    records["c8"] = {**detail8, "pass": bool(ok8)}

    # -- criterion 9: topology suite ---------------------------------------
    t0 = time.perf_counter()
    rng = np.random.default_rng(404)
    index_ok = True
    for _ in range(100):
        A, values, _ = random_diagonalizable(rng, dim=10)
        index_ok &= topology.component_index(A) == int(
            np.sum(values.real > 0))
    flow_cross = topology.spectral_flow(presets.path_crossing)
    flow_loop = topology.spectral_flow(presets.path_loop)
    grid = np.linspace(-5.0, 5.0, 2001)
    seeley_one = topology.seeley_deformation_check(grid, "single_ray")
    seeley_two = topology.seeley_deformation_check(grid, "imaginary_axis")
    cherns = {}
    resid = {}
    for level in (3, 4):
        b = topology.bundle_from_map(topology.monopole_projector, level)
        cherns[level] = topology.chern_number(b)
        resid[level] = topology.chern_rounding_residual(b)
    chern_trivial = topology.chern_number(
        topology.bundle_from_map(topology.trivial_projector, 3))
    runtimes["c9"] = time.perf_counter() - t0
    records["c9"] = {
        "index_matches": bool(index_ok),
        "flow_crossing": int(flow_cross), "flow_loop": int(flow_loop),
        "seeley_single_ray": seeley_one, "seeley_two_ray": seeley_two,
        "chern_monopole": {str(k): int(v) for k, v in cherns.items()},
        "chern_residuals": {str(k): float(v) for k, v in resid.items()},
        "chern_trivial": int(chern_trivial),
        "pass": bool(index_ok and flow_cross == 1 and flow_loop == 0
                     and seeley_one["passing"] and not seeley_two["passing"]
                     and cherns[3] == cherns[4] and abs(cherns[3]) == 1
                     and max(resid.values()) < 0.05 and chern_trivial == 0)}
    return records, runtimes


@pytest.fixture(scope="module")
def suite():
    return _run_suite()


def _report(name: str, label: str, rec: dict, extra: str = ""):
    status = "PASS" if rec["pass"] else "FAIL"
    print(f"[{name}] {label}: {status}{' (' + extra + ')' if extra else ''}")
    assert rec["pass"], f"{label} failed: {rec}"


def test_criterion_1_oracle_equivalence(suite):
    records, runtimes = suite
    rec = records["c1"]
    _report("criterion 1", "oracle equivalence over 100 seeded matrices",
            rec, f"max dev {rec['max_deviation']:.2e}, "
                 f"{runtimes['c1']:.1f}s")
    assert runtimes["c1"] < 60.0


def test_criterion_2_idempotency_commutation(suite):
    records, _ = suite
    _report("criterion 2", "idempotency and commutation bounds",
            records["c2"])


def test_criterion_3_resolvent_decay(suite):
    records, runtimes = suite
    rec = records["c3"]
    slopes = ", ".join(f"p={p}: {v['slope']:+.3f}"
                       for p, v in rec["per_p"].items())
    _report("criterion 3", "resolvent decay slopes {-1, -1/2, 0}", rec,
            slopes)
    assert runtimes["c3"] < 120.0


def test_criterion_4_parametrix_gap(suite):
    records, _ = suite
    rec = records["c4"]
    _report("criterion 4", "parametrix gap slope -1 +/- 0.15", rec,
            f"slope {rec['slope']:+.3f}, r2 {rec['r_squared']:.4f}")


def test_criterion_5_composition_gap(suite):
    records, _ = suite
    rec = records["c5"]
    _report("criterion 5", "composition gap slope -1; exact multiplier "
            "gap 0", rec, f"slope {rec['slope']:+.3f}, "
            f"multiplier gap {rec['multiplier_max_gap']:.1e}")


def test_criterion_6_power_law_identity(suite):
    records, _ = suite
    rec = records["c6"]
    _report("criterion 6", "branch identity residual over 50 seeded "
            "(A, s)", rec, f"max residual {rec['max_residual']:.2e}")


def test_criterion_7_continuity(suite):
    records, _ = suite
    rec = records["c7"]
    _report("criterion 7", "continuity slope 1, K-doubling stable, "
            "2x2 ratio 1/2", rec)


def test_criterion_8_riesz_aps_compatibility(suite):
    records, _ = suite
    _report("criterion 8", "Riesz/APS projection compatibility",
            records["c8"])


def test_criterion_9_topology_suite(suite):
    records, runtimes = suite
    rec = records["c9"]
    _report("criterion 9", "component index, spectral flow, deformation, "
            "Chern numbers", rec,
            f"chern {rec['chern_monopole']}, {runtimes['c9']:.1f}s")
    assert runtimes["c9"] < 120.0


def test_criterion_10_determinism(suite):
    records, _ = suite
    rerun, _ = _run_suite()
    same = all(canonical_json(records[k]) == canonical_json(rerun[k])
               for k in records)
    rec = {"pass": bool(same and set(records) == set(rerun))}
    _report("criterion 10", "determinism of the full suite under fixed "
            "seeds", rec)


def test_records_match_golden(suite):
    # the c1-c9 records against the committed ones (tests/golden.py)
    records, _ = suite
    got = {k: golden.canonical(rec) for k, rec in records.items()}
    assert golden.mismatches(golden.load("acceptance"), got) == []
