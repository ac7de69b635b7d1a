"""Command-line front end: configure one operator/contour/experiment,
run it, and emit JSON (full record) plus CSV (samples) reports.

Exit codes: 0 all pass flags true, 2 a computed pass flag is false,
1 usage, configuration or numerical error.  Each subcommand accepts only
the keys it reads (COMMANDS), as flags or in a config file.  Config files
are flat INI-style key=value files; section names are ignored and keys
are merged.  CLI flags override config-file keys.  The SECTORAL_OUT
environment variable overrides the output directory.
"""
from __future__ import annotations

import argparse
import configparser
import itertools
import json
import os
import sys
import time

import numpy as np

from . import linalg, presets, topology
from .contour import make_sector_contour
from .errors import ConfigInvalid, SectoralError
from .experiments import (ExperimentReport, composition_gap_experiment,
                          parametrix_gap_experiment, perturbation_experiment,
                          resolvent_decay_experiment)
from .projections import (sectorial_projection, wodzicki_residual)
from .symbol1d import CutoffFunction


def _boolean(raw: str) -> bool:
    if raw.lower() in ("1", "true", "yes", "on"):
        return True
    if raw.lower() in ("0", "false", "no", "off"):
        return False
    raise ValueError(raw)


# every settable key: the parser of its string value and its help text
KEYS = {
    "out": (str, "output directory for reports"),
    "preset": (str, "operator/bundle preset name"),
    "K": (int, "Fourier mode cutoff"),
    "R": (float, "contour arc radius override"),
    "include_matrix": (_boolean, "embed the projection matrix in the JSON"),
    "perturbation": (str, "perturbation preset name"),
    "eps_min": (float, "smallest epsilon"),
    "eps_max": (float, "largest epsilon"),
    "n_eps": (int, "epsilon sample count"),
    "pair": (str, "composition-gap symbol pair preset name"),
    "s": (float, "Sobolev index"),
    "p": (float, "norm offset in [0, m]"),
    "rho": (float, "cutoff radius"),
    "ray_angle": (float, "ray angle in radians"),
    "lambda_min": (float, "smallest |lambda|"),
    "lambda_max": (float, "largest |lambda|"),
    "n_samples": (int, "lambda sample count"),
    "level": (int, "icosphere refinement level"),
    "exponent": (float, "real exponent s of the power"),
    "alpha1": (float, "first branch-cut angle and contour ray"),
    "alpha2": (float, "second branch-cut angle and contour ray"),
    "path": (str, "matrix path preset name"),
}


def _coerce(key: str, raw: str):
    try:
        return KEYS[key][0](raw)
    except ValueError:
        raise ConfigInvalid(key, f"cannot parse value {raw!r}")


def load_config(path: str, command: str) -> dict:
    """Read a flat key=value config file; unknown keys are rejected."""
    if not os.path.isfile(path):
        raise ConfigInvalid("config", f"config file {path!r} not found")
    parser = configparser.ConfigParser()
    parser.optionxform = str  # keys are case-sensitive (K vs k)
    try:
        parser.read(path)
    except configparser.Error as exc:
        raise ConfigInvalid("config", f"unparsable config: {exc}")
    known = COMMANDS[command][1]
    out = {}
    sections = [parser[s] for s in parser.sections()]
    if parser.defaults():
        sections.insert(0, parser.defaults())
    for section in sections:
        for key, raw in section.items():
            if key not in known:
                raise ConfigInvalid(key, f"unknown config key for {command}")
            out[key] = _coerce(key, raw)
    return out


def _json_default(o):
    if isinstance(o, np.bool_):
        return bool(o)
    if isinstance(o, np.integer):
        return int(o)
    if isinstance(o, np.floating):
        return float(o)
    if isinstance(o, np.ndarray):
        return o.tolist()
    if isinstance(o, complex):
        return [o.real, o.imag]
    raise TypeError(f"not JSON serializable: {type(o).__name__}")


def canonical_json(record: dict) -> str:
    """Deterministic serialization: timestamp excluded, keys sorted."""
    rec = {k: v for k, v in record.items() if k != "timestamp"}
    return json.dumps(rec, sort_keys=True, separators=(",", ":"),
                      default=_json_default)


def _write_reports(record: dict, kind: str, preset: str, out_dir: str,
                   samples=None) -> str:
    """Write <kind>-<preset>-<stamp>-<n>.json (and .csv for samples) as new
    files; n counts the runs in that second, so names sort by creation."""
    os.makedirs(out_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    record = dict(record, timestamp=stamp)
    for n in itertools.count():
        base = os.path.join(out_dir, f"{kind}-{preset}-{stamp}-{n:04d}")
        try:
            with open(base + ".json", "x") as fh:
                json.dump(record, fh, sort_keys=True, indent=2,
                          default=_json_default)
                fh.write("\n")
            break
        except FileExistsError:
            pass
    if samples is not None:
        with open(base + ".csv", "x") as fh:
            fh.write("abscissa,value\n")
            for x, y in samples:
                fh.write(f"{float(x)!r},{float(y)!r}\n")
    return base + ".json"


def _experiment_record(rep: ExperimentReport, preset: str, extra) -> dict:
    return {**rep.to_json_dict(), "preset": preset, **extra}


def _cmd_project(opt: dict) -> tuple:
    preset = opt.get("preset", "dtheta")
    K = opt.get("K", 16)
    A = presets.get_operator(preset, K)
    c = presets.contour_imag(opt.get("R", 0.5))
    res = sectorial_projection(A, c)
    ok = res.idempotency_defect <= max(1e-6,
                                       10 * res.truncation_error_estimate)
    rec = res.to_record(include_matrix=bool(opt.get("include_matrix")))
    rec.update({"experiment_kind": "project", "preset": preset, "K": K,
                "contour": c.to_dict(), "pass": bool(ok and res.resolved)})
    return rec, "project", preset, None


def _cmd_perturb(opt: dict) -> tuple:
    preset = opt.get("preset", "variable_coeff_shift")
    pert = opt.get("perturbation", "cos_theta_lower")
    K = opt.get("K", 32)
    A = presets.get_operator(preset, K)
    dA = presets.lookup("perturbations", "perturbation", pert)(K)
    eps = np.geomspace(opt.get("eps_min", 1e-4), opt.get("eps_max", 1e-1),
                       opt.get("n_eps", 13))
    c = presets.contour_imag(opt.get("R", 0.5))
    rep = perturbation_experiment(A, dA, eps, opt.get("s", 0.0), c)
    rec = _experiment_record(rep, preset,
                             {"perturbation": pert, "K": K,
                              "contour": c.to_dict()})
    return rec, "perturbation", preset, rep.samples


def _cmd_resolvent(opt: dict) -> tuple:
    preset = opt.get("preset", "dtheta_shift")
    K = opt.get("K", 256)
    A = presets.get_operator(preset, K)
    rep = resolvent_decay_experiment(
        A, opt.get("ray_angle", np.pi / 2), opt.get("s", 0.0),
        opt.get("p", 0.0),
        (opt.get("lambda_min", 6.4), opt.get("lambda_max", 64.0)),
        opt.get("n_samples"))
    rec = _experiment_record(rep, preset, {"K": K})
    return rec, "resolvent_decay", preset, rep.samples


def _cmd_parametrix(opt: dict) -> tuple:
    preset = opt.get("preset", "variable_coeff_shift")
    K = opt.get("K", 128)
    A = presets.get_operator(preset, K)
    psi = CutoffFunction(opt.get("rho", 4.0))
    rep = parametrix_gap_experiment(
        A, psi, opt.get("ray_angle", np.pi / 2), opt.get("s", 0.0),
        (opt.get("lambda_min", 10.0), opt.get("lambda_max", 50.0)),
        opt.get("n_samples"))
    rec = _experiment_record(rep, preset, {"K": K})
    return rec, "parametrix_gap", preset, rep.samples


def _cmd_compose(opt: dict) -> tuple:
    pair = opt.get("pair", "resolvent_pair")
    K = opt.get("K", 128)
    f_family, g_family, r, m, tol = presets.lookup("pairs", "pair", pair)(
        opt.get("rho", 1.0))
    rep = composition_gap_experiment(
        f_family, g_family, r, m, opt.get("s", 0.0),
        (opt.get("lambda_min", 10.0), opt.get("lambda_max", 50.0)),
        K, opt.get("n_samples"), tolerance=tol)
    rec = _experiment_record(rep, pair, {"K": K})
    return rec, "composition_gap", pair, rep.samples


def _cmd_obstruction(opt: dict) -> tuple:
    preset = opt.get("preset", "monopole")
    proj = presets.lookup("bundles", "preset", preset)
    # obstruction_demo refuses a non-projector family and an unsafe
    # rounding, so a record it returns passes
    rec = dict(topology.obstruction_demo(proj, opt.get("level", 3)),
               experiment_kind="obstruction", preset=preset, **{"pass": True})
    return rec, "obstruction", preset, None


def _cmd_wodzicki(opt: dict) -> tuple:
    preset = opt.get("preset", "dtheta_shift")
    K = opt.get("K", 16)
    A = presets.get_operator(preset, K)
    # the arc must pass below the smallest eigenvalue modulus, or the
    # projection misses the eigenvalues hiding inside the arc
    R = opt["R"] if "R" in opt else 0.5 * float(
        np.abs(np.linalg.eigvals(linalg.as_matrix(A.matrix))).min())
    alpha1 = opt.get("alpha1", np.pi / 2)
    alpha2 = opt.get("alpha2", -np.pi / 2)
    c = make_sector_contour(alpha1, alpha2, R)  # the sector between the cuts
    s = opt.get("exponent", 0.5)
    resid = wodzicki_residual(A.matrix, s, alpha1, alpha2, c)
    rec = {"experiment_kind": "wodzicki", "preset": preset, "K": K,
           "exponent": s, "alpha1": alpha1, "alpha2": alpha2,
           "residual": resid, "contour": c.to_dict(),
           "pass": bool(resid <= 1e-6)}
    return rec, "wodzicki", preset, None


def _cmd_spectral_flow(opt: dict) -> tuple:
    name = opt.get("path", "crossing")
    flow = topology.spectral_flow(presets.lookup("paths", "path", name))
    rec = {"experiment_kind": "spectral_flow", "preset": name,
           "flow": int(flow), "pass": True}
    return rec, "spectral_flow", name, None


_SAMPLES = ("s", "lambda_min", "lambda_max", "n_samples")

# each subcommand's handler and the keys it reads
COMMANDS = {
    "project": (_cmd_project,
                ("out", "preset", "K", "R", "include_matrix")),
    "perturb": (_cmd_perturb,
                ("out", "preset", "K", "R", "perturbation", "s",
                 "eps_min", "eps_max", "n_eps")),
    "resolvent-decay": (_cmd_resolvent,
                        ("out", "preset", "K", "p", "ray_angle", *_SAMPLES)),
    "parametrix": (_cmd_parametrix,
                   ("out", "preset", "K", "rho", "ray_angle", *_SAMPLES)),
    "compose-gap": (_cmd_compose, ("out", "pair", "K", "rho", *_SAMPLES)),
    "obstruction": (_cmd_obstruction, ("out", "preset", "level")),
    "wodzicki": (_cmd_wodzicki,
                 ("out", "preset", "K", "R", "exponent", "alpha1",
                  "alpha2")),
    "spectral-flow": (_cmd_spectral_flow, ("out", "path")),
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as ConfigInvalid, so that it exits 1."""

    def error(self, message):
        raise ConfigInvalid("command line", message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="sectoral",
        description="Sectorial spectral projections and decay-law "
                    "experiments for matrices and 1-D periodic operators.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list-presets", help="list every preset name")
    for command, (_, keys) in COMMANDS.items():
        # no abbreviations: --lambda-max must not stand for another key
        p = sub.add_parser(command, help=f"run {command}",
                           allow_abbrev=False)
        p.add_argument("--config", help="key=value config file")
        for key in sorted(keys):
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           help=KEYS[key][1])
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "list-presets":
            sys.stdout.write(presets.describe_presets())
            return 0
        handler, keys = COMMANDS[args.command]
        opt = load_config(args.config, args.command) if args.config else {}
        for key in keys:
            raw = getattr(args, key)
            if raw is not None:
                opt[key] = _coerce(key, raw)
        rec, kind, preset, samples = handler(opt)
        out_dir = os.environ.get("SECTORAL_OUT") or opt.get("out") or "."
        path = _write_reports(rec, kind, preset, out_dir, samples)
    except SectoralError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ok = bool(rec.get("pass", True))
    print(f"{kind} [{preset}]: {'pass' if ok else 'FAIL'} -> {path}")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
