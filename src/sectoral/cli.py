"""Command-line front end: configure one operator/contour/experiment,
run it, and emit JSON (full record) plus CSV (samples) reports.

Exit codes: 0 all pass flags true, 2 a computed pass flag is false, 1 usage,
configuration or numerical error.  Each subcommand accepts only the keys it
reads (COMMANDS), as flags or in a config file.  Config files are INI files
whose key=value lines follow a [section] line; section names are ignored and
keys are merged.  CLI flags override config-file keys.  The SECTORAL_OUT
environment variable overrides the output directory.
"""
from __future__ import annotations

import argparse
import configparser
import functools
import itertools
import json
import os
import re
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
    """Read a config file's key=value lines, which must follow a [section]
    line (ConfigInvalid on config otherwise); unknown keys are rejected."""
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


def canonical_json(record: dict) -> str:
    """Deterministic serialization: timestamp excluded, keys sorted."""
    rec = {k: v for k, v in record.items() if k != "timestamp"}
    return json.dumps(rec, sort_keys=True, separators=(",", ":"))


def _write_reports(record: dict, out_dir: str) -> str:
    """Write <kind>-<preset>-<stamp>-<n>.json, named by the record's
    experiment_kind and preset, and the .csv of its samples if it has any,
    as new files; n counts the runs in that second, so names sort by
    creation."""
    kind, preset = record["experiment_kind"], record["preset"]
    os.makedirs(out_dir, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    record = dict(record, timestamp=stamp)
    for n in itertools.count():
        base = os.path.join(out_dir, f"{kind}-{preset}-{stamp}-{n:04d}")
        try:
            with open(base + ".json", "x") as fh:
                json.dump(record, fh, sort_keys=True, indent=2)
                fh.write("\n")
            break
        except FileExistsError:
            pass
    if "samples" in record:
        with open(base + ".csv", "x") as fh:
            fh.write("abscissa,value\n")
            for x, y in record["samples"]:
                fh.write(f"{float(x)!r},{float(y)!r}\n")
    return base + ".json"


def _experiment_record(rep: ExperimentReport, preset: str, extra) -> dict:
    return {**rep.to_json_dict(), "preset": preset, **extra}


def _cmd_project(opt: dict) -> dict:
    A = presets.get_operator(opt["preset"], opt["K"])
    c = presets.contour_imag(opt["R"])
    res = sectorial_projection(A, c)
    ok = res.idempotency_defect <= max(1e-6,
                                       10 * res.truncation_error_estimate)
    rec = res.to_record(include_matrix=opt["include_matrix"])
    rec.update({"experiment_kind": "project", "preset": opt["preset"],
                "K": opt["K"], "contour": c.to_dict(),
                "pass": bool(ok and res.resolved)})
    return rec


def _cmd_perturb(opt: dict) -> dict:
    K = opt["K"]
    A = presets.get_operator(opt["preset"], K)
    dA = presets.lookup("perturbations", "perturbation",
                        opt["perturbation"])(K)
    lo, hi = opt["eps_min"], opt["eps_max"]
    # a bad bound makes NaNs, and a bound of 0 (which no geometric grid
    # holds) is passed as it is: perturbation_experiment names either
    with np.errstate(invalid="ignore"):
        eps = np.geomspace(lo, hi, opt["n_eps"]) if lo and hi else [lo, hi]
    c = presets.contour_imag(opt["R"])
    rep = perturbation_experiment(A, dA, eps, opt["s"], c)
    return _experiment_record(rep, opt["preset"], {
        "perturbation": opt["perturbation"], "K": K, "contour": c.to_dict()})


def _cmd_resolvent(opt: dict) -> dict:
    A = presets.get_operator(opt["preset"], opt["K"])
    rep = resolvent_decay_experiment(
        A, opt["ray_angle"], opt["s"], opt["p"],
        (opt["lambda_min"], opt["lambda_max"]), opt["n_samples"])
    return _experiment_record(rep, opt["preset"], {"K": opt["K"]})


def _cmd_parametrix(opt: dict) -> dict:
    A = presets.get_operator(opt["preset"], opt["K"])
    rep = parametrix_gap_experiment(
        A, CutoffFunction(opt["rho"]), opt["ray_angle"], opt["s"],
        (opt["lambda_min"], opt["lambda_max"]), opt["n_samples"])
    return _experiment_record(rep, opt["preset"], {"K": opt["K"]})


def _cmd_compose(opt: dict) -> dict:
    f_family, g_family, tol = presets.lookup(
        "pairs", "pair", opt["pair"])(opt["rho"])
    rep = composition_gap_experiment(
        f_family, g_family, opt["s"],
        (opt["lambda_min"], opt["lambda_max"]), opt["K"], opt["n_samples"],
        tolerance=tol)
    return _experiment_record(rep, opt["pair"], {"K": opt["K"]})


def _cmd_obstruction(opt: dict) -> dict:
    proj = presets.lookup("bundles", "preset", opt["preset"])
    expected = topology.BUNDLE_PRESETS[opt["preset"]][2]
    rec = topology.obstruction_demo(proj, opt["level"])
    return dict(rec, experiment_kind="obstruction", preset=opt["preset"],
                expected_chern_number=expected,
                **{"pass": rec["chern_number"] == expected})


def _cmd_wodzicki(opt: dict) -> dict:
    A = presets.get_operator(opt["preset"], opt["K"])
    # the arc must pass below the smallest eigenvalue modulus, or the
    # projection misses the eigenvalues hiding inside the arc
    R = opt["R"] if opt["R"] is not None else 0.5 * float(
        np.abs(np.linalg.eigvals(linalg.as_matrix(A.matrix))).min())
    alpha1, alpha2, s = opt["alpha1"], opt["alpha2"], opt["exponent"]
    c = make_sector_contour(alpha1, alpha2, R)  # the sector between the cuts
    resid = wodzicki_residual(A.matrix, s, alpha1, alpha2, c)
    return {"experiment_kind": "wodzicki", "preset": opt["preset"],
            "K": opt["K"], "exponent": s, "alpha1": alpha1, "alpha2": alpha2,
            "residual": resid, "contour": c.to_dict(),
            "pass": bool(resid <= 1e-6)}


def _cmd_spectral_flow(opt: dict) -> dict:
    path = presets.lookup("paths", "path", opt["path"])
    expected = presets.PATH_PRESETS[opt["path"]][2]
    flow = int(topology.spectral_flow(path))
    return {"experiment_kind": "spectral_flow", "preset": opt["path"],
            "flow": flow, "expected_flow": expected,
            "pass": flow == expected}


_SAMPLES = ("s", "lambda_min", "lambda_max", "n_samples")


def _samples(lambda_min: float, lambda_max: float) -> dict:
    """The sample keys' defaults; the sample count is computed."""
    return dict(zip(_SAMPLES, (0.0, lambda_min, lambda_max, None)))


# each subcommand's handler and its keys' defaults (None: computed)
COMMANDS = {
    "project": (_cmd_project, dict(out=".", preset="dtheta", K=16, R=0.5,
                                   include_matrix=False)),
    "perturb": (_cmd_perturb, dict(
        out=".", preset="variable_coeff_shift", K=32, R=0.5, s=0.0,
        perturbation="cos_theta_lower", eps_min=1e-4, eps_max=1e-1, n_eps=13)),
    "resolvent-decay": (_cmd_resolvent, dict(
        out=".", preset="dtheta_shift", K=256, p=0.0, ray_angle=np.pi / 2,
        **_samples(6.4, 64.0))),
    "parametrix": (_cmd_parametrix, dict(
        out=".", preset="variable_coeff_shift", K=128, rho=4.0,
        ray_angle=np.pi / 2, **_samples(10.0, 50.0))),
    "compose-gap": (_cmd_compose, dict(
        out=".", pair="resolvent_pair", K=128, rho=1.0,
        **_samples(10.0, 50.0))),
    "obstruction": (_cmd_obstruction, dict(out=".", preset="monopole",
                                           level=3)),
    "wodzicki": (_cmd_wodzicki, dict(
        out=".", preset="dtheta_shift", K=16, R=None, exponent=0.5,
        alpha1=np.pi / 2, alpha2=-np.pi / 2)),
    "spectral-flow": (_cmd_spectral_flow, dict(out=".", path="crossing")),
}


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as ConfigInvalid, so that it exits 1."""

    def error(self, message):
        raise ConfigInvalid("command line", message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    reads it and changes nothing in it."""
    parser = _Parser(
        prog="sectoral",
        description="Sectorial spectral projections and decay-law "
                    "experiments for matrices and 1-D periodic operators.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("list-presets", help="list every preset name")
    for command, (_, defaults) in COMMANDS.items():
        # no abbreviations: --lambda-max must not stand for another key
        p = sub.add_parser(command, help=f"run {command}",
                           allow_abbrev=False)
        # -1e-4 is a value, not a flag: argparse's own pattern has no exponent
        p._negative_number_matcher = re.compile(r"-\.?\d")
        p.add_argument("--config", help="key=value config file")
        for key, default in sorted(defaults.items()):
            shown = "computed" if default is None else default
            p.add_argument("--" + key.replace("_", "-"), dest=key,
                           help=f"{KEYS[key][1]} (default {shown})")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        if args.command == "list-presets":
            sys.stdout.write(presets.describe_presets())
            return 0
        handler, defaults = COMMANDS[args.command]
        opt = dict(defaults)
        if args.config:
            opt.update(load_config(args.config, args.command))
        for key in defaults:
            raw = getattr(args, key)
            if raw is not None:
                opt[key] = _coerce(key, raw)
        rec = handler(opt)
        out_dir = os.environ.get("SECTORAL_OUT") or opt["out"] or "."
        path = _write_reports(rec, out_dir)
    except SectoralError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    ok = bool(rec.get("pass", True))
    print(f"{rec['experiment_kind']} [{rec['preset']}]: "
          f"{'pass' if ok else 'FAIL'} -> {path}")
    return 0 if ok else 2


if __name__ == "__main__":
    sys.exit(main())
