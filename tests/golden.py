"""Golden records: the canonical acceptance records of ``_run_suite()`` and
a set of CLI records, committed under ``tests/golden/`` and compared in
tier-1 (``test_acceptance.py`` and ``test_golden.py``).

Pass flags, exit codes, integers, strings and the record's shape must
match exactly; floats must agree within
``|a - b| <= RTOL * max(|a|, |b|) + ATOL``.  The bound leaves room for
BLAS kernels that round differently on another CPU, and for changes that
move a record by rounding only.  Over the OpenBLAS kernels of six CPU
types (OPENBLAS_CORETYPE) and two BLAS threads, the records moved by at
most 1.7e-9 relative (perturb's ratio at epsilon = 1e-4, a difference
quotient that multiplies rounding by 1/epsilon) and 1.8e-12 absolute (c6's
residual, itself about 3e-12); RTOL and ATOL are six times those.  A
change that moves a record further regenerates the golden files in its
own diff and says so in CHANGES.md.

Regenerate from the root of a checkout with

    PYTHONPATH=src OPENBLAS_NUM_THREADS=1 python tests/golden.py
"""
import json
import math
import os
import tempfile
from pathlib import Path

from sectoral.cli import canonical_json, main as cli_main

GOLDEN = Path(__file__).parent / "golden"
RTOL = 1e-8
ATOL = 1e-11

# name -> argv of each CLI record; the CLI defaults of parametrix and of
# the resolvent and multiplier compose-gap pairs are c4 and c5
CLI_RUNS = {
    "project-K64": ["project", "--K", "64"],
    "project-variable_coeff_shift-K32": [
        "project", "--preset", "variable_coeff_shift", "--K", "32"],
    "perturb": ["perturb"],
    "perturb-dtheta_shift-K16": [
        "perturb", "--preset", "dtheta_shift", "--K", "16"],
    "perturb-variable_coeff_m2-R5": [
        "perturb", "--preset", "variable_coeff_m2", "--R", "5"],
    "wodzicki": ["wodzicki"],
    "compose-gap-order_zero_pair": [
        "compose-gap", "--pair", "order_zero_pair"],
    **{f"resolvent-decay-p{p}": ["resolvent-decay", "--p", p]
       for p in ("0", "0.5", "1")},
    **{f"obstruction-{b}-level4": ["obstruction", "--preset", b,
                                   "--level", "4"]
       for b in ("monopole", "antimonopole", "trivial")},
    **{f"spectral-flow-{p}": ["spectral-flow", "--path", p]
       for p in ("crossing", "constant", "loop")},
}


def canonical(record: dict) -> dict:
    """The record as canonical_json serializes it, read back."""
    return json.loads(canonical_json(record))


def run_cli(argv) -> dict:
    """{"exit_code", "record"} of one CLI run, its report written to a
    temporary directory (SECTORAL_OUT must be unset); the record is None
    when the run writes none."""
    with tempfile.TemporaryDirectory() as out:
        code = cli_main([*argv, "--out", out])
        names = list(Path(out).glob("*.json"))
        record = canonical(json.loads(names[0].read_text())) if names else None
    return {"exit_code": code, "record": record}


def mismatches(want, got, where="") -> list:
    """Where `got` differs from `want` beyond the stated tolerance."""
    if type(want) is not type(got):
        pass
    elif isinstance(want, float):
        if want == got or (math.isnan(want) and math.isnan(got)):
            return []
        if math.isfinite(want) and math.isfinite(got) and abs(want - got) \
                <= RTOL * max(abs(want), abs(got)) + ATOL:
            return []
    elif isinstance(want, dict):
        if want.keys() != got.keys():
            return [f"{where}: keys {sorted(want)} != {sorted(got)}"]
        return [m for k in want
                for m in mismatches(want[k], got[k], f"{where}/{k}")]
    elif isinstance(want, list):
        if len(want) == len(got):
            return [m for i, (w, g) in enumerate(zip(want, got))
                    for m in mismatches(w, g, f"{where}[{i}]")]
    elif want == got:
        return []
    return [f"{where}: {want!r} != {got!r}"]


def load(name: str) -> dict:
    with open(GOLDEN / f"{name}.json") as fh:
        return json.load(fh)


def _write(name: str, data: dict) -> None:
    GOLDEN.mkdir(exist_ok=True)
    with open(GOLDEN / f"{name}.json", "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=1)
        fh.write("\n")


def main() -> None:
    os.environ.pop("SECTORAL_OUT", None)
    from test_acceptance import _run_suite
    records, _ = _run_suite()
    _write("acceptance", {k: canonical(v) for k, v in records.items()})
    _write("cli", {name: {"argv": argv, **run_cli(argv)}
                   for name, argv in CLI_RUNS.items()})


if __name__ == "__main__":
    main()
