import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import sectoral


def test_all_names_resolve():
    missing = [name for name in sectoral.__all__
               if getattr(sectoral, name, None) is None]
    assert missing == []
    assert len(set(sectoral.__all__)) == len(sectoral.__all__)


def test_projection_and_power_leave_sparse_and_special_unimported():
    # scipy.sparse and scipy.special add about 8 MB of resident memory and
    # 30 ms of import time to a fresh process; a projection (node loop and
    # fibre route) and a complex power must not need them
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "import sectoral",
        "from sectoral import presets, projections",
        "c = presets.contour_imag()",
        "projections.sectorial_projection(presets.op_dtheta_shift(8), c)",
        "projections.sectorial_projection(np.array([[1, 2], [0, -1]]), c)",
        "projections.complex_power(np.diag([1.0, 2.0 + 1j]), 0.5, np.pi)",
        "print(sorted(m for m in sys.modules",
        "             if m.startswith(('scipy.sparse', 'scipy.special'))))",
    ])
    src = os.path.dirname(os.path.dirname(sectoral.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_benchmark_tracer_targets_exist():
    # the benchmark's --trace run refuses to start when a wrapped name is
    # gone from its module
    path = Path(__file__).parent.parent / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("_bench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = [f"{mod}.{name}"
               for table in (tracer.SPAN_TARGETS, tracer.COUNT_TARGETS)
               for mod, names in table.items() for name in names
               if not callable(getattr(importlib.import_module(
                   f"sectoral.{mod}"), name, None))]
    assert missing == []
