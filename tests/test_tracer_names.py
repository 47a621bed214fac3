"""The names the benchmark's tracer rebinds exist in the package.

`perfbench/tracer.py` wraps the package's functions by name through
`getattr`, so a renamed function would break every traced benchmark
run.  The tracer is loaded by path and not installed.
"""

import importlib
import importlib.util
from pathlib import Path

from typical_clt import distributions, experiments

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve():
    for module_name, attr, _, _ in _load_tracer().TRACED_FUNCTIONS:
        module = importlib.import_module(f"typical_clt.{module_name}")
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr}"


def test_patched_attributes_exist():
    assert isinstance(distributions.StepCDF.__dict__.get("from_samples"), classmethod)
    assert hasattr(distributions, "ThreadPoolExecutor")
    assert isinstance(experiments.SUITES, dict)
