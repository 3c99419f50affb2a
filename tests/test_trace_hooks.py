"""The benchmark's tracer hooks into rcstab by name; keep those names alive.

`perfbench/child.py` wraps the module attributes listed in LAYER_CALLS and
STOP_AT, and reads a few argument and field names of what it wraps.  A
refactor that renames one of them would only fail the benchmark; these tests
make it fail here first.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def _load_child():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


child = _load_child()


@pytest.mark.parametrize(
    "module_name, attr",
    [(m, a) for m, a, _ in child.LAYER_CALLS] + list(child.STOP_AT),
)
def test_traced_attribute_resolves(module_name, attr):
    target = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    assert callable(target)


def test_bound_argument_and_field_names_exist():
    from rcstab import reservoir, stability

    assert {"omega", "g"} <= set(inspect.signature(reservoir.fit_readout).parameters)
    assert {"t_final", "dt"} <= set(
        inspect.signature(stability.simulate_unforced).parameters
    )
    fields = {f.name for f in dataclasses.fields(reservoir.DriveResult)}
    assert {"states", "diverged", "divergence_step"} <= fields
