"""Every per-layer span the benchmark reads still names a function of its layer.

The benchmark's tracer names a span after the module that defines the
function it wraps, and a span that names nothing reads as zero time. So a
refactor that moved or renamed ``train_full``, ``distance_to_init``,
``layer_norms``, ``cho_factor`` or ``PSDSolver`` would silently zero a stage
timer; here it fails instead. The table is read from the benchmark's source
with ``ast.literal_eval``: nothing of the benchmark is imported or run.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

RUN_PY = Path(__file__).resolve().parents[1] / "perfbench" / "run.py"
# the modules of a layer, as the tracer names them: ``_kernelmatrix`` belongs to the kernel layer
LAYER_MODULES = {"kernel": ("ntkreg.kernel", "ntkreg._kernelmatrix")}
# third-party functions bound into an ntkreg module get a span named after that module
EXTERNAL_PACKAGES = ("numpy", "scipy")


def per_layer_spans() -> list:
    """The distinct span names of the benchmark's ``PER_LAYER`` table, in table order."""
    tree = ast.parse(RUN_PY.read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "PER_LAYER" for t in node.targets):
            table = ast.literal_eval(node.value)
            return list(dict.fromkeys(span for span, _, _ in table.values()))
    raise AssertionError(f"no PER_LAYER table in {RUN_PY}")


def traced_in(module, path: list) -> bool:
    """Whether the tracer wraps ``path`` (a function, a class's ``__init__``, or a method) of ``module``."""
    name, *member = path
    obj = vars(module).get(name)
    if name.startswith("_") or obj is None:
        return False
    if inspect.isfunction(obj):
        origin = obj.__module__ or ""
        return not member and (origin == module.__name__ or origin.split(".")[0] in EXTERNAL_PACKAGES)
    if not inspect.isclass(obj) or obj.__module__ != module.__name__ or len(member) > 1:
        return False
    if not member:  # the class's span times its own __init__, which a dataclass's is not
        return inspect.isfunction(vars(obj).get("__init__")) and not dataclasses.is_dataclass(obj)
    method = vars(obj).get(member[0])
    return not member[0].startswith("_") and (
        inspect.isfunction(method) or isinstance(method, (classmethod, staticmethod)))


def test_table_lists_the_net_training_spans():
    assert {"net.train_full", "net.distance_to_init", "net.layer_norms", "krr.cho_factor",
            "krr.PSDSolver"} <= set(per_layer_spans())


@pytest.mark.parametrize("span", per_layer_spans())
def test_span_names_a_function_of_its_layer(span):
    layer, *path = span.split(".")
    modules = [importlib.import_module(name) for name in LAYER_MODULES.get(layer, (f"ntkreg.{layer}",))]
    assert any(traced_in(module, path) for module in modules), f"{span} names no public function of layer {layer}"
