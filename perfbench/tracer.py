"""In-memory span tracer installed around ntkreg's layers from outside the package.

``Tracer.install`` wraps every public function in each ``ntkreg`` module
namespace, including the names a module bound with ``from ... import`` (so
``cli.krr_fit`` and ``krr.krr_fit`` share one wrapper, and scipy's
``cho_factor`` as bound in ``krr`` becomes the span ``krr.cho_factor``). It
also patches the methods of ntkreg's classes on the class objects, so no
call through an instance escapes its span.

A span is ``[name, parent_index, start, end, failed, size]``. ``size`` is a
computed quantity derived from the call's argument shapes or result (see
``SIZE_HOOKS``), never a measurement. Spans stay in memory and are written
out once, at the end of the process.
"""

import dataclasses
import functools
import inspect
import sys
import time

PACKAGE = "ntkreg"
# Layer name per module; ``_kernelmatrix`` belongs to the kernel layer.
LAYER_ALIASES = {"_kernelmatrix": "kernel"}
# Modules holding only exception types open no spans.
SKIPPED_MODULES = {"errors"}
# Third-party functions bound into an ntkreg namespace get a span too.
EXTERNAL_PACKAGES = ("numpy", "scipy")


def _rows(x) -> int:
    shape = getattr(x, "shape", ())
    return 1 if len(shape) < 2 else int(shape[0])


def _cho_factor_gflop(args):
    n = args["a"].shape[0]
    return n**3 / 3.0 / 1e9


def _cross_entries(args):
    return _rows(args["queries"]) * args["data"].n


def _gradients_bytes(args):
    return _rows(args["x"]) * args["mlp"].n_trainable_params * 8


def _gd_steps(result):
    return result.steps


# span name -> (hook, reads_result). Argument hooks also count failed calls,
# so a failed Cholesky attempt still adds its n^3/3.
SIZE_HOOKS = {
    "krr.cho_factor": (_cho_factor_gflop, False),
    "kernel.analytic_ntk_cross": (_cross_entries, False),
    "kernel.empirical_ntk_cross": (_cross_entries, False),
    "net.gradients_matrix": (_gradients_bytes, False),
    "linmodel.run_gd_rdi": (_gd_steps, True),
    "linmodel.run_gd_aux": (_gd_steps, True),
}


def layer_of(module_name: str) -> str:
    short = module_name.split(".", 1)[1]
    return LAYER_ALIASES.get(short, short)


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._wrapped = {}

    def wrap(self, fn, name: str):
        """Return ``fn`` wrapped in a span called ``name``."""
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter
        hook, reads_result = SIZE_HOOKS.get(name, (None, False))
        signature = inspect.signature(fn) if hook is not None and not reads_result else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0, False, 0.0]
            stack.append(len(spans))
            spans.append(span)
            result = None
            span[2] = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span[4] = True
                raise
            finally:
                span[3] = clock()
                stack.pop()
                if signature is not None:
                    span[5] = hook(signature.bind(*args, **kwargs).arguments)
                elif hook is not None and result is not None:
                    span[5] = hook(result)

        return traced

    def wrap_shared(self, fn, name: str):
        """Like ``wrap``, but one wrapper per function object."""
        if fn not in self._wrapped:
            self._wrapped[fn] = self.wrap(fn, name)
        return self._wrapped[fn]

    def install(self) -> None:
        modules = {
            name: module
            for name, module in list(sys.modules.items())
            if name.startswith(PACKAGE + ".") and module is not None
        }
        for name, module in modules.items():
            layer = layer_of(name)
            if layer in SKIPPED_MODULES:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj):
                    if obj.__module__ == name:
                        self.wrap_shared(obj, f"{layer}.{attr}")
                    elif (obj.__module__ or "").split(".")[0] in EXTERNAL_PACKAGES:
                        setattr(module, attr, self.wrap(obj, f"{layer}.{attr}"))
                elif (
                    inspect.isclass(obj)
                    and obj.__module__ == name
                    and not issubclass(obj, BaseException)
                ):
                    self._patch_class(obj, f"{layer}.{obj.__name__}")
        # Rebind every ntkreg-defined function wherever it is bound, the
        # package's re-exports included.
        for module in [sys.modules[PACKAGE], *modules.values()]:
            for attr, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in self._wrapped:
                    setattr(module, attr, self._wrapped[obj])

    def _patch_class(self, cls, prefix: str) -> None:
        init = cls.__dict__.get("__init__")
        if inspect.isfunction(init) and not dataclasses.is_dataclass(cls):
            cls.__init__ = self.wrap(init, prefix)
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            if isinstance(member, (classmethod, staticmethod)):
                setattr(cls, attr, type(member)(self.wrap(member.__func__, f"{prefix}.{attr}")))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.wrap(member, f"{prefix}.{attr}"))
