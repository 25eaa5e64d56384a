"""Run one buildingflow command with spans around the package's public functions.

Usage: python perfbench/tracer.py SPANS_JSON <buildingflow arguments...>

The command runs exactly as ``python -m buildingflow <arguments>`` would,
with the same stdout and exit code.  Before it starts, every public
function of the six modules is rebound, under each name a caller looks
it up by (``building`` holds its own ``FiniteField``, ``cli`` its own
``is_supported_q``), to a wrapper that records a span: name, start, end,
parent span.  Spans stay in memory and are written to SPANS_JSON when
the command ends, together with the in-process import time and the
``edge_transitions`` cache statistics while that cache exists.
"""

import sys
import time

_T0 = time.perf_counter()
import buildingflow  # noqa: E402

IMPORT_S = time.perf_counter() - _T0

import functools  # noqa: E402
import importlib  # noqa: E402
import inspect  # noqa: E402
import json  # noqa: E402

MODULES = ("cli", "crosscheck", "building", "shift", "analysis", "algebra")

#: Classes traced through ``__init__``; other classes are per-edge values.
CLASSES = {"algebra.FiniteField"}

#: Inner steps of the DP (one dp_step per step, one fold per uncached
#: transition: ~2,500 and ~32,000 calls in one g-sequence command); their
#: time shows inside the enclosing dp_g / dp_f / dp_profiles span.
UNTRACED = {"shift.dp_step", "shift.fold", "shift.sector_neighbors"}

#: Arguments recorded with the span, from which the work counts follow.
ARGS = {
    "building.oracle_g_f": ("q", "n", "dim"),
    "shift.dp_g": ("q", "n"),
    "shift.dp_f": ("q", "n"),
    "shift.dp_profiles": ("q", "steps"),
}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1, args or None]
        self._stack = []

    def wrap(self, name, fn, arg_names=()):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        sig = inspect.signature(fn) if arg_names else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            if sig is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                rec[4] = [bound.arguments[a] for a in arg_names]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return traced

    def install(self):
        mods = {}
        for short in MODULES:
            try:
                mods[short] = importlib.import_module(f"buildingflow.{short}")
            except ModuleNotFoundError:
                continue
        namespaces = [buildingflow, *mods.values()]
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj):
                    if name in CLASSES:
                        obj.__init__ = self.wrap(name, obj.__init__)
                    continue
                if (
                    not inspect.isfunction(obj)
                    or inspect.isgeneratorfunction(obj)
                    or name in UNTRACED
                ):
                    continue
                wrapped = self.wrap(name, obj, ARGS.get(name, ()))
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is obj:
                            setattr(ns, key, wrapped)


def _cache_info():
    edge_transitions = getattr(sys.modules.get("buildingflow.shift"), "edge_transitions", None)
    info = getattr(edge_transitions, "cache_info", None)
    if info is None:
        return None
    ci = info()
    return {"hits": ci.hits, "misses": ci.misses}


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    cli = sys.modules["buildingflow.cli"]
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        with open(out_path, "w") as fh:
            json.dump(
                {"import_s": IMPORT_S, "spans": tracer.spans, "cache": _cache_info()}, fh
            )


if __name__ == "__main__":
    sys.exit(main())
