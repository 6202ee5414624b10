"""Run one grothpoly CLI request with every layer function wrapped in a span.

    PYTHONPATH=src python perfbench/tracer.py OUT.json -- compute --family G --n 4 --word 1

The wrappers are installed from outside the package: nothing under src/
knows about them.  Each span records its duration; its self time is the
duration minus the time covered by the spans it encloses.  Aggregates
(calls, self time, inclusive time per function, plus a few counters) stay
in memory and are written to OUT.json when the request ends.

Functions cheaper than a wrapper call are left bare (``BARE``); their time
shows in the self time of the wrapped function that called them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("_termkernel_py", "_packing", "poly", "perms", "divdiff", "classical", "quantum", "cli")

# millions of calls per verify run, each cheaper than a span
BARE = {
    "_packing.shift",
    "_packing._slot",
    "_packing.unit",
    "_packing.display_sort_key",
    "_packing.Var.name",
    "classical.NormalFormContext._reducer_for",
}
# dunders worth a span: the arithmetic of the two polynomial value types
DUNDERS = {"__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
           "__pow__", "__neg__", "__eq__"}
DUNDER_CLASSES = {"poly.MultiPoly", "poly.RatExpr"}

_perf = time.perf_counter


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, self_s, incl_s]
        self.counters: dict[str, int] = {}
        self.build_s: dict[str, float] = {}
        self.hook_s = 0.0
        self._stack: list[list[float]] = []  # child time covered, per open span
        self._seen_tables: set = set()
        self._table_depth: dict[str, int] = {}

    def count(self, name: str, k: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + k

    def wrap(self, name: str, fn, hook=None):
        if getattr(fn, "__perfbench_span__", False):
            return fn
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = _perf() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dt - frame[0]
                stats[2] += dt
                if stack:
                    stack[-1][0] += dt
            if hook is not None:
                # bookkeeping is charged to no layer: it is tracing overhead
                h0 = _perf()
                try:
                    hook(args, result)
                except (AttributeError, IndexError, TypeError):
                    pass  # a changed signature or result type loses the counter, not the request
                hdt = _perf() - h0
                self.hook_s += hdt
                if stack:
                    stack[-1][0] += hdt
            return result

        span.__perfbench_span__ = True
        return span

    def wrap_table(self, name: str, fn):
        """family_table / quantum_table: count builds (first call for a key)
        and the inclusive time of outermost builds."""
        inner = self.wrap(name, fn)

        def table(n, family, *args, **kwargs):
            key = (name, n, family)
            build = key not in self._seen_tables
            self._seen_tables.add(key)
            if build:
                self.count(name + ".builds")
            depth = self._table_depth.get(name, 0)
            outer = build and depth == 0
            self._table_depth[name] = depth + 1
            t0 = _perf()
            try:
                return inner(n, family, *args, **kwargs)
            finally:
                self._table_depth[name] = depth
                if outer:
                    self.build_s[name] = self.build_s.get(name, 0.0) + _perf() - t0

        return functools.wraps(fn)(table)

    def dump(self) -> dict:
        return {"stats": self.stats, "counters": self.counters,
                "build_s": self.build_s, "hook_s": self.hook_s}


def _hooks(tr: Tracer) -> dict:
    def reduce_hook(args, result):
        tr.count("classical.reduce.terms_in", len(args[1]._t))
        tr.count("classical.reduce.terms_out", len(result._t))

    def apply_op_hook(args, result):
        tr.count("divdiff.apply_op.calls." + {"del": "del", "pi+": "pi_plus", "pi-": "pi_minus"}.get(args[0], "other"))

    def size_hook(name):
        return lambda args, result: tr.count(name, len(result))

    def mul_hook(args, result):
        tr.count("kernel.mul.term_products", len(args[0]) * len(args[1]))

    def addmul_hook(args, result):
        tr.count("kernel.addmul.terms", len(args[1]))

    def text_bytes(name):
        return lambda args, result: tr.count(name, len(result))

    def json_bytes(args, result):
        tr.count("poly.render.json.bytes", len(json.dumps(result, separators=(",", ":"))))

    return {
        "classical.NormalFormContext.reduce": reduce_hook,
        "divdiff.apply_op": apply_op_hook,
        "perms.bruhat_lower": size_hook("perms.bruhat_lower.size"),
        "perms.bruhat_upper": size_hook("perms.bruhat_upper.size"),
        "_termkernel_py.mul": mul_hook,
        "_termkernel_py.addmul": addmul_hook,
        "poly.MultiPoly.text": text_bytes("poly.render.text.bytes"),
        "poly.MultiPoly.latex": text_bytes("poly.render.latex.bytes"),
        "poly.MultiPoly.json_obj": json_bytes,
    }


def _rebind(old, new, modules) -> None:
    """Point every module-level name bound to ``old`` at ``new``."""
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, attr, new)


def install(tr: Tracer) -> None:
    pkg = importlib.import_module("grothpoly")
    importlib.import_module("grothpoly.cli")
    mods = {}
    for layer in LAYERS:
        try:
            mods[layer] = importlib.import_module("grothpoly." + layer)
        except ImportError:
            continue
    everyone = [pkg] + [m for k, m in sys.modules.items() if k.startswith("grothpoly.") and m]
    hooks = _hooks(tr)
    for layer, mod in mods.items():
        for attr, val in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if inspect.isfunction(val) and val.__module__ == mod.__name__:
                if name in BARE:
                    continue
                if attr in ("family_table", "quantum_table"):
                    new = tr.wrap_table(name, val)
                else:
                    new = tr.wrap(name, val, hooks.get(name))
                _rebind(val, new, everyone)
            elif inspect.isclass(val) and val.__module__ == mod.__name__:
                _wrap_class(tr, name, val, hooks)


def _wrap_class(tr: Tracer, prefix: str, cls, hooks) -> None:
    for attr, raw in list(vars(cls).items()):
        name = f"{prefix}.{attr}"
        dunder_ok = prefix in DUNDER_CLASSES and attr in DUNDERS
        if name in BARE or (attr.startswith("__") and not dunder_ok):
            continue
        if isinstance(raw, (classmethod, staticmethod)):
            setattr(cls, attr, type(raw)(tr.wrap(name, raw.__func__, hooks.get(name))))
        elif inspect.isfunction(raw):
            setattr(cls, attr, tr.wrap(name, raw, hooks.get(name)))


def main(argv: list[str]) -> int:
    out_path, sep, cli_argv = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json -- <grothpoly argv>")
    tr = Tracer()
    install(tr)
    from grothpoly import cli

    try:
        code = cli.main(cli_argv)
    finally:
        sys.stdout.flush()
        record = tr.dump()
        try:
            classical = importlib.import_module("grothpoly.classical")
            record["counters"]["classical.mu_cache.entries"] = len(getattr(classical, "_MU_CACHE", ()))
        except ImportError:
            pass
        with open(out_path, "w") as f:
            json.dump(record, f)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
