"""Run one grothpoly CLI request with every term-kernel function checked
for a field that could carry into the next.

    PYTHONPATH=src python tests/carry_gate.py verify --all --n 5 --force-n

Two fields below 1 << (FIELD_BITS - 1) add without a carry, in the display
order and the y-low order alike.  So the kernel's functions are wrapped
from outside, as perfbench/tracer.py wraps them: every map they take or
return, and every monomial they shift a map by, must have each field, the
x-degree included, below that bound.  An accumulator of addmul or
addmul_all is read when it is pruned, which ends every ladder of adds,
rather than at each add.  The first map past the bound names the function
and stops the request with exit code 3; otherwise the exit code is the
CLI's, and one line on stderr counts the calls checked.  Nothing under
src/ knows of the wrappers, so the default path pays nothing for them.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter

from grothpoly import _termkernel_py as kernel
from grothpoly import cli
from grothpoly._packing import FIELD_BITS, TOP_BITS

CALLS: Counter = Counter()


def _refuse(fn: str, what: str, mono: int) -> None:
    print(f"carry gate: {fn} {what} holds a field of {1 << (FIELD_BITS - 1)} or more: {mono:#x}", file=sys.stderr)
    sys.stdout.flush()
    raise SystemExit(3)


def _check_map(fn: str, what: str, t) -> None:
    """Refuse a monomial of t (a map's keys) with a field's top bit set."""
    for m in t:
        if m & TOP_BITS:
            _refuse(fn, what, m)


def _gated(name: str, inner):
    @functools.wraps(inner)
    def gated(*args):
        CALLS[name] += 1
        if name == "addmul_all":
            args = (args[0], list(args[1]))
            for f, mono, _ in args[1]:
                _check_map(name, "a summand", f)
                _check_map(name, "a shift", (mono,))
        elif name == "addmul":
            _check_map(name, "a summand", args[1])
            _check_map(name, "a shift", (args[2],))
        else:
            for arg in args:
                if isinstance(arg, dict):
                    _check_map(name, "an argument", arg)
        out = inner(*args)
        if isinstance(out, dict):
            _check_map(name, "its result", out)
        return out

    return gated


KERNEL_FUNCTIONS = ("mul", "addmul", "addmul_all", "prune", "divdiff")


def install() -> None:
    """Wrap each kernel function in place.  Callers reach them through the
    module object, and the kernel's own calls (divdiff's addmul and prune)
    through its globals, so both see the wrappers."""
    for name in KERNEL_FUNCTIONS:
        setattr(kernel, name, _gated(name, getattr(kernel, name)))


def main(argv: list[str]) -> int:
    install()
    code = cli.main(argv)
    sys.stdout.flush()
    counts = ", ".join(f"{name} {CALLS[name]}" for name in KERNEL_FUNCTIONS)
    print(f"carry gate: no field reached {1 << (FIELD_BITS - 1)} ({counts} calls)", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
