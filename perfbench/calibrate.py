"""Speed calibration loop, run beside the program under test.

    python3 perfbench/calibrate.py COUNTER_FILE

run.py pins itself, this loop and every request process to one core.
This loop lowers its own priority to nice 10, so it takes about a tenth
of that core while a request runs, in slices interleaved with the
request's.  Its work unit multiplies two fixed term maps (dicts from
packed 192-bit monomials to int coefficients), the operation at the
heart of grothpoly's term kernel, in the benchmark's own copy, so a
change to grothpoly does not change the unit.  It runs the unit forever,
and after every unit writes its count of units done and its own CPU time
into COUNTER_FILE, which it maps shared.

Units per CPU second between two readings is the speed the core gave
Python code over that interval.  On a shared host that speed moves by
up to half between phases of a few seconds, and a process on another
core does not see the same phases; a loop interleaved on the same core
does.  run.py scales each request's time by this speed (see ``Speed``
there).  The loop exits when its parent goes away.
"""

from __future__ import annotations

import mmap
import os
import random
import struct
import sys
import time

NICE = 10
RECORD = struct.Struct("ddd")  # units, cpu_s, units again: a reader retries a torn record


def _term_map(rng: random.Random, coefs: tuple[int, ...]) -> dict:
    """24 terms in 12 variables, exponents below 4, packed 16 bits each."""
    out = {}
    for _ in range(24):
        mono = 0
        for _ in range(12):
            mono = (mono << 16) | rng.randrange(4)
        out[mono] = rng.choice(coefs)
    return out


_RNG = random.Random(1)
FA = _term_map(_RNG, (1, -1, 2, -3))
FB = _term_map(_RNG, (1, -1, 5, -2))


def unit() -> int:
    """Product of FA and FB, zero terms dropped."""
    out: dict = {}
    get = out.get
    for ma, ca in FA.items():
        for mb, cb in FB.items():
            k = ma + mb
            v = get(k)
            out[k] = ca * cb if v is None else v + ca * cb
    return len({k: v for k, v in out.items() if v})


def main(path: str) -> int:
    os.nice(NICE)
    parent = os.getppid()
    with open(path, "r+b") as f:
        counter = mmap.mmap(f.fileno(), RECORD.size)
    done = 0
    while True:
        unit()
        done += 1
        counter[:] = RECORD.pack(done, time.thread_time(), done)
        if done % 1000 == 0 and os.getppid() != parent:
            return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
