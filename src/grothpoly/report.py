"""The identity-check registry, the one entry point that runs a check, and
the report record it returns.

A checker is registered with ``@check(id, soft=..., hard=...)``: ``soft`` is
the default rank cap, ``hard`` the cap that ``force`` lifts it to.  The
catalog order is definition order, classical checks first, because the
quantum module imports the classical one.

A checker passes by returning its detail (a JSON-ready dict, or None) and
fails by raising ``Counterexample`` with the failure's fields as library
values.  ``verify`` alone turns those fields into the report's JSON form.
"""

from __future__ import annotations

import time
from collections import namedtuple
from collections.abc import Callable

from .perms import Permutation, check_int_rank
from .poly import MultiPoly


class Counterexample(Exception):
    """A check's failure, as keyword fields: Counterexample(w=w, k=k, difference=lhs - rhs)."""

    def __init__(self, **fields):
        super().__init__(fields)
        self.fields = fields


# fn(n, rng) -> detail or None, raising Counterexample to fail; soft the
# default rank cap, hard the cap with force
Check = namedtuple("Check", "fn soft hard")


CHECKS: dict[str, Check] = {}


def check(check_id: str, soft: int = 4, hard: int = 5):
    """Register the decorated checker under check_id with its rank caps."""

    def register(fn: Callable[[int, random.Random], dict | None]):
        CHECKS[check_id] = Check(fn, soft, hard)
        return fn

    return register


class VerificationReport(
    namedtuple("VerificationReport", "check_id n status counterexample ms detail", defaults=(None,))
):
    """One check's outcome; status is "pass" or "fail"."""

    __slots__ = ()

    @property
    def ok(self) -> bool:
        return self.status == "pass"

    def json_line(self) -> str:
        import json  # not at module level: compute and table never encode JSON

        obj = {
            "id": self.check_id,
            "n": self.n,
            "status": self.status,
            "counterexample": self.counterexample,
            "ms": round(self.ms, 3),
        }
        if self.detail is not None:
            obj["detail"] = self.detail
        return json.dumps(obj, separators=(",", ":"))

    def text_line(self) -> str:
        mark = "PASS" if self.ok else "FAIL"
        extra = ""
        if self.detail:
            import json

            extra = " " + json.dumps(self.detail, separators=(",", ":"))
        return f"{mark} {self.check_id} n={self.n} ({self.ms:.1f} ms){extra}"


def check_rank(n: int) -> None:
    """Refuse a rank that is not an int or is below 1, the one wording for
    the library and the CLI."""
    check_int_rank(n)
    if n < 1:
        raise ValueError(f"rank must be at least 1, got {n}")


def rank_caps(check_id: str) -> tuple[int, int]:
    """(default cap, forced cap) for one check id."""
    if check_id not in CHECKS:
        raise KeyError(f"unknown check {check_id!r}")
    c = CHECKS[check_id]
    return c.soft, c.hard


def check_caps(check_id: str, n: int, force: bool = False) -> None:
    """Refuse a rank check_id does not run at: below 1, above its hard cap,
    or above its default cap without force."""
    soft, hard = rank_caps(check_id)
    check_rank(n)
    if n > hard:
        raise ValueError(f"{check_id} is capped at n={hard}")
    if n > soft and not force:
        raise ValueError(f"{check_id} above n={soft} needs --force-n")


def verify(check_id: str, n: int, seed: int = 0, force: bool = False) -> VerificationReport:
    """Run one registered check at rank n; ranks above the default cap need
    force.  Raises ValueError on a seed that is not an int, a bool included."""
    import random  # not at module level: only a check draws from an rng

    check_caps(check_id, n, force)
    if type(seed) is not int:
        raise ValueError(f"a seed is an int, not {seed!r}")
    rng = random.Random(seed)
    start = time.perf_counter()
    try:
        detail, counterexample = CHECKS[check_id].fn(n, rng), None
    except Counterexample as failure:
        detail, counterexample = None, failure.fields
    ms = (time.perf_counter() - start) * 1000.0
    if counterexample is not None:
        # the one place a counterexample gets its JSON form
        counterexample = {
            key: v.json_obj() if isinstance(v, MultiPoly) else list(v) if isinstance(v, Permutation) else v
            for key, v in counterexample.items()
        }
    return VerificationReport(
        check_id=check_id,
        n=n,
        status="pass" if counterexample is None else "fail",
        counterexample=counterexample,
        ms=ms,
        detail=detail,
    )
