"""Request streams of the three benchmark workloads.

A request is the argv of one ``grothpoly`` CLI process plus what the
correctness oracle needs to know about it.  Every stream is a pure
function of (workload, seed, smoke): the same seed gives the same
requests in the same order.

The multiset of (family, rank) pairs of each stream is fixed; the seed
draws members, formats, specialisations and the order.  Every table at
a given rank is built whole whatever member is asked for, so the cost
of a stream does not depend on the seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

CLASSICAL = ("G", "H", "Sd", "S", "Gx", "Hx")
QUANTUM = ("qG", "qH", "qS", "qGx", "qHx", "qSx", "bG", "bH")
FAMILIES = CLASSICAL + QUANTUM
FORMATS = ("text", "latex", "json")
IDEALS = ("x", "unsigned", "signed")
# the members an --ideal request may ask for; their outputs are goldens
IDEAL_WORDS = ("", "1", "21", "321")
SPEC_SHARE = 0.25  # share of rank <= 4 compute requests given --beta, and --q

WORKLOADS = ("verify_catalog", "compute_stream", "table_sweep")


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    family: str = ""
    n: int = 0
    w: tuple[int, ...] = ()
    fmt: str = ""
    beta: int | None = None
    q: str | None = None
    ideal: str | None = None

    @property
    def key(self) -> str:
        return " ".join(a if a else "''" for a in self.argv)

    @property
    def member_key(self) -> str:
        """Names the answer of an unspecialised compute request ("" otherwise)."""
        if self.beta is not None or self.q is not None or self.ideal is not None:
            return ""
        return f"{self.family} {self.n} {','.join(map(str, self.w))} {self.fmt}"

    def table_argv(self) -> tuple[str, ...]:
        """The ``table --format json`` request whose rows hold this answer."""
        argv = ["table", "--family", self.family, "--n", str(self.n), "--format", "json"]
        return tuple(argv + _spec_argv(self.beta, self.q))


def _spec_argv(beta: int | None, q: str | None) -> list[str]:
    out = []
    if beta is not None:
        out += ["--beta", str(beta)]
    if q is not None:
        out.append(f"--q={q}")  # a value like -1,0 would read as an option
    return out


def word_of(w: tuple[int, ...], rng: random.Random) -> str:
    """A random reduced word of w, as the CLI reads it.

    The CLI builds a permutation from a word by swapping positions
    a_k, a_k+1 of the identity, left to right.  Sorting w by adjacent
    swaps and reversing the swap sequence gives such a word.
    """
    cur = list(w)
    swaps = []
    while True:
        descents = [i for i in range(len(cur) - 1) if cur[i] > cur[i + 1]]
        if not descents:
            break
        i = rng.choice(descents)
        cur[i], cur[i + 1] = cur[i + 1], cur[i]
        swaps.append(i + 1)
    return "".join(str(a) for a in reversed(swaps))


def perm_of_word(word: str, n: int) -> tuple[int, ...]:
    w = list(range(1, n + 1))
    for c in word:
        a = int(c)
        w[a - 1], w[a] = w[a], w[a - 1]
    return tuple(w)


def _random_perm(n: int, rng: random.Random) -> tuple[int, ...]:
    w = list(range(1, n + 1))
    rng.shuffle(w)
    return tuple(w)


def verify_requests(seed: int, smoke: bool) -> list[Request]:
    n = 2 if smoke else 4
    argv = ("verify", "--all", "--n", str(n), "--seed", str(seed))
    return [Request(argv=argv, n=n)]


def _compute_request(family: str, n: int, rng: random.Random) -> Request:
    w = _random_perm(n, rng)
    fmt = rng.choice(FORMATS)
    beta = q = None
    # rank-5 answers are checked against goldens, which are unspecialised
    if n <= 4 and rng.random() < SPEC_SHARE:
        beta = rng.choice((-1, 1, 2))
    if n <= 4 and family in QUANTUM and rng.random() < SPEC_SHARE:
        q = ",".join(str(rng.choice((0, 1, -1))) for _ in range(rng.randint(1, n - 1)))
    if rng.random() < 0.5:
        member = ["--word", word_of(w, rng)]
    else:
        member = ["--perm", ",".join(map(str, w))]
    argv = ["compute", "--family", family, "--n", str(n), *member, "--format", fmt]
    argv += _spec_argv(beta, q)
    return Request(argv=tuple(argv), family=family, n=n, w=w, fmt=fmt, beta=beta, q=q)


def ideal_pool() -> list[Request]:
    """Every --ideal request the compute stream can draw."""
    out = []
    for family in CLASSICAL:
        for ideal in IDEALS:
            for word in IDEAL_WORDS:
                for fmt in FORMATS:
                    argv = ("compute", "--family", family, "--n", "4", "--word", word,
                            "--format", fmt, "--ideal", ideal)
                    out.append(Request(argv=argv, family=family, n=4,
                                       w=perm_of_word(word, 4), fmt=fmt, ideal=ideal))
    return out


def compute_requests(seed: int, smoke: bool) -> list[Request]:
    rng = random.Random(f"compute_stream:{seed}")
    if smoke:
        plan = [("G", 3, 1), ("qH", 2, 1), ("bH", 3, 1), ("Hx", 3, 1)]
        ideals = 1
    else:
        # rank 5 carries most of the cost: the H and Hx tables are Bruhat
        # interval sums over 120 members.  The 8 rank-5 H/Hx/G/Gx requests
        # are the slowest and the 7 rank-4 bH ones come next, so p90
        # (10 requests above it) is the third slowest bH request: inside
        # a group, not on the edge of one.
        rank5 = {"H": 3, "Hx": 3, "G": 1, "Gx": 1}
        plan = [(f, 4, 3) for f in CLASSICAL]
        plan += [(f, 5, rank5.get(f, 2)) for f in CLASSICAL]
        plan += [(f, 3, 3) for f in QUANTUM]
        plan += [(f, 4, 7 if f == "bH" else 5) for f in QUANTUM]
        ideals = 6
    out = []
    for family, n, copies in plan:
        for _ in range(copies):
            out.append(_compute_request(family, n, rng))
    out += rng.sample(ideal_pool(), ideals)
    rng.shuffle(out)
    return out


def _table(family: str, n: int, fmt: str, beta: int | None = None, q: str | None = None) -> Request:
    argv = ("table", "--family", family, "--n", str(n), "--format", fmt, *_spec_argv(beta, q))
    return Request(argv=argv, family=family, n=n, fmt=fmt, beta=beta, q=q)


def table_requests(seed: int, smoke: bool) -> list[Request]:
    """Fixed set; the seed only shuffles the order."""
    rng = random.Random(f"table_sweep:{seed}")
    if smoke:
        out = [_table(f, 2, fmt) for f in ("G", "qH") for fmt in FORMATS]
        out.append(_table("bG", 2, "text", beta=1, q="1"))
    else:
        out = [_table(f, n, fmt) for n in (3, 4) for f in FAMILIES for fmt in FORMATS]
        for i, f in enumerate(FAMILIES):
            fmt = FORMATS[i % 3]
            if f in QUANTUM:
                out.append(_table(f, 4, fmt, beta=(1, -1)[i % 2], q=("1,1,1", "0,2")[i % 2]))
            else:
                out.append(_table(f, 4, fmt, beta=(1, -1)[i % 2]))
        out += [_table("G", 5, "text"), _table("H", 5, "latex"), _table("Hx", 5, "json")]
    rng.shuffle(out)
    return out


def requests_for(workload: str, seed: int, smoke: bool = False) -> list[Request]:
    if workload == "verify_catalog":
        return verify_requests(seed, smoke)
    if workload == "compute_stream":
        return compute_requests(seed, smoke)
    if workload == "table_sweep":
        return table_requests(seed, smoke)
    raise ValueError(f"unknown workload {workload!r}")
