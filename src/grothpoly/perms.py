"""Permutations of {1..n} in one-line notation, with word and order utilities.

Composition is right-to-left as maps: (u * v)(i) = u(v(i)).  A word
[a1, ..., ap] multiplies out as s_a1 * s_a2 * ... * s_ap, so building a
permutation from a word swaps positions a_k, a_k+1 of the one-line array
left to right:

>>> from_word([1, 2, 1], 3).oneline
(3, 2, 1)
>>> from_word([1, 2], 3).oneline
(2, 3, 1)
"""

from __future__ import annotations

from collections.abc import Iterable
from functools import cache
from itertools import permutations as _itertools_perms

from ._packing import N_MAX


class Permutation(tuple):
    """A permutation of 1..n as the tuple of its one-line notation.

    Construction checks that the entries are the ints 1..n in some order,
    no floats or bools.  Being a tuple, it hashes, compares and sorts as
    its one-line tuple, in C, and compares equal to it:
    Permutation([2, 1]) == (2, 1).  Products, inverses and the other
    derived permutations skip the check through _new, since they are
    permutations by construction.
    """

    __slots__ = ()

    def __new__(cls, oneline: Iterable[int]) -> "Permutation":
        w = tuple(oneline)
        if not all(type(i) is int for i in w) or sorted(w) != list(range(1, len(w) + 1)):
            raise ValueError(f"not a permutation of 1..{len(w)}: {w}")
        return tuple.__new__(cls, w)

    @property
    def oneline(self) -> tuple[int, ...]:
        return tuple(self)

    @property
    def n(self) -> int:
        return len(self)

    def __call__(self, i: int) -> int:
        return self[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if len(self) != len(other):
            raise ValueError("rank mismatch")
        # (0,) + self reads self 1-based, so each entry is one C-level lookup
        return _new(map(((0,) + self).__getitem__, other))

    def inverse(self) -> "Permutation":
        # the positions 1..n ordered by the value self holds there
        return _new(sorted(range(1, len(self) + 1), key=((0,) + self).__getitem__))

    @cache
    def length(self) -> int:
        """Number of inversions, memoised per permutation."""
        return sum(a > b for i, a in enumerate(self) for b in self[i + 1 :])

    def code(self) -> tuple[int, ...]:
        """c_i = #{j > i : w(j) < w(i)}; sums to the length."""
        return tuple(sum(b < a for b in self[i + 1 :]) for i, a in enumerate(self))

    def is_dominant(self) -> bool:
        """Weakly decreasing code."""
        c = self.code()
        return all(c[i] >= c[i + 1] for i in range(len(c) - 1))

    def right_descents(self) -> list[int]:
        return [i for i in range(1, len(self)) if self[i - 1] > self[i]]

    def left_descents(self) -> list[int]:
        return self.inverse().right_descents()

    def times_s(self, i: int) -> "Permutation":
        """Right multiply by s_i: swap positions i, i+1."""
        w = list(self)
        w[i - 1], w[i] = w[i], w[i - 1]
        return _new(w)

    def s_times(self, i: int) -> "Permutation":
        """Left multiply by s_i: swap the values i, i+1."""
        w = list(self)
        a, b = w.index(i), w.index(i + 1)
        w[a], w[b] = i + 1, i
        return _new(w)

    def embed(self, m: int) -> "Permutation":
        """Image under the standard inclusion fixing n+1..m; raises
        ValueError on an m that is not an int, is below n or is past N_MAX."""
        check_max_rank(m)
        if m < len(self):
            raise ValueError("cannot embed into smaller rank")
        return _new(self + tuple(range(len(self) + 1, m + 1)))

    def is_identity(self) -> bool:
        return not self.length()

    def __repr__(self) -> str:
        return f"Permutation({list(self)})"


def _new(entries: Iterable[int]) -> Permutation:
    """A Permutation of entries known to be a permutation: no check."""
    return tuple.__new__(Permutation, entries)


def check_int_rank(n: int) -> None:
    """Refuse a rank that is not an int (a bool is not one) with
    ValueError: the one type test every rank parameter goes through."""
    if type(n) is not int:
        raise ValueError(f"a rank is an int, not {n!r}")


def check_max_rank(n: int) -> None:
    """Refuse a rank that is not an int or is past N_MAX (no variable
    x_{N_MAX+1} exists) with ValueError, before any work is done."""
    check_int_rank(n)
    if n > N_MAX:
        raise ValueError(f"rank must be at most {N_MAX}, got {n}")


def check_rank(n: int) -> None:
    """Refuse a rank that is not an int, is below 1 or is past N_MAX (no
    variable x_{N_MAX+1} exists), the one wording for the library and the
    CLI."""
    check_max_rank(n)
    if n < 1:
        raise ValueError(f"rank must be at least 1, got {n}")


def identity(n: int) -> Permutation:
    check_max_rank(n)
    return _new(range(1, n + 1))


def longest(n: int) -> Permutation:
    """The order-reversing permutation, the unique one of maximal length."""
    check_max_rank(n)
    return _new(range(n, 0, -1))


def transposition(i: int, j: int, n: int) -> Permutation:
    """The permutation of S_n swapping i and j; raises ValueError unless
    i, j and n are ints (bools excluded) with 1 <= i < j <= n <= N_MAX."""
    check_max_rank(n)
    bad = [v for v in (i, j) if type(v) is not int]
    if bad:
        raise ValueError(f"a transposed entry is an int, not {bad[0]!r}")
    if not 1 <= i < j <= n:
        raise ValueError("need 1 <= i < j <= n")
    w = list(range(1, n + 1))
    w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
    return _new(w)


def from_word(word: Iterable[int], n: int) -> Permutation:
    """s_a1 s_a2 ... for the letters a of word; raises ValueError on a
    letter that is not an int (bools included) or lies outside 1..n-1."""
    word = tuple(word)
    bad = [a for a in word if type(a) is not int]
    if bad:
        raise ValueError(f"a letter is an int, not {bad[0]!r}")
    w = identity(n)
    for a in word:
        if not 1 <= a <= n - 1:
            raise ValueError(f"letter {a} out of range for rank {n}")
        w = w.times_s(a)
    return w


@cache
def _all_perms(n: int) -> tuple[Permutation, ...]:
    return tuple(map(_new, _itertools_perms(range(1, n + 1))))


@cache
def _by_length(n: int) -> tuple[Permutation, ...]:
    return tuple(sorted(_all_perms(n), key=lambda w: (w.length(), w)))


def all_perms(n: int) -> list[Permutation]:
    """All of S_n in lexicographic one-line order: a new list each call,
    copied from one tuple built once per rank."""
    check_max_rank(n)
    return list(_all_perms(n))


def by_length(n: int) -> list[Permutation]:
    """All of S_n sorted by (length, one-line), the table order: a new
    list each call, copied from one tuple built once per rank."""
    check_max_rank(n)
    return list(_by_length(n))


def first_reduced_word(w: Permutation) -> tuple[int, ...]:
    """One canonical reduced word (smallest right descent peeled last)."""
    word: list[int] = []
    while True:
        ds = w.right_descents()
        if not ds:
            break
        word.append(ds[0])
        w = w.times_s(ds[0])
    return tuple(reversed(word))


def reduced_words(w: Permutation) -> list[tuple[int, ...]]:
    """Every reduced word, lexicographically sorted.

    >>> sorted(reduced_words(longest(3)))
    [(1, 2, 1), (2, 1, 2)]
    """
    if w.is_identity():
        return [()]
    out: list[tuple[int, ...]] = []
    for i in w.right_descents():
        for head in reduced_words(w.times_s(i)):
            out.append(head + (i,))
    return sorted(out)


def bruhat_leq(u: Permutation, v: Permutation) -> bool:
    """Order comparison via the rank-matrix criterion.

    u <= v iff for every (i, j) the count #{k <= i : u(k) >= j} is at most
    the same count for v.
    """
    if len(u) != len(v):
        raise ValueError("rank mismatch")
    for j in range(1, len(u) + 1):
        cu = cv = 0
        for a, b in zip(u, v):
            cu += a >= j
            cv += b >= j
            if cu > cv:
                return False
    return True


def bruhat_lower(w: Permutation) -> list[Permutation]:
    """All v <= w, sorted by (length, one-line)."""
    return [v for v in by_length(w.n) if bruhat_leq(v, w)]


def bruhat_upper(w: Permutation) -> list[Permutation]:
    """All v >= w, sorted by (length, one-line)."""
    return [v for v in by_length(w.n) if bruhat_leq(w, v)]
