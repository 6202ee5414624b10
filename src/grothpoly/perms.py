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
from itertools import permutations as _itertools_perms


class Permutation:
    __slots__ = ("oneline",)

    def __init__(self, oneline: Iterable[int]):
        w = tuple(oneline)
        if sorted(w) != list(range(1, len(w) + 1)):
            raise ValueError(f"not a permutation of 1..{len(w)}: {w}")
        self.oneline = w

    @property
    def n(self) -> int:
        return len(self.oneline)

    def __call__(self, i: int) -> int:
        return self.oneline[i - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        if self.n != other.n:
            raise ValueError("rank mismatch")
        return Permutation(tuple(self.oneline[v - 1] for v in other.oneline))

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for pos, v in enumerate(self.oneline, start=1):
            inv[v - 1] = pos
        return Permutation(inv)

    def length(self) -> int:
        """Number of inversions."""
        w = self.oneline
        return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])

    def code(self) -> tuple[int, ...]:
        """c_i = #{j > i : w(j) < w(i)}; sums to the length."""
        w = self.oneline
        return tuple(
            sum(1 for j in range(i + 1, len(w)) if w[j] < w[i]) for i in range(len(w))
        )

    def is_dominant(self) -> bool:
        """Weakly decreasing code."""
        c = self.code()
        return all(c[i] >= c[i + 1] for i in range(len(c) - 1))

    def right_descents(self) -> list[int]:
        w = self.oneline
        return [i for i in range(1, len(w)) if w[i - 1] > w[i]]

    def left_descents(self) -> list[int]:
        return self.inverse().right_descents()

    def times_s(self, i: int) -> "Permutation":
        """Right multiply by s_i: swap positions i, i+1."""
        w = list(self.oneline)
        w[i - 1], w[i] = w[i], w[i - 1]
        return Permutation(w)

    def s_times(self, i: int) -> "Permutation":
        """Left multiply by s_i: swap the values i, i+1."""
        swap = {i: i + 1, i + 1: i}
        return Permutation(tuple(swap.get(v, v) for v in self.oneline))

    def embed(self, m: int) -> "Permutation":
        """Image under the standard inclusion fixing n+1..m."""
        if m < self.n:
            raise ValueError("cannot embed into smaller rank")
        return Permutation(self.oneline + tuple(range(self.n + 1, m + 1)))

    def is_identity(self) -> bool:
        return all(v == i for i, v in enumerate(self.oneline, start=1))

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self.oneline == other.oneline

    def __hash__(self) -> int:
        return hash(self.oneline)

    def __lt__(self, other: "Permutation") -> bool:
        return self.oneline < other.oneline

    def __repr__(self) -> str:
        return f"Permutation({list(self.oneline)})"


def identity(n: int) -> Permutation:
    return Permutation(range(1, n + 1))


def longest(n: int) -> Permutation:
    """The order-reversing permutation, the unique one of maximal length."""
    return Permutation(range(n, 0, -1))


def transposition(i: int, j: int, n: int) -> Permutation:
    if not 1 <= i < j <= n:
        raise ValueError("need 1 <= i < j <= n")
    w = list(range(1, n + 1))
    w[i - 1], w[j - 1] = w[j - 1], w[i - 1]
    return Permutation(w)


def from_word(word: Iterable[int], n: int) -> Permutation:
    w = identity(n)
    for a in word:
        if not 1 <= a <= n - 1:
            raise ValueError(f"letter {a} out of range for rank {n}")
        w = w.times_s(a)
    return w


def all_perms(n: int) -> list[Permutation]:
    return [Permutation(p) for p in _itertools_perms(range(1, n + 1))]


def by_length(n: int) -> list[Permutation]:
    """All of S_n sorted by (length, one-line), the table order."""
    return sorted(all_perms(n), key=lambda w: (w.length(), w.oneline))


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
    if u.n != v.n:
        raise ValueError("rank mismatch")
    n = u.n
    for j in range(1, n + 1):
        cu = cv = 0
        for i in range(1, n + 1):
            cu += u(i) >= j
            cv += v(i) >= j
            if cu > cv:
                return False
    return True


def bruhat_lower(w: Permutation) -> list[Permutation]:
    """All v <= w, sorted by (length, one-line)."""
    return [v for v in by_length(w.n) if bruhat_leq(v, w)]


def bruhat_upper(w: Permutation) -> list[Permutation]:
    """All v >= w, sorted by (length, one-line)."""
    return [v for v in by_length(w.n) if bruhat_leq(w, v)]
