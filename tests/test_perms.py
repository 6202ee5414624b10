"""Permutation arithmetic, reduced words, and Bruhat order against brute
force oracles on small symmetric groups."""

from __future__ import annotations

import itertools

import pytest

from grothpoly.perms import (
    Permutation,
    all_perms,
    bruhat_leq,
    bruhat_lower,
    bruhat_upper,
    by_length,
    first_reduced_word,
    from_word,
    identity,
    longest,
    reduced_words,
    transposition,
)


def brute_length(w: Permutation) -> int:
    return sum(
        1
        for i in range(1, w.n + 1)
        for j in range(i + 1, w.n + 1)
        if w(i) > w(j)
    )


class TestBasics:
    def test_composition_convention(self):
        # (u*v)(i) = u(v(i)), checked pointwise across all of S3 x S3
        for u in all_perms(3):
            for v in all_perms(3):
                w = u * v
                for i in range(1, 4):
                    assert w(i) == u(v(i))

    def test_inverse_and_identity(self):
        for w in all_perms(4):
            assert w * w.inverse() == identity(4)
            assert w.inverse() * w == identity(4)

    def test_length_matches_inversion_count(self):
        for w in all_perms(4):
            assert w.length() == brute_length(w)

    def test_longest_element(self):
        w0 = longest(4)
        assert [w0(i) for i in range(1, 5)] == [4, 3, 2, 1]
        assert w0.length() == 6
        assert w0 * w0 == identity(4)

    def test_code_and_dominant(self):
        assert identity(3).code() == (0, 0, 0)
        assert longest(3).code() == (2, 1, 0)
        # dominant = weakly decreasing code; in S4 these are counted by
        # subdiagrams of the staircase (2,1,0), i.e. Catalan(4) = 14
        doms = [w for w in all_perms(4) if w.is_dominant()]
        assert len(doms) == 14
        for w in doms:
            c = w.code()
            assert all(c[i] >= c[i + 1] for i in range(len(c) - 1))

    def test_descents(self):
        w = Permutation([3, 1, 2])
        assert w.right_descents() == [1]
        assert w.left_descents() == [2]
        for u in all_perms(4):
            assert u.right_descents() == [
                i for i in range(1, 4) if u(i) > u(i + 1)
            ]
            assert u.left_descents() == u.inverse().right_descents()

    def test_embed(self):
        w = Permutation([2, 3, 1])
        v = w.embed(5)
        assert [v(i) for i in range(1, 6)] == [2, 3, 1, 4, 5]
        assert v.length() == w.length()

    def test_transposition(self):
        t = transposition(1, 3, 4)
        assert [t(i) for i in range(1, 5)] == [3, 2, 1, 4]
        assert t * t == identity(4)

    def test_bad_oneline_rejected(self):
        with pytest.raises(ValueError):
            Permutation([1, 1, 2])


class TestWords:
    def test_from_word_roundtrip(self):
        for n in (2, 3, 4):
            for w in all_perms(n):
                word = first_reduced_word(w)
                assert len(word) == w.length()
                assert from_word(word, n) == w

    def test_from_word_is_right_multiplication(self):
        # building letter by letter must agree with multiplying simple
        # reflections on the right in word order
        word = (1, 2, 1, 3)
        acc = identity(4)
        for i in word:
            acc = acc.times_s(i)
        assert from_word(word, 4) == acc

    def test_from_word_bad_letter(self):
        with pytest.raises(ValueError):
            from_word((3,), 3)
        with pytest.raises(ValueError):
            from_word((0,), 3)

    def test_reduced_words_vs_enumeration(self):
        for w in all_perms(3):
            ell = w.length()
            brute = sorted(
                word
                for word in itertools.product((1, 2), repeat=ell)
                if from_word(word, 3) == w
            )
            assert sorted(reduced_words(w)) == brute

    def test_reduced_words_count_of_longest_s4(self):
        assert len(reduced_words(longest(4))) == 16

    def test_times_s_and_s_times(self):
        for w in all_perms(3):
            for i in (1, 2):
                assert w.times_s(i) == w * from_word((i,), 3)
                assert w.s_times(i) == from_word((i,), 3) * w


def subword_bruhat(u: Permutation, v: Permutation) -> bool:
    """u <= v iff some reduced word of v has a subword that is a reduced
    word of u (checked by brute force)."""
    target = set(reduced_words(u))
    if not target:
        return True
    for word in reduced_words(v):
        k = len(next(iter(target)))
        for picks in itertools.combinations(range(len(word)), k):
            if tuple(word[p] for p in picks) in target:
                return True
    return False


class TestBruhat:
    def test_bruhat_vs_subword_oracle_s3(self):
        for u in all_perms(3):
            for v in all_perms(3):
                assert bruhat_leq(u, v) == subword_bruhat(u, v)

    def test_bruhat_partial_order_s4(self):
        ps = all_perms(4)
        for u in ps:
            assert bruhat_leq(u, u)
            assert bruhat_leq(identity(4), u)
            assert bruhat_leq(u, longest(4))
        for u in ps:
            for v in ps:
                if bruhat_leq(u, v) and bruhat_leq(v, u):
                    assert u == v
                if bruhat_leq(u, v) and u != v:
                    assert u.length() < v.length()

    def test_lower_upper_sets(self):
        for w in all_perms(3):
            lower = set(bruhat_lower(w))
            upper = set(bruhat_upper(w))
            assert lower == {v for v in all_perms(3) if bruhat_leq(v, w)}
            assert upper == {v for v in all_perms(3) if bruhat_leq(w, v)}

    def test_by_length_ordering(self):
        seq = by_length(3)
        assert len(seq) == 6
        lens = [w.length() for w in seq]
        assert lens == sorted(lens)
        # ties broken by one-line notation
        assert [tuple(w(i) for i in range(1, 4)) for w in seq[1:3]] == [
            (1, 3, 2),
            (2, 1, 3),
        ]


class _Reference:
    """Permutation as it was before it became a tuple: an object holding
    its one-line tuple, validated on every construction."""

    __slots__ = ("oneline",)

    def __init__(self, oneline):
        w = tuple(oneline)
        if sorted(w) != list(range(1, len(w) + 1)):
            raise ValueError(f"not a permutation of 1..{len(w)}: {w}")
        self.oneline = w

    @property
    def n(self):
        return len(self.oneline)

    def __call__(self, i):
        return self.oneline[i - 1]

    def __eq__(self, other):
        return isinstance(other, _Reference) and self.oneline == other.oneline

    def __hash__(self):
        return hash(self.oneline)

    def __lt__(self, other):
        return self.oneline < other.oneline

    def __repr__(self):
        return f"Permutation({list(self.oneline)})"


SMALL = [w for n in range(0, 6) for w in all_perms(n)]


class TestTupleSemantics:
    def test_matches_the_reference_class(self):
        for w in SMALL:
            ref = _Reference(w.oneline)
            assert hash(w) == hash(ref)
            assert repr(w) == repr(ref) and str(w) == repr(ref)
            assert w.oneline == ref.oneline and type(w.oneline) is tuple
            assert w.n == ref.n
            assert [w(i) for i in range(1, w.n + 1)] == [ref(i) for i in range(1, ref.n + 1)]
            # a validated tuple: equal to its one-line tuple, and to nothing else
            assert w == ref.oneline and w == Permutation(ref.oneline)
            assert w != list(ref.oneline)

    def test_order_and_equality_match_the_reference(self):
        for n in range(1, 6):
            perms = all_perms(n)
            refs = [_Reference(w.oneline) for w in perms]
            for u, ru in zip(perms, refs):
                for v, rv in zip(perms, refs):
                    assert (u < v) == (ru < rv)
                    assert (u == v) == (ru == rv)
            assert [w.oneline for w in sorted(perms[::-1])] == [r.oneline for r in sorted(refs[::-1])]

    @pytest.mark.parametrize(
        "bad", [[1, 1, 2], [0, 1], [2, 3], [1, 2, 2, 4], ["1", "2"], [1.5]], ids=repr
    )
    def test_public_constructor_refuses_with_the_same_message(self, bad):
        with pytest.raises(ValueError) as ref:
            _Reference(bad)
        with pytest.raises(ValueError) as got:
            Permutation(bad)
        assert str(got.value) == str(ref.value)

    def test_derived_permutations_match_brute_force(self):
        for n in range(1, 6):
            for u in all_perms(n):
                lo = u.oneline
                inv = u.inverse()
                assert type(inv) is Permutation
                assert all(inv(lo[i]) == i + 1 for i in range(n))
                for i in range(1, n):
                    swapped = list(lo)
                    swapped[i - 1], swapped[i] = swapped[i], swapped[i - 1]
                    assert u.times_s(i) == tuple(swapped)
                    relabelled = [i + 1 if v == i else i if v == i + 1 else v for v in lo]
                    assert u.s_times(i) == tuple(relabelled)
                for m in range(n, 7):
                    assert u.embed(m) == lo + tuple(range(n + 1, m + 1))
                for v in all_perms(n):
                    w = u * v
                    assert type(w) is Permutation
                    assert w == tuple(lo[v(i) - 1] for i in range(1, n + 1))

    def test_rank_mismatch_and_small_embed_refused(self):
        with pytest.raises(ValueError, match="rank mismatch"):
            identity(3) * identity(4)
        with pytest.raises(ValueError, match="smaller rank"):
            identity(3).embed(2)

    def test_pickle_round_trip(self):
        import pickle

        w = Permutation([3, 1, 2])
        back = pickle.loads(pickle.dumps(w))
        assert back == w and type(back) is Permutation

    def test_per_rank_lists_are_fresh_copies(self):
        for fn in (all_perms, by_length):
            first = fn(3)
            first.reverse()
            first.append(identity(4))
            again = fn(3)
            assert again is not first and len(again) == 6
            assert again[0] == identity(3)
        assert all_perms(4) == sorted(all_perms(4))
        assert by_length(4) == sorted(all_perms(4), key=lambda w: (brute_length(w), w.oneline))
        assert bruhat_upper(identity(3)) is not bruhat_upper(identity(3))
