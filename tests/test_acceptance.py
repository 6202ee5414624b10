"""Thirteen acceptance criteria, one test and one printed verdict line each.

Criterion 2 prints FAIL as written: only 10 of the 12 reference rows can be
reproduced by any single construction, because the two outlier rows are
inconsistent with the alternating sum that the same table's other rows
force.  The test body proves that bound and pins the exact differences, so
it passes while the verdict line stays honest.
"""

from __future__ import annotations

import json
import random
import time

from test_classical import GOLDEN_G, GOLDEN_H, staircase_monomials, word_key
from test_divdiff import s_i
from test_quantum import GOLDEN_QG, GOLDEN_QH, VARIANT_QG

from grothpoly._packing import BETA, Var
from grothpoly.classical import (
    NormalFormContext,
    elementary,
    family_table,
)
from grothpoly.divdiff import (
    DEL,
    PI_MINUS,
    PI_PLUS,
    PSI_PLUS,
    apply_op,
    apply_perm,
    apply_word,
)
from grothpoly.perms import all_perms, bruhat_lower, by_length, identity, longest
from grothpoly.poly import MultiPoly, beta, one, xvar, yvar, zero
from grothpoly.quantum import (
    apply_X,
    eval_at_X,
    quantize,
    quantum_elementary,
)
from grothpoly.report import verify

SEED = 20240811


def _elapsed(start: float) -> float:
    return time.perf_counter() - start


def test_c01_classical_golden_table(criteria_log):
    start = time.perf_counter()
    gt = family_table(3, "G")
    ht = family_table(3, "H")
    hits = sum(1 for w in all_perms(3) if gt[w].text() == GOLDEN_G[word_key(w)])
    hits += sum(1 for w in all_perms(3) if ht[w].text() == GOLDEN_H[word_key(w)])
    dt = _elapsed(start)
    ok = hits == 12 and dt < 1.0
    criteria_log(
        f"criterion 01 classical golden table       "
        f"{'PASS' if ok else 'FAIL'}  {hits}/12 rows, {dt:.3f} s"
    )
    assert hits == 12
    assert dt < 1.0


def test_c02_quantum_golden_table(criteria_log):
    start = time.perf_counter()
    gt = family_table(3, "qG")
    ht = family_table(3, "qH")
    printed_g = dict(GOLDEN_QG)
    printed_g.update(VARIANT_QG)

    hits = 0
    mismatches = []
    for w in all_perms(3):
        k = word_key(w)
        if ht[w].text() == GOLDEN_QH[k]:
            hits += 1
        else:
            mismatches.append(("H", k, ht[w].text(), GOLDEN_QH[k]))
    for w in all_perms(3):
        k = word_key(w)
        if gt[w].text() == printed_g[k]:
            hits += 1
        else:
            mismatches.append(("G", k, gt[w].text(), printed_g[k]))

    # machine report: computed vs printed, with the exact difference
    diffs = {}
    for fam, k, computed, printed in mismatches:
        table = {w_: p for w_, p in gt.items()}
        w = next(w_ for w_ in all_perms(3) if word_key(w_) == k)
        diff = _reparse(printed) - table[w]
        diffs[(fam, k)] = diff
        criteria_log(
            "criterion 02 mismatch "
            + json.dumps(
                {
                    "family": fam,
                    "word": k or "id",
                    "computed": computed,
                    "printed": printed,
                    "printed_minus_computed": diff.text(),
                },
                sort_keys=True,
            )
        )

    # certificate: the alternating sum over the reference's own dual rows
    # (matched 6/6 above) reproduces the computed rows, not the outliers
    from grothpoly.perms import bruhat_upper

    consistent = True
    for w in all_perms(3):
        acc = zero()
        for v in bruhat_upper(w):
            acc = acc + ht[v] * ((-beta()) ** (v.length() - w.length()))
        consistent = consistent and acc == gt[w]

    dt = _elapsed(start)
    ok_as_written = hits >= 11 and dt < 1.0
    criteria_log(
        f"criterion 02 quantum golden table         "
        f"{'PASS' if ok_as_written else 'FAIL (as written)'}  {hits}/12 rows"
        f" (threshold 11), {dt:.3f} s; the 2 outlier rows differ from the"
        f" alternating sum forced by the same table's dual rows"
    )
    # the analyzed state, pinned: exactly the two known outliers, the two
    # known differences, and internal consistency of the construction
    assert hits == 10
    assert {(f, k) for f, k, _, _ in mismatches} == {("G", "1"), ("G", "")}
    q1b2 = MultiPoly.variable(Var("q", 1)) * beta() ** 2
    assert diffs[("G", "1")] == q1b2 * (xvar(1) + yvar(1))
    assert diffs[("G", "")] == q1b2 * (one() - beta() * yvar(1))
    assert consistent
    assert dt < 1.0


def _reparse(text: str) -> MultiPoly:
    """Inverse of MultiPoly.text, for the golden strings in this file."""
    total = zero()
    for chunk in text.replace("- ", "+ -").split(" + "):
        coef = 1
        mono = one()
        for factor in chunk.split("*"):
            factor = factor.strip()
            if factor.startswith("-"):
                coef = -coef
                factor = factor[1:]
            if factor.isdigit():
                coef *= int(factor)
                continue
            if "^" in factor:
                name, e = factor.split("^")
                mono = mono * MultiPoly.variable(_var(name)) ** int(e)
            else:
                mono = mono * MultiPoly.variable(_var(factor))
        total = total + mono * coef
    return total


def _var(name: str) -> Var:
    """The variable a rendered factor names: b, or a kind letter and index."""
    return BETA if name == "b" else Var(name[0], int(name[1:]))


def test_reparse_helper_roundtrips():
    for text in list(GOLDEN_QH.values()) + list(VARIANT_QG.values()):
        assert _reparse(text).text() == text


def test_c03_cauchy(criteria_log):
    start = time.perf_counter()
    reps = [verify("cauchy", n, seed=SEED) for n in (2, 3, 4)]
    dt = _elapsed(start)
    ok = all(r.ok for r in reps) and dt <= 60.0
    criteria_log(
        f"criterion 03 cauchy n=2,3,4               "
        f"{'PASS' if ok else 'FAIL'}  {dt:.3f} s"
    )
    assert ok, [r.json_line() for r in reps]


def test_c04_quantum_cauchy(criteria_log):
    start = time.perf_counter()
    reps = [verify("quantum_cauchy", n, seed=SEED) for n in (2, 3)]
    dt = _elapsed(start)
    ok = all(r.ok for r in reps) and dt <= 60.0
    criteria_log(
        f"criterion 04 quantum cauchy n=2,3         "
        f"{'PASS' if ok else 'FAIL'}  {dt:.3f} s"
    )
    assert ok, [r.json_line() for r in reps]


def test_c05_quantization_identities(criteria_log):
    start = time.perf_counter()
    reps = [verify("theorem1", n, seed=SEED) for n in (2, 3, 4)]
    reps += [verify("corollary1", n, seed=SEED) for n in (2, 3)]
    dt = _elapsed(start)
    ok = all(r.ok for r in reps)
    criteria_log(
        f"criterion 05 top-class and family quantization  "
        f"{'PASS' if ok else 'FAIL'}  {dt:.3f} s"
    )
    assert ok, [r.json_line() for r in reps]


def test_c06_orthogonality(criteria_log):
    start = time.perf_counter()
    reps = [verify("orthogonality", n, seed=SEED) for n in (3, 4)]
    dt = _elapsed(start)
    ok = all(r.ok for r in reps) and dt <= 120.0
    criteria_log(
        f"criterion 06 orthogonality S3,S4          "
        f"{'PASS' if ok else 'FAIL'}  {dt:.3f} s"
    )
    assert ok, [r.json_line() for r in reps]


def test_c07_pieri(criteria_log):
    start = time.perf_counter()
    reps = [verify("pieri_simple", n, seed=SEED) for n in (3, 4)]
    double = verify("pieri_double", 3, seed=SEED)
    reps.append(double)
    dt = _elapsed(start)
    ok = all(r.ok for r in reps)
    convention = (double.detail or {}).get("ideal")
    criteria_log(
        f"criterion 07 pieri rules                  "
        f"{'PASS' if ok else 'FAIL'}  convention={convention}, {dt:.3f} s"
    )
    assert ok, [r.json_line() for r in reps]
    assert convention == "signed"


def test_c08_interpolation(criteria_log):
    start = time.perf_counter()
    r3 = verify("interpolation", 3, seed=SEED)
    r4 = verify("interpolation", 4, seed=SEED)
    dt = _elapsed(start)
    s3 = (r3.detail or {}).get("samples", 0)
    s4 = (r4.detail or {}).get("samples", 0)
    ok = r3.ok and r4.ok and s3 >= 50 and s4 >= 10
    criteria_log(
        f"criterion 08 interpolation                "
        f"{'PASS' if ok else 'FAIL'}  {s3} samples at n=3, {s4} at n=4, {dt:.3f} s"
    )
    assert ok, (r3.json_line(), r4.json_line())


def test_c09_involution_congruence(criteria_log):
    start = time.perf_counter()
    rep = verify("involution", 3, seed=SEED)
    dt = _elapsed(start)
    convention = (rep.detail or {}).get("ideal")
    criteria_log(
        f"criterion 09 involution congruence S3     "
        f"{'PASS' if rep.ok else 'FAIL'}  convention={convention}, {dt:.3f} s"
    )
    assert rep.ok, rep.json_line()
    assert convention in ("signed", "unsigned")


def _random_poly(rng: random.Random, n: int = 4, terms: int = 6) -> MultiPoly:
    """Random two-alphabet polynomial, total degree at most 6."""
    items = []
    for _ in range(terms):
        exps: dict[Var, int] = {}
        budget = 6
        for _ in range(rng.randint(0, 3)):
            kind = rng.choice(("x", "x", "y", "b"))
            idx = 0 if kind == "b" else rng.randint(1, n)
            v = Var(kind, idx)
            e = rng.randint(1, 2)
            if kind != "b":
                e = min(e, budget)
                budget -= e
            if e:
                exps[v] = exps.get(v, 0) + e
        items.append((exps, rng.randint(-5, 5)))
    return MultiPoly.from_monomials(items)


def test_c10_operator_suite(criteria_log):
    start = time.perf_counter()
    rng = random.Random(SEED)
    tally = 0
    failures = 0

    def check(cond: bool) -> None:
        nonlocal tally, failures
        tally += 1
        if not cond:
            failures += 1

    # nilpotence and exactness of the divided difference
    for alphabet, rounds in (("x", 100), ("y", 50)):
        for _ in range(rounds):
            f = _random_poly(rng)
            i = rng.randint(1, 3)
            check(apply_op(DEL, i, apply_op(DEL, i, f, alphabet), alphabet).is_zero())
    for _ in range(100):
        f = _random_poly(rng)
        i = rng.randint(1, 3)
        check(apply_op(DEL, i, f) * (xvar(i) - xvar(i + 1)) == f - s_i(i, f))

    # braid and distant commutation for all three operator kinds
    for kind in (DEL, PI_PLUS, PI_MINUS):
        for _ in range(50):
            f = _random_poly(rng)
            check(apply_word(kind, (1, 2, 1), f) == apply_word(kind, (2, 1, 2), f))
        for _ in range(50):
            f = _random_poly(rng)
            check(apply_word(kind, (1, 3), f) == apply_word(kind, (3, 1), f))

    # both Leibniz forms
    for _ in range(100):
        f = _random_poly(rng, terms=4)
        g = _random_poly(rng, terms=4)
        i = rng.randint(1, 3)
        d = apply_op(DEL, i, f * g)
        check(d == apply_op(DEL, i, f) * g + s_i(i, f) * apply_op(DEL, i, g))
        check(d == f * apply_op(DEL, i, g) + apply_op(DEL, i, f) * s_i(i, g))

    # operator squares
    for _ in range(75):
        f = _random_poly(rng)
        i = rng.randint(1, 3)
        p = apply_op(PI_PLUS, i, f)
        m = apply_op(PI_MINUS, i, f)
        check(apply_op(PI_PLUS, i, p) == -(beta() * p))
        check(apply_op(PI_MINUS, i, m) == beta() * m)

    # conjugation by the simple transposition
    for _ in range(50):
        f = _random_poly(rng)
        i = rng.randint(1, 3)
        check(apply_op(DEL, i, s_i(i, f)) == -apply_op(DEL, i, f))
        check(s_i(i, apply_op(DEL, i, f)) == apply_op(DEL, i, f))

    # Moebius inversion between the interval sums and the pi+ towers
    for w in all_perms(3):
        for _ in range(5):
            f = _random_poly(rng, n=3, terms=4)
            summed = zero()
            for v in bruhat_lower(w):
                summed = summed + apply_perm(PI_PLUS, v, f) * (
                    beta() ** (w.length() - v.length())
                )
            check(apply_perm(PSI_PLUS, w, f) == summed)
            back = zero()
            for v in bruhat_lower(w):
                back = back + apply_perm(PSI_PLUS, v, f) * (
                    (-beta()) ** (w.length() - v.length())
                )
            check(back == apply_perm(PI_PLUS, w, f))

    # commutation of the X_j operators, applied to random x-polynomials
    for n in (2, 3, 4):
        for j in range(1, n + 1):
            for k in range(j + 1, n + 1):
                for _ in range(6):
                    f = _random_poly(rng, n=n).set_zero("y").set_zero("b")
                    a = apply_X(j, apply_X(k, f, n), n)
                    b = apply_X(k, apply_X(j, f, n), n)
                    check(a == b)

    dt = _elapsed(start)
    ok = failures == 0 and tally >= 1000
    criteria_log(
        f"criterion 10 operator suite               "
        f"{'PASS' if ok else 'FAIL'}  {tally} assertions, {failures} failures, {dt:.3f} s"
    )
    assert failures == 0
    assert tally >= 1000


def test_c11_quantization(criteria_log):
    start = time.perf_counter()
    rng = random.Random(SEED)
    roundtrips = 0
    ok = True

    for trial in range(100):
        n = 2 + trial % 2
        f = _random_poly(rng, n=n, terms=4).set_zero("y").set_zero("b")
        fq = quantize(f, n)
        ok = ok and eval_at_X(fq, n) == f and fq.set_zero("q") == f
        roundtrips += 1

    etilde_ok = True
    for n in (1, 2, 3, 4):
        xs = [Var("x", j) for j in range(1, n + 1)]
        for i in range(1, n + 1):
            et = quantum_elementary(n, i)
            etilde_ok = etilde_ok and eval_at_X(et, n) == elementary(i, xs)

    schubert_ok = True
    qsx = family_table(3, "qSx")
    sx = family_table(3, "Sx")
    for w in all_perms(3):
        fq = quantize(sx[w], 3)
        schubert_ok = schubert_ok and fq == qsx[w]

    dt = _elapsed(start)
    all_ok = ok and etilde_ok and schubert_ok and roundtrips >= 100
    criteria_log(
        f"criterion 11 quantization                 "
        f"{'PASS' if all_ok else 'FAIL'}  {roundtrips} roundtrips, {dt:.3f} s"
    )
    assert ok
    assert etilde_ok
    assert schubert_ok
    assert roundtrips >= 100


def test_c12_normal_forms(criteria_log):
    start = time.perf_counter()
    rng = random.Random(SEED)
    ok = True

    for n in (2, 3):
        for ideal in ("x", "unsigned", "signed"):
            ctx = NormalFormContext(n, ideal)
            for g in ctx.original_generators():
                ok = ok and ctx.reduce(g).is_zero()
            for _ in range(10):
                f = _random_poly(rng, n=n)
                r = ctx.reduce(f)
                ok = ok and ctx.reduce(r) == r
                for exps, _ in r.monomials():
                    for v, e in exps.items():
                        if v.kind == "x":
                            ok = ok and e <= n - v.index

    reps = [verify("basis", n, seed=SEED) for n in (2, 3)]
    reps.append(verify("basis", 4, seed=SEED, force=True))
    dets = [(r.detail or {}).get("det") for r in reps]
    ok = ok and all(r.ok for r in reps)

    dt = _elapsed(start)
    criteria_log(
        f"criterion 12 normal forms                 "
        f"{'PASS' if ok else 'FAIL'}  basis dets {dets}, {dt:.3f} s"
    )
    assert ok, [r.json_line() for r in reps]
    assert all(d in ("1", "-1") for d in dets)


def test_c13_degenerations(criteria_log):
    start = time.perf_counter()
    ok = True

    # the specialization lattice over S3: all routes from the quantum
    # double families down to the plain Schubert basis commute
    qg = family_table(3, "qG")
    qh = family_table(3, "qH")
    qs = family_table(3, "qS")
    g = family_table(3, "G")
    h = family_table(3, "H")
    sd = family_table(3, "S")
    for w in all_perms(3):
        ok = ok and qg[w].set_zero("q") == g[w]
        ok = ok and qh[w].set_zero("q") == h[w]
        ok = ok and qs[w].set_zero("q") == sd[w]
        ok = ok and qg[w].specialize({BETA: 0}) == qs[w]
        ok = ok and qh[w].specialize({BETA: 0}) == qs[w]
        ok = ok and g[w].specialize({BETA: 0}) == sd[w]
        ok = ok and h[w].specialize({BETA: 0}) == sd[w]
        # y=0 commutes with both parameter specializations
        ok = ok and qg[w].set_zero("y").set_zero("q") == g[w].set_zero("y")
        ok = ok and qg[w].set_zero("y").specialize({BETA: 0}) == qs[w].set_zero("y")
        ok = (
            ok
            and qg[w].set_zero("q").specialize({BETA: 0})
            == qg[w].specialize({BETA: 0}).set_zero("q")
        )

    reps = []
    reps += [verify("closed_forms", n, seed=SEED) for n in (2, 3, 4)]
    reps += [verify("moebius", n, seed=SEED) for n in (2, 3)]
    reps += [verify("duality", n, seed=SEED) for n in (2, 3)]
    reps.append(verify("dominant", 4, seed=SEED))
    reps += [verify("stability", n, seed=SEED) for n in (2, 3)]
    reps += [verify("classical_limit", n, seed=SEED) for n in (2, 3)]
    reps += [verify("corollary2", n, seed=SEED) for n in (2, 3)]
    ok = ok and all(r.ok for r in reps)

    dt = _elapsed(start)
    criteria_log(
        f"criterion 13 degenerations                "
        f"{'PASS' if ok else 'FAIL'}  {len(reps)} checker runs, {dt:.3f} s"
    )
    assert ok, [r.json_line() for r in reps if not r.ok]
