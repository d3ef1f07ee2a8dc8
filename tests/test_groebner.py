from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from functools import lru_cache, partial
from hashlib import sha256
from itertools import count, product
from math import comb, factorial, gcd, isqrt, lcm
from random import Random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dhyper import groebner, systems, weyl
from dhyper.errors import DimensionMismatchError, InputFormatError, InvariantError
from dhyper.exact import IntMatrix, positive_functional
from dhyper.groebner import (
    CommIdeal,
    CommPoly,
    DegRevLex,
    MatrixOrder,
    PairStats,
    WeightedRevLexLast,
    groebner_weyl,
)
from dhyper.systems import hypergeometric_system, lattice_basis_ideal, toric_ideal
from dhyper.weyl import WeylOperator, normal_product
from test_weyl import sparse_rows


def dpoly(nvars, mapping):
    return CommPoly.make(nvars, mapping)


# Saturation through an elimination variable: the reference that toric
# ideals and the elimination-order division branch are checked against.


def BlockElim(nfirst, nvars):
    """Eliminate the first nfirst variables: compare that block first, each
    block by degree reverse lex."""
    head, tail = DegRevLex(nfirst).rows, DegRevLex(nvars - nfirst).rows
    return MatrixOrder(head + tuple(tuple((j + nfirst, w) for j, w in r) for r in tail))


def saturate(ideal: CommIdeal, f: CommPoly) -> CommIdeal:
    """(ideal : f^infinity): adjoin t as a new first variable, add 1 - t f,
    compute a Groebner basis for an order eliminating t, and keep the
    t-free elements.  The basis comes from the general core even when
    1 - t f and the generators are pure differences, so the reference does
    not run the binomial core it checks."""
    if f.is_zero():
        raise InputFormatError("cannot saturate by zero")
    n = ideal.nvars
    lifted = [CommPoly.make(n + 1, {(0,) + e: c for e, c in g.terms}) for g in ideal.gens]
    tf = {(1,) + e: -c for e, c in f.terms}
    tf[(0,) * (n + 1)] = tf.get((0,) * (n + 1), 0) + 1
    lifted.append(CommPoly.make(n + 1, tf))
    gb = groebner._general_basis(n + 1, lifted, BlockElim(1, n + 1))
    kept = [CommPoly.make(n, {e[1:]: c for e, c in g.terms}) for g in gb if all(e[0] == 0 for e, _ in g.terms)]
    return CommIdeal.make(n, kept)


def dop(nvars, mapping):
    return WeylOperator.make(nvars, mapping)


LATTICE_GENS = [
    dpoly(4, {(1, 0, 1, 0): 1, (0, 2, 0, 0): -1}),
    dpoly(4, {(0, 1, 0, 1): 1, (0, 0, 2, 0): -1}),
]
MISSING = dpoly(4, {(0, 1, 1, 0): 1, (1, 0, 0, 1): -1})


def euler_op(row, b, nvars=4):
    terms = {}
    for j, a in enumerate(row):
        if a:
            mu = tuple(1 if k == j else 0 for k in range(nvars))
            terms[(mu, mu)] = Fraction(a)
    terms[((0,) * nvars, (0,) * nvars)] = -Fraction(b)
    return WeylOperator.make(nvars, terms)


def horn_demo_gens():
    beta = (Fraction(-11, 6), Fraction(-5, 3))
    return [
        dop(4, {((0,) * 4, (1, 0, 1, 0)): 1, ((0,) * 4, (0, 2, 0, 0)): -1}),
        dop(4, {((0,) * 4, (0, 1, 0, 1)): 1, ((0,) * 4, (0, 0, 2, 0)): -1}),
        euler_op((3, 2, 1, 0), beta[0]),
        euler_op((0, 1, 2, 3), beta[1]),
    ]


def ahyp_demo_gens():
    beta = (Fraction(-11, 6), Fraction(-5, 3))
    return [
        dop(4, {((0,) * 4, (0, 2, 0, 0)): 1, ((0,) * 4, (1, 0, 1, 0)): -1}),
        dop(4, {((0,) * 4, (0, 0, 2, 0)): 1, ((0,) * 4, (0, 1, 0, 1)): -1}),
        dop(4, {((0,) * 4, (0, 1, 1, 0)): 1, ((0,) * 4, (1, 0, 0, 1)): -1}),
        euler_op((3, 2, 1, 0), beta[0]),
        euler_op((0, 1, 2, 3), beta[1]),
    ]


def test_degrevlex_tie_break():
    order = DegRevLex(4)
    for greater, smaller in [
        ((0, 2, 0, 0), (1, 0, 1, 0)),
        ((0, 1, 1, 0), (1, 0, 0, 1)),
        ((0, 0, 2, 0), (0, 1, 0, 1)),
    ]:
        assert dpoly(4, {greater: 1, smaller: 1}).lead(order)[0] == greater
    p = dpoly(4, {(0, 2, 0, 0): 3, (1, 0, 1, 0): 7})
    assert p.lead(order) == ((0, 2, 0, 0), Fraction(3))


def test_comm_poly_arithmetic():
    p = dpoly(2, {(1, 0): 1, (0, 1): -1})
    q = dpoly(2, {(1, 0): 1, (0, 1): 1})
    assert (p * q).as_dict() == {(2, 0): Fraction(1), (0, 2): Fraction(-1)}
    assert (p - p).is_zero()
    assert (p + q).as_dict() == {(1, 0): Fraction(2)}


def test_comm_poly_arithmetic_checks_variable_counts():
    # zip would drop d3 from the product, and the other orders used to fail
    # with "bad exponent" (exit 2) instead of a shape error
    p = CommPoly.make(2, {(1, 0): 1})
    q = CommPoly.make(3, {(0, 0, 1): 1, (1, 1, 0): 2})
    for a, b in ((p, q), (q, p)):
        for combine in (lambda a, b: a * b, lambda a, b: a + b, lambda a, b: a - b):
            with pytest.raises(DimensionMismatchError):
                combine(a, b)


class ReferencePoly:
    """CommPoly's own arithmetic before it held an x-free WeylOperator:
    sorted (exponent, Fraction) terms, sums and products over a dict of
    Fractions."""

    def __init__(self, nvars, mapping):
        clean = {}
        for e, c in mapping.items():
            q = Fraction(c)
            if not q:
                continue
            e = tuple(int(x) for x in e)
            if len(e) != nvars or any(x < 0 for x in e):
                raise InputFormatError("bad exponent")
            clean[e] = q
        self.nvars, self.terms = nvars, tuple((e, clean[e]) for e in sorted(clean))

    def as_dict(self):
        return dict(self.terms)

    def __add__(self, other):
        acc = self.as_dict()
        for e, c in other.terms:
            acc[e] = acc.get(e, Fraction(0)) + c
        return ReferencePoly(self.nvars, acc)

    def __neg__(self):
        return ReferencePoly(self.nvars, {e: -c for e, c in self.terms})

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        acc = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, Fraction(0)) + c1 * c2
        return ReferencePoly(self.nvars, acc)

    def scale(self, q):
        return ReferencePoly(self.nvars, {e: c * Fraction(q) for e, c in self.terms})

    def lead(self, key):
        return max(self.terms, key=lambda t: key(t[0]))

    def __str__(self):
        return weyl._format_terms(((), e, c) for e, c in sorted(self.terms, key=lambda t: degrevlex_key(t[0]), reverse=True))


@st.composite
def poly_mappings(draw):
    """nvars, then three term mappings: exponents up to 3, zero coefficients
    among the rest, and now and then an exponent with a negative entry or
    the wrong length."""
    n = draw(st.integers(1, 3))
    good = st.tuples(*[st.integers(0, 3)] * n)
    bad = st.one_of(st.tuples(*[st.integers(-1, 0)] * n), st.tuples(*[st.integers(0, 1)] * (n + 1)))
    expo = st.one_of(good, good, good, good, good, good, good, bad)
    coeff = st.sampled_from([0, -2, -1, 1, 3, Fraction(1, 2), Fraction(-5, 3)])
    return n, draw(st.lists(st.dictionaries(expo, coeff, max_size=4), min_size=3, max_size=3))


def made(maker, n, mapping):
    """maker(n, mapping), or the message of the InputFormatError it raises."""
    try:
        return maker(n, mapping)
    except InputFormatError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(poly_mappings(), st.sampled_from([0, 1, -2, Fraction(3, 4), Fraction(-1, 6)]), st.integers(0, 2))
def test_comm_poly_agrees_with_the_fraction_reference(case, q, last):
    n, mappings = case
    polys = [made(CommPoly.make, n, m) for m in mappings]
    refs = [made(ReferencePoly, n, m) for m in mappings]
    assert [p if isinstance(p, str) else None for p in polys] == [r if isinstance(r, str) else None for r in refs]
    pairs = [(p, r) for p, r in zip(polys, refs) if not isinstance(p, str)]
    weighted = WeightedRevLexLast(range(1, n + 1), last % n)
    keys = ((DegRevLex(n), degrevlex_key), (weighted, weighted_revlex_last_key(range(1, n + 1), last % n)))
    results = list(pairs)
    for (p, r), (p2, r2) in product(pairs, repeat=2):
        results += [(p + p2, r + r2), (p - p2, r - r2), (p * p2, r * r2)]
    for p, r in pairs:
        results += [(-p, -r), (p.scale(q), r.scale(q))]
    for p, r in results:
        assert p.nvars == r.nvars
        assert p.terms == r.terms
        assert p.as_dict() == r.as_dict()
        assert str(p) == str(r)
        assert p.is_zero() == (not r.terms)
        if r.terms:
            for order, key in keys:
                assert p.lead(order) == r.lead(key)
        same = CommPoly.make(n, r.as_dict())
        assert p == same and hash(p) == hash(same)
        if len(r.terms) > 1:
            # _groebner_cached keys on CommIdeals and toric_ideal dedupes
            # with a set: a binomial the core builds equals and hashes as made
            a, b = r.terms[-1][0], r.terms[0][0]
            (built,) = groebner._binomial_polys(n, [(a, b)])
            want = CommPoly.make(n, {a: 1, b: -1})
            assert built == want and hash(built) == hash(want)
    for (p, r), (p2, r2) in product(results, repeat=2):
        assert (p == p2) == (r.terms == r2.terms)


def test_normal_form_of_generators_is_zero():
    ideal = CommIdeal.make(4, LATTICE_GENS)
    for g in LATTICE_GENS:
        assert ideal.normal_form(g).is_zero()


def test_normal_form_multiple_of_generator():
    ideal = CommIdeal.make(2, [dpoly(2, {(1, 0): 1, (0, 1): -1})])
    q = dpoly(2, {(2, 0): 1, (0, 2): -1})
    assert ideal.normal_form(q).is_zero()


def test_lattice_ideal_misses_far_binomial():
    # evaluation oracle: every element of the ideal vanishes at (1,0,0,1),
    # the query evaluates to -1 there, so nonmembership is forced
    point = (1, 0, 0, 1)

    def ev(p):
        total = Fraction(0)
        for e, c in p.terms:
            v = c
            for x, k in zip(point, e):
                v *= Fraction(x) ** k
            total += v
        return total

    for g in LATTICE_GENS:
        assert ev(g) == 0
    assert ev(MISSING) == -1
    ideal = CommIdeal.make(4, LATTICE_GENS)
    assert not ideal.normal_form(MISSING).is_zero()


def test_saturation_recovers_toric_basis():
    ideal = CommIdeal.make(4, LATTICE_GENS)
    sat = saturate(ideal, dpoly(4, {(1, 1, 1, 1): 1}))
    gb = sat.groebner()
    order = DegRevLex(4)
    expected = [
        dpoly(4, {(1, 0, 1, 0): 1, (0, 2, 0, 0): -1}),
        dpoly(4, {(0, 1, 0, 1): 1, (0, 0, 2, 0): -1}),
        dpoly(4, {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1}),
    ]
    monic = []
    for p in expected:
        _, lc = p.lead(order)
        monic.append(p.scale(Fraction(1) / lc))
    assert sorted(g.terms for g in gb) == sorted(g.terms for g in monic)
    assert sat.contains(MISSING)


def test_saturation_by_unused_variable_is_identity():
    ideal = CommIdeal.make(3, [dpoly(3, {(1, 0, 0): 1, (0, 1, 0): -1})])
    sat = saturate(ideal, dpoly(3, {(0, 0, 1): 1}))
    assert [g.terms for g in sat.groebner()] == [g.terms for g in ideal.groebner()]


def test_saturation_strips_factor():
    f = dpoly(2, {(2, 0): 1, (1, 1): -1})
    sat = saturate(CommIdeal.make(2, [f]), dpoly(2, {(1, 0): 1}))
    gb = sat.groebner()
    assert len(gb) == 1
    assert gb[0].as_dict() == {(1, 0): Fraction(1), (0, 1): Fraction(-1)}


def test_saturate_by_zero_rejected():
    ideal = CommIdeal.make(2, [dpoly(2, {(1, 0): 1})])
    with pytest.raises(InputFormatError):
        saturate(ideal, CommPoly.zero(2))


def test_groebner_deterministic_and_cached():
    ideal = CommIdeal.make(4, LATTICE_GENS)
    gb1 = ideal.groebner()
    gb2 = CommIdeal.make(4, LATTICE_GENS).groebner()
    assert gb1 == gb2
    assert ideal.groebner() == gb1


def test_weyl_unit_ideal():
    d1 = WeylOperator.monomial(1, (0,), (1,))
    g2 = dop(1, {((1,), (1,)): 1, ((0,), (0,)): -5})
    gb = groebner_weyl([d1, g2], cap=10)
    assert gb.status == "complete"
    assert [str(b) for b in gb.basis] == ["1"]
    cert = gb.membership(WeylOperator.monomial(1, (0,), (0,)))
    assert cert.member is True
    assert cert.verify(gb.gens)


def test_weyl_basis_representation_replays():
    gens = horn_demo_gens()
    gb = groebner_weyl(gens, cap=10)
    for idx in range(len(gb.basis)):
        rep = gb.basis_representation(idx)
        total = WeylOperator.zero(4)
        for q, g in zip(rep, gens):
            total = total + normal_product(q, g)
        assert total == gb.basis[idx]


def test_horn_membership_dichotomy():
    gens = horn_demo_gens()
    gb = groebner_weyl(gens, cap=10)
    assert gb.status == "complete"
    query = dop(4, {((0,) * 4, (0, 1, 1, 0)): 1, ((0,) * 4, (1, 0, 0, 1)): -1})
    cert = gb.membership(query)
    assert cert.member is False
    assert not cert.normal_form.is_zero()
    assert cert.verify(gens)
    data = cert.to_json()
    assert data["member"] is False
    assert data["basis_status"] == "complete"
    assert data["normal_form"]["terms"]


def test_failed_cofactor_replay_is_an_invariant_error(monkeypatch):
    gb = groebner_weyl(horn_demo_gens(), cap=10)
    query = dop(4, {((0,) * 4, (0, 1, 1, 0)): 1, ((0,) * 4, (1, 0, 0, 1)): -1})
    monkeypatch.setattr(groebner, "_division_replays", lambda f, m, rem, cof, den, gens, pk: False)
    with pytest.raises(InvariantError, match="replay"):
        gb.membership(query)


def test_membership_replays_the_cofactors_it_returns(monkeypatch):
    # one cofactor coefficient off by 1 after the division: the replay sees
    # the very integers the certificate would be built from
    gens = horn_demo_gens()
    gb = groebner_weyl(gens, cap=10)
    query = normal_product(WeylOperator.x(0, 4), gens[0]) + normal_product(WeylOperator.d(1, 4), gens[2])
    add_cofactors = groebner._add_cofactors

    def off_by_one(acc, *args):
        add_cofactors(acc, *args)
        cof = next(c for c in acc if c)
        t = min(cof)
        cof[t] += 1 if cof[t] != -1 else -1

    monkeypatch.setattr(groebner, "_add_cofactors", off_by_one)
    with pytest.raises(InvariantError, match="replay"):
        gb.membership(query)
    monkeypatch.undo()
    assert gb.membership(query).member is True


def test_ahyp_contains_the_missing_binomial():
    gens = ahyp_demo_gens()
    gb = groebner_weyl(gens, cap=10)
    query = dop(4, {((0,) * 4, (1, 0, 0, 1)): 1, ((0,) * 4, (0, 1, 1, 0)): -1})
    cert = gb.membership(query)
    assert cert.member is True
    assert cert.verify(gens)


def test_capped_basis_stays_sound():
    gens = horn_demo_gens()
    gb = groebner_weyl(gens, cap=2)
    assert gb.status == "capped"
    query = dop(4, {((0,) * 4, (0, 1, 1, 0)): 1, ((0,) * 4, (1, 0, 0, 1)): -1})
    cert = gb.membership(query)
    assert cert.member == "inconclusive"
    assert cert.to_json()["member"] == "inconclusive"
    # zero normal forms still certify membership under a capped basis
    lifted = normal_product(WeylOperator.x(1, 4), gens[0])
    cert2 = gb.membership(lifted)
    assert cert2.member is True
    assert cert2.verify(gens)


def test_buchberger_recheck_on_complete_bases():
    gens = horn_demo_gens()
    gb = groebner_weyl(gens, cap=10)
    assert gb.spair_remainders_vanish()
    agb = groebner_weyl(ahyp_demo_gens(), cap=10)
    assert agb.spair_remainders_vanish()


@st.composite
def d_only_ideals(draw):
    n = draw(st.integers(2, 4))
    expo = st.tuples(*[st.integers(0, 2)] * n)
    poly = st.dictionaries(expo, st.sampled_from([-2, -1, 1, 2]), min_size=1, max_size=2)
    return n, [dpoly(n, p) for p in draw(st.lists(poly, min_size=1, max_size=3))]


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d_only_ideals())
def test_engines_agree_on_d_only_ideals(case):
    # the commutative engine (the binomial core when every generator is a
    # pure difference, else the general one) and the Weyl engine (the
    # general core) give the same reduced basis on x-free input
    n, gens = case
    cgb = CommIdeal.make(n, gens).groebner()
    wgb = groebner_weyl([dop(n, {((0,) * n, e): c for e, c in g.terms}) for g in gens], cap=30)
    assert wgb.status == "complete"
    assert wgb.spair_remainders_vanish()
    order = DegRevLex(n)
    wpolys = []
    for b in wgb.basis:
        assert all(mu == (0,) * n for mu, _, _ in b.terms)
        d = {nu: c for _, nu, c in b.terms}
        _, lc = dpoly(n, d).lead(order)
        wpolys.append(tuple(sorted((e, c / lc) for e, c in d.items())))
    assert wpolys == [tuple(sorted(g.terms)) for g in cgb]


def test_spair_recheck_fails_on_capped_bases():
    for cap in range(2, 7):
        gb = groebner_weyl(horn_demo_gens(), cap=cap)
        assert gb.status == "capped"
        assert not gb.spair_remainders_vanish()


def test_printers_join_signed_terms():
    p = dpoly(3, {(2, 0, 0): 1, (0, 1, 1): Fraction(-3, 2), (0, 0, 0): -1, (1, 0, 0): Fraction(1, 3)})
    assert str(p) == "d1^2 - 3/2 d2 d3 + 1/3 d1 - 1"
    op = dop(2, {((1, 0), (0, 2)): 1, ((0, 0), (1, 0)): Fraction(-3, 2),
                 ((0, 0), (0, 0)): 1, ((2, 1), (0, 0)): -1})
    assert str(op) == "1 - 3/2 d1 + x1 d2^2 - x1^2 x2"
    assert str(CommPoly.zero(2)) == str(WeylOperator.zero(2)) == "0"


def test_lattice_ideal_inside_toric_ideal():
    toric = CommIdeal.make(4, LATTICE_GENS + [MISSING])
    for g in LATTICE_GENS:
        assert toric.normal_form(g).is_zero()


def test_weyl_rejects_mixed_nvars():
    with pytest.raises(DimensionMismatchError):
        groebner_weyl(
            [WeylOperator.monomial(2, (0, 0), (1, 0)), WeylOperator.monomial(1, (0,), (1,))]
        )


def test_weyl_zero_ideal():
    gb = groebner_weyl([WeylOperator.zero(2)], cap=5)
    assert gb.basis == ()
    cert = gb.membership(WeylOperator.x(0, 2))
    assert cert.member is False
    assert gb.membership(WeylOperator.zero(2)).member is True


def test_membership_certificate_cofactors_replay_by_hand():
    gens = ahyp_demo_gens()
    gb = groebner_weyl(gens, cap=10)
    query = normal_product(
        dop(4, {((1, 0, 0, 0), (0, 0, 0, 1)): Fraction(1, 3)}), gens[3]
    ) + gens[0]
    cert = gb.membership(query)
    assert cert.member is True
    total = WeylOperator.zero(4)
    for q, g in zip(cert.cofactors, gens):
        total = total + normal_product(q, g)
    assert total + cert.normal_form == query


# ---------------------------------------------------------------------------
# Chain criterion against the criterion-off reference


@contextmanager
def criterion_off():
    """Run both Buchberger cores with the chain criterion off, past the
    commutative cache, so every basis is computed the unoptimised way."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_buchberger", partial(groebner._buchberger, chain=False))
        mp.setattr(groebner, "_binomial_buchberger", partial(groebner._binomial_buchberger, chain=False))
        mp.setattr(groebner, "_groebner_cached", groebner._groebner_cached.__wrapped__)
        yield


def weyl_outcome(gb):
    reps = [gb.basis_representation(i) for i in range(len(gb.basis))]
    return gb.status, gb.basis, reps


def assert_chain_matches_reference(gens, cap):
    with criterion_off():
        reference = weyl_outcome(groebner_weyl(gens, cap=cap))
    gb = groebner_weyl(gens, cap=cap)
    assert weyl_outcome(gb) == reference
    if gb.status == "complete":
        assert gb.spair_remainders_vanish()


A_QUARTIC = IntMatrix.from_rows([[1, 1, 1, 1, 1], [0, 1, 2, 3, 4]])


def quartic_gens():
    return list(hypergeometric_system(A_QUARTIC, (Fraction(1, 2), Fraction(1, 3))).generators)


DEMO_SYSTEMS = {"horn": horn_demo_gens, "ahyp": ahyp_demo_gens, "quartic": quartic_gens}


@pytest.mark.parametrize(
    "name,cap",
    [("horn", c) for c in range(2, 11)]
    + [("ahyp", c) for c in range(2, 11)]
    + [("quartic", c) for c in range(3, 7)],
)
def test_chain_criterion_matches_reference_on_demos(name, cap):
    assert_chain_matches_reference(DEMO_SYSTEMS[name](), cap)


@st.composite
def small_weyl_systems(draw):
    n = draw(st.integers(2, 3))
    bits = st.tuples(*[st.integers(0, 1)] * n)
    op = st.dictionaries(st.tuples(bits, bits), st.sampled_from([-2, -1, 1, 2]), min_size=1, max_size=2)
    gens = draw(st.lists(op, min_size=1, max_size=3))
    return [dop(n, g) for g in gens], draw(st.integers(2, 6))


# Skipping by the chain criterion after the cap has dropped a remainder
# loses the second element of the reference basis here.
CHAIN_PAST_A_DROP = (
    [
        dop(3, {((0, 1, 0), (0, 1, 0)): -1, ((1, 1, 0), (1, 0, 1)): 2}),
        dop(3, {((1, 1, 1), (0, 1, 1)): 2}),
        dop(3, {((1, 1, 1), (0, 0, 0)): 1}),
    ],
    4,
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_weyl_systems())
@example(CHAIN_PAST_A_DROP)
def test_chain_criterion_matches_reference_on_random_systems(case):
    gens, cap = case
    assert_chain_matches_reference(gens, cap)


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 1, 1, 1, 1], [0, 1, 2, 3, 5]],
        [[1, 1, 1, 1, 1], [1, 2, 4, 5, 0]],
        [[1, 1, 1, 1, 1], [0, 2, 3, 4, 6]],
        [[1, 1, 1, 1, 1, 1], [0, 1, 2, 3, 4, 5]],
    ],
)
def test_chain_criterion_matches_reference_on_toric_bases(rows):
    a = IntMatrix.from_rows(rows)
    with criterion_off():
        reference = toric_ideal(a).groebner()
    assert toric_ideal(a).groebner() == reference


def test_pair_stats_are_deterministic():
    # (considered, chain skips, zero reductions, added) with the chain
    # criterion on, then off; the Weyl engine never uses the product criterion
    expected = {"horn": ((136, 79, 44, 13), (136, 0, 123, 13)), "ahyp": ((91, 50, 32, 9), (91, 0, 82, 9))}
    for name, (on, off) in expected.items():
        gens = DEMO_SYSTEMS[name]()
        assert groebner_weyl(gens, cap=10).stats == PairStats(
            considered=on[0], chain_skips=on[1], zero_reductions=on[2], added=on[3]
        )
        with criterion_off():
            assert groebner_weyl(gens, cap=10).stats == PairStats(
                considered=off[0], chain_skips=off[1], zero_reductions=off[2], added=off[3]
            )
    capped = groebner_weyl(horn_demo_gens(), cap=4)
    assert capped.status == "capped"
    assert capped.stats == PairStats(considered=21, zero_reductions=13, added=3, cap_drops=5)


# (status, basis length, considered, chain skips, zero reductions, added,
# cap drops) of the quartic A-hypergeometric system at beta (1/2, 1/3),
# taken with the chain criterion tested against a set of popped pairs
QUARTIC_DECISIONS = {
    4: ("capped", 14, 91, 19, 60, 6, 6),
    5: ("capped", 20, 190, 46, 98, 12, 34),
    6: ("capped", 24, 276, 107, 112, 16, 41),
    7: ("capped", 29, 406, 149, 204, 21, 32),
    8: ("capped", 30, 435, 266, 130, 22, 17),
    9: ("complete", 31, 465, 329, 113, 23, 0),
    10: ("complete", 31, 465, 329, 113, 23, 0),
}


@pytest.mark.parametrize("cap", sorted(QUARTIC_DECISIONS))
def test_chain_criterion_decisions_are_pinned_on_the_quartic(cap):
    status, size, considered, chain, zero, added, drops = QUARTIC_DECISIONS[cap]
    gb = groebner_weyl(quartic_gens(), cap=cap)
    assert (gb.status, len(gb.basis)) == (status, size)
    assert gb.stats == PairStats(
        considered=considered, chain_skips=chain, zero_reductions=zero, added=added, cap_drops=drops
    )


# ---------------------------------------------------------------------------
# The binomial core against the general core


@st.composite
def lattice_ideals(draw):
    """Generators of a lattice basis ideal of a random integer matrix with
    no zero column, with random pure differences, scaled by a constant,
    that need not be homogeneous, and a weighted order for them."""
    n = draw(st.integers(2, 4))
    col = st.lists(st.integers(-2, 2), min_size=n, max_size=n).filter(any)
    cols = draw(st.lists(col, min_size=1, max_size=3))
    gens = list(lattice_basis_ideal(IntMatrix.from_rows([list(r) for r in zip(*cols)])).gens)
    expo = st.tuples(*[st.integers(0, 2)] * n)
    for p, q in draw(st.lists(st.tuples(expo, expo).filter(lambda pq: pq[0] != pq[1]), max_size=2)):
        c = draw(st.sampled_from([1, -1, 2, Fraction(-1, 3)]))
        gens.append(dpoly(n, {p: c, q: -c}))
    weights = draw(st.tuples(*[st.integers(1, 3)] * n))
    return n, gens, WeightedRevLexLast(weights, draw(st.integers(0, n - 1)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lattice_ideals())
def test_binomial_core_matches_the_general_core(case):
    n, gens, weighted = case
    ran = []
    binomial = groebner._binomial_buchberger
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_binomial_buchberger", lambda *args: ran.append(1) or binomial(*args))
        for order in (DegRevLex(n), weighted):
            got = groebner._groebner_cached.__wrapped__(CommIdeal.make(n, gens), order)
            assert got == groebner._general_basis(n, gens, order)
    assert len(ran) == 2


def seeded_poly(rng, n, size, top):
    """size terms at distinct exponents up to top, seeded coefficients."""
    exps = rng.sample(list(product(range(top + 1), repeat=n)), size)
    return dpoly(n, {e: rng.choice([-3, -2, -1, 1, 2, Fraction(1, 2), Fraction(-2, 3)]) for e in exps})


# The printed answers of the general commutative path on sixty seeded
# ideals, one line each: the reduced bases in degrevlex and in a weighted
# order, a normal form, and whether the ideal contains a planted member and
# the normal form's query.  The first generator has three terms, so no ideal
# goes to the binomial core.  Recorded while CommPoly held its own Fraction
# terms and the core took them in through a Fraction-to-integer converter.
GENERAL_PATH_SHA256 = "ccc13bdc4128a0d7b1f29e5222c35a8f59962550815387d01e199fbc1a2e02b2"


def test_general_commutative_path_is_pinned():
    lines = []
    for seed in range(60):
        rng = Random(seed)
        n = rng.randint(2, 3)
        gens = [seeded_poly(rng, n, 3, 2)] + [seeded_poly(rng, n, rng.randint(1, 3), 2) for _ in range(rng.randint(1, 2))]
        ideal = CommIdeal.make(n, gens)
        weighted = WeightedRevLexLast([rng.randint(1, 3) for _ in range(n)], rng.randint(0, n - 1))
        query = seeded_poly(rng, n, 4, 3)
        member = gens[0] * seeded_poly(rng, n, 2, 1) + gens[-1] * seeded_poly(rng, n, 1, 1)
        lines.append(
            f"{', '.join(map(str, ideal.groebner()))}; {', '.join(map(str, ideal.groebner(weighted)))}; "
            f"{ideal.normal_form(query)}; {ideal.contains(member)} {ideal.contains(query)}"
        )
    assert sha256("\n".join(lines).encode()).hexdigest() == GENERAL_PATH_SHA256


# PairStats of the binomial core in the six completions of the rational
# normal quintic's toric_ideal(...).groebner(): the five saturation steps,
# then the degrevlex basis
QUINTIC_TORIC_STATS = [
    PairStats(considered=78, product_skips=24, chain_skips=31, zero_reductions=14, added=9),
    PairStats(considered=45, product_skips=21, chain_skips=4, zero_reductions=20),
    PairStats(considered=66, product_skips=29, chain_skips=15, zero_reductions=20, added=2),
    PairStats(considered=66, product_skips=32, chain_skips=12, zero_reductions=20, added=2),
    PairStats(considered=66, product_skips=30, chain_skips=14, zero_reductions=20, added=2),
    PairStats(considered=45, product_skips=21, chain_skips=4, zero_reductions=20),
]


def test_binomial_pair_stats_are_pinned_on_the_quintic(monkeypatch):
    stats = []
    binomial = groebner._binomial_buchberger

    def noted(*args):
        pk, basis, pairs = binomial(*args)
        stats.append(pairs)
        return pk, basis, pairs

    monkeypatch.setattr(groebner, "_binomial_buchberger", noted)
    monkeypatch.setattr(groebner, "_groebner_cached", groebner._groebner_cached.__wrapped__)
    toric_ideal(IntMatrix.from_rows([[1] * 6, [0, 1, 2, 3, 4, 5]])).groebner()
    assert stats == QUINTIC_TORIC_STATS


# The monomial curves of the toric benchmark catalogue (bench/workloads.py):
# five columns of degree 5 and 6, then the rational normal quartic and
# quintic.
TORIC_CATALOGUE_CURVES = [
    [[1] * 5, [0, a, b, c, d]]
    for d in (5, 6)
    for a in range(1, d)
    for b in range(a + 1, d)
    for c in range(b + 1, d)
] + [[[1] * 5, [0, 1, 2, 3, 4]], [[1] * 6, [0, 1, 2, 3, 4, 5]]]


class _Graded(Exception):
    pass


def test_toric_grading_stays_all_ones_on_every_rotated_catalogue_curve(monkeypatch):
    # the pairs of a binomial completion, hence QUINTIC_TORIC_STATS, follow
    # the weights toric_ideal grades by; every rotation of a catalogue curve
    # is graded by its all-ones row, whichever positive functional is used
    graded = []

    def first_order(weights, last):
        graded.append(weights)
        raise _Graded

    monkeypatch.setattr(systems, "WeightedRevLexLast", first_order)
    for rows in TORIC_CATALOGUE_CURVES:
        n = len(rows[0])
        for p in range(n):
            with pytest.raises(_Graded):
                toric_ideal(IntMatrix.from_rows([r[p:] + r[:p] for r in rows]))
            assert graded.pop() == (1,) * n


def test_binomial_core_widens_from_one_bit_fields(monkeypatch):
    # every exponent of the generators fits one bit and some of the basis
    # do not: started at width 1, the completion widens twice through
    # _widening and ends at the basis of the run at the fitted width
    ideal = CommIdeal.make(
        3,
        [
            dpoly(3, {(1, 0, 0): -1, (0, 1, 0): 1}),
            dpoly(3, {(1, 1, 1): 1, (1, 0, 1): -1}),
            dpoly(3, {(0, 0, 1): 1, (1, 1, 0): -1}),
        ],
    )
    want = groebner._groebner_cached.__wrapped__(ideal, DegRevLex(3))
    assert [str(g) for g in want] == ["d1 - d2", "d2 d3 - d3^2", "d2^2 - d3", "d3^3 - d3^2"]
    tried = []
    widening = groebner._widening
    monkeypatch.setattr(groebner, "_widening", lambda run, pk: widening(lambda w: tried.append(w.width) or run(w), pk))
    monkeypatch.setattr(groebner, "_fit", lambda n, rows, w, top: weyl._packing(n, rows, w, 1))
    assert groebner._groebner_cached.__wrapped__(ideal, DegRevLex(3)) == want
    assert tried[0] == 1 and max(tried) == 4


def test_commutative_cache_exposes_its_counts():
    # the benchmark's tracer counts commutative cache hits through
    # groebner._groebner_cached.cache_info(), the one cache CommIdeal.groebner calls
    ideal = CommIdeal.make(4, LATTICE_GENS)
    groebner._groebner_cached.cache_clear()
    ideal.groebner()
    ideal.groebner()
    info = groebner._groebner_cached.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def test_toric_ideal_saturates_past_the_commutative_cache():
    # the saturation steps complete exponent pairs directly: only the
    # returned ideal's own .groebner() reaches the cache
    groebner._groebner_cached.cache_clear()
    ideal = toric_ideal(IntMatrix.from_rows([[1] * 6, [0, 1, 2, 3, 4, 5]]))
    info = groebner._groebner_cached.cache_info()
    assert (info.hits, info.misses) == (0, 0)
    ideal.groebner()
    info = groebner._groebner_cached.cache_info()
    assert (info.hits, info.misses) == (0, 1)


def test_toric_ideal_without_grading_is_completed_once(monkeypatch):
    # with no positive grading, toric_ideal's last completion is the
    # degrevlex basis: four saturation steps and that one, then groebner()
    # returns it without a sixth
    calls = []
    binomial = groebner._binomial_buchberger
    monkeypatch.setattr(groebner, "_binomial_buchberger", lambda *args: calls.append(1) or binomial(*args))
    groebner._groebner_cached.cache_clear()
    ideal = toric_ideal(IntMatrix.from_rows([[-3, -2, 3, -1]]))
    assert len(calls) == 5
    basis = ideal.groebner()
    assert len(calls) == 5
    assert groebner._groebner_cached.cache_info().misses == 0
    assert basis == groebner._groebner_cached.__wrapped__(ideal, DegRevLex(4))


# ---------------------------------------------------------------------------
# The heap-led division kernel against the max-led reference loop


def reference_term_product(mu1, nu1, mu2, nu2):
    """x^mu1 d^nu1 . x^mu2 d^nu2 by the general reordering formula, no shortcut."""
    out = []
    for k in product(*[range(min(a, b) + 1) for a, b in zip(nu1, mu2)]):
        w = 1
        for a, b, kk in zip(nu1, mu2, k):
            w *= comb(a, kk) * comb(b, kk) * factorial(kk)
        mu = tuple(a + b - kk for a, b, kk in zip(mu1, mu2, k))
        nu = tuple(a + b - kk for a, b, kk in zip(nu1, nu2, k))
        out.append(((mu, nu), w))
    return out


def reference_divide(f, divisors, key):
    """Left division that takes each lead as the max of the working operator."""
    quots = [{} for _ in divisors]
    rem = {}
    work = dict(f)
    while work:
        le = max(work, key=key)
        for i, (gl, gc, g) in enumerate(divisors):
            if all(a <= b for a, b in zip(gl[0] + gl[1], le[0] + le[1])):
                break
        else:
            rem[le] = work.pop(le)
            continue
        shift = (tuple(a - b for a, b in zip(le[0], gl[0])), tuple(a - b for a, b in zip(le[1], gl[1])))
        factor = work[le] / gc
        quots[i][shift] = quots[i].get(shift, 0) + factor
        for (mu, nu), c in g.items():
            for k, w in reference_term_product(*shift, mu, nu):
                v = work.get(k, 0) - factor * c * w
                if v:
                    work[k] = v
                else:
                    work.pop(k, None)
    return quots, rem


def degrevlex_key(e):
    """The degree reverse lex order as a tuple key: the reference for packed ints."""
    return (sum(e), tuple(-x for x in e[::-1]))


def weighted_revlex_last_key(weights, last):
    return lambda e: (sum(w * x for w, x in zip(weights, e)), -e[last], tuple(-x for x in e[::-1]))


def block_elim_key(nfirst):
    return lambda e: degrevlex_key(e[:nfirst]) + degrevlex_key(e[nfirst:])


def weyl_key(m):
    """The Weyl engine's order on (mu, nu), degree reverse lex on mu + nu."""
    return degrevlex_key(m[0] + m[1])


@st.composite
def division_problems(draw):
    n = draw(st.integers(2, 3))
    xfree = draw(st.booleans())
    zero = st.just((0,) * n)
    small = st.tuples(*[st.integers(0, 1)] * n)
    large = st.tuples(*[st.integers(0, 3)] * n)
    coeff = st.sampled_from([-3, -2, -1, 1, 2, Fraction(1, 2)])

    def random_op(expo, size):
        mons = st.tuples(zero if xfree else expo, expo)
        return draw(st.dictionaries(mons, coeff, min_size=1, max_size=size))

    f = {m: Fraction(c) for m, c in random_op(large, 6).items()}
    gs = [{m: Fraction(c) for m, c in random_op(small, 3).items()} for _ in range(draw(st.integers(1, 3)))]
    if xfree and draw(st.booleans()):
        order, key = BlockElim(1, n), lambda m: block_elim_key(1)(m[1])
    elif xfree:
        order, key = DegRevLex(n), lambda m: degrevlex_key(m[1])
    else:
        order, key = DegRevLex(2 * n), weyl_key
    return f, gs, weyl._fit(n, order.rows, not xfree, 3), key


def unscaled(g, m):
    return {k: Fraction(c, m) for k, c in g.items()}


def unpacked(g, pk):
    return {pk.unpack(k): c for k, c in g.items()}


def packed(g, pk):
    """The integer operator of the rational operator dict g, packed, and its scale."""
    return groebner._weyl_packed(pk, WeylOperator.make(pk.nvars, g))


def packed_division(f, divisors, pk, cap=None):
    """_divide on f packed by pk, its quotients and remainder unpacked and
    unscaled: the rational division of f it stands for."""
    fi, d = packed(f, pk)
    quots, rem, m = groebner._divide(fi, divisors, pk, cap)
    return [unscaled(unpacked(q, pk), m * d) for q in quots], unscaled(unpacked(rem, pk), m * d)


def total_degree(monomial):
    return sum(monomial[0]) + sum(monomial[1])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(division_problems())
def test_heap_led_division_matches_reference(problem):
    # the fraction-free kernel divides the integer, packed d f by the
    # integer multiples of the divisors; unpacked, and unscaled by d and by
    # its m, its quotients and remainder are the reference's for the
    # rational f, term for term
    f, gs, pk, key = problem
    ints = [groebner._divisor(packed(g, pk)[0]) for g in gs]
    ref_divisors = [(pk.unpack(gl), gc, unpacked(g, pk)) for gl, gc, g in ints]
    ref_quots, ref_rem = reference_divide(f, ref_divisors, key)
    quots, rem = packed_division(f, ints, pk)
    assert quots == ref_quots
    assert rem == ref_rem
    # with a cap, division stops at the first remainder monomial above it
    for cap in range(max(map(total_degree, f)) + 1):
        over = [t for t in ref_rem if total_degree(t) > cap]
        capped_quots, capped_rem = packed_division(f, ints, pk, cap)
        if over:
            assert list(capped_rem) == [max(over, key=key)]
            assert not any(capped_quots)
        else:
            assert (capped_quots, capped_rem) == (quots, rem)


# ---------------------------------------------------------------------------
# Packed monomials against the tuple references


def toric_weights(rows):
    """The weights toric_ideal grades the matrix by: c . a_j for the
    positive functional c, scaled to coprime integers."""
    a = IntMatrix.from_rows(rows)
    c = positive_functional(a.columns(), a.rows)
    w = [sum(ci * x for ci, x in zip(c, col)) for col in a.columns()]
    den, num = lcm(*(q.denominator for q in w)), gcd(*(q.numerator for q in w))
    return tuple(int(q * den) // num for q in w)


# five-column curves of the toric benchmark catalogue, the quintic, a
# weighted curve and the demo matrix
WEIGHT_MATRICES = [
    [[1] * 5, [0, 1, 2, 3, 5]],
    [[1] * 5, [0, 2, 3, 4, 6]],
    [[1] * 6, [0, 1, 2, 3, 4, 5]],
    [[4, 6, 7, 9]],
    [[3, 2, 1, 0], [0, 1, 2, 3]],
]


@st.composite
def packings(draw):
    """A packing, the tuple key of its order on flattened exponents, and
    exponent vectors that fill its fields, the field limit included."""
    kind = draw(st.sampled_from(["degrevlex", "weighted", "block", "weyl", "matrix"]))
    if kind == "matrix":
        # any integer rows, signs mixed: lex on W e, ties broken by the raw
        # fields, the last most significant
        n = draw(st.integers(1, 3))
        rows = tuple(draw(st.lists(st.tuples(*[st.integers(-3, 3)] * n), min_size=1, max_size=3)))
        order = MatrixOrder(sparse_rows(rows))
        key = lambda e: (tuple(sum(w * x for w, x in zip(r, e)) for r in rows), e[::-1])  # noqa: E731
    elif kind == "weighted":
        w = toric_weights(draw(st.sampled_from(WEIGHT_MATRICES)))
        last = draw(st.integers(0, len(w) - 1))
        n, order, key = len(w), WeightedRevLexLast(w, last), weighted_revlex_last_key(w, last)
    elif kind == "block":
        n = draw(st.integers(2, 4))
        nfirst = draw(st.integers(1, n - 1))
        order, key = BlockElim(nfirst, n), block_elim_key(nfirst)
    else:
        n = draw(st.integers(1, 4 if kind == "degrevlex" else 3))
        order, key = DegRevLex(2 * n if kind == "weyl" else n), degrevlex_key
    pk = weyl._packing(n, order.rows, kind == "weyl", draw(st.integers(1, 6)))
    field = st.one_of(st.integers(0, pk.mask), st.sampled_from([0, 1, pk.mask - 1, pk.mask]))
    size = 2 * n if pk.weyl else n
    return pk, key, draw(st.lists(st.tuples(*[field] * size), min_size=2, max_size=4))


def split(pk, e):
    n = pk.nvars
    return (e[:n], e[n:]) if pk.weyl else ((0,) * n, e)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(packings())
def test_packed_monomials_match_tuple_references(case):
    pk, key, exps = case
    ks = [pk.pack(*split(pk, e)) for e in exps]
    for e, k in zip(exps, ks):
        assert pk.unpack(k) == split(pk, e)
        assert pk.degree(k) == sum(e)
    for (e, a), (f, b) in product(zip(exps, ks), repeat=2):
        # int comparison is the term order
        assert (a < b) == (key(e) < key(f))
        assert (a == b) == (e == f)
        assert pk.divides(a, b) == all(x <= y for x, y in zip(e, f))
        assert pk.lcm(a, b) == pk.pack(*split(pk, tuple(map(max, e, f))))
        # the one-term product is a + b; the Weyl overlap test sends it to
        # the reordering terms exactly when nu of e meets mu of f
        acc = {}
        if any(x + y > pk.mask for x, y in zip(e, f)):
            with pytest.raises(weyl._Overflow):
                weyl._lmul(acc, 1, a, {b: 1}, pk)
            continue
        weyl._lmul(acc, 1, a, {b: 1}, pk)
        assert acc[a + b] == 1
        assert unpacked(acc, pk) == dict(reference_term_product(*split(pk, e), *split(pk, f)))


def test_packed_order_is_exhaustively_lex_on_w_e():
    # every two-row matrix with small entries, signs mixed, on every
    # exponent vector that fits one- and two-bit fields: the digit widths
    # leave no room for a lower digit to outweigh a higher one
    for n, entries in ((1, range(-2, 3)), (2, range(-1, 2))):
        for rows in product(product(entries, repeat=n), repeat=2):
            for width in (1, 2):
                pk = weyl._packing(n, sparse_rows(rows), False, width)
                exps = list(product(range(pk.mask + 1), repeat=n))
                ks = [pk.pack((), e) for e in exps]
                keys = [(tuple(sum(w * x for w, x in zip(r, e)) for r in rows), e[::-1]) for e in exps]
                assert sorted(range(len(exps)), key=ks.__getitem__) == sorted(range(len(exps)), key=keys.__getitem__)


def test_packing_width_comes_from_the_inputs():
    # fields hold twice the largest input exponent, so a product of inputs
    # never overflows, and an exponent past the fields is refused
    pk = weyl._fit(1, DegRevLex(1).rows, False, 40000)
    assert pk.mask >= 80000 > pk.mask // 2
    with pytest.raises(weyl._Overflow):
        pk.pack((), (pk.mask + 1,))
    assert pk.wider().width == 2 * pk.width


def recursive_lmul(acc, coeff, a, g, pk, entered=None):
    """weyl._lmul as it was written before its reordering terms were added
    in place: each one is a recursive call on the packed operator 1."""
    guard, ones, mu_guard, low = pk.guard, pk.ones, pk.mu_guard, (1 << pk.nshift) - 1
    nu = (a >> pk.nshift) + ones
    for t, c in g.items():
        k = a + t
        if k & guard:
            raise weyl._Overflow
        if nu & (t + ones) & mu_guard:
            for off, w in weyl._reorderings(pk, (a >> pk.nshift) & low, t & low):
                recursive_lmul(acc, coeff * c * w, k - off, {0: 1}, pk, entered)
            continue
        v = acc.get(k)
        if v is None:
            acc[k] = coeff * c
            if entered is not None:
                entered.append(k)
        elif v + coeff * c:
            acc[k] = v + coeff * c
        else:
            del acc[k]


@st.composite
def lmul_problems(draw):
    """A Weyl packing with narrow fields, an accumulator, a left monomial
    and operators to multiply, with exponents that overlap nu of the left
    factor with mu of the right and may overflow the fields.  Half of the
    accumulators hold the negated product of some of the operators, so
    their terms cancel."""
    n = draw(st.integers(1, 3))
    pk = weyl._packing(n, DegRevLex(2 * n).rows, True, draw(st.integers(2, 3)))
    expo = st.tuples(*[st.integers(0, 3)] * (2 * n))
    coeff = st.sampled_from([-3, -2, -1, 1, 2, 5])

    def op():
        terms = draw(st.dictionaries(expo, coeff, min_size=1, max_size=4))
        return {pk.pack(e[:n], e[n:]): c for e, c in terms.items()}

    a = draw(expo)
    left = pk.pack(a[:n], a[n:])
    gs = [(draw(coeff), op()) for _ in range(draw(st.integers(1, 3)))]
    acc = op() if draw(st.booleans()) else {}
    if draw(st.booleans()):
        for c, g in gs[: draw(st.integers(1, len(gs)))]:
            try:
                recursive_lmul(acc, -c, left, g, pk)
            except weyl._Overflow:
                pass
    return pk, left, gs, acc


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(lmul_problems())
def test_lmul_matches_the_recursive_formulation(case):
    # the same accumulator, term for term and in insertion order, the same
    # new monomials in the same order, and _Overflow at the same product
    pk, left, gs, start = case
    got, want = dict(start), dict(start)
    got_entered, want_entered = [], []
    for c, g in gs:
        try:
            recursive_lmul(want, c, left, g, pk, want_entered)
        except weyl._Overflow:
            with pytest.raises(weyl._Overflow):
                weyl._lmul(got, c, left, g, pk, got_entered)
            break
        weyl._lmul(got, c, left, g, pk, got_entered)
    assert list(got.items()) == list(want.items())
    assert got_entered == want_entered


def test_lmul_adds_reorderings_in_place_and_keeps_overflowing():
    # d1 . (x1 d1 + x1) = x1 d1^2 + d1 + x1 d1 + 1: the reorderings of the
    # two terms, d1 cancelled by the accumulator; d1^3 . x1^3 d1 leaves the
    # two-bit field of d1 before it is reordered
    pk = weyl._packing(1, DegRevLex(2).rows, True, 2)
    x1d1, x1, d1 = pk.pack((1,), (1,)), pk.pack((1,), (0,)), pk.pack((0,), (1,))
    acc, entered = {d1: -1}, []
    weyl._lmul(acc, 1, d1, {x1d1: 1, x1: 1}, pk, entered)
    assert acc == {pk.pack((1,), (2,)): 1, x1d1: 1, 0: 1}
    assert entered == [pk.pack((1,), (2,)), x1d1, 0]
    with pytest.raises(weyl._Overflow):
        weyl._lmul({}, 1, pk.pack((0,), (3,)), {pk.pack((3,), (1,)): 1}, pk)


@lru_cache(maxsize=None)
def horn_demo_basis():
    return groebner_weyl(horn_demo_gens(), cap=10)


def replays_by_products(cert, gens):
    total = cert.normal_form
    for q, g in zip(cert.cofactors, gens):
        total = total + normal_product(q, g)
    return len(cert.cofactors) == len(gens) and total == cert.query


@st.composite
def horn_queries(draw):
    mon = st.tuples(st.tuples(*[st.integers(0, 1)] * 4), st.tuples(*[st.integers(0, 1)] * 4))
    ops = st.dictionaries(mon, st.sampled_from([-2, -1, 1, 3]), max_size=2).map(partial(dop, 4))
    cofactors = draw(st.lists(ops, min_size=4, max_size=4))
    return cofactors, draw(ops)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(horn_queries())
def test_single_pass_replay_matches_product_replay(case):
    cofactors, perturbation = case
    gens = horn_demo_gens()
    query = perturbation
    for q, g in zip(cofactors, gens):
        query = query + normal_product(q, g)
    cert = horn_demo_basis().membership(query)
    assert cert.verify(gens) is replays_by_products(cert, gens) is True
    wrong = replace(cert, normal_form=cert.normal_form + WeylOperator.one(4))
    assert wrong.verify(gens) is replays_by_products(wrong, gens) is False


def test_replay_rejects_generator_count_mismatch():
    gens = horn_demo_gens()
    query = normal_product(WeylOperator.x(0, 4), gens[0]) + gens[3]
    cert = horn_demo_basis().membership(query)
    assert cert.verify(gens)
    assert not cert.verify(gens[:1])
    assert not cert.verify(gens + [WeylOperator.one(4)])
    with pytest.raises(DimensionMismatchError):
        cert.verify([WeylOperator.one(3)] * len(gens))


def test_membership_builds_no_fraction_and_no_terms_view(monkeypatch):
    # the query, the generators and the certificate are read as integer
    # numerators over one denominator, and the answer is built as one
    gens = horn_demo_gens()
    planted = normal_product(WeylOperator.monomial(4, (1, 0, 0, 0), (0, 1, 0, 0), Fraction(2, 5)), gens[0])
    queries = [planted + gens[3].scale(Fraction(-1, 7)), planted + WeylOperator.d(1, 4), WeylOperator.zero(4)]
    made = []

    def counting(*args):
        made.append(args)
        return Fraction(*args)

    terms = WeylOperator.__dict__["terms"].func

    def viewed(op):
        made.append(op)
        return terms(op)

    for module in (groebner, weyl):
        monkeypatch.setattr(module, "Fraction", counting)
    monkeypatch.setattr(WeylOperator, "terms", property(viewed))
    gb = groebner_weyl(gens, cap=10)
    certs = [gb.membership(q) for q in queries]
    assert [c.member for c in certs] == [True, False, True]
    assert all(c.verify(gens) for c in certs)
    assert made == []


# ---------------------------------------------------------------------------
# The integer replay against the Fraction replay by normal products


@lru_cache(maxsize=None)
def demo_basis(name):
    # the quartic is the capped basis of the membership benchmark
    gens = DEMO_SYSTEMS[name]()
    return gens, groebner_weyl(gens, cap=4 if name == "quartic" else 10)


def prime_dividing_none(dens):
    return next(p for p in count(17) if all(p % r for r in range(2, isqrt(p) + 1)) and all(d % p for d in dens))


@st.composite
def planted_members(draw):
    name = draw(st.sampled_from(sorted(DEMO_SYSTEMS)))
    gens, _ = demo_basis(name)
    n = gens[0].nvars
    bits = st.tuples(*[st.integers(0, 1)] * n)
    # the generators' denominators are 2, 3 and 6; these are coprime to them
    coeff = st.builds(Fraction, st.integers(-9, 9).filter(bool), st.sampled_from([1, 5, 7, 11, 13, 35]))
    ops = st.dictionaries(st.tuples(bits, bits), coeff, max_size=2).map(partial(dop, n))
    cofactors = draw(st.lists(ops, min_size=len(gens), max_size=len(gens)))
    perturbation = draw(st.one_of(st.just(WeylOperator.zero(n)), ops))
    # the coefficient that gets 1/p more: a cofactor's, or the normal form's
    slot = draw(st.integers(0, len(gens)))
    return name, cofactors, perturbation, slot, draw(st.integers(0, 99))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(planted_members())
def test_integer_replay_matches_fraction_replay(case):
    name, cofactors, perturbation, slot, pick = case
    gens, gb = demo_basis(name)
    n = gens[0].nvars
    query = perturbation
    for q, g in zip(cofactors, gens):
        query = query + normal_product(q, g)
    cert = gb.membership(query)
    assert cert.verify(gens) is replays_by_products(cert, gens) is True
    assert (cert.normal_form, cert.cofactors) == gb.normal_form(query)
    # the fraction-free division, unpacked and unscaled, is the reference
    # division by the unpacked basis
    f = {(mu, nu): c for mu, nu, c in query.terms}
    pk, _, divisors, _ = gb._state
    ref_divisors = [(pk.unpack(gl), gc, unpacked(g, pk)) for gl, gc, g in divisors]
    ref_quots, ref_rem = reference_divide(f, ref_divisors, weyl_key)
    assert packed_division(f, divisors, pk) == (ref_quots, ref_rem)
    # 1/p more in one coefficient, p dividing no denominator, so that the
    # coefficient stays nonzero and every integer scaling meets a new prime
    ops = (query, cert.normal_form, *cert.cofactors, *gens)
    p = prime_dividing_none({c.denominator for op in ops for _, _, c in op.terms})
    target = cert.normal_form if slot == len(gens) else cert.cofactors[slot]
    mu, nu, _ = target.terms[pick % len(target.terms)] if target.terms else ((0,) * n, (0,) * n, 0)
    bumped = target + WeylOperator.monomial(n, mu, nu, Fraction(1, p))
    if slot == len(gens):
        wrong = replace(cert, normal_form=bumped)
    else:
        wrong = replace(cert, cofactors=cert.cofactors[:slot] + (bumped,) + cert.cofactors[slot + 1 :])
    assert wrong.verify(gens) is replays_by_products(wrong, gens) is False


def test_wide_query_repacks_the_basis_without_changing_answers(monkeypatch):
    # x1^40 d4^3 . g_1 + d3^40 overflows the fields sized from the Horn
    # generators and the cap; the basis is repacked wider, the certificate
    # replays, its normal form is the reference division's remainder, and
    # later answers equal those of a basis that never widened
    widened = []
    wider = weyl.Packing.wider
    monkeypatch.setattr(weyl.Packing, "wider", lambda pk: widened.append(pk.width) or wider(pk))
    gens = horn_demo_gens()
    gb = groebner_weyl(gens, cap=10)
    query = normal_product(WeylOperator.monomial(4, (40, 0, 0, 0), (0, 0, 0, 3)), gens[0])
    query = query + WeylOperator.monomial(4, (0,) * 4, (0, 0, 40, 0))
    cert = gb.membership(query)
    assert widened
    assert replays_by_products(cert, gens)
    pk, _, divisors, _ = gb._state
    ref_divisors = [(pk.unpack(gl), gc, unpacked(g, pk)) for gl, gc, g in divisors]
    f = {(mu, nu): c for mu, nu, c in query.terms}
    assert cert.normal_form == WeylOperator.make(4, reference_divide(f, ref_divisors, weyl_key)[1])
    narrow = groebner_weyl(gens, cap=10)
    assert narrow._state[0].width < pk.width
    small = normal_product(WeylOperator.x(0, 4), gens[0]) + WeylOperator.d(1, 4)
    assert gb.membership(small) == narrow.membership(small)
    assert gb.basis == narrow.basis


# ---------------------------------------------------------------------------
# One overflow rule: a completion that overflows repacks what it holds and
# retries only the step in flight, so it ends as a run started wide enough


def widening_completion_gens():
    # d2 + x1^2 and d1^3 + x2, the generators of the pinned CLI report whose
    # completion at cap 3 overflows the fields sized from them and cap
    return [
        WeylOperator.make(2, {((0, 0), (0, 1)): 1, ((2, 0), (0, 0)): 1}),
        WeylOperator.make(2, {((0, 0), (3, 0)): 1, ((0, 1), (0, 0)): 1}),
    ]


def widening_completion():
    gb = groebner_weyl(widening_completion_gens(), cap=3)
    reps = [gb.basis_representation(i) for i in range(len(gb.basis))]
    return gb.status, gb.basis, reps, gb.stats


def widening_toric():
    # the one toric benchmark matrix whose saturation steps overflow
    groebner._groebner_cached.cache_clear()
    return toric_ideal(IntMatrix.from_rows([[1, 1, 1, 1, 1], [3, 5, 6, 0, 1]])).groebner()


# the division, S-pair and interreduction steps of the core each one runs:
# the Weyl completion the general core, the toric one the binomial core
OVERFLOWING_COMPLETIONS = {
    "weyl": (widening_completion, ("_divide", "_spair", "_interreduce")),
    "toric": (widening_toric, ("_binomial_divide", "_binomial_spair", "_binomial_interreduce")),
}


def counted_run(completion, monkeypatch, fail_at=()):
    """Run completion, counting the calls of its division step (raising
    _Overflow instead of the calls numbered in fail_at), S-pairs and
    widenings, and noting the call number at which each interreduction
    starts."""
    completion, steps = completion
    seen = {"divide": 0, "spair": 0, "starts": [], "widened": []}
    divide, spair, interreduce = (getattr(groebner, name) for name in steps)
    wider = weyl.Packing.wider

    def counted_divide(*args):
        seen["divide"] += 1
        if seen["divide"] in fail_at:
            raise weyl._Overflow
        return divide(*args)

    def counted_spair(*args):
        seen["spair"] += 1
        return spair(*args)

    def noted_interreduce(*args):
        seen["starts"].append(seen["divide"] + 1)
        return interreduce(*args)

    with monkeypatch.context() as mp:
        for name, step in zip(steps, (counted_divide, counted_spair, noted_interreduce)):
            mp.setattr(groebner, name, step)
        mp.setattr(weyl.Packing, "wider", lambda pk: seen["widened"].append(pk.width) or wider(pk))
        return completion(), seen


@pytest.mark.parametrize("name", sorted(OVERFLOWING_COMPLETIONS))
def test_injected_overflow_resumes_to_the_same_completion(monkeypatch, name):
    completion = OVERFLOWING_COMPLETIONS[name]
    want, seen = counted_run(completion, monkeypatch)
    first, last, total = seen["starts"][0], seen["starts"][-1], seen["divide"]
    assert 1 < first <= last <= total
    # pair loop: the first division and the last before an interreduction;
    # interreduction: its first division, and the very last one
    for k in sorted({1, first - 1, first, last - 1, last, total}):
        got, faulted = counted_run(completion, monkeypatch, fail_at=(k,))
        assert faulted["divide"] > k  # the fault fired, and the call was retried
        assert got == want, k


@pytest.mark.parametrize("name", sorted(OVERFLOWING_COMPLETIONS))
def test_overflow_twice_in_one_step_resumes_to_the_same_completion(monkeypatch, name):
    # a fault at call k is retried as call k + 1 on the same S-pair (or the
    # same interreduction), so faults at both widen twice within one step
    completion = OVERFLOWING_COMPLETIONS[name]
    want, seen = counted_run(completion, monkeypatch)
    first, total = seen["starts"][0], seen["divide"]
    for k in sorted({1, first // 2, first - 1, first, total}):
        got, faulted = counted_run(completion, monkeypatch, fail_at=(k, k + 1))
        assert faulted["divide"] > k + 1
        assert len(faulted["widened"]) >= 2
        assert got == want, k


@pytest.mark.parametrize("name", sorted(OVERFLOWING_COMPLETIONS))
def test_overflowing_completion_keeps_its_work(monkeypatch, name):
    # each widening costs at most the S-pair in flight: no completion starts over
    completion = OVERFLOWING_COMPLETIONS[name]
    want, seen = counted_run(completion, monkeypatch)
    assert seen["widened"]  # the fields chosen from the inputs overflow
    final = 2 * max(seen["widened"])
    fit = groebner._fit
    monkeypatch.setattr(
        groebner, "_fit", lambda n, rows, w, top: weyl._packing(n, rows, w, max(final, fit(n, rows, w, top).width))
    )
    got, wide = counted_run(completion, monkeypatch)
    assert got == want and not wide["widened"]
    assert seen["spair"] <= wide["spair"] + len(seen["widened"])


def lcm_checked_completion(gens, cap, monkeypatch, width=None):
    """(status, basis, cofactors, PairStats, widths widened from) of
    groebner_weyl(gens, cap), started at width when given, with every lcm
    that a popped pair hands to the chain criterion or the S-pair checked
    against pk.lcm of the two leads at the packing of the call."""
    widened = []
    spair, chained, wider = groebner._spair, groebner._chained, weyl.Packing.wider

    def checked_spair(l, di, dj, pk):
        assert l == pk.lcm(di[0], dj[0])
        return spair(l, di, dj, pk)

    def checked_chained(rows, elements, i, j, l, pk):
        assert l == pk.lcm(elements[i][0], elements[j][0])
        return chained(rows, elements, i, j, l, pk)

    with monkeypatch.context() as mp:
        mp.setattr(groebner, "_spair", checked_spair)
        mp.setattr(groebner, "_chained", checked_chained)
        mp.setattr(weyl.Packing, "wider", lambda pk: widened.append(pk.width) or wider(pk))
        if width is not None:
            mp.setattr(groebner, "_fit", lambda n, rows, w, top: weyl._packing(n, rows, w, width))
        gb = groebner_weyl(gens, cap=cap)
        reps = [gb.basis_representation(i) for i in range(len(gb.basis))]
    return gb.status, gb.basis, reps, gb.stats, widened


@pytest.mark.parametrize("name,cap", [("widening", 3), ("horn", 10), ("quartic", 4)])
def test_queued_lcms_survive_a_widening(monkeypatch, name, cap):
    # the lead lcms are packed from stored exponents when a pair is queued
    # and again at each widening: a completion that widens mid-run, from the
    # fitted width or from the narrowest fields that hold the generators,
    # ends as one started at its final width, basis, cofactors and
    # PairStats alike
    gens = {"widening": widening_completion_gens, "horn": horn_demo_gens, "quartic": quartic_gens}[name]()
    narrow = groebner._weyl_top(gens).bit_length()
    runs = [lcm_checked_completion(gens, cap, monkeypatch, width) for width in (None, narrow)]
    final = 2 * max(w for run in runs for w in run[4])
    want = lcm_checked_completion(gens, cap, monkeypatch, final)
    assert runs[1][4] and not want[4]
    for run in runs:
        assert run[:4] == want[:4]


# ---------------------------------------------------------------------------
# One-pass interreduction against the fixpoint loop it replaced


def interreduce_to_fixpoint(basis, pk):
    """_interreduce as it was before it ran one pass: the minimal leads by a
    scan of every pair of leads, then passes of tail reduction, each
    element by the rest in index order, until a pass changes nothing."""

    def run(wide):
        held = basis if wide is pk else groebner._repack(basis, pk, wide)
        leads = [max(g) for g, _, _ in held]
        kept = [
            held[i]
            for i, lead in enumerate(leads)
            if not any(
                j != i and wide.divides(lj, lead) and (lj != lead or j < i)
                for j, lj in enumerate(leads)
            )
        ]
        divisors = [groebner._divisor(g) for g, _, _ in kept]
        changed = True
        while changed:
            changed = False
            for i, (g, rep, den) in enumerate(kept):
                others = divisors[:i] + divisors[i + 1 :]
                quots, rem, m = groebner._divide(g, others, wide)
                if any(quots):
                    changed = True
                    rest = kept[:i] + kept[i + 1 :]
                    new_den = groebner._used_lcm(quots, rest, den)
                    s = m * (new_den // den)
                    acc = [{k: c * s for k, c in r.items()} for r in rep]
                    groebner._add_cofactors(acc, quots, rest, new_den, -1, wide)
                    kept[i] = groebner._primitive(rem, acc, new_den, divisors[i][0])
                    divisors[i] = groebner._divisor(kept[i][0])
        return wide, sorted(kept, key=lambda t: max(t[0]))

    return groebner._widening(run, pk)


def assert_one_pass_matches_the_fixpoint(build):
    """Every interreduction that build() runs gives the fixpoint loop's
    basis, cofactors and denominators, at the same packing width."""
    inputs = []
    real = groebner._interreduce
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(groebner, "_interreduce", lambda basis, pk: inputs.append((basis, pk)) or real(basis, pk))
        build()
    assert inputs
    for basis, pk in inputs:
        (got_pk, got), (ref_pk, ref) = real(basis, pk), interreduce_to_fixpoint(basis, pk)
        assert got_pk.width == ref_pk.width
        assert got == ref


@pytest.mark.parametrize(
    "name,cap",
    [("horn", 10), ("ahyp", 10), ("quartic", 4)]
    + [("horn", c) for c in (3, 6, 8)]
    + [("ahyp", c) for c in (3, 6, 8)],
)
def test_one_pass_interreduction_matches_the_fixpoint_on_demos(name, cap):
    # the three membership bases first, then capped Horn and A-hyp ones
    assert_one_pass_matches_the_fixpoint(lambda: groebner_weyl(DEMO_SYSTEMS[name](), cap=cap))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(small_weyl_systems())
def test_one_pass_interreduction_matches_the_fixpoint_on_weyl_ideals(case):
    gens, cap = case
    assert_one_pass_matches_the_fixpoint(lambda: groebner_weyl(gens, cap=cap))


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(d_only_ideals())
def test_one_pass_interreduction_matches_the_fixpoint_on_x_free_ideals(case):
    n, gens = case
    assert_one_pass_matches_the_fixpoint(lambda: groebner._general_basis(n, gens, DegRevLex(n)))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 3).flatmap(lambda n: st.lists(st.tuples(*[st.integers(0, 2)] * n), max_size=12)))
def test_minimal_leads_match_the_pairwise_scan(exps):
    # few small exponents, so leads repeat and divide each other often
    n = len(exps[0]) if exps else 1
    pk = groebner._fit(n, DegRevLex(n).rows, False, 2)
    leads = [pk.pack((), e) for e in exps]
    scan = [
        i
        for i, lead in enumerate(leads)
        if not any(j != i and pk.divides(lj, lead) and (lj != lead or j < i) for j, lj in enumerate(leads))
    ]
    got = groebner._minimal([(lead, i) for i, lead in enumerate(leads)], pk)
    assert [i for _, i in got] == sorted(scan, key=leads.__getitem__)
    assert [lead for lead, _ in got] == sorted(leads[i] for i in scan)
