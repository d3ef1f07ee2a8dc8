"""Weyl-algebra arithmetic: products, grading, theta form, series action."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import product
from math import comb, factorial, gcd, prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhyper import groebner, weyl
from dhyper.errors import DhyperError, DimensionMismatchError, InputFormatError
from dhyper.exact import IntMatrix, RatVector
from dhyper.groebner import DegRevLex, WeightedRevLexLast
from dhyper.series import (
    INCONCLUSIVE,
    PuiseuxSeries,
    _binomial_fill,
    annihilation_check,
    apply_to_series,
    gamma_series,
)
from dhyper.weyl import (
    ThetaPoly,
    WeylOperator,
    euler_generators,
    normal_product,
    theta_form,
)

A_DEMO = IntMatrix.from_rows([[3, 2, 1, 0], [0, 1, 2, 3]])
BETA_DEMO = RatVector.make(["-11/6", "-5/3"])


def dop(nu):
    return WeylOperator.monomial(len(nu), (0,) * len(nu), nu)


def xop(mu):
    return WeylOperator.monomial(len(mu), mu, (0,) * len(mu))


# ---------------------------------------------------------------------------
# Fraction reference for the integer falling-factorial kernels; the other
# test modules import it from here


def falling_factorial(w: Fraction, k: int) -> Fraction:
    v = Fraction(1)
    for t in range(k):
        v *= w - t
    return v


def term_action_factor(nu, exponent) -> Fraction:
    """Scalar produced when d^nu hits the monomial with the given exponent."""
    v = Fraction(1)
    for w, k in zip(exponent, nu):
        if k:
            v *= falling_factorial(Fraction(w), k)
            if not v:
                return Fraction(0)
    return v


def test_commutation_relations_exhaustive():
    n = 4
    one = WeylOperator.one(n)
    for i in range(n):
        for j in range(n):
            di = WeylOperator.d(i, n)
            xj = WeylOperator.x(j, n)
            bracket = normal_product(di, xj) - normal_product(xj, di)
            assert bracket == (one if i == j else WeylOperator.zero(n))


def test_second_order_commutation():
    n = 1
    p = normal_product(dop((2,)), xop((2,)))
    expected = WeylOperator.make(
        n, {((2,), (2,)): 1, ((1,), (1,)): 4, ((0,), (0,)): 2}
    )
    assert p == expected


def _random_operator(rng, n, nterms=3, maxexp=2):
    mapping = {}
    for _ in range(nterms):
        mu = tuple(rng.randint(0, maxexp) for _ in range(n))
        nu = tuple(rng.randint(0, maxexp) for _ in range(n))
        mapping[(mu, nu)] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return WeylOperator.make(n, mapping)


def test_product_associative_random():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(1, 3)
        p = _random_operator(rng, n)
        q = _random_operator(rng, n)
        r = _random_operator(rng, n)
        assert normal_product(normal_product(p, q), r) == normal_product(
            p, normal_product(q, r)
        )


def test_product_distributes_and_scales():
    rng = random.Random(6)
    for _ in range(10):
        p = _random_operator(rng, 2)
        q = _random_operator(rng, 2)
        r = _random_operator(rng, 2)
        assert normal_product(p, q + r) == normal_product(p, q) + normal_product(p, r)
        assert normal_product(p.scale(3), q) == normal_product(p, q).scale(3)


def test_euler_operators_commute():
    e1, e2 = euler_generators(A_DEMO, BETA_DEMO)
    assert normal_product(e1, e2) == normal_product(e2, e1)


def test_euler_generators_demo_values():
    e1, e2 = euler_generators(A_DEMO, BETA_DEMO)
    n = 4
    def theta(j, c):
        unit = tuple(1 if i == j else 0 for i in range(n))
        return WeylOperator.make(n, {(unit, unit): c})
    expected1 = theta(0, 3) + theta(1, 2) + theta(2, 1) + WeylOperator.one(n).scale(
        Fraction(11, 6)
    )
    expected2 = theta(1, 1) + theta(2, 2) + theta(3, 3) + WeylOperator.one(n).scale(
        Fraction(5, 3)
    )
    assert e1 == expected1
    assert e2 == expected2


def test_theta_form_basics():
    t = theta_form(WeylOperator.make(1, {((1,), (1,)): 1}))
    assert t == ThetaPoly.make(1, {(1,): 1})
    t2 = theta_form(WeylOperator.make(1, {((2,), (2,)): 1}))
    assert t2 == ThetaPoly.make(1, {(2,): 1, (1,): -1})
    t3 = theta_form(WeylOperator.make(2, {((1, 1), (1, 1)): 1}))
    assert t3 == ThetaPoly.make(2, {(1, 1): 1})


def test_theta_form_rejects_off_diagonal():
    with pytest.raises(DhyperError, match="not a theta operator"):
        theta_form(WeylOperator.d(0, 2))


def test_theta_round_trip_random():
    rng = random.Random(9)
    for _ in range(15):
        n = rng.randint(1, 3)
        mapping = {}
        for _ in range(3):
            e = tuple(rng.randint(0, 2) for _ in range(n))
            mapping[e] = Fraction(rng.randint(-5, 5))
        p = ThetaPoly.make(n, mapping)
        assert theta_form(p.to_weyl()) == p
    # and the other direction, starting from a diagonal operator
    w = WeylOperator.make(2, {((2, 1), (2, 1)): Fraction(3, 2), ((0, 0), (0, 0)): -1})
    assert theta_form(w).to_weyl() == w


def theta_form_by_linear_factors(p: WeylOperator) -> ThetaPoly:
    """Reference for theta_form: x^mu d^mu = prod_j prod_{k < mu_j}
    (theta_j - k), multiplied out one linear factor at a time."""
    acc: dict = {}
    for mu, nu, c in p.terms:
        assert mu == nu
        poly = {(0,) * p.nvars: Fraction(1)}
        for j, e in enumerate(mu):
            for k in range(e):
                out: dict = {}
                for t, a in poly.items():
                    up = t[:j] + (t[j] + 1,) + t[j + 1 :]
                    out[up] = out.get(up, 0) + a
                    out[t] = out.get(t, 0) - k * a
                poly = out
        for t, a in poly.items():
            acc[t] = acc.get(t, 0) + c * a
    return ThetaPoly.make(p.nvars, acc)


def test_theta_form_matches_the_product_of_linear_factors():
    rng = random.Random(23)
    for _ in range(200):
        n = rng.randint(1, 3)
        mapping = {}
        for _ in range(rng.randint(1, 4)):
            mu = tuple(rng.randint(0, 4) for _ in range(n))
            mapping[(mu, mu)] = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        p = WeylOperator.make(n, mapping)
        assert theta_form(p) == theta_form_by_linear_factors(p)


def test_theta_evaluate_matches_action_on_monomials():
    # p(theta) x^w = p(w) x^w
    p = theta_form(WeylOperator.make(2, {((2, 0), (2, 0)): 1, ((1, 1), (1, 1)): 2}))
    w = (Fraction(5), Fraction(-3, 2))
    mono = PuiseuxSeries.monomial(w)
    image = apply_to_series(p.to_weyl(), mono)
    val = p.evaluate(w)
    assert image.coeffs == {(0, 0): val}


def test_operator_json_round_trip():
    p = dop((1, 0, 0, 1)) - dop((0, 1, 1, 0)).scale(Fraction(2, 3))
    assert WeylOperator.from_json(p.to_json()) == p


@pytest.mark.parametrize(
    "nvars,x",
    [(True, [1]), ("1", [1]), (1.0, [1]), (-1, [1]), (1, [True]), (1, ["1"]), (1, [1.0]), (1, "1")],
)
def test_operator_json_requires_integers(nvars, x):
    # bool is a subclass of int and int() accepts numeric strings and floats
    obj = {"nvars": nvars, "terms": [{"x": x, "dx": [0], "coeff": "2"}]}
    with pytest.raises(InputFormatError, match="bad operator json"):
        WeylOperator.from_json(obj)


@pytest.mark.parametrize("coeff", [0.5, 2.0])
def test_operator_json_rejects_float_coefficients(coeff):
    obj = {"nvars": 1, "terms": [{"x": [1], "dx": [0], "coeff": coeff}]}
    with pytest.raises(InputFormatError, match="not a rational literal"):
        WeylOperator.from_json(obj)


def test_nvars_mismatch_rejected():
    with pytest.raises(DimensionMismatchError):
        normal_product(WeylOperator.d(0, 2), WeylOperator.d(0, 3))


# ---------------------------------------------------------------------------
# Integer numerators over one denominator, against a Fraction reference
#
# The reference holds an operator as a plain dict (mu, nu) -> nonzero
# Fraction, with the semantics of one Fraction per term.


def ref_make(mapping):
    return {k: Fraction(c) for k, c in mapping.items() if Fraction(c)}


def ref_add(p, q):
    acc = dict(p)
    for k, c in q.items():
        acc[k] = acc.get(k, Fraction(0)) + c
    return {k: c for k, c in acc.items() if c}


def ref_scale(p, q):
    return {k: c * q for k, c in p.items() if c * q}


def ref_product(p, q):
    """x^mu d^nu . x^mu' d^nu' as the sum over k <= min(nu, mu') of
    prod_j C(nu_j, k_j) C(mu'_j, k_j) k_j! x^(mu + mu' - k) d^(nu + nu' - k)."""
    acc = {}
    for (mu, nu), c in p.items():
        for (mu2, nu2), c2 in q.items():
            for k in product(*(range(min(a, b) + 1) for a, b in zip(nu, mu2))):
                w = prod(comb(a, t) * comb(b, t) * factorial(t) for a, b, t in zip(nu, mu2, k))
                key = (
                    tuple(a + b - t for a, b, t in zip(mu, mu2, k)),
                    tuple(a + b - t for a, b, t in zip(nu, nu2, k)),
                )
                acc[key] = acc.get(key, Fraction(0)) + c * c2 * w
    return {k: c for k, c in acc.items() if c}


def assert_is(op, ref):
    """op is ref in canonical form, its terms view and its equality."""
    assert op.den > 0
    assert all(op.nums.values())
    assert gcd(op.den, *op.nums.values()) == 1
    assert {k: Fraction(c, op.den) for k, c in op.nums.items()} == ref
    assert op.terms == tuple((mu, nu, ref[(mu, nu)]) for mu, nu in sorted(ref))
    again = WeylOperator.make(op.nvars, ref)
    assert op == again and hash(op) == hash(again)
    assert op.is_zero() is (not ref)


@st.composite
def operator_cases(draw):
    n = draw(st.integers(1, 2))
    expo = st.tuples(*[st.integers(0, 2)] * n)
    coeff = st.one_of(
        st.integers(-4, 4), st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6, 9]))
    )
    mappings = st.dictionaries(st.tuples(expo, expo), coeff, max_size=4)
    # a scale factor as a literal not in lowest terms, zero among them
    scale = st.tuples(st.integers(-6, 6), st.integers(1, 6)).map(lambda t: f"{t[0] * 2}/{t[1] * 2}")
    return n, draw(mappings), draw(mappings), draw(scale)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(operator_cases())
def test_integer_operators_match_the_fraction_reference(case):
    n, pm, qm, q = case
    p, r = WeylOperator.make(n, pm), WeylOperator.make(n, qm)
    rp, rr = ref_make(pm), ref_make(qm)
    assert_is(p, rp)
    assert_is(r, rr)
    assert_is(p + r, ref_add(rp, rr))
    assert_is(p - r, ref_add(rp, ref_scale(rr, Fraction(-1))))
    assert_is(-p, ref_scale(rp, Fraction(-1)))
    assert_is(p.scale(q), ref_scale(rp, Fraction(q)))
    assert_is(p.scale(0), {})
    assert_is(normal_product(p, r), ref_product(rp, rr))
    back = WeylOperator.from_json(p.to_json())
    assert_is(back, rp)
    assert back.to_json() == p.to_json()
    # cancellation to zero, and equal operators along different paths
    for zero in (p - p, p + (-p), p.scale(-1) + p, p.scale(q) - p.scale(Fraction(q))):
        assert_is(zero, {})
        assert zero == WeylOperator.zero(n) and zero.den == 1
    for same in ((p + r) - r, r + p - r, p.scale(3).scale(Fraction(1, 3)), normal_product(p, WeylOperator.one(n))):
        assert same == p and hash(same) == hash(p)
    assert p + r == r + p and hash(p + r) == hash(r + p)


def test_sums_and_products_never_reach_make(monkeypatch):
    rng = random.Random(8)
    p, q = _random_operator(rng, 2), _random_operator(rng, 2)

    def make(*args):
        raise AssertionError("make reached from operator arithmetic")

    monkeypatch.setattr(WeylOperator, "make", staticmethod(make))
    for r in (p + q, p - q, -p, p.scale(Fraction(-4, 6)), normal_product(p, q), p * q, p - p):
        assert r.den > 0 and gcd(r.den, *r.nums.values()) == 1


def sparse_rows(rows):
    """Dense integer rows as the sparse rows an order and a packing take."""
    return tuple(tuple((j, w) for j, w in enumerate(r) if w) for r in rows)


def dense_units(pk):
    """Packing.units by the dense formula: every row's entry of each
    column, zero or not, shifted into its digit."""
    rows = [[dict(r).get(j, 0) for j in range(len(pk.shifts))] for r in pk.rows]
    mask = (1 << pk.width) - 1
    digit = (max((sum(map(abs, r)) for r in rows), default=0) * mask).bit_length()
    top = pk.guard.bit_length() + (len(rows) - 1) * digit
    return tuple(
        (1 << s) + sum(r[j] << (top - i * digit) for i, r in enumerate(rows))
        for j, s in enumerate(pk.shifts)
    )


def test_packing_units_are_the_dense_formula():
    rng = random.Random(9)
    cases = [(3, DegRevLex(6).rows, True, 4), (2, (), True, 3), (3, (), False, 2)]
    for _ in range(60):
        n, weyl_ = rng.randint(1, 4), rng.random() < 0.5
        cols = 2 * n if weyl_ else n
        rows = tuple(
            tuple(rng.choice((0, 0, 0, -2, -1, 1, 3)) for _ in range(cols)) for _ in range(rng.randint(1, 5))
        )
        cases.append((n, sparse_rows(rows), weyl_, rng.randint(1, 9)))
    for n, rows, weyl_, width in cases:
        pk = weyl.Packing(n, rows, weyl_, width)
        assert pk.units == dense_units(pk)


def dense_pack(pk, mu, nu):
    """The packed int of x^mu d^nu by the dense formula on the units."""
    return sum(map(mul, mu + nu if pk.weyl else nu, pk.units))


@st.composite
def fresh_packings(draw):
    """A packing with empty tables (Weyl or commutative, fields 1 to 9
    bits wide, degrevlex, weighted revlex or random rows) and monomials
    that fill its fields, the field limit included, halves repeating."""
    weyl_, n = draw(st.booleans()), draw(st.integers(1, 3))
    cols = 2 * n if weyl_ else n
    kind = draw(st.sampled_from(["degrevlex", "weighted", "random"]))
    if kind == "degrevlex":
        rows = DegRevLex(cols).rows
    elif kind == "weighted":
        weights = draw(st.lists(st.integers(1, 7), min_size=cols, max_size=cols))
        rows = WeightedRevLexLast(weights, draw(st.integers(0, cols - 1))).rows
    else:
        entries = st.tuples(*[st.integers(-3, 3)] * cols)
        rows = sparse_rows(draw(st.lists(entries, min_size=1, max_size=4)))
    pk = weyl.Packing(n, rows, weyl_, draw(st.integers(1, 9)))
    field = st.one_of(st.integers(0, pk.mask), st.sampled_from([0, pk.mask]))
    halves = st.lists(st.tuples(*[field] * n), min_size=1, max_size=3)
    mus = draw(halves) if weyl_ else [(0,) * n]
    nus = draw(halves)
    return pk, draw(st.lists(st.tuples(st.sampled_from(mus), st.sampled_from(nus)), min_size=1, max_size=8))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(fresh_packings())
def test_packing_tables_give_the_dense_formula(case):
    pk, monomials = case
    for _ in range(2):
        # the second pass reads every half from the tables
        for mu, nu in monomials:
            k = pk.pack(mu, nu)
            assert k == dense_pack(pk, mu, nu)
            assert pk.unpack(k) == (mu, nu)
    # _repack moves the ints to the double width's dense ints
    g = {pk.pack(mu, nu): c for c, (mu, nu) in enumerate(monomials, 1)}
    wide = pk.wider()
    moved = {dense_pack(wide, *pk.unpack(k)): c for k, c in g.items()}
    assert groebner._repack([(g, [g, {}], 3)], pk, wide) == [(moved, [moved, {}], 3)]
    # a field past mask is refused even when the other half is in a table
    mu, nu = monomials[0]
    past = (pk.mask + 1,) + nu[1:]
    for _ in range(2):
        with pytest.raises(weyl._Overflow):
            pk.pack(mu, past)
        if pk.weyl:
            with pytest.raises(weyl._Overflow):
                pk.pack(past, nu)
    assert past not in pk._mus and past not in pk._nus


def test_packing_tables_stay_bounded():
    # more distinct halves than a table holds, each packed and unpacked
    # three times over, on one Weyl packing with two 7-bit fields per half
    pk = weyl.Packing(2, DegRevLex(4).rows, True, 7)
    halves = list(product(range(80), range(40)))
    assert len(halves) > weyl._TABLE_SIZE
    for _ in range(3):
        for mu, nu in zip(halves, reversed(halves)):
            k = pk.pack(mu, nu)
            assert k == dense_pack(pk, mu, nu) and pk.unpack(k) == (mu, nu)
            assert len(pk._mus) <= weyl._TABLE_SIZE and len(pk._nus) <= weyl._TABLE_SIZE


def test_packings_share_no_cache():
    # every packing owns its tables, and no Packing method is memoised
    # across packings
    assert not [name for name, f in vars(weyl.Packing).items() if hasattr(f, "cache_info")]
    a, b = weyl.Packing(1, (), True, 3), weyl.Packing(1, (), True, 3)
    a.pack((1,), (2,))
    assert a._mus and not b._mus and a._mus is not b._mus


# ---------------------------------------------------------------------------
# Action on series


def test_theta_annihilates_matching_monomial():
    # (theta_1 - 5) x1^5 = 0
    n = 1
    p = WeylOperator.make(1, {((1,), (1,)): 1, ((0,), (0,)): -5})
    mono = PuiseuxSeries.monomial([Fraction(5)])
    image = apply_to_series(p, mono)
    assert image.coeffs == {}
    assert not image.window_exhausted


def test_derivative_of_demo_monomial():
    mono = PuiseuxSeries.monomial(
        [Fraction(-11, 18), Fraction(0), Fraction(0), Fraction(-5, 9)]
    )
    image = apply_to_series(dop((1, 0, 0, 1)), mono)
    assert len(image.coeffs) == 1
    ((u, c),) = image.coeffs.items()
    assert c == Fraction(55, 162)
    assert image.exponent(u) == (
        Fraction(-29, 18), Fraction(0), Fraction(0), Fraction(-14, 9)
    )


def test_mixed_shift_classes_refine_lattice():
    # (x1 + d1) x1^(1/2): support needs the rank-1 lattice generated by 2e1
    p = WeylOperator.x(0, 1) + WeylOperator.d(0, 1)
    mono = PuiseuxSeries.monomial([Fraction(1, 2)])
    image = apply_to_series(p, mono)
    assert image.lattice.cols == 1
    got = {str(image.exponent(u)[0]): c for u, c in image.coeffs.items()}
    assert got == {"3/2": Fraction(1), "-1/2": Fraction(1, 2)}


def _two_class_series(reliable):
    # x^(1/2) sum of x^u over u = 2k, |k| <= 3, on the lattice 2Z
    coeffs = {(2 * k,): 1 for k in range(-3, 4)}
    return PuiseuxSeries.make(
        1, [Fraction(1, 2)], IntMatrix.from_rows([[2]]), coeffs,
        window=3, reliable=reliable, window_exhausted=reliable < 0,
    )


def test_refined_action_trusts_only_the_reliable_radius():
    # x1 + 1 shifts support by 1 and by 0, two classes modulo 2Z, so the
    # action refines the lattice to Z; stored coefficients beyond the
    # reliable radius must not certify an output ring
    p = WeylOperator.x(0, 1) + WeylOperator.one(1)
    exhausted = _two_class_series(-1)
    image = apply_to_series(p, exhausted)
    assert image.window_exhausted and image.reliable == -1
    assert annihilation_check([p], exhausted).verdicts[0].status == INCONCLUSIVE
    # at base 0 the factor of d1 vanishes at the origin, where it is the
    # only term with a lattice source: still no ring is certified
    base0 = PuiseuxSeries.make(
        1, [Fraction(0)], exhausted.lattice, exhausted.coeffs,
        window=3, reliable=-1, window_exhausted=True,
    )
    image = apply_to_series(WeylOperator.d(0, 1) + WeylOperator.one(1), base0)
    assert image.window_exhausted and image.reliable == -1
    image = apply_to_series(p, _two_class_series(1))
    assert not image.window_exhausted
    assert image.lattice.entries == ((1,),)
    assert image.reliable == 2
    assert image.coeffs == {(u,): Fraction(1) for u in range(-2, 3)}


def test_binomial_fill_reports_unfilled_key_and_failing_edge():
    # points of Z^1 keyed by their coordinates, each its own ambient
    # point; the step is the unit +1
    def points(*zs):
        return {(z,): (z,) for z in zs}

    # [z]_1 at z = 0 vanishes, so 0 cannot be reached from -1
    move = ((1,), (1,), (0,))
    c, unfilled, failing = _binomial_fill(points(-1, 0), [move], (Fraction(0),))
    assert (c, unfilled, failing) == ({(-1,): 1}, (0,), None)
    # base 1/2 (D = 2): c_1 [3/2]_1 = c_0 fixes c_1 = 2/3, and the move is
    # not homogeneous, so the D-scaling of the two sides must cancel
    half = (Fraction(1, 2),)
    c, unfilled, failing = _binomial_fill(points(0, 1), [move], half)
    assert (c, unfilled, failing) == ({(0,): 1, (1,): Fraction(2, 3)}, None, None)
    # a second move along the same edge asks c_1 = c_0: the edge fails
    same = ((1,), (0,), (0,))
    c, unfilled, failing = _binomial_fill(points(0, 1), [move, same], half)
    assert (unfilled, failing) == (None, ((0,), (1,)))


def test_action_composition_matches_product():
    f = gamma_series(A_DEMO, BETA_DEMO, window=4)
    p = dop((1, 0, 1, 0)) - dop((0, 2, 0, 0))
    q = dop((0, 1, 0, 1)) - dop((0, 0, 2, 0))
    direct = apply_to_series(normal_product(p, q), f)
    staged = apply_to_series(p, apply_to_series(q, f))
    r = min(direct.reliable, staged.reliable)
    assert r >= 0
    for series in (direct, staged):
        for u in series.coeffs:
            co = series.coord(u)
            if max((abs(z) for z in co), default=0) <= r:
                other = staged if series is direct else direct
                assert other.coeffs.get(u, 0) == series.coeffs[u]
    assert direct.base == staged.base


def test_zero_operator_gives_zero_series():
    f = PuiseuxSeries.monomial([Fraction(1)])
    image = apply_to_series(WeylOperator.zero(1), f)
    assert image.coeffs == {}


def test_window_shrinks_by_stencil():
    f = gamma_series(A_DEMO, BETA_DEMO, window=3)
    p = dop((1, 0, 1, 0)) - dop((0, 2, 0, 0))
    image = apply_to_series(p, f)
    assert image.reliable == 2
    assert image.coeffs == {}
