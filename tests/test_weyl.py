"""Weyl-algebra arithmetic: products, grading, theta form, series action."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from dhyper.errors import DhyperError, DimensionMismatchError, InputFormatError
from dhyper.exact import IntMatrix, RatVector
from dhyper.series import (
    INCONCLUSIVE,
    PuiseuxSeries,
    annihilation_check,
    apply_to_series,
    gamma_series,
)
from dhyper.weyl import (
    ThetaPoly,
    WeylOperator,
    _binomial_fill,
    a_degree_components,
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


def test_a_degree_single_component():
    p = dop((1, 0, 1, 0)) - dop((0, 2, 0, 0))
    comps = a_degree_components(A_DEMO, p)
    assert len(comps) == 1
    assert comps[0][0] == (4, 2)


def test_a_degree_euler_is_degree_zero():
    e1, _ = euler_generators(A_DEMO, BETA_DEMO)
    comps = a_degree_components(A_DEMO, e1)
    assert len(comps) == 1
    assert comps[0][0] == (0, 0)


def test_a_degree_splits_mixed():
    a = IntMatrix.from_rows([[1]])
    p = WeylOperator.x(0, 1) + WeylOperator.d(0, 1)
    comps = a_degree_components(a, p)
    assert [c[0] for c in comps] == [(-1,), (1,)]
    total = WeylOperator.zero(1)
    for _, c in comps:
        total = total + c
    assert total == p


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
