"""Puiseux series layer: windows, shifts, recurrences, substitution, gamma
construction, annihilation verdicts."""

from __future__ import annotations

import ast
import copy
import json
import os
import pickle
import random
import re
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from itertools import product
from math import lcm
from operator import le

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dhyper.errors import (
    DenominatorVanishedError,
    DimensionMismatchError,
    IncompatibleRecurrencesError,
    InputFormatError,
    LatticeCollisionError,
    ZeroFactorialError,
)
import dhyper
from dhyper.exact import (
    IntMatrix,
    RatVector,
    hermite_column_basis,
    is_nonresonant,
    kernel_basis,
    solve_rational,
)
from dhyper.series import (
    ANTIDERIVE,
    DERIVE,
    INCONCLUSIVE,
    NONZERO,
    ZERO_ON_WINDOW,
    AnnihilationReport,
    PuiseuxSeries,
    _candidates,
    _ring,
    annihilation_check,
    apply_to_series,
    density,
    gamma_series,
    lattice_coordinates,
    monomial_substitution,
    recurrence_series,
    shift,
)
from dhyper.systems import hypergeometric_system
from dhyper.weyl import (
    Expo,
    WeylOperator,
    _add,
    _Falling,
    _sub,
    euler_generators,
)
from test_weyl import term_action_factor

A_DEMO = IntMatrix.from_rows([[3, 2, 1, 0], [0, 1, 2, 3]])
B_DEMO = IntMatrix.from_rows([[1, 0], [-2, 1], [1, -2], [0, 1]])
BETA_DEMO = RatVector.from_strings(["-11/6", "-5/3"])
A_HALF = Fraction(1, 2)
A_THIRD = Fraction(1, 3)


def dop(nu):
    return WeylOperator.monomial(len(nu), (0,) * len(nu), nu)


def toric_demo_ops():
    return [
        dop((1, 0, 1, 0)) - dop((0, 2, 0, 0)),
        dop((0, 1, 0, 1)) - dop((0, 0, 2, 0)),
        dop((1, 0, 0, 1)) - dop((0, 1, 1, 0)),
    ]


def ahyp_demo_ops():
    return toric_demo_ops() + euler_generators(A_DEMO, BETA_DEMO)


def horn_demo_ops():
    return toric_demo_ops()[:2] + euler_generators(A_DEMO, BETA_DEMO)


def demo_ratios(a=A_HALF, ap=A_THIRD):
    def ratio_m(k):
        m, n = k
        return Fraction((-2 * m + n + ap - 1) * (-2 * m + n + ap - 2)) / (
            (m + 1) * (m - 2 * n + a)
        )

    def ratio_n(k):
        m, n = k
        return Fraction((-2 * n + m + a - 1) * (-2 * n + m + a - 2)) / (
            (n + 1) * (n - 2 * m + ap)
        )

    return [ratio_m, ratio_n]


# ---------------------------------------------------------------------------
# Data layer


def test_lattice_coordinates():
    assert lattice_coordinates(B_DEMO, (1, -1, -1, 1)) == (1, 1)
    assert lattice_coordinates(B_DEMO, (0, 0, 0, 0)) == (0, 0)
    assert lattice_coordinates(B_DEMO, (1, 0, 0, 0)) is None


def test_make_rejects_point_outside_lattice():
    with pytest.raises(InputFormatError, match="lattice"):
        PuiseuxSeries.make(
            4, (Fraction(0),) * 4, B_DEMO, {(1, 0, 0, 0): Fraction(1)}, window=2
        )


def test_make_rejects_point_outside_window():
    u = tuple(3 * x for x in B_DEMO.col(0))
    with pytest.raises(InputFormatError, match="window"):
        PuiseuxSeries.make(4, (Fraction(0),) * 4, B_DEMO, {u: Fraction(1)}, window=2)


def test_make_drops_zero_coefficients():
    f = PuiseuxSeries.make(
        4, (Fraction(0),) * 4, B_DEMO,
        {(0, 0, 0, 0): Fraction(0), B_DEMO.col(0): Fraction(2)}, window=1,
    )
    assert f.coeffs == {B_DEMO.col(0): Fraction(2)}


def test_monomial_density_and_json():
    mono = PuiseuxSeries.monomial([Fraction(-11, 18), Fraction(0), Fraction(0), Fraction(-5, 9)])
    assert density(mono) == 1
    assert PuiseuxSeries.from_json(mono.to_json()) == mono


def test_series_json_round_trip():
    f = gamma_series(A_DEMO, BETA_DEMO, window=3)
    assert PuiseuxSeries.from_json(f.to_json()) == f


SMALL_SERIES = {
    "v": ["1/2"],
    "lattice": [[1]],
    "terms": [{"u": [0], "coeff": "1"}],
    "window": 3,
    "reliable": 3,
    "window_exhausted": False,
}


def test_small_series_json_parses():
    f = PuiseuxSeries.from_json(SMALL_SERIES)
    assert (f.window, f.reliable, f.window_exhausted) == (3, 3, False)
    assert f.coeffs == {(0,): Fraction(1)}


@pytest.mark.parametrize(
    "path,value",
    [
        (("terms", 0, "u", 0), True),
        (("terms", 0, "u", 0), "0"),
        (("terms", 0, "u", 0), 0.0),
        (("lattice", 0, 0), True),
        (("lattice", 0, 0), "1"),
        (("lattice", 0, 0), 1.0),
        (("window",), True),
        (("window",), "3"),
        (("window",), 3.0),
        (("reliable",), True),
        (("reliable",), "3"),
        (("reliable",), 3.0),
        (("window_exhausted",), 0),
        (("window_exhausted",), "false"),
        (("window_exhausted",), None),
        (("terms", 0, "coeff"), True),
        (("terms", 0, "coeff"), 0.25),
        (("v", 0), 0.5),
    ],
)
def test_series_json_rejects_non_integers_and_non_booleans(path, value):
    obj = copy.deepcopy(SMALL_SERIES)
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    with pytest.raises(InputFormatError):
        PuiseuxSeries.from_json(obj)


def test_exhausted_frame_needs_reliable_minus_one():
    # an exhausted window certifies no radius; a stored reliable >= 0 next
    # to the flag is a contradiction, not something to act on
    obj = dict(SMALL_SERIES, window_exhausted=True)
    with pytest.raises(InputFormatError, match="exhausted"):
        PuiseuxSeries.from_json(obj)
    lat = IntMatrix.from_rows([[1]])
    with pytest.raises(InputFormatError, match="exhausted"):
        PuiseuxSeries.make(1, [A_HALF], lat, {}, window=3, reliable=0, window_exhausted=True)
    f = PuiseuxSeries.from_json(dict(obj, reliable=-1))
    assert (f.window, f.reliable, f.window_exhausted) == (3, -1, True)


# ---------------------------------------------------------------------------
# Integer falling factorials


# _falling_factors and _integer_action are the kernels the series layer used
# before weyl._Falling owned the falling factors, kept as they were for the
# references below


def _falling_factors(base: tuple[Fraction, ...]):
    """D and the integer D^k [b_j + x]_k, as a function of (j, k, x).

    D is the lcm of the denominators of base, so D^k [b_j + x]_k is the
    integer prod_{t < k} (D b_j + D x - D t).
    """
    d = lcm(*(q.denominator for q in base))
    scaled = [q.numerator * (d // q.denominator) for q in base]

    def falling(j: int, k: int, x: int) -> int:
        top = scaled[j] + d * x
        v = 1
        for t in range(k):
            v *= top - d * t
        return v

    return d, falling


def _integer_action(base: tuple[Fraction, ...]):
    """D and the integer D^|nu| [base + u]_nu, as a function of (nu, u).

    The factors come from _falling_factors; each is memoised under
    (coordinate j, u_j, order k) in a dict that lives as long as the
    returned function.
    """
    d, falling = _falling_factors(base)
    memo: dict[tuple[int, int, int], int] = {}

    def action(nu: Expo, u: Expo) -> int:
        v = 1
        for j, k in enumerate(nu):
            if k:
                key = (j, u[j], k)
                ff = memo.get(key)
                if ff is None:
                    ff = memo[key] = falling(j, k, u[j])
                if not ff:
                    return 0
                v *= ff
        return v

    return d, action


@pytest.mark.parametrize(
    "base,box",
    [
        # mixed denominators and one integer coordinate: D = 6
        ((Fraction(1, 2), Fraction(-2, 3), Fraction(5, 6), Fraction(0)), range(-1, 2)),
        # integer base: D = 1 and [b + u]_k vanishes for 0 <= b + u < k
        ((Fraction(0), Fraction(1), Fraction(-2)), range(-2, 3)),
    ],
)
def test_integer_action_is_scaled_falling_factorial(base, box):
    falling = _Falling(base)
    d = falling.d
    assert d == lcm(*(q.denominator for q in base))
    zeros = 0
    for nu in product(range(4), repeat=len(base)):
        for u in product(box, repeat=len(base)):
            got = falling.action(nu, u)
            exponent = tuple(b + x for b, x in zip(base, u))
            assert type(got) is int
            assert got == d ** sum(nu) * term_action_factor(nu, exponent)
            zeros += not got
    assert zeros > 0
    # table(j, k) holds one entry per x_j of the points given; action reads
    # the same table and adds any other x to it
    over = _Falling(base, product(box, repeat=len(base)))
    far = box[-1] + 1
    for j, b in enumerate(base):
        for k in range(1, 4):
            table = over.table(j, k)
            assert table is over.table(j, k) and sorted(table) == list(box)
            for x, got in table.items():
                assert type(got) is int
                assert got == d**k * term_action_factor((k,), (b + x,))
            nu = tuple(k if i == j else 0 for i in range(len(base)))
            assert over.action(nu, (far,) * len(base)) == table[far]
            assert table[far] == d**k * term_action_factor((k,), (b + far,))


# ---------------------------------------------------------------------------
# Shifts


def test_derive_monomial():
    mono = PuiseuxSeries.monomial([Fraction(5)])
    out = shift(mono, (1,), DERIVE)
    assert out.base == (Fraction(4),)
    assert out.coeffs == {(0,): Fraction(5)}


def test_shift_round_trip_on_gamma():
    f = gamma_series(A_DEMO, BETA_DEMO, window=4)
    alpha = (1, 0, 2, 1)
    up = shift(f, alpha, ANTIDERIVE)
    back = shift(up, alpha, DERIVE)
    assert back == f


def test_antiderive_zero_factorial():
    mono = PuiseuxSeries.monomial([Fraction(-1)])
    with pytest.raises(ZeroFactorialError):
        shift(mono, (1,), ANTIDERIVE)


def test_shift_matches_ambient_factors():
    f = gamma_series(A_DEMO, BETA_DEMO, window=3)
    alpha = (1, 0, 2, 1)
    down = shift(f, alpha, DERIVE)
    expected = {}
    for u, c in f.coeffs.items():
        factor = term_action_factor(alpha, f.exponent(u))
        if factor:
            expected[u] = c * factor
    assert down.coeffs == expected
    up = shift(f, alpha, ANTIDERIVE)
    assert up.coeffs == {
        u: c / term_action_factor(alpha, up.exponent(u)) for u, c in f.coeffs.items()
    }
    for g in (down, up):
        again = PuiseuxSeries.make(g.nvars, g.base, g.lattice, g.coeffs, window=g.window)
        assert g._index == again._index


def test_antiderive_reports_first_vanishing_window_point():
    # integer base on a rank-2 lattice: the error names the first window
    # point, in coordinate order, whose falling factorial vanishes
    coeffs = {z: Fraction(1, 1 + abs(z[0]) + abs(z[1])) for z in product(range(-2, 3), repeat=2)}
    f = PuiseuxSeries._from_coords(4, (Fraction(0),) * 4, B_DEMO, coeffs, window=2)
    alpha = (1, 1, 0, 1)
    first = next(
        u
        for u in (_ambient(B_DEMO, w) for w in product(range(-2, 3), repeat=2))
        if not term_action_factor(alpha, tuple(a + x for a, x in zip(alpha, u)))
    )
    with pytest.raises(ZeroFactorialError, match=re.escape(f"window point {first}")):
        shift(f, alpha, ANTIDERIVE)


def test_antiderive_with_a_nonintegral_base_skips_the_window_walk():
    # [b_j + u_j]_k cannot vanish when b_j is not an integer, so a one-point
    # series answers at once however wide its window: no walk over the
    # (2w+1)^2 window points
    base = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))
    f = PuiseuxSeries._from_coords(4, base, B_DEMO, {(0, 0): Fraction(3)}, window=2000)
    start = time.perf_counter()
    up = shift(f, (1, 0, 0, 0), ANTIDERIVE)
    elapsed = time.perf_counter() - start
    assert up.base == (Fraction(3, 2),) + base[1:]
    assert up.coeffs == {(0, 0, 0, 0): Fraction(2)}
    assert shift(up, (1, 0, 0, 0), DERIVE) == f
    assert elapsed < 1.0


def test_derive_moves_solutions_between_parameters():
    # right multiplication by d^alpha sends solutions at beta+A.alpha to
    # solutions at beta
    alpha = (0, 1, 1, 0)
    shifted_beta = RatVector.make(
        [b + x for b, x in zip(BETA_DEMO.entries, A_DEMO.mul_int_vector(alpha))]
    )
    g = gamma_series(A_DEMO, shifted_beta, window=5)
    assert annihilation_check(
        toric_demo_ops() + euler_generators(A_DEMO, shifted_beta), g
    ).all_zero
    f = shift(g, alpha, DERIVE)
    assert annihilation_check(ahyp_demo_ops(), f).all_zero


# ---------------------------------------------------------------------------
# Recurrence series


def test_recurrence_exponential():
    f = recurrence_series([lambda k: Fraction(1, k[0] + 1)], window=6)
    from math import factorial

    for m in range(7):
        assert f.coeffs[(m,)] == Fraction(1, factorial(m))


def test_recurrence_demo_corner_values():
    g = recurrence_series(demo_ratios(), window=3)
    assert g.coeffs[(0, 0)] == 1
    assert g.coeffs[(1, 0)] == Fraction(20, 9)
    assert g.coeffs[(0, 1)] == Fraction(9, 4)
    assert g.coeffs[(1, 1)] == Fraction(1, 3)


def test_recurrence_incompatible_square():
    ratios = [lambda k: Fraction(1), lambda k: Fraction(k[0] + 1)]
    with pytest.raises(IncompatibleRecurrencesError):
        recurrence_series(ratios, window=2)


def test_recurrence_denominator_guard():
    ratios = [lambda k: Fraction(1, k[0] - 1)]
    with pytest.raises(DenominatorVanishedError):
        recurrence_series(ratios, window=3)


# ---------------------------------------------------------------------------
# Monomial substitution


def test_substitution_identity():
    g = recurrence_series([lambda k: Fraction(1, k[0] + 1)], window=3)
    out = monomial_substitution(g, IntMatrix.identity(1), RatVector.make([0]))
    assert out == g


def test_substitution_demo_exponents():
    g = recurrence_series(demo_ratios(), window=3)
    vprime = RatVector.make([0, A_THIRD - 1, A_HALF - 1, 0])
    f = monomial_substitution(g, B_DEMO, vprime)
    assert f.base == (Fraction(0), Fraction(-2, 3), Fraction(-1, 2), Fraction(0))
    # c_{0,0} lands at exponent vprime
    assert f.coeffs[(0, 0, 0, 0)] == 1
    # c_{1,0} lands at vprime + first column
    assert f.exponent((1, -2, 1, 0)) == (
        Fraction(1), Fraction(-8, 3), Fraction(-1, 2) + 1, Fraction(0)
    )
    assert f.coeffs[(1, -2, 1, 0)] == Fraction(20, 9)
    assert f.window == g.window


def test_substitution_collision_rejected():
    g = recurrence_series(demo_ratios(), window=2)
    collapse = IntMatrix.from_rows([[1, 1]])
    with pytest.raises(LatticeCollisionError):
        monomial_substitution(g, collapse, RatVector.make([0]))


def test_demo_pipeline_annihilated():
    g = recurrence_series(demo_ratios(), window=6)
    vprime = RatVector.make([0, A_THIRD - 1, A_HALF - 1, 0])
    f = monomial_substitution(g, B_DEMO, vprime)
    report = annihilation_check(ahyp_demo_ops(), f)
    assert report.all_zero
    assert all(v.window >= 5 for v in report.verdicts)


# ---------------------------------------------------------------------------
# Gamma series


def test_gamma_demo_fully_supported():
    f = gamma_series(A_DEMO, BETA_DEMO, window=5)
    assert f.coeffs[(0, 0, 0, 0)] == 1
    assert density(f) == 1
    assert A_DEMO.mul_vector(RatVector.make(f.base)).entries == BETA_DEMO.entries
    assert annihilation_check(ahyp_demo_ops(), f).all_zero


def test_gamma_explicit_generic_v():
    v = RatVector.from_strings(["2/3", "-4/3", "-7/6", "2/3"])
    f = gamma_series(A_DEMO, BETA_DEMO, v=v, window=4)
    assert density(f) == 1
    assert f.base == tuple(v.entries)


def test_gamma_takes_plain_sequences():
    beta = (Fraction(-11, 6), Fraction(-5, 3))
    assert gamma_series(A_DEMO, beta, window=4) == gamma_series(A_DEMO, BETA_DEMO, window=4)
    v = RatVector.from_strings(["2/3", "-4/3", "-7/6", "2/3"])
    assert gamma_series(A_DEMO, list(beta), v=tuple(v), window=4) == gamma_series(
        A_DEMO, BETA_DEMO, v=v, window=4
    )


def test_gamma_explicit_degenerate_v_fails():
    v = RatVector.from_strings(["-11/18", "0", "0", "-5/9"])
    with pytest.raises(DenominatorVanishedError):
        gamma_series(A_DEMO, BETA_DEMO, v=v, window=5)


def test_gamma_rejects_non_solution_v():
    v = RatVector.from_strings(["1", "0", "0", "0"])
    with pytest.raises(InputFormatError):
        gamma_series(A_DEMO, BETA_DEMO, v=v, window=3)


def test_gamma_binomial_example():
    a = IntMatrix.from_rows([[1, 1]])
    beta = RatVector.from_strings(["-1/2"])
    v = RatVector.from_strings(["-1/2", "0"])
    g = gamma_series(a, beta, v=v, window=6)
    # one-sided binomial expansion: coefficients C(-1/2, k)
    expect = {}
    for k in range(7):
        c = Fraction(1)
        for t in range(k):
            c *= (Fraction(-1, 2) - t) / (t + 1)
        expect[k] = c
    for u, c in g.coeffs.items():
        k = u[1]
        assert k >= 0
        assert c == expect[k]
    gens = [dop((1, 0)) - dop((0, 1))] + euler_generators(a, beta)
    assert annihilation_check(gens, g).all_zero


def test_gamma_monomial_case_warns_when_resonant():
    a = IntMatrix.from_rows([[1]])
    with pytest.warns(RuntimeWarning):
        g = gamma_series(a, RatVector.from_strings(["5"]), window=3)
    assert g.coeffs == {(0,): Fraction(1)}
    assert g.base == (Fraction(5),)
    p = WeylOperator.make(1, {((1,), (1,)): 1, ((0,), (0,)): -5})
    assert annihilation_check([p], g).all_zero


def test_gamma_series_ignores_dhyper_seed(monkeypatch):
    # the demo's direct solution is integral on coordinates the kernel
    # moves touch, so the series comes from a kernel perturbation; the
    # candidate order is fixed, whatever the environment says
    monkeypatch.delenv("DHYPER_SEED", raising=False)
    unset = gamma_series(A_DEMO, BETA_DEMO, window=4)
    monkeypatch.setenv("DHYPER_SEED", "3")
    f = gamma_series(A_DEMO, BETA_DEMO, window=4)
    assert f == unset
    assert f.base == (Fraction(2, 3), Fraction(-4, 3), Fraction(-7, 6), Fraction(2, 3))
    assert density(f) == 1
    assert annihilation_check(ahyp_demo_ops(), f).all_zero


def test_gamma_random_nonresonant_betas():
    from dhyper.exact import is_nonresonant

    rng = random.Random(17)
    done = 0
    while done < 4:
        beta = RatVector.make(
            [
                Fraction(rng.randint(-12, 12), d)
                for d in (rng.choice([5, 6, 7, 9]), rng.choice([5, 6, 7, 9]))
            ]
        )
        if not is_nonresonant(A_DEMO, beta).nonresonant:
            continue
        f = gamma_series(A_DEMO, beta, window=4)
        assert density(f) == 1
        gens = toric_demo_ops() + euler_generators(A_DEMO, beta)
        assert annihilation_check(gens, f).all_zero
        done += 1


# ---------------------------------------------------------------------------
# Annihilation verdicts


def test_monomial_dichotomy():
    mono = PuiseuxSeries.monomial(
        [Fraction(-11, 18), Fraction(0), Fraction(0), Fraction(-5, 9)]
    )
    horn_report = annihilation_check(horn_demo_ops(), mono)
    assert horn_report.all_zero
    bad = annihilation_check([dop((1, 0, 0, 1)) - dop((0, 1, 1, 0))], mono)
    assert bad.verdicts[0].status == NONZERO
    assert bad.verdicts[0].witness_coeff == Fraction(55, 162)


def test_annihilation_inconclusive_on_exhausted_window():
    f = gamma_series(A_DEMO, BETA_DEMO, window=0)
    p = toric_demo_ops()[0]
    report = annihilation_check([p], f)
    assert report.verdicts[0].status == INCONCLUSIVE
    assert not report.all_zero
    assert report.any_inconclusive


def test_annihilation_report_json():
    mono = PuiseuxSeries.monomial([Fraction(1, 2)])
    rep = annihilation_check([WeylOperator.d(0, 1)], mono)
    obj = rep.to_json()
    assert obj["all_zero"] is False
    assert obj["verdicts"][0]["status"] == NONZERO
    assert obj["verdicts"][0]["witness"]["coeff"] == "1/2"


# ---------------------------------------------------------------------------
# Solution bases over toral block decompositions

def _demo_dec(jbar):
    from dhyper.systems import block_decompositions

    return [d for d, _ in block_decompositions(B_DEMO) if d.jbar == jbar][0]


def test_toral_basis_demo_block_is_a_monomial():
    from dhyper.series import toral_solution_basis

    basis = toral_solution_basis(B_DEMO, _demo_dec((1, 2)), BETA_DEMO, window=6, a=A_DEMO)
    assert len(basis) == 1
    f = basis[0]
    assert f.base == (
        Fraction(-11, 18),
        Fraction(0),
        Fraction(0),
        Fraction(-5, 9),
    )
    assert f.lattice.cols == 0
    assert f.coeffs == {(0, 0, 0, 0): Fraction(1)}
    assert f.reliable == f.window


def test_toral_basis_trivial_block_is_the_lattice_series():
    from dhyper.series import toral_solution_basis

    basis = toral_solution_basis(B_DEMO, _demo_dec(()), BETA_DEMO, window=5, a=A_DEMO)
    assert len(basis) == 1
    direct = gamma_series(A_DEMO, BETA_DEMO, window=5)
    assert basis[0].base == direct.base
    assert basis[0].coeffs == direct.coeffs


def test_toral_basis_annihilated_by_component_generators():
    import warnings

    from dhyper.series import toral_solution_basis
    from dhyper.systems import block_decompositions, toral_component_ideal

    for dec, _ in block_decompositions(B_DEMO):
        basis = toral_solution_basis(B_DEMO, dec, BETA_DEMO, window=4, a=A_DEMO)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = toral_component_ideal(B_DEMO, dec, BETA_DEMO, monomial_cap=4, a=A_DEMO)
        for f in basis:
            report = annihilation_check(list(spec.generators), f)
            assert report.all_zero


def test_toral_basis_multi_vertex_class():
    # two-point move-graph class with an invertible column system: the
    # basis element is an exact two-term series and solves the full system
    from dhyper.series import toral_solution_basis
    from dhyper.systems import block_decompositions, horn_system

    b = IntMatrix.from_rows([[1, 0], [0, 1], [1, 3], [-1, -2]])
    a = IntMatrix.from_rows([[-1, -3, 1, 0], [1, 2, 0, 1]])
    beta = (Fraction(1, 5), Fraction(1, 7))
    dec = [d for d, _ in block_decompositions(b) if d.jbar == (2, 3)][0]
    basis = toral_solution_basis(b, dec, beta, window=5, a=a)
    assert len(basis) == 2
    pair = [f for f in basis if len(f.coeffs) == 2][0]
    (k0, k1) = sorted(pair.coeffs)
    assert tuple(y - x for x, y in zip(k0, k1)) == (1, 0, 1, -1)
    theta1 = pair.exponent(k0)[0]
    assert pair.coeffs[k1] / pair.coeffs[k0] == 1 / (theta1 + 1)
    assert pair.reliable == pair.window
    horn = horn_system(b, beta, a=a)
    for f in basis:
        assert annihilation_check(list(horn.generators), f).all_zero


def test_toral_basis_rejects_bad_blocks():
    from dhyper.series import toral_solution_basis
    from dhyper.systems import BlockDecomposition, block_decompositions
    from dhyper.errors import DhyperError, UnsupportedCharacterError

    fake = BlockDecomposition(
        b=B_DEMO,
        jbar=(1,),
        j=(0, 2, 3),
        m=IntMatrix.from_rows([[1, -1]]),
        n_block=IntMatrix.from_rows([[0, 0], [0, 0], [0, 0]]),
        b_j=IntMatrix.from_rows([[], [], []]),
        m_columns=(0, 1),
        z_columns=(),
    )
    with pytest.raises(DhyperError, match="not toral"):
        toral_solution_basis(B_DEMO, fake, BETA_DEMO, window=3, a=A_DEMO)
    torsion = IntMatrix.from_rows([[2], [-2]])
    dec = [d for d, _ in block_decompositions(torsion) if d.jbar == ()][0]
    with pytest.raises(UnsupportedCharacterError):
        toral_solution_basis(torsion, dec, (Fraction(1),), window=3)


# ---------------------------------------------------------------------------
# Coordinate path against a naive ambient reference

A_QUARTIC = IntMatrix.from_rows([[1, 1, 1, 1, 1], [0, 1, 2, 3, 4]])
# not homogeneous: kernel moves such as (2, -1, 0) have |pos| != |neg|, so
# the powers of D in the integer recurrence do not cancel
A_WEIGHTED = IntMatrix.from_rows([[1, 2, 3]])


def _sup(t):
    return max((abs(x) for x in t), default=0)


def _ambient(lat, z):
    return tuple(sum(lat.entries[i][j] * z[j] for j in range(lat.cols)) for i in range(lat.rows))


def naive_gamma_holds(a, beta, f, window):
    """f is the gamma series for (a, beta) on the full window, checked point by
    point in ambient exponents with term_action_factor."""
    lat = f.lattice
    assert a.mul_vector(RatVector.make(f.base)).entries == beta.entries
    grid = list(product(range(-window, window + 1), repeat=lat.cols))
    assert set(f.coeffs) == {_ambient(lat, z) for z in grid}
    assert f.coeffs[(0,) * f.nvars] == 1
    for z in grid:
        u = _ambient(lat, z)
        for i in range(lat.cols):
            znext = tuple(x + 1 if j == i else x for j, x in enumerate(z))
            if _sup(znext) > window:
                continue
            b = lat.col(i)
            unext = tuple(x + y for x, y in zip(u, b))
            pos = tuple(max(x, 0) for x in b)
            neg = tuple(max(-x, 0) for x in b)
            lhs = f.coeffs[unext] * term_action_factor(pos, f.exponent(unext))
            rhs = f.coeffs[u] * term_action_factor(neg, f.exponent(u))
            assert lhs == rhs


def naive_apply(p, f):
    """(coeffs, reliable) of p applied to f when all term shifts share one
    lattice class: every candidate point solved for its coordinates, every
    factor recomputed from the exponent."""
    delta0 = p.shifts()[0]
    offsets = {
        (mu, nu): tuple(m - n - d for m, n, d in zip(mu, nu, delta0)) for mu, nu, _ in p.terms
    }
    reliable = f.reliable - max(_sup(lattice_coordinates(f.lattice, o)) for o in offsets.values())
    coeffs = {}
    for w in {tuple(x + y for x, y in zip(u, o)) for u in f.coeffs for o in offsets.values()}:
        if _sup(lattice_coordinates(f.lattice, w)) > reliable:
            continue
        total = Fraction(0)
        for mu, nu, c in p.terms:
            src = tuple(x - y for x, y in zip(w, offsets[(mu, nu)]))
            lam = f.coeffs.get(src)
            if lam is not None:
                total += c * lam * term_action_factor(nu, f.exponent(src))
        if total:
            coeffs[w] = total
    return coeffs, reliable


@st.composite
def lattice_cases(draw):
    a = draw(st.sampled_from([A_DEMO, A_QUARTIC, A_WEIGHTED]))
    window = draw(st.integers(2, 6))
    frac = st.builds(Fraction, st.integers(-20, 20), st.sampled_from([2, 3, 5, 7]))
    beta = RatVector.make(draw(st.lists(frac, min_size=a.rows, max_size=a.rows)))
    assume(all(q.denominator != 1 for q in beta.entries))
    assume(is_nonresonant(a, beta).nonresonant)
    # terms x^mu d^nu whose shifts mu - nu = delta + L k share one lattice class
    lat = kernel_basis(a)
    n = a.cols
    small = st.integers(-1, 1)
    delta = draw(st.lists(small, min_size=n, max_size=n))
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.lists(small, min_size=lat.cols, max_size=lat.cols))
        s = [d + x for d, x in zip(delta, _ambient(lat, k))]
        extra = draw(st.lists(st.integers(0, 1), min_size=n, max_size=n))
        nu = tuple(max(-x, 0) + e for x, e in zip(s, extra))
        mu = tuple(v + x for v, x in zip(nu, s))
        terms[(mu, nu)] = draw(frac.filter(bool))
    return a, beta, window, WeylOperator.make(n, terms)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(lattice_cases())
def test_coordinate_path_matches_ambient_reference(case):
    a, beta, window, p = case
    f = gamma_series(a, beta, window=window)
    assert (f.window, f.reliable) == (window, window)
    naive_gamma_holds(a, beta, f, window)
    # the coordinate index agrees with the Smith-form coordinates that make
    # computes from ambient points
    again = PuiseuxSeries.from_json(f.to_json())
    assert again == f and again._index == f._index
    image = apply_to_series(p, f)
    coeffs, reliable = naive_apply(p, f)
    if reliable < 0:
        assert image.window_exhausted and image.reliable == -1
        return
    assert image.coeffs == coeffs
    assert (image.window, image.reliable) == (reliable, reliable)
    assert image.base == tuple(b + d for b, d in zip(f.base, p.shifts()[0]))


# pairwise coprime denominators, from small primes to a Mersenne prime,
# so the common denominator of a series' coefficients gets large
COPRIME_DENOMINATORS = [1, 2, 3, 5, 7, 11, 97, 7919, 10**9 + 7, 998244353, 2**61 - 1]


@st.composite
def integer_accumulation_cases(draw):
    """A series that is not a gamma series and a single-class operator:
    the A-hypergeometric generators of (a, beta), whose outputs cancel away
    from a perturbed coefficient, or an operator drawn as in lattice_cases."""
    a, beta, window, p = draw(lattice_cases())
    window = min(window, 4)
    lat = kernel_basis(a)
    coeff = st.builds(
        Fraction,
        st.one_of(st.just(0), st.integers(-3, 3), st.integers(-(10**30), 10**30)),
        st.sampled_from(COPRIME_DENOMINATORS),
    )
    kind = draw(st.sampled_from(["perturbed", "random", "empty"]))
    if kind == "perturbed":
        f = gamma_series(a, beta, window=window)
        coeffs = dict(f.coeffs)
        # near the origin, so the images of generators are nonzero around
        # the perturbation and cancel to zero away from it
        near = st.sampled_from(list(product(range(-1, 2), repeat=lat.cols)))
        for z in draw(st.lists(near, min_size=1, max_size=3)):
            coeffs[_ambient(lat, z)] = draw(coeff)  # zero included: an explicit zero
        base = f.base
    else:
        box = list(product(range(-window, window + 1), repeat=lat.cols))
        points = st.lists(st.sampled_from(box), min_size=1, unique=True)
        coeffs = {_ambient(lat, z): draw(coeff) for z in draw(points)} if kind == "random" else {}
        frac = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 2, 3, 4, 6]))
        base = draw(st.lists(frac, min_size=a.cols, max_size=a.cols))
    reliable = draw(st.one_of(st.just(window), st.integers(-1, window)))
    f = PuiseuxSeries.make(a.cols, base, lat, coeffs, window=window, reliable=reliable)
    if draw(st.booleans()):
        p = draw(st.sampled_from(hypergeometric_system(a, beta).generators))
    return p, f


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(integer_accumulation_cases())
def test_integer_accumulation_matches_fraction_reference(case):
    p, f = case
    image = apply_to_series(p, f)
    coeffs, reliable = naive_apply(p, f)
    if reliable < 0:
        assert image.window_exhausted and image.reliable == -1 and not image.coeffs
        return
    assert image.coeffs == coeffs
    assert (image.window, image.reliable, image.window_exhausted) == (reliable, reliable, False)


def test_coordinate_constructor_checks_window_and_rank():
    base = (Fraction(0),) * 4
    f = PuiseuxSeries._from_coords(4, base, B_DEMO, {(1, -2): Fraction(3)}, window=2)
    assert f.coeffs == {(1, -4, 5, -2): Fraction(3)}
    assert f == PuiseuxSeries.make(4, base, B_DEMO, f.coeffs, window=2)
    with pytest.raises(InputFormatError, match="window"):
        PuiseuxSeries._from_coords(4, base, B_DEMO, {(3, 0): Fraction(1)}, window=2)
    with pytest.raises(DimensionMismatchError):
        PuiseuxSeries._from_coords(4, base, B_DEMO, {(1, 0, 0): Fraction(1)}, window=2)
    with pytest.raises(InputFormatError, match="window bounds"):
        PuiseuxSeries._from_coords(4, base, B_DEMO, {}, window=2, reliable=3)


def test_plain_constructor_checks_frame_and_window():
    lat = IntMatrix.from_rows([[1]])
    half = (Fraction(1, 2),)
    # reliable above the window, and support outside it: both used to pass,
    # giving a series whose own JSON fails from_json
    with pytest.raises(InputFormatError, match="window bounds"):
        PuiseuxSeries(1, half, lat, {(0,): Fraction(1)}, window=1, reliable=3)
    with pytest.raises(InputFormatError, match="outside the window"):
        PuiseuxSeries(1, half, lat, {(5,): Fraction(1)}, window=1, reliable=1)
    with pytest.raises(InputFormatError, match="exhausted"):
        PuiseuxSeries(1, half, lat, {}, window=1, reliable=1, window_exhausted=True)
    with pytest.raises(DimensionMismatchError):
        PuiseuxSeries(2, half, lat, {}, window=1, reliable=1)
    f = PuiseuxSeries(1, half, IntMatrix.from_rows([[2]]), {(4,): Fraction(1)}, window=2, reliable=1)
    assert f._index == {(2,): (4,)}
    assert f == PuiseuxSeries.make(1, half, f.lattice, f.coeffs, window=2, reliable=1)
    assert PuiseuxSeries.from_json(f.to_json()) == f


# ---------------------------------------------------------------------------
# The refined action against the ambient walk it replaced


def reference_apply_refined(p, f, delta0):
    """The multi-class action as it was before it walked refined
    coordinates: each certified ambient point goes to PuiseuxSeries.make,
    which solves it back to coordinates with a Smith form."""
    n = f.nvars
    gens = [f.lattice.col(j) for j in range(f.lattice.cols)]
    gens += [_sub(s, delta0) for s in p.shifts()]
    lat = hermite_column_basis(
        IntMatrix.from_rows([[g[i] for g in gens] for i in range(n)])
    )
    mm = lat.cols

    offsets = {
        (mu, nu): _sub(_sub(mu, nu), delta0) for mu, nu, _ in p.terms
    }
    base_out = tuple(b + d for b, d in zip(f.base, delta0))
    d, action = _integer_action(f.base)

    def point_value(u):
        # exact output coefficient at ambient point u, or None when it
        # needs an input coefficient beyond the reliable radius; inside
        # that radius a missing coefficient is zero
        total = Fraction(0)
        for mu, nu, c in p.terms:
            src = _sub(u, offsets[(mu, nu)])
            co = lattice_coordinates(f.lattice, src)
            if co is None:
                continue
            factor = action(nu, src)
            if not factor:
                continue
            if _sup(co) > f.reliable:
                return None
            lam = f.coeffs.get(src)
            if lam is not None:
                total += c * lam * Fraction(factor, d ** sum(nu))
        return total

    stencil = max((_sup(lattice_coordinates(lat, o)) for o in offsets.values()), default=0)
    # an input with no reliable radius certifies no ring
    cap = f.window + stencil if f.reliable >= 0 else -1
    coeffs = {}
    reliable = -1
    for r in range(cap + 1):
        ring = [w for w in product(range(-r, r + 1), repeat=mm) if _sup(w) == r]
        vals = []
        for w in ring:
            u = tuple(
                sum(lat.entries[i][j] * w[j] for j in range(mm)) for i in range(n)
            )
            vals.append((u, point_value(u)))
        if any(v is None for _, v in vals):
            break
        for u, v in vals:
            if v:
                coeffs[u] = v
        reliable = r
    exhausted = reliable < 0
    return PuiseuxSeries.make(
        n, base_out, lat, {} if exhausted else coeffs,
        window=max(reliable, 0), reliable=max(reliable, -1),
        window_exhausted=exhausted,
    )


def test_ring_lists_the_sup_norm_shell_in_lexicographic_order():
    for m in range(4):
        for r in range(4):
            shell = [t for t in product(range(-r, r + 1), repeat=m) if _sup(t) == r]
            assert list(_ring(m, r)) == shell


# lattices that miss some unit shifts, so operators fall into several classes
COARSE_LATTICES = [
    IntMatrix.from_rows([[2]]),
    IntMatrix.from_rows([[3]]),
    IntMatrix.from_rows([[]]),
    IntMatrix.from_rows([[1], [0]]),
    IntMatrix.from_rows([[2], [-1]]),
    IntMatrix.from_rows([[1, 0], [0, 2]]),
    IntMatrix.from_rows([[], []]),
]


@st.composite
def refined_cases(draw):
    """A multi-class operator and a series on a coarse lattice; bases with
    integer entries make falling factorials vanish, and the frame is exact,
    partly reliable, reliable nowhere, or exhausted."""
    lat = draw(st.sampled_from(COARSE_LATTICES))
    n = lat.rows
    kind = draw(st.sampled_from(["exact", "partial", "nowhere", "exhausted"]))
    window = draw(st.integers(1 if kind == "partial" else 0, 3))
    frac = st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 1, 2, 3]))
    base = draw(st.lists(frac, min_size=n, max_size=n))
    if kind == "exact":
        reliable = window
    elif kind == "partial":
        reliable = draw(st.integers(0, window - 1))
    else:
        reliable = -1
    box = list(product(range(-window, window + 1), repeat=lat.cols))
    points = draw(st.lists(st.sampled_from(box), unique=True))
    coeffs = {_ambient(lat, z): draw(frac) for z in points}
    f = PuiseuxSeries.make(
        n, base, lat, coeffs, window=window, reliable=reliable,
        window_exhausted=kind == "exhausted",
    )
    expo = st.tuples(*[st.integers(0, 2)] * n)
    terms = draw(st.dictionaries(st.tuples(expo, expo), frac.filter(bool), min_size=2, max_size=4))
    p = WeylOperator.make(n, terms)
    shifts = p.shifts()
    assume(any(lattice_coordinates(lat, _sub(s, shifts[0])) is None for s in shifts))
    return p, f


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(refined_cases())
def test_refined_action_matches_the_ambient_walk(case):
    p, f = case
    image = apply_to_series(p, f)
    want = reference_apply_refined(p, f, p.shifts()[0])
    assert image.to_json() == want.to_json()
    assert list(image._index.items()) == list(want._index.items())
    assert list(image.coeffs) == list(want.coeffs)


# ---------------------------------------------------------------------------
# Module layering: the series layer owns the operator action, and every
# import in the package sits at module level, in one order without a cycle

SRC_PACKAGE = os.path.dirname(os.path.abspath(dhyper.__file__))
LAYERS = ["errors", "exact", "weyl", "groebner", "mgraph", "systems", "series", "cli"]


def test_weyl_imports_without_the_series_layer():
    code = "import json, sys, dhyper.weyl; print(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(SRC_PACKAGE))
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    loaded = json.loads(proc.stdout)
    assert "dhyper.weyl" in loaded and "dhyper.series" not in loaded


def test_imports_sit_at_module_level_in_layer_order():
    stems = set()
    for name in sorted(os.listdir(SRC_PACKAGE)):
        if not name.endswith(".py"):
            continue
        stem = name[:-3]
        stems.add(stem)
        with open(os.path.join(SRC_PACKAGE, name), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        top = [n for n in tree.body if isinstance(n, (ast.Import, ast.ImportFrom))]
        nested = [
            n.lineno
            for n in ast.walk(tree)
            if isinstance(n, (ast.Import, ast.ImportFrom)) and n not in top
        ]
        assert nested == [], f"{name}: imports inside a function or class at lines {nested}"
        for n in top:
            if isinstance(n, ast.ImportFrom):
                targets = ["dhyper." + n.module] if n.level else [n.module or ""]
            else:
                targets = [a.name for a in n.names]
            for target in targets:
                if target.startswith("dhyper."):
                    layer = target.removeprefix("dhyper.")
                    assert LAYERS.index(layer) < LAYERS.index(stem), (name, target)
    assert stems == set(LAYERS) | {"__init__"}


# ---------------------------------------------------------------------------
# The packed frame of the single-class action, and the lazy gamma candidates


def reference_apply_single_class(p, f, delta0, coords):
    """The single-class action as it was before it walked a packed frame:
    coordinate tuples, a box test per offset, and C, lam C and the falling
    factor tables worked out again for every operator."""
    base_out = tuple(b + s for b, s in zip(f.base, delta0))
    reliable = f.reliable - max(map(_sup, coords.values()))
    if reliable < 0:
        return PuiseuxSeries.make(
            f.nvars, base_out, f.lattice, {}, window=0, reliable=-1,
            window_exhausted=True,
        )

    d, falling = _falling_factors(f.base)
    k_max = max(sum(nu) for _, nu, _ in p.terms)
    e = lcm(*(c.denominator for _, _, c in p.terms))
    tables = {}
    groups = {}
    for mu, nu, c in p.terms:
        scaled = c.numerator * (e // c.denominator) * d ** (k_max - sum(nu))
        factors = []
        for j, k in enumerate(nu):
            if k:
                if (j, k) not in tables:
                    tables[(j, k)] = {x: falling(j, k, x) for x in {u[j] for u in f.coeffs}}
                factors.append((j, tables[(j, k)]))
        groups.setdefault(coords[_sub(mu, nu)], []).append((scaled, factors))
    # z + co lies in the output window exactly when -r - co <= z <= r - co
    stencil = [
        (co, tuple(-reliable - x for x in co), tuple(reliable - x for x in co), group)
        for co, group in groups.items()
    ]
    common = lcm(*(q.denominator for q in f.coeffs.values()))
    acc = {}
    for z, u in f._index.items():
        q = f.coeffs[u]
        lam = q.numerator * (common // q.denominator)
        for co, lo, hi, group in stencil:
            if not (all(map(le, lo, z)) and all(map(le, z, hi))):
                continue
            # sum of the offset's term weights: lam multiplies once
            weight = 0
            for c, factors in group:
                for j, table in factors:
                    c *= table[u[j]]
                weight += c
            if weight:
                w = _add(z, co)
                acc[w] = acc.get(w, 0) + lam * weight
    scale = common * e * d**k_max
    return PuiseuxSeries._from_coords(
        f.nvars, base_out, f.lattice,
        {w: Fraction(q, scale) for w, q in acc.items() if q},
        window=reliable, reliable=reliable,
    )


# lattices for the packed action: ranks 2, 3, 1 and 0, in Z^4, Z^5, Z^1, Z^2
PACKED_LATTICES = [B_DEMO, kernel_basis(A_QUARTIC), IntMatrix.from_rows([[2]]), IntMatrix.from_rows([[], []])]


@st.composite
def packed_cases(draw):
    """A sparse series with window-edge points, an exact, partly reliable
    or unreliable frame, window 0 allowed, and a single-class operator whose
    term offsets in lattice coordinates take both signs."""
    lat = draw(st.sampled_from(PACKED_LATTICES))
    n, m = lat.rows, lat.cols
    window = draw(st.integers(0, 4))
    reliable = draw(st.one_of(st.just(window), st.integers(-1, window)))
    frac = st.builds(Fraction, st.integers(-9, 9), st.sampled_from([1, 1, 2, 3, 7]))
    coord = st.integers(-window, window)
    edge = st.tuples(*[st.sampled_from([-window, window])] * m)
    support = draw(st.lists(st.tuples(*[coord] * m), max_size=6))
    support += draw(st.lists(edge, min_size=1, max_size=2))
    coeffs = {_ambient(lat, z): draw(frac) for z in support}
    base = draw(st.lists(frac, min_size=n, max_size=n))
    f = PuiseuxSeries.make(n, base, lat, coeffs, window=window, reliable=reliable)
    # shifts mu - nu = delta + L k with k in {-2..2}^m share one class
    delta = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        k = draw(st.lists(st.integers(-2, 2), min_size=m, max_size=m))
        s = [x + y for x, y in zip(delta, _ambient(lat, k))]
        extra = draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        nu = tuple(max(-x, 0) + y for x, y in zip(s, extra))
        terms[(tuple(v + x for v, x in zip(nu, s)), nu)] = draw(frac.filter(bool))
    return WeylOperator.make(n, terms), f


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(packed_cases())
def test_packed_action_matches_the_tuple_walk_and_the_naive_reference(case):
    p, f = case
    delta0 = p.shifts()[0]
    coords = {s: lattice_coordinates(f.lattice, _sub(s, delta0)) for s in p.shifts()}
    assert all(co is not None for co in coords.values())
    image = apply_to_series(p, f)
    want = reference_apply_single_class(p, f, delta0, coords)
    assert image.to_json() == want.to_json()
    assert list(image._index.items()) == list(want._index.items())
    coeffs, reliable = naive_apply(p, f)
    if reliable < 0:
        assert image.window_exhausted and image.reliable == -1 and not image.coeffs
    else:
        assert image.coeffs == coeffs
        assert (image.window, image.reliable) == (reliable, reliable)


def test_zero_operator_keeps_an_exhausted_window():
    f = PuiseuxSeries.make(
        1, [Fraction(1, 2)], IntMatrix.from_rows([[2]]), {(0,): Fraction(1)},
        window=2, reliable=-1, window_exhausted=True,
    )
    image = apply_to_series(WeylOperator.zero(1), f)
    assert image.window_exhausted and image.reliable == -1 and not image.coeffs


def test_frame_takes_no_part_in_equality_repr_or_json():
    f, g = (gamma_series(A_DEMO, BETA_DEMO, window=3) for _ in range(2))
    assert f._frame is None and g._frame is None
    apply_to_series(toric_demo_ops()[0], g)
    assert g._frame is not None and f._frame is None
    assert f == g and g == f
    assert repr(f) == repr(g) and str(f) == str(g)
    assert f.to_json() == g.to_json()
    # a series with a frame still pickles
    assert pickle.loads(pickle.dumps(g)) == f


def test_annihilation_check_builds_one_frame_per_series(monkeypatch):
    built = []

    class Counting(dhyper.series._Frame):
        def __init__(self, f):
            built.append(f)
            super().__init__(f)

    monkeypatch.setattr(dhyper.series, "_Frame", Counting)
    f = gamma_series(A_DEMO, BETA_DEMO, window=4)
    gens = ahyp_demo_ops()
    assert annihilation_check(gens, f).all_zero
    assert len(built) == 1 and built[0] is f
    annihilation_check(gens, f)
    assert len(built) == 1


def test_gamma_fill_names_coordinate_tuples_in_errors():
    # integral base exponents: factorials vanish and the fill stops short
    for v, point in [((0, 0, 0, 0), "(-1, -1)"), ((1, 1, 1, 1), "(1, 1)")]:
        beta = A_DEMO.mul_int_vector(v)
        with pytest.warns(RuntimeWarning, match="resonant"):
            with pytest.raises(DenominatorVanishedError) as exc:
                gamma_series(A_DEMO, beta, v=v, window=3)
        assert str(exc.value) == (
            f"window point {point} unreachable through nonvanishing factorials"
        )


def eager_candidates(a, lat, v0):
    """gamma_series' candidate list as it was built before it went lazy:
    every candidate up front, then the fully generic ones first."""
    candidates = [tuple(v0.entries)]
    m = lat.cols
    for z in [z for r in (1, 2) for z in _ring(m, r)][:15]:
        u = _ambient(lat, z)
        candidates.append(tuple(q + x for q, x in zip(v0.entries, u)))
    fracs = [
        Fraction(1, 3), Fraction(2, 3), Fraction(1, 5), Fraction(2, 5),
        Fraction(1, 7), Fraction(3, 7), Fraction(1, 11), Fraction(5, 11),
    ]
    perturbations = []
    for q in fracs:
        perturbations.append((q,) * m)
    for q1 in fracs[:4]:
        for q2 in fracs[:4]:
            if m == 2 and q1 != q2:
                perturbations.append((q1, q2))
    for q in perturbations:
        offset = tuple(
            sum(Fraction(lat.entries[i][j]) * q[j] for j in range(m))
            for i in range(a.cols)
        )
        candidates.append(tuple(x + o for x, o in zip(v0.entries, offset)))
    touched = [i for i in range(a.cols) if any(lat.entries[i])]

    def generic(cand):
        return all(cand[i].denominator != 1 for i in touched)

    return [c for c in candidates if generic(c)] + [c for c in candidates if not generic(c)]


@pytest.mark.parametrize(
    "a,beta",
    [
        (A_DEMO, ("-11/6", "-5/3")),
        (A_DEMO, ("0", "0")),
        (A_DEMO, ("3", "-1")),
        (A_QUARTIC, ("1/2", "1/3")),
        (A_QUARTIC, ("2", "1")),
        (A_WEIGHTED, ("1",)),
        (IntMatrix.from_rows([[1, 0], [0, 1]]), ("1/2", "-1")),
    ],
)
def test_lazy_candidates_keep_the_eager_order(a, beta):
    beta = RatVector.from_strings(list(beta))
    lat = kernel_basis(a) if a.rows < a.cols else IntMatrix.from_rows([[] for _ in range(a.cols)])
    v0 = solve_rational(a, beta)
    want = eager_candidates(a, lat, v0)
    assert list(_candidates(lat, tuple(v0.entries))) == want
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        f = gamma_series(a, beta, window=3)
    used = want.index(f.base)
    # every earlier candidate failed to fill the window
    for cand in want[:used]:
        with pytest.raises(DenominatorVanishedError):
            gamma_series(a, beta, v=cand, window=3)
    if lat.cols:
        # v0 is not generic here: a later candidate is the one used
        assert f.base != tuple(v0.entries)
