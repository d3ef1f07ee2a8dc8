"""Acceptance gate: nine end-to-end checks over the cubic-kernel demo data.

Each test prints one PASS/FAIL line and enforces its own wall-clock
budget, so `pytest -v` doubles as the checklist.
"""

import random
import time
from fractions import Fraction
from itertools import product

from dhyper.exact import IntMatrix, RatVector, is_nonresonant
from dhyper.groebner import (
    CommIdeal,
    CommPoly,
    DegRevLex,
    groebner_weyl,
)
from dhyper.mgraph import (
    BOUNDED,
    CAP_EXCEEDED,
    bounded_representatives,
    component,
    lattice_polynomial_solutions,
)
from dhyper.series import (
    ANTIDERIVE,
    DERIVE,
    NONZERO,
    ZERO_ON_WINDOW,
    PuiseuxSeries,
    annihilation_check,
    density,
    gamma_series,
    monomial_substitution,
    recurrence_series,
    shift,
    toral_solution_basis,
)
from dhyper.systems import (
    block_decompositions,
    horn_system,
    hypergeometric_system,
    lattice_basis_ideal,
    toral_component_ideal,
    toric_ideal,
)
from dhyper.weyl import WeylOperator, normal_product, theta_form
from test_weyl import term_action_factor

A_DEMO = IntMatrix.from_rows([[3, 2, 1, 0], [0, 1, 2, 3]])
B_DEMO = IntMatrix.from_rows([[1, 0], [-2, 1], [1, -2], [0, 1]])
BETA_DEMO = (Fraction(-11, 6), Fraction(-5, 3))
MISSING = WeylOperator.make(
    4,
    {
        ((0, 0, 0, 0), (1, 0, 0, 1)): Fraction(1),
        ((0, 0, 0, 0), (0, 1, 1, 0)): Fraction(-1),
    },
)


def _finish(num, label, ok, t0, budget):
    elapsed = time.perf_counter() - t0
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[criterion {num}] {label}: {status} ({elapsed:.2f}s, budget {budget}s)")
    assert ok
    assert elapsed < budget


def test_criterion_1_toric_regression():
    t0 = time.perf_counter()
    gb = toric_ideal(A_DEMO).groebner()
    displayed = [
        {(1, 0, 1, 0): Fraction(1), (0, 2, 0, 0): Fraction(-1)},
        {(0, 1, 0, 1): Fraction(1), (0, 0, 2, 0): Fraction(-1)},
        {(1, 0, 0, 1): Fraction(1), (0, 1, 1, 0): Fraction(-1)},
    ]
    got = [g.as_dict() for g in gb]
    ok = len(got) == 3
    for want in displayed:
        neg = {e: -c for e, c in want.items()}
        ok = ok and (want in got or neg in got)
    _finish(1, "toric ideal regression", ok, t0, 1.0)


def test_criterion_2_strict_containment_certificate():
    t0 = time.perf_counter()
    horn = horn_system(B_DEMO, BETA_DEMO, a=A_DEMO)
    ahyp = hypergeometric_system(A_DEMO, BETA_DEMO)
    gb_a = groebner_weyl(list(ahyp.generators), cap=10)
    in_a = gb_a.membership(MISSING)
    gb_h = groebner_weyl(list(horn.generators), cap=10)
    not_in_h = gb_h.membership(MISSING)
    ok = (
        in_a.member is True
        and not_in_h.member is False
        and not_in_h.basis_status == "complete"
        and not not_in_h.normal_form.is_zero()
        and not_in_h.verify(horn.generators)
    )
    _finish(2, "strict containment certificate", ok, t0, 30.0)


def test_criterion_3_puiseux_monomial_dichotomy():
    t0 = time.perf_counter()
    mono = PuiseuxSeries.monomial(
        (Fraction(-11, 18), Fraction(0), Fraction(0), Fraction(-5, 9))
    )
    horn = horn_system(B_DEMO, BETA_DEMO, a=A_DEMO)
    rep = annihilation_check(list(horn.generators), mono)
    ok = all(v.status == ZERO_ON_WINDOW for v in rep.verdicts)
    miss = annihilation_check([MISSING], mono).verdicts[0]
    ok = ok and miss.status == NONZERO and miss.witness_coeff == Fraction(55, 162)
    _finish(3, "puiseux monomial dichotomy", ok, t0, 5.0)


def test_criterion_4_recurrence_substitution_pipeline():
    t0 = time.perf_counter()
    a, ap = Fraction(1, 2), Fraction(1, 3)

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

    g = recurrence_series([ratio_m, ratio_n], window=8)
    vprime = RatVector.make([Fraction(0), ap - 1, a - 1, Fraction(0)])
    f = monomial_substitution(g, B_DEMO, vprime)
    ahyp = hypergeometric_system(A_DEMO, BETA_DEMO)
    rep = annihilation_check(list(ahyp.generators), f)
    ok = all(v.status == ZERO_ON_WINDOW for v in rep.verdicts)
    _finish(4, "recurrence to substitution pipeline at R=8", ok, t0, 10.0)


def test_criterion_5_gamma_series_suite():
    t0 = time.perf_counter()
    rng = random.Random(20260822)
    betas = []
    while len(betas) < 10:
        num1 = rng.randint(-25, 25)
        num2 = rng.randint(-25, 25)
        den = rng.choice([5, 7, 11, 13, 17, 18])
        beta = RatVector.make([Fraction(num1, den), Fraction(num2, den)])
        if is_nonresonant(A_DEMO, beta).nonresonant:
            betas.append(beta)
    ok = True
    for beta in betas:
        f = gamma_series(A_DEMO, beta, window=6)
        ok = ok and density(f) == 1
        gens = hypergeometric_system(A_DEMO, tuple(beta.entries)).generators
        rep = annihilation_check(list(gens), f)
        ok = ok and all(v.status == ZERO_ON_WINDOW for v in rep.verdicts)
    _finish(5, "randomized lattice series suite", ok, t0, 60.0)


def test_criterion_6_shift_isomorphism_suite():
    t0 = time.perf_counter()
    rng = random.Random(1803)
    alphas = [
        a for a in product(range(4), repeat=4) if 0 < sum(a) <= 3
    ]
    base_gens = hypergeometric_system(A_DEMO, BETA_DEMO).generators
    ok = True
    for _ in range(20):
        alpha = rng.choice(alphas)
        shift_vec = A_DEMO.mul_int_vector(alpha)
        beta_up = tuple(q + s for q, s in zip(BETA_DEMO, shift_vec))
        g = gamma_series(A_DEMO, RatVector.make(beta_up), window=6)
        derived = shift(g, alpha, DERIVE)
        rep = annihilation_check(list(base_gens), derived)
        ok = ok and all(v.status == ZERO_ON_WINDOW for v in rep.verdicts)
        back = shift(derived, alpha, ANTIDERIVE)
        ok = ok and back.base == g.base and back.coeffs == g.coeffs
    _finish(6, "shift isomorphism suite", ok, t0, 60.0)


def test_criterion_7_move_graph_suite():
    t0 = time.perf_counter()
    ok = True
    for m in (
        IntMatrix.from_rows([[-2, 1], [1, -2]]),
        IntMatrix.from_rows([[1, -1], [-1, 1]]),
    ):
        for u in product(range(13), repeat=2):
            small = component(m, u, cap=12)
            large = component(m, u, cap=24)
            if small.verdict != CAP_EXCEEDED:
                ok = ok and small.verdict == large.verdict
                if small.verdict == BOUNDED:
                    ok = ok and small.vertices == large.vertices
        ops = [
            WeylOperator.make(2, {((0, 0), e): c for e, c in g.as_dict().items()})
            for g in lattice_basis_ideal(m).gens
        ]
        for cap in (12, 24):
            survey = bounded_representatives(m, cap)
            union = set()
            for comp in survey.explored:
                ok = ok and not (union & set(comp.vertices))
                union |= set(comp.vertices)
            box = {p for p in product(range(cap + 1), repeat=2)}
            ok = ok and box <= union
            for comp in survey.bounded:
                sols = lattice_polynomial_solutions(m, comp)
                window = max(max(w) for w in sols) + 2
                poly = PuiseuxSeries.make(
                    2, (Fraction(0), Fraction(0)), IntMatrix.identity(2),
                    sols, window=window,
                )
                rep = annihilation_check(ops, poly)
                ok = ok and all(v.status == ZERO_ON_WINDOW for v in rep.verdicts)
    _finish(7, "move graph suite", ok, t0, 5.0)


def test_criterion_8_toral_component_suite():
    t0 = time.perf_counter()
    horn = horn_system(B_DEMO, BETA_DEMO, a=A_DEMO)
    ok = True
    for dec, cls in block_decompositions(B_DEMO):
        spec = toral_component_ideal(B_DEMO, dec, BETA_DEMO, monomial_cap=4, a=A_DEMO)
        gb = groebner_weyl(list(spec.generators), cap=10)
        for g in horn.generators:
            cert = gb.membership(g)
            ok = ok and cert.member is True
        basis = toral_solution_basis(B_DEMO, dec, BETA_DEMO, window=6, a=A_DEMO)
        ok = ok and len(basis) >= 1
        for f in basis:
            rep = annihilation_check(list(spec.generators), f)
            ok = ok and all(v.status == ZERO_ON_WINDOW for v in rep.verdicts)
    _finish(8, "toral component suite", ok, t0, 60.0)


def test_criterion_9_weyl_algebra_kernel():
    t0 = time.perf_counter()
    rng = random.Random(404)
    n = 2
    ok = True
    for i in range(4):
        for j in range(4):
            di = WeylOperator.monomial(4, (0,) * 4, tuple(1 if t == i else 0 for t in range(4)))
            xj = WeylOperator.monomial(4, tuple(1 if t == j else 0 for t in range(4)), (0,) * 4)
            bracket = normal_product(di, xj) + normal_product(xj, di).scale(-1)
            expect = WeylOperator.one(4) if i == j else WeylOperator.zero(4)
            ok = ok and bracket == expect

    def random_op():
        terms = {}
        for _ in range(rng.randint(1, 3)):
            mu = tuple(rng.randint(0, 2) for _ in range(n))
            nu = tuple(rng.randint(0, 2) for _ in range(n))
            terms[(mu, nu)] = Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2]))
        return WeylOperator.make(n, terms)

    for _ in range(100):
        p, q, r = random_op(), random_op(), random_op()
        left = normal_product(normal_product(p, q), r)
        right = normal_product(p, normal_product(q, r))
        ok = ok and left == right

    for _ in range(20):
        mu = tuple(rng.randint(0, 3) for _ in range(n))
        coeff = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 3]))
        op = WeylOperator.make(n, {(mu, mu): coeff})
        tp = theta_form(op)
        point = tuple(
            Fraction(rng.randint(-9, 9), rng.choice([2, 3, 5, 7]))
            for _ in range(n)
        )
        direct = coeff * term_action_factor(mu, point)
        ok = ok and tp.evaluate(point) == direct

    for seed in range(5):
        sub = random.Random(seed)
        polys = []
        for _ in range(sub.randint(2, 3)):
            terms = {}
            for _ in range(sub.randint(1, 3)):
                e = tuple(sub.randint(0, 2) for _ in range(3))
                terms[e] = Fraction(sub.choice([-2, -1, 1, 2]))
            if terms:
                polys.append(CommPoly.make(3, terms))
        polys = [p for p in polys if not p.is_zero()]
        if not polys:
            continue
        comm_gb = CommIdeal.make(3, polys).groebner()
        weyl_gb = groebner_weyl(
            [
                WeylOperator.make(3, {((0, 0, 0), e): c for e, c in p.as_dict().items()})
                for p in polys
            ],
            cap=30,
        )
        ok = ok and weyl_gb.status == "complete"
        order = DegRevLex(3)
        weyl_polys = []
        for b in weyl_gb.basis:
            d = {nu: c for _, nu, c in b.terms}
            _, lc = CommPoly.make(3, d).lead(order)
            weyl_polys.append(tuple(sorted((e, c / lc) for e, c in d.items())))
        comm_polys = [tuple(sorted(g.terms)) for g in comm_gb]
        ok = ok and sorted(weyl_polys) == sorted(comm_polys)
    _finish(9, "weyl algebra kernel", ok, t0, 10.0)
