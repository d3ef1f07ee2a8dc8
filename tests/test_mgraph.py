import random
from fractions import Fraction
from math import factorial, perm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhyper import mgraph
from dhyper.errors import (
    DhyperError,
    DimensionMismatchError,
    InconsistentCoefficientsError,
    InputFormatError,
)
from dhyper.exact import IntMatrix
from dhyper.mgraph import (
    BOUNDED,
    CAP_EXCEEDED,
    UNBOUNDED_CERTIFIED,
    MGraphComponent,
    bounded_representatives,
    component,
    lattice_polynomial_solutions,
)
from dhyper.series import PuiseuxSeries, annihilation_check
from dhyper.systems import lattice_basis_ideal
from dhyper.weyl import WeylOperator, _binomial_fill, _split_move
from test_weyl import term_action_factor

M_DEMO = IntMatrix.from_rows([[-2, 1], [1, -2]])


def test_demo_origin_is_isolated():
    comp = component(M_DEMO, (0, 0), cap=12)
    assert comp.verdict == BOUNDED
    assert comp.vertices == ((0, 0),)
    assert comp.certificate is None


def test_translation_certificate():
    m = IntMatrix.from_rows([[1], [1]])
    comp = component(m, (0, 0), cap=6)
    assert comp.verdict == UNBOUNDED_CERTIFIED
    v, s = comp.certificate
    assert all(x >= 0 for x in s) and any(s)
    assert v in comp.vertices
    assert tuple(a + b for a, b in zip(v, s)) in comp.vertices


def test_demo_off_origin_is_certified():
    comp = component(M_DEMO, (3, 0), cap=12)
    assert comp.verdict == UNBOUNDED_CERTIFIED


def test_antidiagonal_component_closes():
    m = IntMatrix.from_rows([[1], [-1]])
    comp = component(m, (3, 0), cap=3)
    assert comp.verdict == BOUNDED
    assert comp.vertices == ((0, 3), (1, 2), (2, 1), (3, 0))
    assert comp.representative == (0, 3)


def test_cap_exceeded_resolves_at_larger_cap():
    m = IntMatrix.from_rows([[2], [-1]])
    small = component(m, (0, 2), cap=3)
    assert small.verdict == CAP_EXCEEDED
    assert small.certificate is None
    large = component(m, (0, 2), cap=4)
    assert large.verdict == BOUNDED
    assert large.vertices == ((0, 2), (2, 1), (4, 0))


def test_component_input_validation():
    with pytest.raises(DimensionMismatchError):
        component(M_DEMO, (0, 0, 0), cap=4)
    with pytest.raises(InputFormatError):
        component(M_DEMO, (-1, 0), cap=4)
    with pytest.raises(InputFormatError):
        component(M_DEMO, (9, 0), cap=4)


def test_survey_demo_has_one_bounded_class():
    for cap in (12, 24):
        survey = bounded_representatives(M_DEMO, cap)
        assert len(survey.bounded) == 1
        assert survey.bounded[0].representative == (0, 0)
        assert survey.bounded[0].vertices == ((0, 0),)


def test_survey_rejects_negative_cap():
    # an empty box would otherwise be reported as a complete survey
    with pytest.raises(InputFormatError):
        bounded_representatives(IntMatrix.from_rows([[1], [-2]]), -1)


def test_survey_partitions_the_box():
    cap = 6
    survey = bounded_representatives(M_DEMO, cap)
    cells = [set(c.vertices) for c in survey.explored]
    union = set()
    for cell in cells:
        assert not (union & cell)
        union |= cell
    box = {(i, j) for i in range(cap + 1) for j in range(cap + 1)}
    assert box <= union


def test_solutions_singleton():
    comp = component(M_DEMO, (0, 0), cap=12)
    assert lattice_polynomial_solutions(M_DEMO, comp) == {(0, 0): Fraction(1)}


def test_solutions_two_vertex_component():
    m = IntMatrix.from_rows([[2], [-1]])
    comp = component(m, (1, 1), cap=5)
    assert comp.vertices == ((1, 1), (3, 0))
    sols = lattice_polynomial_solutions(m, comp)
    assert sols == {(1, 1): Fraction(1), (3, 0): Fraction(1, 6)}


def test_solutions_match_reciprocal_factorials():
    # c_w proportional to 1 / prod(w_i!) satisfies every edge relation,
    # and tree propagation from the representative pins the scale
    rng = random.Random(7)
    for _ in range(12):
        q = rng.choice([2, 3])
        cols = rng.choice([1, 2])
        rows = [[rng.randint(-2, 2) for _ in range(cols)] for _ in range(q)]
        m = IntMatrix.from_rows(rows)
        survey = bounded_representatives(m, cap=5)
        for comp in survey.bounded:
            sols = lattice_polynomial_solutions(m, comp)
            rep = comp.representative
            scale = 1
            for x in rep:
                scale *= factorial(x)
            for w, c in sols.items():
                denom = 1
                for x in w:
                    denom *= factorial(x)
                assert c == Fraction(scale, denom)


def test_solution_polynomial_is_annihilated():
    m = IntMatrix.from_rows([[2, -1], [-1, 2], [-1, -1]])
    survey = bounded_representatives(m, cap=4)
    gens = lattice_basis_ideal(m).gens
    ops = []
    for g in gens:
        ops.append(
            WeylOperator.make(3, {((0, 0, 0), nu): c for nu, c in g.as_dict().items()})
        )
    checked = 0
    for comp in survey.bounded:
        sols = lattice_polynomial_solutions(m, comp)
        window = max(max(w) for w in sols)
        poly = PuiseuxSeries.make(
            nvars=3,
            base=(Fraction(0),) * 3,
            lattice=IntMatrix.identity(3),
            coeffs=sols,
            window=window + 3,
        )
        report = annihilation_check(ops, poly)
        assert report.all_zero
        checked += 1
    assert checked >= 2


def test_solutions_require_bounded_verdict():
    comp = component(M_DEMO, (3, 0), cap=12)
    with pytest.raises(DhyperError):
        lattice_polynomial_solutions(M_DEMO, comp)


def test_solutions_name_the_failing_edge_by_vertex_tuples(monkeypatch):
    # the product formula solves every edge, so only wrong falling factors
    # can break one: the check still runs, and names the edge's vertices
    m = IntMatrix.from_rows([[2], [-1]])
    comp = component(m, (1, 1), cap=5)
    monkeypatch.setattr(mgraph, "perm", lambda n, k: perm(n, k) + (k > 0))
    with pytest.raises(InconsistentCoefficientsError, match=r"^edge \(1, 1\) -> \(3, 0\) fails"):
        lattice_polynomial_solutions(m, comp)


def test_component_json_round_shapes():
    comp = component(M_DEMO, (0, 0), cap=12)
    data = comp.to_json()
    assert data["vertex_count"] == 1
    assert "certificate" not in data
    cert = component(IntMatrix.from_rows([[1], [1]]), (0, 0), cap=4).to_json()
    assert cert["certificate"]["base"] == [0, 0]
    assert cert["certificate"]["step"] == [1, 1]


def reference_polynomial_solutions(m, comp):
    """Breadth-first Fraction propagation from the representative, the
    independent reference for lattice_polynomial_solutions."""
    vertices = set(comp.vertices)
    cols = [b for b in m.columns() if any(b)]
    coeffs = {comp.representative: Fraction(1)}
    frontier = [comp.representative]
    while frontier:
        frontier.sort()
        v = frontier.pop(0)
        for b in cols:
            pos = tuple(max(x, 0) for x in b)
            neg = tuple(max(-x, 0) for x in b)
            for sign, into, outof in ((1, pos, neg), (-1, neg, pos)):
                w = tuple(a + sign * x for a, x in zip(v, b))
                if w in vertices and w not in coeffs:
                    num = term_action_factor(outof, v)
                    den = term_action_factor(into, w)
                    assert den
                    coeffs[w] = coeffs[v] * num / den
                    frontier.append(w)
    for v in comp.vertices:
        for b in cols:
            pos = tuple(max(x, 0) for x in b)
            neg = tuple(max(-x, 0) for x in b)
            w = tuple(a + x for a, x in zip(v, b))
            if w in vertices:
                assert coeffs[w] * term_action_factor(pos, w) == coeffs[v] * term_action_factor(neg, v)
    return coeffs


@st.composite
def small_move_matrices(draw):
    # two rows; a column with entries of opposite signs moves along an
    # antidiagonal, so components can close inside the box
    def column():
        a, b = draw(st.integers(0, 2)), draw(st.integers(0, 2))
        return (a, -b) if draw(st.booleans()) else (-a, b)

    cols = [column() for _ in range(draw(st.integers(1, 3)))]
    return IntMatrix.from_rows([[c[i] for c in cols] for i in range(2)]), draw(st.integers(1, 4))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(small_move_matrices())
def test_solutions_match_fraction_reference(case):
    m, cap = case
    for comp in bounded_representatives(m, cap).bounded:
        sols = lattice_polynomial_solutions(m, comp)
        assert sols == reference_polynomial_solutions(m, comp)
        assert set(sols) == set(comp.vertices)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(small_move_matrices())
def test_product_formula_matches_the_kept_sweep(case):
    # the sweep fill that solved these recurrences before the product
    # formula, from c = 1 at the representative
    m, cap = case
    steps = [(b, *_split_move(b)) for b in m.columns() if any(b)]
    for comp in bounded_representatives(m, cap).bounded:
        points = {w: w for w in comp.vertices}
        swept, unfilled, failing = _binomial_fill(points, steps, (Fraction(0),) * m.rows)
        assert unfilled is None and failing is None
        assert lattice_polynomial_solutions(m, comp) == swept
