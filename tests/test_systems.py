import hashlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dhyper import exact, groebner, mgraph, systems
from dhyper.errors import (
    DhyperError,
    DimensionMismatchError,
    InputFormatError,
    NotMixedError,
    UnsupportedCharacterError,
    ZeroColumnError,
)
from dhyper.exact import IntMatrix, integer_kernel, lattice_index, positive_functional, smith_form
from dhyper.groebner import CommIdeal, CommPoly, groebner_weyl
from dhyper.systems import (
    ANDEAN,
    TORAL,
    BlockDecomposition,
    block_decompositions,
    horn_system,
    hypergeometric_system,
    lattice_basis_ideal,
    toral_component_ideal,
    toric_ideal,
)
from dhyper.weyl import WeylOperator
from test_groebner import saturate

A_DEMO = IntMatrix.from_rows([[3, 2, 1, 0], [0, 1, 2, 3]])
B_DEMO = IntMatrix.from_rows([[1, 0], [-2, 1], [1, -2], [0, 1]])
BETA_DEMO = (Fraction(-11, 6), Fraction(-5, 3))


def as_poly_set(ideal_gens):
    return sorted(tuple(g.terms) for g in ideal_gens)


def test_toric_ideal_demo_basis():
    gb = toric_ideal(A_DEMO).groebner()
    displayed = [
        {(1, 0, 1, 0): 1, (0, 2, 0, 0): -1},
        {(0, 1, 0, 1): 1, (0, 0, 2, 0): -1},
        {(1, 0, 0, 1): 1, (0, 1, 1, 0): -1},
    ]
    got = []
    for g in gb:
        d = g.as_dict()
        got.append(d)
    assert len(got) == 3
    for want in displayed:
        want = {e: Fraction(c) for e, c in want.items()}
        neg = {e: -c for e, c in want.items()}
        assert want in got or neg in got


def test_toric_ideal_two_ones():
    gb = toric_ideal(IntMatrix.from_rows([[1, 1]])).groebner()
    assert len(gb) == 1
    assert gb[0].as_dict() == {(1, 0): Fraction(1), (0, 1): Fraction(-1)}


def test_toric_ideal_invertible_square_is_zero():
    ideal = toric_ideal(IntMatrix.from_rows([[2, 1], [1, 1]]))
    assert ideal.groebner() == ()


def _saturation_reference(a: IntMatrix) -> tuple[CommPoly, ...]:
    """Reduced degrevlex basis of the lattice ideal saturated by the product
    of all variables through the elimination variable."""
    n = a.cols
    ideal = lattice_basis_ideal(integer_kernel(a))
    sat = saturate(ideal, CommPoly.make(n, {(1,) * n: 1}))
    return CommIdeal.make(n, sat.gens).groebner()


@pytest.mark.parametrize(
    "rows",
    [
        # four catalogue curves, columns rotated by 0, 1 and 2
        [r[p:] + r[:p] for r in curve]
        for curve in (
            [[1, 1, 1, 1, 1], [0, 1, 2, 3, 4]],
            [[1, 1, 1, 1, 1], [0, 1, 2, 3, 5]],
            [[1, 1, 1, 1, 1], [0, 1, 2, 4, 5]],
            [[1, 1, 1, 1, 1], [0, 2, 3, 4, 6]],
        )
        for p in range(3)
    ]
    + [[[1, 2, 3]], [[4, 6, 7, 9]], [[1, -1]]],
)
def test_toric_ideal_matches_saturation_reference(rows):
    a = IntMatrix.from_rows(rows)
    assert toric_ideal(a).groebner() == _saturation_reference(a)


@st.composite
def small_matrices(draw):
    # negative entries reach matrices with no positive grading, such as
    # [[1, -1]], which toric_ideal takes through the homogenized matrix
    rows = draw(st.integers(1, 2))
    cols = draw(st.integers(2, 4))
    row = st.lists(st.integers(-2, 3), min_size=cols, max_size=cols)
    matrix = st.lists(row, min_size=rows, max_size=rows)
    return draw(matrix.filter(lambda m: all(any(r[j] for r in m) for j in range(cols))))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(small_matrices())
def test_toric_ideal_matches_saturation_reference_on_random_matrices(rows):
    a = IntMatrix.from_rows(rows)
    assert toric_ideal(a).groebner() == _saturation_reference(a)


def _catalogue_curves():
    """The projective monomial curves [[1]*5, [0, a, b, c, d]], d in (5, 6),
    then the rational normal quartic and quintic."""
    curves = [
        [[1] * 5, [0, a, b, c, d]]
        for d in (5, 6)
        for a in range(1, d)
        for b in range(a + 1, d)
        for c in range(b + 1, d)
    ]
    return curves + [[[1] * 5, [0, 1, 2, 3, 4]], [[1] * 6, [0, 1, 2, 3, 4, 5]]]


# The catalogue curves with their columns rotated by 0 .. 4, then three
# matrices reaching a single row, a non-curve and the homogenized path.
PINNED_TORIC_MATRICES = [[r[p:] + r[:p] for r in curve] for p in range(5) for curve in _catalogue_curves()] + [
    [[4, 6, 7, 9]],
    [[7, 6, 4, 1, 0], [0, 1, 3, 6, 7]],
    [[1, -1]],
]
# The printed reduced degrevlex bases, one matrix a line, taken while every
# toric completion ran on the general integer-coefficient core.
TORIC_BASES_SHA256 = "6137e8e45ce21788045b3b054526097f28f2bbf21a794b02504a2f2dbccf612c"


def test_reduced_toric_bases_are_pinned():
    lines = []
    for rows in PINNED_TORIC_MATRICES:
        gb = toric_ideal(IntMatrix.from_rows(rows)).groebner()
        lines.append(f"{rows}: {', '.join(map(str, gb))}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == TORIC_BASES_SHA256


# Matrices with no positive grading, whose toric ideals come from the
# homogenized matrix [[A, 0], [1 ... 1, 1]]; their printed reduced degrevlex
# bases, taken while toric_ideal recursed into the homogenized matrix.
HOMOGENIZED_TORIC_MATRICES = [
    [[2, -3]],
    [[1, -1, 2]],
    [[1, -1, 0], [0, 1, -1]],
    [[3, -2, 1, -1]],
    [[1, 1, -1, -1], [0, 1, 2, -3]],
]
HOMOGENIZED_BASES_SHA256 = "7399c0b36faa19f28fa0e4b31884c1488657a0742d5d09252b96c5b127593468"


def test_reduced_toric_bases_through_the_homogenized_matrix_are_pinned():
    lines = []
    for rows in HOMOGENIZED_TORIC_MATRICES:
        a = IntMatrix.from_rows(rows)
        assert positive_functional(a.columns(), a.rows) is None
        lines.append(f"{rows}: {', '.join(map(str, toric_ideal(a).groebner()))}")
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == HOMOGENIZED_BASES_SHA256


def test_toric_generators_without_positive_grading_are_distinct():
    # dropping the homogenizing coordinate can send two pairs of the last
    # saturation step to one binomial; it is returned once
    gens = toric_ideal(IntMatrix.from_rows([[-3, -2, 3, -1]])).gens
    assert len(gens) == len(set(gens))
    rng = random.Random(23)
    for _ in range(60):
        rows = [[rng.randint(-3, 3) or 1 for _ in range(4)] for _ in range(rng.randint(1, 2))]
        gens = toric_ideal(IntMatrix.from_rows(rows)).gens
        assert len(gens) == len(set(gens)), rows


def test_toric_generators_without_positive_grading_are_the_reduced_basis():
    # with the homogenizing coordinate dropped, the last step's pairs are
    # completed once more, so the generators are the reduced degrevlex basis
    for rows in [[[-3, -2, 3, -1]], *HOMOGENIZED_TORIC_MATRICES]:
        ideal = toric_ideal(IntMatrix.from_rows(rows))
        assert ideal.gens == ideal.groebner(), rows
    assert len(toric_ideal(IntMatrix.from_rows([[-3, -2, 3, -1]])).gens) == 4


def test_toric_ideal_zero_column():
    with pytest.raises(ZeroColumnError):
        toric_ideal(IntMatrix.from_rows([[1, 0], [1, 0]]))


def test_lattice_basis_ideal_demo():
    gens = lattice_basis_ideal(B_DEMO).gens
    assert as_poly_set(gens) == as_poly_set(
        [
            CommPoly.make(4, {(1, 0, 1, 0): 1, (0, 2, 0, 0): -1}),
            CommPoly.make(4, {(0, 1, 0, 1): 1, (0, 0, 2, 0): -1}),
        ]
    )


def test_lattice_basis_ideal_small_cases():
    one = lattice_basis_ideal(IntMatrix.from_rows([[1], [-1]]))
    assert one.gens[0].as_dict() == {(1, 0): Fraction(1), (0, 1): Fraction(-1)}
    split = lattice_basis_ideal(IntMatrix.from_rows([[2], [-1], [-1]]))
    assert split.gens[0].as_dict() == {
        (2, 0, 0): Fraction(1),
        (0, 1, 1): Fraction(-1),
    }
    with pytest.raises(ZeroColumnError):
        lattice_basis_ideal(IntMatrix.from_rows([[1, 0], [-1, 0]]))


def test_lattice_ideal_contained_in_toric():
    toric = toric_ideal(A_DEMO)
    for g in lattice_basis_ideal(B_DEMO).gens:
        assert toric.normal_form(g).is_zero()


def test_hypergeometric_system_demo():
    spec = hypergeometric_system(A_DEMO, BETA_DEMO)
    assert spec.kind == "A_HYPERGEOMETRIC"
    assert len(spec.generators) == 5
    binomials = [g for g in spec.generators if len(g.shifts()) > 1]
    eulers = [g for g in spec.generators if g.shifts() == [(0, 0, 0, 0)]]
    assert len(binomials) == 3
    assert len(eulers) == 2


def test_generators_are_a_homogeneous():
    spec = hypergeometric_system(A_DEMO, BETA_DEMO)
    for g in spec.generators:
        degrees = set()
        for mu, nu, _ in g.terms:
            shift = tuple(m - x for m, x in zip(mu, nu))
            degrees.add(tuple(A_DEMO.mul_int_vector(shift)))
        assert len(degrees) == 1


def test_euler_generators_have_degree_zero():
    spec = horn_system(B_DEMO, BETA_DEMO, a=A_DEMO)
    eulers = spec.generators[2:]
    for g in eulers:
        assert g.shifts() == [(0, 0, 0, 0)]


def test_hypergeometric_beta_length():
    with pytest.raises(DimensionMismatchError):
        hypergeometric_system(A_DEMO, (Fraction(1),))


def test_horn_system_demo():
    spec = horn_system(B_DEMO, BETA_DEMO, a=A_DEMO)
    assert spec.kind == "HORN"
    assert len(spec.generators) == 4
    assert spec.a is A_DEMO
    assert spec.b is B_DEMO
    data = spec.to_json()
    assert data["beta"] == ["-11/6", "-5/3"]
    assert len(data["generators"]) == 4


def test_horn_system_derives_orthogonal_frame():
    spec = horn_system(B_DEMO, BETA_DEMO)
    prod = spec.a @ B_DEMO
    assert all(all(x == 0 for x in row) for row in prod.entries)
    assert spec.a.rank() == spec.a.rows == 2


def test_horn_system_rejects_unmixed():
    with pytest.raises(NotMixedError):
        horn_system(IntMatrix.from_rows([[1], [1]]), (Fraction(0),))


def test_horn_system_rejects_bad_frame():
    skew = IntMatrix.from_rows([[1, 0, 0, 0], [0, 1, 0, 0]])
    with pytest.raises(InputFormatError):
        horn_system(B_DEMO, BETA_DEMO, a=skew)


def test_block_decompositions_demo():
    decs = block_decompositions(B_DEMO)
    assert len(decs) == 2
    (d0, c0), (d1, c1) = decs
    assert d0.jbar == () and d0.q == 0 and d0.p == 0
    assert c0.verdict == TORAL
    assert d0.b_j.entries == B_DEMO.entries
    assert d1.jbar == (1, 2)
    assert d1.m.entries == ((-2, 1), (1, -2))
    assert d1.m.det() == 3
    assert c1.verdict == TORAL
    assert d1.n_block.entries == ((1, 0), (0, 1))
    assert d1.b_j.cols == 0


def test_block_shape_reconstruction():
    for dec, _ in block_decompositions(B_DEMO):
        rows = list(dec.j) + list(dec.jbar)
        cols = list(dec.m_columns) + list(dec.z_columns)
        for bi, i in enumerate(rows):
            for bj, j in enumerate(cols):
                expect = B_DEMO.entries[i][j]
                in_jbar = bi >= len(dec.j)
                in_mcols = bj < len(dec.m_columns)
                if in_jbar and in_mcols:
                    got = dec.m.entries[bi - len(dec.j)][bj]
                elif in_jbar:
                    got = 0
                elif in_mcols:
                    got = dec.n_block.entries[bi][bj]
                else:
                    got = dec.b_j.entries[bi][bj - len(dec.m_columns)]
                assert got == expect


def test_block_decompositions_signed_permutation_invariance():
    # swap the two kernel columns and negate one; jbar sets and blocks agree
    # up to signed column permutation
    twisted = IntMatrix.from_rows([[0, -1], [1, 2], [-2, -1], [1, 0]])
    base = block_decompositions(B_DEMO)
    other = block_decompositions(twisted)
    assert [d.jbar for d, _ in base] == [d.jbar for d, _ in other]
    for (d1, c1), (d2, c2) in zip(base, other):
        assert c1.verdict == c2.verdict
        cols1 = sorted(
            tuple(sorted(abs(d1.m.entries[i][j]) for i in range(d1.q)))
            for j in range(d1.p)
        )
        cols2 = sorted(
            tuple(sorted(abs(d2.m.entries[i][j]) for i in range(d2.q)))
            for j in range(d2.p)
        )
        assert cols1 == cols2


def test_no_single_row_blocks():
    for b in (B_DEMO, IntMatrix.from_rows([[1, 0], [-1, 1], [0, -1]])):
        for dec, _ in block_decompositions(b):
            assert dec.q != 1


def test_block_decompositions_need_mixed_input():
    with pytest.raises(NotMixedError):
        block_decompositions(IntMatrix.from_rows([[1], [1]]))


def test_toral_component_demo():
    decs = block_decompositions(B_DEMO)
    dec = [d for d, _ in decs if d.jbar == (1, 2)][0]
    spec = toral_component_ideal(B_DEMO, dec, BETA_DEMO, monomial_cap=4, a=A_DEMO)
    assert spec.kind == "TORAL_COMPONENT"
    names = [str(g) for g in spec.generators]
    assert "d2" in names
    assert "d3" in names
    assert len(spec.generators) == 6
    assert any("unbounded" in note for note in spec.notes)


def test_toral_component_trivial_decomposition_matches_saturation():
    decs = block_decompositions(B_DEMO)
    dec = [d for d, _ in decs if d.jbar == ()][0]
    spec = toral_component_ideal(B_DEMO, dec, BETA_DEMO, monomial_cap=4, a=A_DEMO)
    # the d-only generators span the full toric ideal
    dpart = []
    for g in spec.generators:
        if all(mu == (0, 0, 0, 0) for mu, _, _ in g.terms):
            dpart.append(
                CommPoly.make(4, {nu: c for _, nu, c in g.terms})
            )
    ideal = CommIdeal.make(4, dpart)
    assert [g.terms for g in ideal.groebner()] == [
        g.terms for g in toric_ideal(A_DEMO).groebner()
    ]


def test_horn_generators_inside_components():
    horn = horn_system(B_DEMO, BETA_DEMO, a=A_DEMO)
    for dec, cls in block_decompositions(B_DEMO):
        if cls.verdict != TORAL:
            continue
        spec = toral_component_ideal(B_DEMO, dec, BETA_DEMO, monomial_cap=4, a=A_DEMO)
        gb = groebner_weyl(list(spec.generators), cap=10)
        for g in horn.generators:
            assert gb.membership(g).member is True


def test_toral_component_rejects_non_toral():
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
        toral_component_ideal(B_DEMO, fake, BETA_DEMO)


def character_is_trivial(b_j: IntMatrix) -> bool:
    """The replaced check, kept as a reference: every nonzero invariant
    factor of b_j is 1."""
    if b_j.cols == 0:
        return True
    sf = smith_form(b_j)
    return all(d == 1 for d in sf.diagonal[: sf.rank])


def test_trivial_character_is_lattice_index_one():
    rng = random.Random(5)
    seen = set()
    for _ in range(300):
        # zero rows or zero columns give a b_j with no columns
        r, c = rng.randint(0, 4), rng.randint(0, 3)
        b_j = IntMatrix.from_rows([[rng.randint(-3, 3) for _ in range(c)] for _ in range(r)])
        trivial = character_is_trivial(b_j)
        assert trivial == (lattice_index(b_j) == 1)
        seen.add((b_j.cols == 0, trivial))
    assert seen == {(True, True), (False, True), (False, False)}


def test_toral_component_rejects_torsion_character():
    b = IntMatrix.from_rows([[2], [-2]])
    dec = [d for d, _ in block_decompositions(b) if d.jbar == ()][0]
    with pytest.raises(UnsupportedCharacterError):
        toral_component_ideal(b, dec, (Fraction(1),))


def test_toral_component_warns_on_tiny_cap():
    decs = block_decompositions(B_DEMO)
    dec = [d for d, _ in decs if d.jbar == (1, 2)][0]
    with pytest.warns(RuntimeWarning, match="no unbounded"):
        toral_component_ideal(B_DEMO, dec, BETA_DEMO, monomial_cap=0, a=A_DEMO)


# ---------------------------------------------------------------------------
# Per-matrix memos, each with a call that fills it from the k-th of many
# distinct cheap matrices, one entry a call


MEMO_FILLERS = [
    (exact._span_mixedness, lambda k: exact.span_mixedness(IntMatrix.from_rows([[k], [-1]]))),
    (mgraph._survey, lambda k: mgraph.bounded_representatives(IntMatrix.from_rows([[k]]), 0)),
    (systems._toric_operators, lambda k: hypergeometric_system(IntMatrix.from_rows([[1, k]]), [0])),
]


@pytest.mark.parametrize("memo,fill", MEMO_FILLERS, ids=[m.__name__ for m, _ in MEMO_FILLERS])
def test_every_matrix_memo_is_bounded(memo, fill):
    size = memo.cache_info().maxsize
    assert size is not None
    memo.cache_clear()
    for k in range(1, size + 9):
        fill(k)
        assert memo.cache_info().currsize == min(k, size)


def test_warm_toral_component_ideal_completes_no_toric_basis(monkeypatch):
    # the toric generators of a split's columns J come from the per-matrix
    # memo, so a call at a new beta completes no binomial basis, and its
    # generators are those of a cold call
    calls = []
    binomial = groebner._binomial_buchberger
    monkeypatch.setattr(groebner, "_binomial_buchberger", lambda *args: calls.append(1) or binomial(*args))
    splits = [dec for dec, cls in block_decompositions(B_DEMO) if cls.verdict == TORAL and dec.j]

    def generators(beta):
        return [toral_component_ideal(B_DEMO, dec, beta, monomial_cap=4, a=A_DEMO).generators for dec in splits]

    systems._toric_operators.cache_clear()
    generators(BETA_DEMO)
    assert calls
    calls.clear()
    warm = generators((Fraction(1, 5), Fraction(2, 7)))
    assert calls == []
    systems._toric_operators.cache_clear()
    assert generators((Fraction(1, 5), Fraction(2, 7))) == warm
    assert calls


def test_warm_toral_component_ideal_searches_no_component(monkeypatch):
    # the unbounded monomial exponents of a split depend on its block and
    # the cap only, so they come from a bounded memo: a call at a new beta
    # runs no move-graph search, and its generators are those of a cold call
    assert systems.unbounded_monomial_exponents.cache_info().maxsize is not None
    calls = []
    component = mgraph.component
    monkeypatch.setattr(mgraph, "component", lambda *args: calls.append(1) or component(*args))
    splits = [dec for dec, cls in block_decompositions(B_DEMO) if cls.verdict == TORAL]

    def generators(beta):
        return [toral_component_ideal(B_DEMO, dec, beta, monomial_cap=4, a=A_DEMO).generators for dec in splits]

    systems.unbounded_monomial_exponents.cache_clear()
    generators(BETA_DEMO)
    assert calls
    calls.clear()
    warm = generators((Fraction(1, 5), Fraction(2, 7)))
    assert calls == []
    systems.unbounded_monomial_exponents.cache_clear()
    assert generators((Fraction(1, 5), Fraction(2, 7))) == warm
    assert calls
