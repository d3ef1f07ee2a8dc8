"""Integer/rational linear algebra layer: normal forms, kernels, mixedness,
facets, nonresonance."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations
from math import gcd, lcm

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dhyper import exact

from dhyper.errors import (
    DhyperError,
    DimensionMismatchError,
    InputFormatError,
    NotFullRankError,
    ZeroColumnError,
)
from dhyper.exact import (
    ConeFacet,
    IntMatrix,
    MixednessCertificate,
    RatVector,
    _diagonalize,
    _kernel_line,
    _Workspace,
    complement_matrix,
    facets,
    hermite_column_basis,
    integer_kernel,
    is_nonresonant,
    kernel_basis,
    lattice_index,
    nonresonant_shift_closure,
    parse_fraction,
    positive_functional,
    smith_form,
    solve_rational,
    span_mixedness,
)

A_DEMO = IntMatrix.from_rows([[3, 2, 1, 0], [0, 1, 2, 3]])
B_DEMO = IntMatrix.from_rows([[1, 0], [-2, 1], [1, -2], [0, 1]])
BETA_DEMO = RatVector.make(["-11/6", "-5/3"])


def lattices_equal(m1, m2):
    return hermite_column_basis(m1) == hermite_column_basis(m2)


def frac(s):
    return Fraction(s)


# ---------------------------------------------------------------------------
# Smith normal form


def _random_matrix(rng, r, c, lo=-5, hi=5):
    return IntMatrix.from_rows([[rng.randint(lo, hi) for _ in range(c)] for _ in range(r)])


@pytest.mark.parametrize("value", [True, False])
def test_parse_fraction_rejects_booleans(value):
    # JSON true/false decode to bool, a subclass of int
    with pytest.raises(InputFormatError, match="not a rational literal"):
        parse_fraction(value)


@pytest.mark.parametrize("value", [0.5, 0.25, 1.0, -3.0])
def test_parse_fraction_rejects_floats(value):
    # a float is already rounded; rationals come as integers or "p/q"
    with pytest.raises(InputFormatError, match="not a rational literal"):
        parse_fraction(value)


def test_smith_form_identities_random():
    rng = random.Random(7)
    for _ in range(40):
        r = rng.randint(1, 4)
        c = rng.randint(1, 5)
        a = _random_matrix(rng, r, c)
        sf = smith_form(a)
        assert sf.u @ a @ sf.v == sf.s
        assert abs(reference_det(sf.u)) == abs(reference_det(sf.v)) == 1
        diag = [d for d in sf.diagonal if d != 0]
        assert all(d > 0 for d in diag)
        for x, y in zip(diag, diag[1:]):
            assert y % x == 0
        # off-diagonal entries are zero
        for i in range(r):
            for j in range(c):
                if i != j:
                    assert sf.s.entries[i][j] == 0


def test_smith_form_deterministic():
    a = IntMatrix.from_rows([[6, 4, 2], [2, 8, 4]])
    assert smith_form(a) == smith_form(a)


def test_smith_form_known_invariants():
    # gcds of k x k minors are 2, 12, 144, so the invariant factors are 2, 6, 12
    a = IntMatrix.from_rows([[2, 4, 4], [-6, 6, 12], [10, -4, -16]])
    sf = smith_form(a)
    assert [d for d in sf.diagonal if d] == [2, 6, 12]


# ---------------------------------------------------------------------------
# Kernels, complements, solving


def test_kernel_basis_demo_lattice():
    k = kernel_basis(A_DEMO)
    assert k.rows == 4 and k.cols == 2
    # each basis column is killed by the matrix
    for j in range(k.cols):
        assert all(x == 0 for x in A_DEMO.mul_int_vector(k.col(j)))
    # generates the same lattice as the reference basis
    assert lattices_equal(k, B_DEMO)


def test_kernel_basis_is_saturated():
    rng = random.Random(11)
    for _ in range(25):
        d = rng.randint(1, 3)
        n = rng.randint(d + 1, d + 3)
        a = _random_matrix(rng, d, n)
        if a.rank() != d:
            continue
        k = kernel_basis(a)
        assert k.cols == n - d
        for j in range(k.cols):
            assert all(x == 0 for x in a.mul_int_vector(k.col(j)))
        # a Z-basis of a kernel lattice is primitive: all invariant factors 1
        if k.cols:
            assert all(d_ == 1 for d_ in smith_form(k).diagonal[: k.cols])


def test_kernel_basis_rank_check():
    with pytest.raises(NotFullRankError):
        kernel_basis(IntMatrix.from_rows([[1, 2], [2, 4]]))


def test_complement_matrix_demo():
    a = complement_matrix(B_DEMO)
    assert a.rows == 2 and a.cols == 4
    assert all(x == 0 for r in (a @ B_DEMO).entries for x in r)
    # rows span the full saturation {w : w.B = 0}: invariant factors all 1
    assert list(smith_form(a).diagonal) == [1, 1]
    # the reference matrix spans an index-3 sublattice of that saturation:
    # containment holds but equality does not
    stacked = IntMatrix.from_rows(list(a.entries) + list(A_DEMO.entries))
    assert lattices_equal(stacked.transpose(), a.transpose())
    assert not lattices_equal(a.transpose(), A_DEMO.transpose())
    assert lattice_index(A_DEMO) == 3


def test_complement_matrix_trivial_kernel():
    with pytest.raises(NotFullRankError):
        complement_matrix(IntMatrix.from_rows([[1, 0], [0, 1]]))


def test_solve_rational_demo():
    v = solve_rational(A_DEMO, BETA_DEMO)
    assert A_DEMO.mul_vector(v).entries == BETA_DEMO.entries
    # the displayed particular solution also checks out by substitution
    v_ref = RatVector.make(["-11/18", "0", "0", "-5/9"])
    assert A_DEMO.mul_vector(v_ref).entries == BETA_DEMO.entries


def test_solve_rational_random():
    rng = random.Random(3)
    for _ in range(20):
        d = rng.randint(1, 3)
        n = rng.randint(d, d + 3)
        a = _random_matrix(rng, d, n)
        if a.rank() != d:
            continue
        beta = RatVector.make([Fraction(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(d)])
        v = solve_rational(a, beta)
        assert a.mul_vector(v).entries == beta.entries


def test_lattice_index_demo():
    # the column lattice of the demo matrix has index 3 in Z^2
    assert lattice_index(A_DEMO) == 3
    assert lattice_index(B_DEMO) == 1


def test_column_lattice_membership_demo():
    # ZA = {(p, q) : p + q = 0 mod 3}
    lat = hermite_column_basis(A_DEMO)
    for p in range(-4, 5):
        for q in range(-4, 5):
            member = lattices_equal(
                hermite_column_basis(lat),
                hermite_column_basis(
                    IntMatrix.from_rows(
                        [list(r) + [x] for r, x in zip(lat.entries, (p, q))]
                    )
                ),
            )
            assert member == ((p + q) % 3 == 0)


# ---------------------------------------------------------------------------
# Mixedness


def test_span_mixedness_demo_mixed():
    cert = span_mixedness(B_DEMO)
    assert cert.mixed
    a = complement_matrix(B_DEMO)
    for col in a.columns():
        assert cert.functional.dot(col) > 0
    # the classic functional against the reference complement
    assert [RatVector.make((1, 1)).dot(col) for col in A_DEMO.columns()] == [3, 3, 3, 3]


def test_rat_vector_add_and_sub_check_lengths():
    # zip would drop the unmatched entry: (1, 2) + (5) was (6)
    u, v = RatVector.make([1, 2]), RatVector.make([5])
    for a, b in ((u, v), (v, u)):
        with pytest.raises(DimensionMismatchError):
            a.add(b)
        with pytest.raises(DimensionMismatchError):
            a.sub(b)
    assert u.add(RatVector.make([3, 4])).sub(u) == RatVector.make([3, 4])


def test_span_mixedness_not_mixed_witness():
    cert = span_mixedness(IntMatrix.from_rows([[1], [1]]))
    assert not cert.mixed
    assert cert.lattice_witness == (1, 1)


def test_span_mixedness_random_consistency():
    rng = random.Random(19)
    for _ in range(40):
        n = rng.randint(2, 5)
        m = rng.randint(1, n - 1)
        b = _random_matrix(rng, n, m, -3, 3)
        if b.rank() != m:
            continue
        cert = span_mixedness(b)
        if cert.mixed:
            a = complement_matrix(b)
            assert all(cert.functional.dot(col) > 0 for col in a.columns())
        else:
            u = cert.lattice_witness
            assert any(x > 0 for x in u) and all(x >= 0 for x in u)
            # u really lies in the column span
            aug = IntMatrix.from_rows([list(r) + [x] for r, x in zip(b.entries, u)])
            assert aug.rank() == m


# ---------------------------------------------------------------------------
# Facets: brute-force oracle over a grid of integer normals


def _fraction_gcd(values: list[Fraction]) -> Fraction:
    """The positive generator of the group the nonzero rationals generate."""
    nz = [v for v in values if v != 0]
    if not nz:
        raise ValueError("all values zero")
    den = lcm(*[v.denominator for v in nz])
    g = 0
    for v in nz:
        g = gcd(g, abs(int(v * den)))
    return Fraction(g, den)


def _facet_oracle(a: IntMatrix, box=7):
    """Independent facet enumeration: scan primitive integer normals in a
    box, keep those nonnegative on all columns whose zero set spans a
    hyperplane, then renormalize on the column lattice."""
    d = a.rows
    cols = a.columns()
    lat_cols = hermite_column_basis(a).columns()
    out = {}
    for nu_int in _grid_directions(d, box):
        vals = [sum(q * x for q, x in zip(nu_int, col)) for col in cols]
        if any(v < 0 for v in vals):
            continue
        sigma = tuple(j for j, v in enumerate(vals) if v == 0)
        zero_cols = [cols[j] for j in sigma]
        if _int_rank(zero_cols, d) != d - 1:
            continue
        nu = [Fraction(q) for q in nu_int]
        g = _fraction_gcd([sum((q * x for q, x in zip(nu, col)), Fraction(0)) for col in lat_cols])
        nu = tuple(q / g for q in nu)
        out[nu] = sigma
    return sorted((sig, nu) for nu, sig in out.items())


def _grid_directions(d, box):
    seen = set()
    def rec(prefix):
        if len(prefix) == d:
            g = 0
            for x in prefix:
                g = gcd(g, abs(x))
            if g == 0:
                return
            t = tuple(x // g for x in prefix)
            if t not in seen:
                seen.add(t)
                yield t
            return
        for x in range(-box, box + 1):
            yield from rec(prefix + [x])
    yield from rec([])


def _int_rank(vectors, d):
    if not vectors:
        return 0
    return IntMatrix.from_rows(vectors).rank()


def test_facets_demo():
    fs = facets(A_DEMO)
    got = sorted((f.sigma, f.nu.entries) for f in fs)
    assert got == [((0,), (frac(0), frac(1))), ((3,), (frac(1), frac(0)))]
    assert got == _facet_oracle(A_DEMO)


def test_facets_unimodular_2d():
    a = IntMatrix.from_rows([[1, 1], [0, 1]])
    fs = facets(a)
    got = sorted((f.sigma, f.nu.entries) for f in fs)
    assert got == [((0,), (frac(0), frac(1))), ((1,), (frac(1), frac(-1)))]
    assert got == _facet_oracle(a)


def test_facets_single_row():
    fs = facets(IntMatrix.from_rows([[1]]))
    assert len(fs) == 1
    assert fs[0].sigma == ()
    assert fs[0].nu.entries == (frac(1),)


def test_facets_normalization_respects_column_lattice():
    # both support functions of the demo cone hit 1 on lattice points
    fs = facets(A_DEMO)
    for f in fs:
        vals = [f.value(col) for col in hermite_column_basis(A_DEMO).columns()]
        assert _fraction_gcd(vals) == 1


def test_facets_random_against_oracle():
    rng = random.Random(23)
    done = 0
    while done < 8:
        a = _random_matrix(rng, 2, rng.randint(2, 4), 0, 4)
        cols = a.columns()
        if any(all(x == 0 for x in c) for c in cols):
            continue
        if a.rank() != 2 or positive_functional(cols, 2) is None:
            continue
        got = sorted((f.sigma, f.nu.entries) for f in facets(a))
        assert got == _facet_oracle(a)
        done += 1


def test_facets_zero_column_rejected():
    with pytest.raises(ZeroColumnError):
        facets(IntMatrix.from_rows([[1, 0], [1, 0]]))


def test_facets_non_pointed_rejected():
    with pytest.raises(NotFullRankError):
        facets(IntMatrix.from_rows([[1, -1], [0, 0]]))


# ---------------------------------------------------------------------------
# Nonresonance


def test_nonresonant_demo_beta():
    verdict = is_nonresonant(A_DEMO, BETA_DEMO)
    assert verdict.nonresonant
    assert verdict.violating is None
    vals = {f.sigma: v for f, v in verdict.facet_values}
    assert vals[(0,)] == frac("-5/3")
    assert vals[(3,)] == frac("-11/6")


def test_resonant_integer_beta():
    verdict = is_nonresonant(A_DEMO, RatVector.make(["1", "3"]))
    assert not verdict.nonresonant
    assert verdict.violating is not None


def test_resonance_only_needs_one_integral_value():
    # second coordinate integral, first not
    verdict = is_nonresonant(A_DEMO, RatVector.make(["1/2", "2"]))
    assert not verdict.nonresonant
    assert verdict.violating.sigma == (0,)


def test_nonresonance_closed_under_lattice_shifts():
    rng = random.Random(31)
    gammas = [[rng.randint(-3, 3) for _ in range(4)] for _ in range(12)]
    assert nonresonant_shift_closure(A_DEMO, BETA_DEMO, gammas)


def test_degenerate_beta_detected_after_shift():
    # a resonant beta stays resonant after column shifts as well
    beta = RatVector.make(["0", "0"])
    assert not is_nonresonant(A_DEMO, beta).nonresonant
    assert not nonresonant_shift_closure(A_DEMO, beta, [[0, 0, 0, 0]])


# ---------------------------------------------------------------------------
# Reference: Gauss elimination over the rationals
#
# rank, det, facets and span_mixedness once ran on the two eliminations
# below; the Smith form replaced both, and they stay here, as they were, as
# the reference it must agree with.


def rational_kernel(m: list[list[Fraction]], ncols: int) -> list[list[Fraction]]:
    """Basis of the right kernel of a rational matrix, via Gauss elimination."""
    rows = [r[:] for r in m]
    pivots: list[int] = []
    rank = 0
    col = 0
    while rank < len(rows) and col < ncols:
        piv = None
        for i in range(rank, len(rows)):
            if rows[i][col] != 0:
                piv = i
                break
        if piv is None:
            col += 1
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = 1 / rows[rank][col]
        rows[rank] = [a * inv for a in rows[rank]]
        for i in range(len(rows)):
            if i != rank and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[rank])]
        pivots.append(col)
        rank += 1
        col += 1
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for j in free:
        vec = [Fraction(0)] * ncols
        vec[j] = Fraction(1)
        for i, pc in enumerate(pivots):
            vec[pc] = -rows[i][j]
        basis.append(vec)
    return basis


def reference_rank(a: IntMatrix) -> int:
    m = [[Fraction(x) for x in r] for r in a.entries]
    return a.cols - len(rational_kernel(m, a.cols))


def reference_det(a: IntMatrix) -> Fraction:
    m = [[Fraction(x) for x in r] for r in a.entries]
    n = a.rows
    det = Fraction(1)
    for k in range(n):
        piv = None
        for i in range(k, n):
            if m[i][k] != 0:
                piv = i
                break
        if piv is None:
            return Fraction(0)
        if piv != k:
            m[k], m[piv] = m[piv], m[k]
            det = -det
        det *= m[k][k]
        inv = 1 / m[k][k]
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[k])]
    return det


def reference_primitive(v: list[Fraction]) -> tuple[int, ...]:
    den = lcm(*[x.denominator for x in v]) if v else 1
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    ints = [x // g for x in ints]
    for x in ints:
        if x != 0:
            if x < 0:
                ints = [-y for y in ints]
            break
    return tuple(ints)


def reference_span_mixedness(b: IntMatrix) -> MixednessCertificate:
    n, m = b.rows, b.cols
    if reference_rank(b) != m:
        raise NotFullRankError("matrix is not of full column rank")
    rows = [tuple(Fraction(x) for x in r) for r in b.entries]
    seen = set()
    for subset in combinations(range(n), m - 1):
        ker = rational_kernel([list(rows[i]) for i in subset], m)
        if len(ker) != 1:
            continue
        x = reference_primitive(ker[0])
        if x in seen:
            continue
        seen.add(x)
        t = b.mul_int_vector(x)
        for cand in (t, tuple(-a for a in t)):
            if all(a >= 0 for a in cand) and any(a > 0 for a in cand):
                return MixednessCertificate(False, None, cand)
    a = complement_matrix(b)
    return MixednessCertificate(True, RatVector(tuple(positive_functional(a.columns(), a.rows))), None)


def reference_facets(a: IntMatrix) -> list[ConeFacet]:
    d, n = a.rows, a.cols
    cols = a.columns()
    for j, col in enumerate(cols):
        if all(x == 0 for x in col):
            raise ZeroColumnError(f"column {j + 1} is zero")
    if reference_rank(a) != d:
        raise NotFullRankError("matrix is not of full row rank")
    if fm_positive_functional(cols, d) is None:
        raise NotFullRankError("columns do not lie in an open half-space")
    lat_cols = hermite_column_basis(a).columns()
    found: dict[tuple[Fraction, ...], tuple[int, ...]] = {}
    for subset in combinations(range(n), d - 1):
        ker = rational_kernel([[Fraction(x) for x in cols[j]] for j in subset], d)
        if len(ker) != 1:
            continue
        nu = list(ker[0])
        vals = [sum((q * x for q, x in zip(nu, col)), Fraction(0)) for col in cols]
        if any(v > 0 for v in vals) and any(v < 0 for v in vals):
            continue
        if all(v <= 0 for v in vals):
            nu = [-q for q in nu]
            vals = [-v for v in vals]
        sigma = tuple(j for j, v in enumerate(vals) if v == 0)
        lat_vals = [sum((q * x for q, x in zip(nu, col)), Fraction(0)) for col in lat_cols]
        g = _fraction_gcd(lat_vals)
        key = tuple(q / g for q in nu)
        if key not in found:
            found[key] = sigma
    out = [ConeFacet(sigma, RatVector(key)) for key, sigma in found.items()]
    out.sort(key=lambda f: (f.sigma, f.nu.entries))
    return out


def outcome(f, a):
    """f(a), or the class of the DhyperError it raises."""
    try:
        return f(a)
    except DhyperError as e:
        return type(e)


@st.composite
def small_matrices(draw, max_cols=6):
    # in one draw of two the entries are nonnegative, so that pointed cones
    # (the cases facets accepts) come up often
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, max_cols))
    entry = st.integers(0, 4) if draw(st.booleans()) else st.integers(-4, 4)
    return IntMatrix.from_rows(draw(st.lists(st.lists(entry, min_size=cols, max_size=cols), min_size=rows, max_size=rows)))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(small_matrices())
def test_smith_form_agrees_with_rational_gauss(a):
    rank = reference_rank(a)
    assert a.rank() == rank
    assert integer_kernel(a).cols == a.cols - rank
    if a.rows == a.cols:
        assert a.det() == reference_det(a)
    assert outcome(facets, a) == outcome(reference_facets, a)
    b = a.transpose()
    assert outcome(span_mixedness, b) == outcome(reference_span_mixedness, b)


# ---------------------------------------------------------------------------
# Replaced code, kept as references: the determinant's own elimination, the
# subset loops facets and span_mixedness each ran before they shared one
# cone-ray enumeration, and the Fourier-Motzkin elimination that decided
# pointedness before the sum of the facet normals did


def fourier_motzkin(ineqs: list[tuple[tuple[int, ...], int]], nvars: int):
    """Find x in Q^nvars with coeffs . x >= rhs for every inequality, or None.

    Classic elimination, fraction-free on integer inequalities, with exact
    rational back-substitution; the inequality count can square with each
    eliminated variable.
    """
    if nvars == 0:
        return () if all(rhs <= 0 for _, rhs in ineqs) else None
    pos, neg, zero = [], [], []
    k = nvars - 1
    for coeffs, rhs in ineqs:
        c = coeffs[k]
        if c > 0:
            pos.append((coeffs, rhs))
        elif c < 0:
            neg.append((coeffs, rhs))
        else:
            zero.append((coeffs[:k], rhs))
    reduced = list(zero)
    for pc, pr in pos:
        for nc, nr in neg:
            a, b = pc[k], -nc[k]
            coeffs = tuple(b * p + a * nn for p, nn in zip(pc[:k], nc[:k]))
            reduced.append((coeffs, b * pr + a * nr))
    inner = fourier_motzkin(reduced, k)
    if inner is None:
        return None
    lo = None
    hi = None
    for coeffs, rhs in pos:
        # x_k >= (rhs - sum coeffs_i x_i) / coeffs_k
        bound = (rhs - sum((c * x for c, x in zip(coeffs[:k], inner)), Fraction(0))) / coeffs[k]
        lo = bound if lo is None or bound > lo else lo
    for coeffs, rhs in neg:
        bound = (rhs - sum((c * x for c, x in zip(coeffs[:k], inner)), Fraction(0))) / coeffs[k]
        hi = bound if hi is None or bound < hi else hi
    if lo is None and hi is None:
        val = Fraction(0)
    elif lo is None:
        val = hi
    elif hi is None:
        val = lo
    else:
        val = (lo + hi) / 2
    return inner + (val,)


def fm_positive_functional(columns, dim):
    """w with w . c >= 1 for every column c, or None, by Fourier-Motzkin."""
    return fourier_motzkin([(tuple(c), 1) for c in columns], dim)


def own_elimination_det(a: IntMatrix) -> int:
    w = _Workspace(a)
    while True:
        _diagonalize(w)
        n = min(w.r, w.c)
        diag = [w.m[i][i] for i in range(n)]
        bad = None
        for i in range(n - 1):
            if diag[i] != 0 and diag[i + 1] % diag[i] != 0:
                bad = i
                break
        if bad is None:
            break
        w.add_row(bad, bad + 1, 1)
    det = w.sign
    for i in range(a.rows):
        det *= w.m[i][i]
    return det


def own_loop_span_mixedness(b: IntMatrix) -> MixednessCertificate:
    n, m = b.rows, b.cols
    if b.rank() != m:
        raise NotFullRankError("matrix is not of full column rank")
    for subset in combinations(range(n), m - 1):
        x = _kernel_line(tuple(b.entries[i] for i in subset), m)
        if x is None:
            continue
        t = b.mul_int_vector(x)
        for cand in (t, tuple(-a for a in t)):
            if all(a >= 0 for a in cand) and any(a > 0 for a in cand):
                return MixednessCertificate(False, None, cand)
    a = complement_matrix(b)
    return MixednessCertificate(True, RatVector(tuple(positive_functional(a.columns(), a.rows))), None)


def own_loop_facets(a: IntMatrix) -> list[ConeFacet]:
    d, n = a.rows, a.cols
    cols = a.columns()
    if any(not any(col) for col in cols):
        raise ZeroColumnError("zero column")
    if a.rank() != d:
        raise NotFullRankError("matrix is not of full row rank")
    if fm_positive_functional(cols, d) is None:
        raise NotFullRankError("columns do not lie in an open half-space")
    found: dict[tuple[Fraction, ...], tuple[int, ...]] = {}
    for subset in combinations(range(n), d - 1):
        nu = _kernel_line(tuple(cols[j] for j in subset), d)
        if nu is None:
            continue
        vals = [sum(q * x for q, x in zip(nu, col)) for col in cols]
        if any(v > 0 for v in vals) and any(v < 0 for v in vals):
            continue
        g = gcd(*vals) if any(v > 0 for v in vals) else -gcd(*vals)
        sigma = tuple(j for j, v in enumerate(vals) if v == 0)
        found.setdefault(tuple(Fraction(q, g) for q in nu), sigma)
    out = [ConeFacet(sigma, RatVector(tuple(key))) for key, sigma in found.items()]
    out.sort(key=lambda f: (f.sigma, f.nu.entries))
    return out


def test_det_from_the_memoized_form_matches_its_own_elimination():
    rng = random.Random(11)
    singular = 0
    for k in range(200):
        n = rng.randint(1, 4)
        a = _random_matrix(rng, n, n, -3, 3)
        if k % 4 == 0 and n > 1:
            # a repeated row
            a = IntMatrix.from_rows([*a.entries[:-1], a.entries[0]])
        sf = smith_form(a)
        assert sf.sign == reference_det(sf.u) * reference_det(sf.v)
        assert a.det() == own_elimination_det(a)
        singular += a.det() == 0
    assert singular >= 50


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_matrices())
def test_cone_ray_loops_match_their_own_subset_loops(a):
    assume(a.rank() == a.rows)
    b = a.transpose()
    assert outcome(span_mixedness, b) == outcome(own_loop_span_mixedness, b)
    assert outcome(facets, a) == outcome(own_loop_facets, a)


def assert_same_verdict_as_fourier_motzkin(columns, dim):
    w = positive_functional(columns, dim)
    assert (w is None) == (fm_positive_functional(columns, dim) is None)
    if w is not None and columns:
        # >= 1 on every column, with equality on one
        assert min(sum(q * x for q, x in zip(w, c)) for c in columns) == 1


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(small_matrices(max_cols=7))
def test_positive_functional_agrees_with_fourier_motzkin(a):
    assert_same_verdict_as_fourier_motzkin(a.columns(), a.rows)


@pytest.mark.parametrize(
    "rows",
    [
        [[1, 2, 3], [2, 4, 6]],
        [[1, 1, 1, 1], [0, 1, 3, 4], [2, 3, 5, 6]],
        [[0, 0, 0], [1, 2, 5], [0, 0, 0]],
        [[1, -1, 2], [2, -2, 4]],
        [[0, 0], [0, 0]],
    ],
)
def test_positive_functional_of_deficient_rank_keeps_the_verdict(rows):
    # columns that span less than Q^dim: pointed ones must not read as None
    a = IntMatrix.from_rows(rows)
    assert a.rank() < a.rows
    assert_same_verdict_as_fourier_motzkin(a.columns(), a.rows)


def test_positive_functional_in_dimension_zero_and_on_no_columns():
    assert positive_functional([], 0) == fm_positive_functional([], 0) == ()
    assert positive_functional([(), ()], 0) is fm_positive_functional([(), ()], 0) is None
    assert positive_functional([], 3) == fm_positive_functional([], 3) == (0, 0, 0)


def test_repeated_lattice_questions_hit_the_memoized_form():
    a = IntMatrix.from_rows([[7, 3, 5], [2, 9, 4], [6, 1, 8]])
    a.rank()
    for ask in (IntMatrix.rank, IntMatrix.det, kernel_basis, lattice_index):
        before = exact._smith.cache_info()
        ask(a)
        after = exact._smith.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)


# ---------------------------------------------------------------------------
# Hermite normal form


def assert_hermite(h: IntMatrix) -> None:
    # rows of h^T: positive pivots, strictly right of the pivots above them,
    # and every entry above a pivot in [0, pivot)
    rows = h.transpose().entries
    pivots = [next(j for j, x in enumerate(r) if x) for r in rows]
    assert pivots == sorted(set(pivots))
    for i, (p, r) in enumerate(zip(pivots, rows)):
        assert r[p] > 0
        assert all(0 <= rows[k][p] < r[p] for k in range(i))


def test_hermite_reduces_every_entry_above_a_pivot():
    # reducing by the last pivot first left -5 where the form has 4
    a = IntMatrix.from_rows([[-1, -2, 1], [-2, 1, 1], [2, -2, 1]])
    h = hermite_column_basis(a)
    assert h.entries == ((1, 0, 0), (0, 1, 0), (4, 6, 9))
    assert hermite_column_basis(h) == h
    assert lattices_equal(a, h)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(small_matrices())
def test_hermite_form_is_canonical(a):
    h = hermite_column_basis(a)
    assert_hermite(h)
    assert hermite_column_basis(h) == h
    assert lattices_equal(a, h)
