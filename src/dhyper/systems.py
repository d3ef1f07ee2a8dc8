"""Builders for the hypergeometric ideals and their block decompositions.

The two differential systems share a frame: a binomial ideal in the d
variables (the full toric ideal, or the lattice ideal of a kernel basis)
plus Euler operators E - beta.  Block decompositions split the rows of a
kernel matrix B into a mixed part M and a remainder, classifying each
split as toral or Andean; toral splits produce component ideals whose
solutions the series layer assembles.  Only the Euler operators see beta:
the toric generators of H_A(beta), and those of a toral component's
columns, are memoized per matrix (_toric_operators), and a component
ideal's unbounded monomial exponents per block and cap, 16 entries each.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, lcm

from .errors import (
    DhyperError,
    DimensionMismatchError,
    InputFormatError,
    NotMixedError,
    UnsupportedCharacterError,
)
from .exact import (
    IntMatrix,
    RatVector,
    _check_no_zero_column,
    complement_matrix,
    integer_kernel,
    lattice_index,
    positive_functional,
    span_mixedness,
)
from .groebner import (
    CommIdeal, CommPoly, DegRevLex, WeightedRevLexLast, _binomial_basis, _binomial_polys,
)
from .mgraph import UNBOUNDED_CERTIFIED, _components_in_box
from .weyl import Expo, WeylOperator, _split_move, euler_generators

A_HYPERGEOMETRIC = "A_HYPERGEOMETRIC"
HORN = "HORN"
TORAL_COMPONENT = "TORAL_COMPONENT"

TORAL = "TORAL"
ANDEAN = "ANDEAN"


@dataclass(frozen=True)
class SystemSpec:
    """A named differential system with its assembled generators."""

    kind: str
    a: IntMatrix
    beta: tuple[Fraction, ...]
    generators: tuple[WeylOperator, ...]
    b: IntMatrix | None = None
    notes: tuple[str, ...] = ()

    def to_json(self) -> dict:
        data = {
            "kind": self.kind,
            "a": self.a.to_json(),
            "beta": [str(x) for x in self.beta],
            "generators": [g.to_json() for g in self.generators],
            "notes": list(self.notes),
        }
        if self.b is not None:
            data["b"] = self.b.to_json()
        return data


def lattice_basis_ideal(b: IntMatrix) -> CommIdeal:
    """One binomial d^{u+} - d^{u-} per column u of b."""
    _check_no_zero_column(b)
    n = b.rows
    return CommIdeal.make(n, [CommPoly.make(n, {p: 1, q: -1}) for p, q in map(_split_move, b.columns())])


def toric_ideal(a: IntMatrix) -> CommIdeal:
    """Prime binomial ideal of all d^u - d^v with Au = Av.

    It is the saturation of the lattice ideal of an integer kernel basis by
    the product of all variables, taken one variable at a time (Bayer and
    Stillman; Sturmfels, Groebner Bases and Convex Polytopes, ch. 12).
    When the cone of the columns is pointed, c = positive_functional(...),
    the sum of its facet normals scaled to be >= 1 on every column (ch. 4),
    makes the lattice ideal homogeneous for the weights w_j = c . a_j,
    scaled to coprime integers.
    For a homogeneous ideal, a Groebner basis in w-graded reverse lex with
    d_i last, each element divided by the largest power of d_i dividing
    it, is a Groebner basis of the saturation by d_i.  The steps stop at
    d_{n-2}: with d_0 .. d_{n-2} inverted, a kernel basis vector u with
    u_{n-1} != 0 makes a power of d_{n-1} equal to a unit modulo the
    lattice ideal, and if there is no such u, d_{n-1} appears in no
    generator; either way saturating by d_{n-1} changes nothing.  With no
    such c (for instance A = [[1, -1]]) there is no positive grading, and
    the steps run on the homogenized matrix [[A, 0], [1 ... 1, 1]] instead,
    graded by its last row, every weight 1: its kernel is
    {(u, -|u|) : u in ker A}, so setting the new variable h to 1 in its
    toric ideal gives I_A, and the generators returned are its reduced
    degrevlex basis, which the ideal carries as such (basis_order).  Each
    binomial stays the exponent pair (p, q) of d^p - d^q from the kernel to
    the returned generators.
    """
    _check_no_zero_column(a)
    n = a.cols
    kernel = integer_kernel(a).columns()
    if not kernel:
        return CommIdeal.make(n, [])
    c = positive_functional(a.columns(), a.rows)
    if c is None:
        kernel = [u + (-sum(u),) for u in kernel]
        weights = (1,) * (n + 1)
    else:
        w = [sum(ci * x for ci, x in zip(c, col)) for col in a.columns()]
        den = lcm(*(q.denominator for q in w))
        num = gcd(*(q.numerator for q in w))
        weights = tuple(int(q * den) // num for q in w)
    moves = [_split_move(u) for u in kernel]
    for i in range(len(weights) - 1):
        moves = [_divide_out(m, i) for m in _binomial_basis(len(weights), moves, WeightedRevLexLast(weights, i))]
    if c is None:
        # with the homogenizing coordinate dropped, the pairs generate I_A
        # but need not be a reduced basis of it; the one completed here is
        # the ideal's degrevlex basis, so groebner() does not complete it again
        order = DegRevLex(n)
        moves = _binomial_basis(n, [(p[:n], q[:n]) for p, q in moves], order)
        return CommIdeal.make(n, _binomial_polys(n, moves), basis_order=order)
    return CommIdeal.make(n, _binomial_polys(n, moves))


def _divide_out(move: tuple[Expo, Expo], i: int) -> tuple[Expo, Expo]:
    """The exponent pair of d^p - d^q divided by the largest power of d_i
    dividing it."""
    k = min(move[0][i], move[1][i])
    if not k:
        return move
    return tuple(e[:i] + (e[i] - k,) + e[i + 1 :] for e in move)


@lru_cache(maxsize=16)
def _toric_operators(a: IntMatrix) -> tuple[WeylOperator, ...]:
    """The reduced degrevlex basis of I_A as x-free Weyl operators, once
    per distinct a: only the Euler operators of H_A(beta) see beta."""
    return tuple(g.op for g in toric_ideal(a).groebner())


def hypergeometric_system(a: IntMatrix, beta) -> SystemSpec:
    beta = _as_beta(beta, a.rows)
    gens = [*_toric_operators(a), *euler_generators(a, RatVector.make(beta))]
    return SystemSpec(
        kind=A_HYPERGEOMETRIC,
        a=a,
        beta=beta,
        generators=tuple(gens),
        notes=("toric generators are a reduced degrevlex basis",),
    )


def _as_beta(beta, expected: int) -> tuple[Fraction, ...]:
    beta = tuple(Fraction(x) for x in beta)
    if len(beta) != expected:
        raise DimensionMismatchError(
            f"beta has {len(beta)} entries, expected {expected}"
        )
    return beta


def _dual_matrix(b: IntMatrix, a: IntMatrix | None) -> IntMatrix:
    if a is None:
        return complement_matrix(b)
    if a.cols != b.rows:
        raise DimensionMismatchError("matrix column count does not match")
    prod = a @ b
    if any(any(row) for row in prod.entries):
        raise InputFormatError("row space is not orthogonal to the kernel matrix")
    if a.rank() != a.rows:
        raise InputFormatError("degree matrix must have full row rank")
    return a


def horn_system(b: IntMatrix, beta, a: IntMatrix | None = None) -> SystemSpec:
    if not span_mixedness(b).mixed:
        raise NotMixedError("kernel matrix is not mixed")
    a = _dual_matrix(b, a)
    beta = _as_beta(beta, a.rows)
    gens = [g.op for g in lattice_basis_ideal(b).gens] + euler_generators(a, RatVector.make(beta))
    return SystemSpec(
        kind=HORN,
        a=a,
        beta=beta,
        generators=tuple(gens),
        b=b,
        notes=("one binomial per kernel column",),
    )


@dataclass(frozen=True)
class BlockDecomposition:
    """Row split of a kernel matrix against the zero pattern of its columns.

    Rows jbar (q of them) meet only the columns listed in m_columns; those
    entries form the block m.  The complementary rows and columns give the
    blocks n_block and b_j, so permuting rows to (j, jbar) and columns to
    (m_columns, z_columns) exhibits [[N, B_J], [M, 0]].
    """

    b: IntMatrix
    jbar: tuple[int, ...]
    j: tuple[int, ...]
    m: IntMatrix
    n_block: IntMatrix
    b_j: IntMatrix
    m_columns: tuple[int, ...]
    z_columns: tuple[int, ...]

    @property
    def q(self) -> int:
        return len(self.jbar)

    @property
    def p(self) -> int:
        return len(self.m_columns)

    def to_json(self) -> dict:
        return {
            "jbar": [i + 1 for i in self.jbar],
            "j": [i + 1 for i in self.j],
            "q": self.q,
            "p": self.p,
            "m": self.m.to_json(),
            "n": self.n_block.to_json(),
            "b_j": self.b_j.to_json(),
            "m_columns": [i + 1 for i in self.m_columns],
            "z_columns": [i + 1 for i in self.z_columns],
            "irreducibility": "unverified",
        }


@dataclass(frozen=True)
class ComponentClass:
    verdict: str
    justification: str

    def to_json(self) -> dict:
        return {"verdict": self.verdict, "justification": self.justification}


def _submatrix(b: IntMatrix, rows, cols) -> IntMatrix:
    if not rows:
        return IntMatrix.from_rows([])
    return IntMatrix.from_rows(
        [[b.entries[i][j] for j in cols] for i in rows]
    )


def _is_mixed_block(m: IntMatrix) -> bool:
    # columnwise sense: each column needs entries of both strict signs,
    # so zero rows qualify vacuously and a single row never does
    if m.rows == 0:
        return True
    for j in range(m.cols):
        col = [m.entries[i][j] for i in range(m.rows)]
        if not (any(x > 0 for x in col) and any(x < 0 for x in col)):
            return False
    return True


def block_decompositions(b: IntMatrix) -> list[tuple[BlockDecomposition, ComponentClass]]:
    """All row subsets jbar whose rows vanish outside a mixed block.

    For each subset, the columns meeting jbar nontrivially must form a
    mixed q x p block with q <= p; the trivial subset always qualifies.
    Results are sorted by (q, jbar).
    """
    if not span_mixedness(b).mixed:
        raise NotMixedError("kernel matrix is not mixed")
    n, mcols = b.rows, b.cols
    out = []
    for q in range(0, min(n, mcols) + 1):
        for jbar in combinations(range(n), q):
            zcols = [
                jcol
                for jcol in range(mcols)
                if all(b.entries[i][jcol] == 0 for i in jbar)
            ]
            ccols = [jcol for jcol in range(mcols) if jcol not in zcols]
            p = len(ccols)
            if q > p:
                continue
            jrows = tuple(i for i in range(n) if i not in jbar)
            block = _submatrix(b, jbar, ccols)
            if not _is_mixed_block(block):
                continue
            dec = BlockDecomposition(
                b=b,
                jbar=jbar,
                j=jrows,
                m=block,
                n_block=_submatrix(b, jrows, ccols),
                b_j=_submatrix(b, jrows, zcols),
                m_columns=tuple(ccols),
                z_columns=tuple(zcols),
            )
            if q == p and (q == 0 or block.det() != 0):
                det = 1 if q == 0 else block.det()
                cls = ComponentClass(
                    TORAL, f"block is square of size {q} with determinant {det}"
                )
            elif q == p:
                cls = ComponentClass(ANDEAN, "square block has determinant 0")
            else:
                cls = ComponentClass(ANDEAN, f"block is {q} x {p} with q < p")
            out.append((dec, cls))
    out.sort(key=lambda t: (t[0].q, t[0].jbar))
    return out


def _embed(values, at, n: int, zero=0) -> tuple:
    """The n entries that hold values at the positions at and zero elsewhere."""
    out = [zero] * n
    for i, x in zip(at, values):
        out[i] = x
    return tuple(out)


@lru_cache(maxsize=16)
def unbounded_monomial_exponents(m: IntMatrix, cap: int) -> tuple[tuple[int, ...], ...]:
    """Box points whose move-graph component is certified unbounded, once
    per distinct (m, cap): no toral component ideal's beta changes them."""
    return tuple(sorted(
        v
        for comp in _components_in_box(m, cap, 2 * cap + 2)
        if comp.verdict == UNBOUNDED_CERTIFIED
        for v in comp.vertices
        if all(x <= cap for x in v)
    ))


def _toral_degree_matrix(
    b: IntMatrix, dec: BlockDecomposition, a: IntMatrix | None
) -> IntMatrix:
    """The degree matrix of b, once dec is checked to be a toral split with
    trivial character: the cases the component constructions support."""
    if dec.q != dec.p or (dec.q > 0 and dec.m.det() == 0):
        raise DhyperError("decomposition is not toral")
    # trivial when every nonzero invariant factor of b_j, so their product, is 1
    if lattice_index(dec.b_j) != 1:
        raise UnsupportedCharacterError(
            "saturation of the column lattice is strictly larger; "
            "only the trivial character is supported"
        )
    return _dual_matrix(b, a)


def toral_component_ideal(
    b: IntMatrix,
    dec: BlockDecomposition,
    beta,
    monomial_cap: int = 6,
    a: IntMatrix | None = None,
) -> SystemSpec:
    a = _toral_degree_matrix(b, dec, a)
    beta = _as_beta(beta, a.rows)
    n = b.rows
    zero = (0,) * n
    gens = [g.op for g in lattice_basis_ideal(b).gens]

    if dec.j:
        a_j = _submatrix(a, range(a.rows), dec.j)
        gens += [
            WeylOperator.make(n, {(zero, _embed(nu, dec.j, n)): c for _, nu, c in op.terms})
            for op in _toric_operators(a_j)
        ]
    gens += [WeylOperator.monomial(n, zero, _embed((1,), (jcol,), n)) for jcol in dec.jbar]

    unbounded = unbounded_monomial_exponents(dec.m, monomial_cap)
    if dec.q > 0 and not unbounded:
        warnings.warn(
            "no unbounded component certified within the monomial cap",
            RuntimeWarning,
        )
    minimal = [
        u
        for u in unbounded
        if not any(
            v != u and all(x <= y for x, y in zip(v, u)) for v in unbounded
        )
    ]
    for u in minimal:
        op = WeylOperator.monomial(n, zero, _embed(u, dec.jbar, n))
        if op not in gens:
            gens.append(op)

    gens.extend(euler_generators(a, RatVector.make(beta)))
    jbar_note = ",".join(str(i + 1) for i in dec.jbar) or "empty"
    unbounded_note = (
        "unbounded exponents (minimal, cap {}): {}".format(
            monomial_cap, "; ".join(str(u) for u in minimal) or "none"
        )
    )
    return SystemSpec(
        kind=TORAL_COMPONENT,
        a=a,
        beta=beta,
        generators=tuple(gens),
        b=b,
        notes=(
            f"rows {jbar_note} carry the mixed block",
            unbounded_note,
            "irreducibility unverified",
        ),
    )
