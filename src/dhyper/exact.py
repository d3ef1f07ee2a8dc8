"""Exact integer and rational linear algebra.

Everything here is computed over Z or Q with no floating point anywhere:
matrices over Z, vectors over Q, Smith normal form with recorded unimodular
transforms, integer kernel and complement bases, mixedness certificates for
column spans, and facets of the cone spanned by a matrix's columns together
with their primitive support functions.

Rank, determinant, kernels (and the facet normals and extreme rays read off
one-dimensional kernels), complements, lattice indices and rational
solutions all come from one elimination per matrix, the memoized Smith
normal form; nothing here eliminates over Q.  The Hermite form gives
canonical lattice bases.  One enumeration of kernel lines of column subsets
(_one_signed_lines) answers every cone question: facets, pointedness and
the positive functional that grades toric ideals (the sum of the facet
normals), and the mixedness of a column span.  The mixedness certificate
of a matrix is memoized like its Smith form (_span_mixedness, 256
matrices, keyed by the matrix alone).
Pivoting is deterministic (smallest nonzero absolute value, then lowest
index) so the recorded transforms are reproducible run to run.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations
from math import gcd, prod
from operator import mul

from .errors import (
    DimensionMismatchError,
    InputFormatError,
    InvariantError,
    NotFullRankError,
    ZeroColumnError,
)


def parse_fraction(s) -> Fraction:
    """Parse 'p/q' or 'p' (decimal strings) into an exact rational."""
    if isinstance(s, Fraction):
        return s
    if isinstance(s, (bool, float)):
        # JSON true/false decode to bool, a subclass of int; a float is
        # already rounded, so no rational literal reaches here as one
        raise InputFormatError(f"not a rational literal: {s!r}")
    if isinstance(s, int):
        return Fraction(s)
    try:
        return Fraction(str(s))
    except (ValueError, ZeroDivisionError) as e:
        raise InputFormatError(f"not a rational literal: {s!r}") from e


def json_int(v) -> int:
    """v itself when it is a JSON integer; TypeError otherwise."""
    # JSON true/false decode to bool, a subclass of int; strings and floats
    # are not integers either
    if type(v) is not int:
        raise TypeError(f"expected an integer, got {v!r}")
    return v


def format_fraction(q: Fraction) -> str:
    return str(q)


@dataclass(frozen=True)
class IntMatrix:
    """Immutable integer matrix, row-major tuples."""

    entries: tuple[tuple[int, ...], ...]

    @classmethod
    def from_rows(cls, rows) -> "IntMatrix":
        ent = tuple(tuple(int(x) for x in r) for r in rows)
        if ent and any(len(r) != len(ent[0]) for r in ent):
            raise DimensionMismatchError("ragged rows")
        return cls(ent)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    @property
    def rows(self) -> int:
        return len(self.entries)

    @property
    def cols(self) -> int:
        return len(self.entries[0]) if self.entries else 0

    def col(self, j: int) -> tuple[int, ...]:
        return tuple(r[j] for r in self.entries)

    def columns(self) -> list[tuple[int, ...]]:
        return [self.col(j) for j in range(self.cols)]

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.entries)) if self.entries else ())

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatchError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        ot = other.transpose().entries
        return IntMatrix(
            tuple(
                tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
                for row in self.entries
            )
        )

    def __matmul__(self, other: "IntMatrix") -> "IntMatrix":
        return self.mul(other)

    def mul_vector(self, v: "RatVector") -> "RatVector":
        if self.cols != len(v.entries):
            raise DimensionMismatchError("matrix/vector size mismatch")
        return RatVector(
            tuple(sum((Fraction(a) * x for a, x in zip(row, v.entries)), Fraction(0)) for row in self.entries)
        )

    def mul_int_vector(self, v) -> tuple[int, ...]:
        if self.cols != len(v):
            raise DimensionMismatchError("matrix/vector size mismatch")
        return tuple(sum(a * x for a, x in zip(row, v)) for row in self.entries)

    def rank(self) -> int:
        return smith_form(self).rank

    def det(self) -> int:
        if self.rows != self.cols:
            raise DimensionMismatchError("determinant of a non-square matrix")
        sf = smith_form(self)
        return sf.sign * prod(sf.diagonal)

    def to_json(self) -> dict:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "entries": [[str(x) for x in r] for r in self.entries],
        }

    def __str__(self) -> str:
        return "[" + "; ".join(" ".join(str(x) for x in r) for r in self.entries) + "]"


@dataclass(frozen=True)
class RatVector:
    """Immutable vector of exact rationals."""

    entries: tuple[Fraction, ...]

    @classmethod
    def make(cls, xs) -> "RatVector":
        return cls(tuple(Fraction(x) for x in xs))

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def dot(self, other) -> Fraction:
        oe = other.entries if isinstance(other, RatVector) else tuple(other)
        if len(self.entries) != len(oe):
            raise DimensionMismatchError("dot product size mismatch")
        return sum((a * Fraction(b) for a, b in zip(self.entries, oe)), Fraction(0))

    def add(self, other: "RatVector") -> "RatVector":
        if len(self.entries) != len(other.entries):
            raise DimensionMismatchError("vector lengths differ")
        return RatVector(tuple(a + b for a, b in zip(self.entries, other.entries)))

    def sub(self, other: "RatVector") -> "RatVector":
        return self.add(other.scale(-1))

    def scale(self, c) -> "RatVector":
        c = Fraction(c)
        return RatVector(tuple(c * a for a in self.entries))

    def to_json(self) -> list[str]:
        return [str(a) for a in self.entries]

    def __str__(self) -> str:
        return "(" + ", ".join(str(a) for a in self.entries) + ")"


# ---------------------------------------------------------------------------
# Smith normal form with transforms


@dataclass(frozen=True)
class SmithForm:
    """s == u @ a @ v with u, v unimodular, and sign == det(u) det(v)."""

    s: IntMatrix
    u: IntMatrix
    v: IntMatrix
    sign: int

    @property
    def diagonal(self) -> tuple[int, ...]:
        n = min(self.s.rows, self.s.cols)
        return tuple(self.s.entries[i][i] for i in range(n))

    @property
    def rank(self) -> int:
        return sum(1 for d in self.diagonal if d != 0)


class _Workspace:
    """Mutable elimination state: m == u a v, and sign == det(u) det(v)."""

    def __init__(self, a: IntMatrix):
        self.m = [list(r) for r in a.entries]
        self.r = a.rows
        self.c = a.cols
        self.u = [[1 if i == j else 0 for j in range(self.r)] for i in range(self.r)]
        self.v = [[1 if i == j else 0 for j in range(self.c)] for i in range(self.c)]
        self.sign = 1

    # row ops act on the left: m <- E m, u <- E u
    def swap_rows(self, i, j):
        if i == j:
            return
        self.m[i], self.m[j] = self.m[j], self.m[i]
        self.u[i], self.u[j] = self.u[j], self.u[i]
        self.sign = -self.sign

    def add_row(self, i, j, k):
        """row i += k * row j"""
        if k == 0:
            return
        self.m[i] = [a + k * b for a, b in zip(self.m[i], self.m[j])]
        self.u[i] = [a + k * b for a, b in zip(self.u[i], self.u[j])]

    def negate_row(self, i):
        self.m[i] = [-a for a in self.m[i]]
        self.u[i] = [-a for a in self.u[i]]
        self.sign = -self.sign

    # column ops act on the right: m <- m E, v <- v E
    def swap_cols(self, i, j):
        if i == j:
            return
        for row in self.m:
            row[i], row[j] = row[j], row[i]
        for row in self.v:
            row[i], row[j] = row[j], row[i]
        self.sign = -self.sign

    def add_col(self, i, j, k):
        """col i += k * col j"""
        if k == 0:
            return
        for row in self.m:
            row[i] += k * row[j]
        for row in self.v:
            row[i] += k * row[j]


def _find_pivot(w: _Workspace, k: int):
    """Smallest nonzero absolute value in the trailing block, then lowest
    (row, col) index."""
    best = None
    for i in range(k, w.r):
        for j in range(k, w.c):
            x = abs(w.m[i][j])
            if x != 0 and (best is None or x < best[0]):
                best = (x, i, j)
    return best


def _diagonalize(w: _Workspace):
    k = 0
    while k < min(w.r, w.c):
        found = _find_pivot(w, k)
        if found is None:
            break
        _, pi, pj = found
        w.swap_rows(k, pi)
        w.swap_cols(k, pj)
        while True:
            for i in range(k + 1, w.r):
                if w.m[i][k]:
                    w.add_row(i, k, -(w.m[i][k] // w.m[k][k]))
            for j in range(k + 1, w.c):
                if w.m[k][j]:
                    w.add_col(j, k, -(w.m[k][j] // w.m[k][k]))
            if all(w.m[i][k] == 0 for i in range(k + 1, w.r)) and all(
                w.m[k][j] == 0 for j in range(k + 1, w.c)
            ):
                break
            found = _find_pivot(w, k)
            w.swap_rows(k, found[1])
            w.swap_cols(k, found[2])
        if w.m[k][k] < 0:
            w.negate_row(k)
        k += 1


@lru_cache(maxsize=256)
def _smith(a: IntMatrix) -> SmithForm:
    """The elimination behind smith_form, once per distinct matrix."""
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
        # fold the offending entry back into the block and re-eliminate
        w.add_row(bad, bad + 1, 1)
    return SmithForm(
        s=IntMatrix.from_rows(w.m),
        u=IntMatrix.from_rows(w.u),
        v=IntMatrix.from_rows(w.v),
        sign=w.sign,
    )


def smith_form(a: IntMatrix) -> SmithForm:
    """Smith normal form with both transforms recorded, memoized: every
    lattice question asked of one matrix reads the same immutable form."""
    return _smith(a)


# ---------------------------------------------------------------------------
# Hermite form (canonical lattice bases) and derived lattice utilities


def hermite_row_basis(m: IntMatrix) -> IntMatrix:
    """Canonical basis of the row lattice: row-style Hermite normal form with
    positive pivots, entries above each pivot reduced into [0, pivot), zero
    rows dropped."""
    work = [list(r) for r in m.entries if any(r)]
    nc = m.cols
    out: list[list[int]] = []
    for col in range(nc):
        while True:
            cand = [i for i, r in enumerate(work) if r[col] != 0]
            if len(cand) <= 1:
                break
            p = min(cand, key=lambda i: abs(work[i][col]))
            for i in cand:
                if i == p:
                    continue
                q = work[i][col] // work[p][col]
                work[i] = [a - q * b for a, b in zip(work[i], work[p])]
        cand = [i for i, r in enumerate(work) if r[col] != 0]
        if cand:
            row = work.pop(cand[0])
            if row[col] < 0:
                row = [-a for a in row]
            out.append(row)
            work = [r for r in work if any(r)]
    # reduce entries above each pivot into [0, pivot), the first pivot
    # first: a later row is zero left of its pivot, so reducing by it leaves
    # the earlier pivot columns as they are
    for i in range(len(out)):
        pcol = next(j for j in range(nc) if out[i][j] != 0)
        for k in range(i):
            q = out[k][pcol] // out[i][pcol]
            if q:
                out[k] = [a - q * b for a, b in zip(out[k], out[i])]
    return IntMatrix.from_rows(out)


def hermite_column_basis(m: IntMatrix) -> IntMatrix:
    """Canonical basis of the column lattice (columns of the result); the
    zero lattice keeps its ambient space as m.rows empty rows."""
    h = hermite_row_basis(m.transpose())
    return h.transpose() if h.rows else IntMatrix.from_rows([[] for _ in range(m.rows)])


def kernel_basis(a: IntMatrix) -> IntMatrix:
    """Z-basis of ker_Z(a) as columns of an n x (n-d) matrix.

    Requires full row rank; the basis columns are the kernel-indexed columns
    of the Smith v transform, hence a genuine lattice basis (saturated
    automatically since the kernel of an integer matrix is saturated).
    """
    k = integer_kernel(a)
    if a.cols - k.cols != a.rows:
        raise NotFullRankError("matrix is not of full row rank")
    return k


def integer_kernel(a: IntMatrix) -> IntMatrix:
    """Like kernel_basis but with no rank precondition."""
    sf = smith_form(a)
    # the trailing columns of v, an n x (n - rank) matrix
    return IntMatrix.from_rows([row[sf.rank:] for row in sf.v.entries])


def _kernel_line(rows: tuple[tuple[int, ...], ...], dim: int) -> tuple[int, ...] | None:
    """A basis vector of the kernel of the integer rows in Z^dim when that
    kernel is a line, else None.  It is a column of the unimodular Smith
    transform, so it is primitive, and unique up to sign."""
    if not rows:
        return (1,) if dim == 1 else None
    k = integer_kernel(IntMatrix(rows))
    return k.col(0) if k.cols == 1 else None


def _one_signed_lines(vectors: list[tuple[int, ...]], dim: int):
    """(x, values) for each (dim-1)-subset of the vectors in Z^dim, in
    combinations order, whose kernel is a line x (see _kernel_line) with
    values = (x . v for every vector v) all >= 0 or all <= 0: the
    candidate extreme rays and facet normals of a cone."""
    for subset in combinations(vectors, dim - 1):
        x = _kernel_line(subset, dim)
        if x is None:
            continue
        values = tuple(sum(map(mul, x, v)) for v in vectors)
        if any(t > 0 for t in values) and any(t < 0 for t in values):
            continue
        yield x, values


def lattice_index(a: IntMatrix) -> int:
    """Index of the column lattice of a inside its saturation.

    Equals the product of the nonzero invariant factors.
    """
    return prod(d for d in smith_form(a).diagonal if d)


def solve_rational(a: IntMatrix, beta: RatVector) -> RatVector:
    """One exact rational solution v of a v = beta.

    Requires a of full row rank, so the system is always consistent; the
    solution picked is the Smith-form particular solution and is
    deterministic for a given input.
    """
    if len(beta) != a.rows:
        raise DimensionMismatchError("right-hand side length != row count")
    sf = smith_form(a)
    if sf.rank != a.rows:
        raise NotFullRankError("matrix is not of full row rank")
    ub = sf.u.mul_vector(beta)
    y = [Fraction(0)] * a.cols
    for i in range(sf.rank):
        y[i] = ub.entries[i] / sf.s.entries[i][i]
    return sf.v.mul_vector(RatVector(tuple(y)))


def complement_matrix(b: IntMatrix) -> IntMatrix:
    """A (n-m) x n integer matrix a with a b = 0 whose rows are a Z-basis of
    the saturated lattice {y : y^T b = 0}.

    Requires b of full column rank with a nontrivial complement; the row
    lattice is automatically saturated.
    """
    n, m = b.rows, b.cols
    if b.rank() != m:
        raise NotFullRankError("matrix is not of full column rank")
    if n == m:
        raise NotFullRankError("kernel complement is trivial")
    return kernel_basis(b.transpose()).transpose()


def _oriented_sum(lines, dim: int, count: int) -> tuple[list[int], int]:
    """(w, low): the sum w of the lines from _one_signed_lines, each
    oriented to be >= 0 on the count vectors, and its smallest value low on
    one.  For vectors spanning Q^dim the lines are their cone's facet
    normals, so low > 0 exactly when the cone is pointed (Ziegler, Lectures
    on Polytopes, 1995, ch. 1)."""
    w = [0] * dim
    totals = [0] * count
    for x, values in lines:
        s = 1 if max(values) > 0 else -1
        w = [a + s * b for a, b in zip(w, x)]
        totals = [a + s * b for a, b in zip(totals, values)]
    return w, min(totals)


def positive_functional(columns: list[tuple[int, ...]], dim: int):
    """w in Q^dim with w . c >= 1 for every column c, with equality on one,
    or None when the cone of the columns is not pointed and there is none.

    w is _oriented_sum's w over its low.  Columns that span less than Q^dim
    are first mapped to U_r c, U_r the first rank rows of the Smith
    transform u, which span Q^rank: y found there is U_r^T y here, with the
    same value on every column.
    """
    if not columns:
        return (Fraction(0),) * dim
    sf = smith_form(IntMatrix(tuple(zip(*columns))))
    if not sf.rank:
        return None
    if sf.rank < dim:
        u = sf.u.entries[: sf.rank]
        y = positive_functional([tuple(sum(map(mul, row, c)) for row in u) for c in columns], sf.rank)
        return None if y is None else tuple(sum(map(mul, y, col)) for col in zip(*u))
    w, low = _oriented_sum(_one_signed_lines(columns, dim), dim, len(columns))
    return tuple(Fraction(x, low) for x in w) if low > 0 else None


# ---------------------------------------------------------------------------
# Mixedness of a column span


@dataclass(frozen=True)
class MixednessCertificate:
    """Constructive verdict on whether every nonzero vector in the column
    span of b has entries of both signs.

    mixed=True carries a functional witness c with c . a > 0 componentwise
    for the complement a of b; mixed=False carries a nonzero nonnegative
    lattice vector in the column span.
    """

    mixed: bool
    functional: RatVector | None
    lattice_witness: tuple[int, ...] | None


def span_mixedness(b: IntMatrix) -> MixednessCertificate:
    """Decide mixedness of the column span of b, with a witness either way,
    once per distinct b (_span_mixedness)."""
    return _span_mixedness(b)


@lru_cache(maxsize=256)
def _span_mixedness(b: IntMatrix) -> MixednessCertificate:
    """The enumeration behind span_mixedness.

    The cone {x : b x >= 0} is pointed when b has full column rank, so it is
    nonzero exactly when it has an extreme ray, and every extreme ray is cut
    out by m-1 linearly independent rows.  Enumerating those (each row
    subset's primitive kernel line, with both signs) gives the non-mixed
    witness; otherwise the cone of the complement's columns is pointed,
    and positive_functional (the sum of its facet normals, from the same
    enumeration) is the strictly positive dual witness.
    """
    m = b.cols
    if b.rank() != m:
        raise NotFullRankError("matrix is not of full column rank")
    for _, t in _one_signed_lines(b.entries, m):
        if any(t):
            return MixednessCertificate(False, None, t if max(t) > 0 else tuple(-a for a in t))
    # no nonzero nonnegative vector in the span: find the dual witness
    a = complement_matrix(b)
    w = positive_functional(a.columns(), a.rows)
    if w is None:
        raise InvariantError("mixedness duality violated: no positive functional")
    c = RatVector(tuple(w))
    if not all(c.dot(col) > 0 for col in a.columns()):
        raise InvariantError("mixedness witness is not positive on every column")
    return MixednessCertificate(True, c, None)


# ---------------------------------------------------------------------------
# Facets of the cone spanned by the columns of A


@dataclass(frozen=True)
class ConeFacet:
    """A facet of the cone R>=0 . columns(a).

    sigma: 0-based indices of the columns lying on the facet.
    nu: the support function, normalized so nu takes the value set Z exactly
        on the lattice generated by the columns and is >= 0 on all of them.
    """

    sigma: tuple[int, ...]
    nu: RatVector

    def value(self, point) -> Fraction:
        return self.nu.dot(point)

    def to_json(self) -> dict:
        return {
            "sigma": [i + 1 for i in self.sigma],
            "nu": self.nu.to_json(),
        }


def _check_no_zero_column(a: IntMatrix) -> None:
    for j, col in enumerate(a.columns()):
        if not any(col):
            raise ZeroColumnError(f"column {j + 1} is zero")


def facets(a: IntMatrix) -> list[ConeFacet]:
    """All facets of the cone spanned by the columns of a.

    Preconditions: a has full row rank d, no zero column, and all columns lie
    in an open half-space (the cone is pointed).  The facet normals are the
    one-signed kernel lines of (d-1)-subsets of columns, and the one
    enumeration of them also decides pointedness (see _oriented_sum); each
    normal is divided by the gcd of its values on the columns, which
    generate the column lattice, so its value set there is exactly Z.
    """
    _check_no_zero_column(a)
    d = a.rows
    cols = a.columns()
    if a.rank() != d:
        raise NotFullRankError("matrix is not of full row rank")
    lines = list(_one_signed_lines(cols, d))
    if _oriented_sum(lines, d, len(cols))[1] <= 0:
        raise NotFullRankError("columns do not lie in an open half-space")
    found: dict[tuple[Fraction, ...], tuple[int, ...]] = {}
    for nu, vals in lines:
        # a has full rank, so some value is nonzero; the sign makes all >= 0
        g = gcd(*vals) if any(v > 0 for v in vals) else -gcd(*vals)
        sigma = tuple(j for j, v in enumerate(vals) if v == 0)
        found.setdefault(tuple(Fraction(q, g) for q in nu), sigma)
    out = [ConeFacet(sigma, RatVector(tuple(key))) for key, sigma in found.items()]
    out.sort(key=lambda f: (f.sigma, f.nu.entries))
    return out


# ---------------------------------------------------------------------------
# Nonresonance


@dataclass(frozen=True)
class NonresonanceVerdict:
    """Whether beta avoids integral values of every facet support function."""

    nonresonant: bool
    facet_values: tuple[tuple[ConeFacet, Fraction], ...]
    violating: ConeFacet | None

    def to_json(self) -> dict:
        return {
            "nonresonant": self.nonresonant,
            "facets": [
                {"sigma": [i + 1 for i in f.sigma], "nu": f.nu.to_json(), "value": str(v)}
                for f, v in self.facet_values
            ],
            "violating": self.violating.to_json() if self.violating else None,
        }


def is_nonresonant(a: IntMatrix, beta: RatVector) -> NonresonanceVerdict:
    """beta is nonresonant when no facet support function takes an integer
    value on it."""
    if len(beta) != a.rows:
        raise DimensionMismatchError("beta length != row count")
    fs = facets(a)
    vals = tuple((f, f.value(beta)) for f in fs)
    violating = None
    for f, v in vals:
        if v.denominator == 1:
            violating = f
            break
    return NonresonanceVerdict(violating is None, vals, violating)


def nonresonant_shift_closure(a: IntMatrix, beta: RatVector, gammas) -> bool:
    """Check that beta + a*gamma stays nonresonant for each integer gamma.

    Nonresonance is invariant under shifts by the column lattice, since the
    support functions are integral on it; this is the sampled form of that
    closure property.
    """
    for gamma in gammas:
        shifted = beta.add(RatVector.make(a.mul_int_vector(tuple(gamma))))
        if not is_nonresonant(a, shifted).nonresonant:
            return False
    return True
