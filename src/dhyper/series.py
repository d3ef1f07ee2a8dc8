"""Truncated Puiseux series supported on a translate of a lattice.

A series is x^v times a finite rational combination of x^u for u in a
lattice L of Z^n.  Coefficients are trusted on a sup-norm window in
lattice-basis coordinates; operations that consume coefficients near the
window edge shrink the reliable radius instead of inventing zeros.

Coordinates z in the lattice basis (u = L z) are the internal key: the
gamma fill, the window tests and the operator action all work on them.
Ambient points u appear only at the boundary: the public coeffs dict,
JSON, and the ambient input that the PuiseuxSeries constructor validates
with one Smith-form solve per point.  The constructor is also the one
frame check, run for every series however it is built.

The gamma series of a fully generic base (every coordinate that a kernel
move touches is non-integral) is the product
prod_j Gamma(v_j + 1) / Gamma(v_j + u_j + 1), so _tree_fill builds it
along one spanning tree of the window box, one Fraction per point, and
_certify_tables proves every window edge one coordinate at a time, on
the falling-factor tables, before any point is filled.  Any other base is
swept by _binomial_fill, which steps between coordinate tuples and checks
every edge after the fill.

The operator action, d^alpha in shift among it, scatters a _Frame
(_scatter), which holds every point packed into one int (a weyl packing
with no order rows, from weyl._fit) with its coefficient scaled to an
integer over one common denominator: the series' own frame, kept with
it, or one packed in the coordinates of the refined lattice.  So a
lattice step is one int addition and a window-box test two subtractions
under a mask.  The packed ints never leave the frame: _index, the
constructors and every signature stay keyed by coordinate tuples.  Every
falling factor, in the fills, the action and shift, comes from a
_Falling, the one owner of the integer falling factors.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import chain, combinations, islice, product
from math import lcm
from operator import add, mul
from typing import Iterable, Mapping

from .errors import (
    CycleInconsistentError,
    DenominatorVanishedError,
    DimensionMismatchError,
    IncompatibleRecurrencesError,
    InputFormatError,
    InvariantError,
    LatticeCollisionError,
    ZeroFactorialError,
)
from .exact import (
    IntMatrix,
    RatVector,
    hermite_column_basis,
    is_nonresonant,
    json_int,
    kernel_basis,
    parse_fraction,
    smith_form,
    solve_rational,
)
from .mgraph import bounded_representatives, lattice_polynomial_solutions
from .systems import _as_beta, _embed, _submatrix, _toral_degree_matrix
from .weyl import Expo, WeylOperator, _add, _fit, _split_move, _sub

DERIVE = "DERIVE"
ANTIDERIVE = "ANTIDERIVE"


def _sup(t: Iterable[int]) -> int:
    return max(map(abs, t), default=0)


def _ring(m: int, r: int):
    """The points of Z^m with sup norm r, in lexicographic order."""
    if m == 0:
        yield from [()] if r == 0 else []
    elif m == 1:
        yield from [(-r,), (r,)] if r else [(0,)]
    else:
        side = range(-r, r + 1)
        for x in side:
            # on the faces x = -r and x = r the rest is free, between them
            # it lies on the ring
            rest = product(side, repeat=m - 1) if abs(x) == r else _ring(m - 1, r)
            for t in rest:
                yield (x, *t)


def lattice_coordinates(lat: IntMatrix, vec: tuple[int, ...]) -> tuple[int, ...] | None:
    """Coordinates of vec in the column lattice of lat, or None if outside."""
    if len(vec) != lat.rows:
        raise DimensionMismatchError("vector length does not match lattice ambient dimension")
    sf = smith_form(lat)
    diag = sf.diagonal
    y = sf.u.mul_int_vector(vec)
    t = [0] * lat.cols
    r = len(diag)
    for i in range(lat.rows):
        if i < r and diag[i]:
            if y[i] % diag[i]:
                return None
            t[i] = y[i] // diag[i]
        elif y[i]:
            return None
    return sf.v.mul_int_vector(tuple(t))


def _coordinate_map(lat: IntMatrix, sub: IntMatrix) -> IntMatrix:
    """The integer matrix T with sub = lat T: column j holds the coordinates
    of column j of sub in lat."""
    cols = []
    for col in sub.columns():
        z = lattice_coordinates(lat, col)
        if z is None:
            raise InvariantError(f"column {col} is outside the lattice")
        cols.append(z)
    return IntMatrix.from_rows([[z[i] for z in cols] for i in range(lat.cols)])


@dataclass(frozen=True)
class PuiseuxSeries:
    """Window-truncated series supported on base + (column lattice).

    coeffs is keyed by ambient points u.  The private _index maps the
    lattice coordinates z of each point to u (u = L z); it is what the
    series pipeline walks.  The private _frame is the packed form of the
    points that the operator action reads, built on first use (_packed).
    Neither takes part in equality or repr.
    Build series with make (ambient points, each validated by a Smith-form
    solve in the constructor) or, inside the package, _from_coords
    (coordinates, no solve).
    """

    nvars: int
    base: tuple[Fraction, ...]
    lattice: IntMatrix
    coeffs: dict[tuple[int, ...], Fraction] = field(compare=True)
    window: int = 0
    reliable: int = 0
    window_exhausted: bool = False
    _index: dict[tuple[int, ...], tuple[int, ...]] | None = field(
        default=None, compare=False, repr=False
    )
    _frame: "_Frame | None" = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        # the one frame check, run for every series; an exhausted window
        # certifies no radius, so it needs reliable == -1.  A series built
        # by make or the plain constructor also indexes its points here
        # (the one ambient check); _from_coords hands over a checked index
        if len(self.base) != self.nvars or self.lattice.rows != self.nvars:
            raise DimensionMismatchError("base exponent or lattice does not match nvars")
        if self.window < 0 or self.reliable > self.window or self.reliable < -1:
            raise InputFormatError("bad window bounds")
        if self.window_exhausted and self.reliable != -1:
            raise InputFormatError(f"an exhausted window has reliable -1, not {self.reliable}")
        if self._index is None:
            index = {self.coord(u): u for u in self.coeffs}
            if any(_sup(z) > self.window for z in index):
                raise InputFormatError("support point outside the window")
            object.__setattr__(self, "_index", index)

    @staticmethod
    def make(
        nvars: int,
        base: Iterable[Fraction],
        lattice: IntMatrix,
        coeffs: Mapping[tuple[int, ...], Fraction],
        window: int,
        reliable: int | None = None,
        window_exhausted: bool = False,
    ) -> "PuiseuxSeries":
        """Series from coefficients keyed by ambient points u, zeros dropped;
        the constructor checks the frame and that each u lies in the lattice."""
        base_t = tuple(Fraction(q) for q in base)
        if reliable is None:
            reliable = window
        clean = {tuple(int(x) for x in u): q for u, c in coeffs.items() if (q := Fraction(c))}
        return PuiseuxSeries(nvars, base_t, lattice, clean, window, reliable, window_exhausted)

    @staticmethod
    def _from_coords(
        nvars: int,
        base: Iterable[Fraction],
        lattice: IntMatrix,
        coeffs: Mapping[tuple[int, ...], Fraction],
        window: int,
        reliable: int | None = None,
        window_exhausted: bool = False,
        points: Mapping[tuple[int, ...], tuple[int, ...]] | None = None,
    ) -> "PuiseuxSeries":
        """make for coefficients keyed by lattice coordinates z.

        The ambient point L z lies in the lattice by construction, so no
        Smith-form solve is needed; each point's length and window are
        checked here, the frame in the constructor.
        A caller that already holds L z for every key passes that map as
        points, and it is read instead of recomputed.
        """
        base_t = tuple(Fraction(q) for q in base)
        if reliable is None:
            reliable = window
        clean: dict[tuple[int, ...], Fraction] = {}
        index: dict[tuple[int, ...], tuple[int, ...]] = {}
        for z, c in coeffs.items():
            q = c if type(c) is Fraction else Fraction(c)
            if not q:
                continue
            if len(z) != lattice.cols:
                raise DimensionMismatchError("coordinate length does not match lattice rank")
            if _sup(z) > window:
                raise InputFormatError("support point outside the window")
            u = _ambient(lattice, z) if points is None else points[z]
            clean[u] = q
            index[z] = u
        return PuiseuxSeries(
            nvars, base_t, lattice, clean, window, reliable, window_exhausted, index
        )

    @staticmethod
    def monomial(exponent: Iterable[Fraction], coeff=1) -> "PuiseuxSeries":
        expo = tuple(Fraction(q) for q in exponent)
        n = len(expo)
        lat = IntMatrix.from_rows([[] for _ in range(n)])
        c = Fraction(coeff)
        coeffs = {(0,) * n: c} if c else {}
        return PuiseuxSeries.make(n, expo, lat, coeffs, window=0)

    def _packed(self) -> "_Frame":
        """The series' _Frame, built on the first call and kept."""
        if self._frame is None:
            object.__setattr__(self, "_frame", _Frame(self))
        return self._frame

    def coord(self, u: tuple[int, ...]) -> tuple[int, ...]:
        co = lattice_coordinates(self.lattice, u)
        if co is None:
            raise InputFormatError("support point outside the series lattice")
        return co

    def exponent(self, u: tuple[int, ...]) -> tuple[Fraction, ...]:
        return tuple(b + x for b, x in zip(self.base, u))

    def to_json(self) -> dict:
        return {
            "v": [str(q) for q in self.base],
            "lattice": [list(r) for r in self.lattice.entries],
            "terms": [
                {"u": list(u), "coeff": str(self.coeffs[u])}
                for u in sorted(self.coeffs)
            ],
            "window": self.window,
            "reliable": self.reliable,
            "window_exhausted": self.window_exhausted,
        }

    @staticmethod
    def from_json(obj: dict) -> "PuiseuxSeries":
        try:
            base = [parse_fraction(s) for s in obj["v"]]
            lattice = IntMatrix.from_rows([[json_int(x) for x in r] for r in obj["lattice"]])
            coeffs = {
                tuple(json_int(x) for x in t["u"]): parse_fraction(t["coeff"])
                for t in obj["terms"]
            }
            window = json_int(obj["window"])
            reliable = json_int(obj["reliable"])
            exhausted = obj.get("window_exhausted", False)
            if type(exhausted) is not bool:
                raise TypeError(f"expected a boolean, got {exhausted!r}")
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFormatError(f"bad series json: {exc}") from exc
        return PuiseuxSeries.make(
            len(base), base, lattice, coeffs, window=window, reliable=reliable,
            window_exhausted=exhausted,
        )

    def __str__(self) -> str:
        terms = len(self.coeffs)
        return (
            f"PuiseuxSeries(base={[str(q) for q in self.base]}, rank={self.lattice.cols}, "
            f"terms={terms}, window={self.window}, reliable={self.reliable})"
        )


def density(f: PuiseuxSeries) -> Fraction:
    """Fraction of window lattice points with nonzero coefficient.

    A proxy for full support: 1 means every point in the window carries a
    coefficient.
    """
    m = f.lattice.cols
    total = (2 * f.window + 1) ** m
    return Fraction(len(f.coeffs), total)


# ---------------------------------------------------------------------------
# Integer falling factors


class _Falling:
    """The integer falling factors of one base exponent b.

    D is the lcm of the denominators of b, so D^k [b_j + x]_k is the integer
    prod_{t < k} (D b_j + D x - D t).  There is one table per (coordinate j,
    order k), keyed by x and made on first request for every x in values[j]
    (zip(*points) gives them for a collection of points); action reads the
    same tables and adds any other x once.  No other code computes a falling
    factor.
    """

    __slots__ = ("d", "scaled", "values", "tables")

    def __init__(self, base: tuple[Fraction, ...], values: Iterable[Iterable[int]] = ()):
        self.d = d = lcm(*(q.denominator for q in base))
        self.scaled = [q.numerator * (d // q.denominator) for q in base]
        self.values = [set(xs) for xs in values] or [()] * len(base)
        self.tables: dict[tuple[int, int], dict[int, int]] = {}

    def _factor(self, j: int, k: int, x: int) -> int:
        d = self.d
        top = self.scaled[j] + d * x
        v = 1
        for t in range(k):
            v *= top - d * t
        return v

    def table(self, j: int, k: int) -> dict[int, int]:
        """D^k [b_j + x]_k by x."""
        t = self.tables.get((j, k))
        if t is None:
            t = self.tables[(j, k)] = {x: self._factor(j, k, x) for x in self.values[j]}
        return t

    def action(self, nu: Expo, u: Expo) -> int:
        """D^|nu| [b + u]_nu."""
        v = 1
        for j, k in enumerate(nu):
            if k:
                t = self.table(j, k)
                f = t.get(u[j])
                if f is None:
                    f = t[u[j]] = self._factor(j, k, u[j])
                v *= f
        return v


# ---------------------------------------------------------------------------
# Shift isomorphisms


def shift(f: PuiseuxSeries, alpha: tuple[int, ...], direction: str) -> PuiseuxSeries:
    """Termwise d^alpha (DERIVE) or its right inverse (ANTIDERIVE).

    ANTIDERIVE produces g with d^alpha g = f; it requires the falling
    factorial [v+u+alpha]_alpha to be nonzero at every window point so the
    division is defined throughout.
    """
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != f.nvars:
        raise DimensionMismatchError("shift exponent length mismatch")
    if any(a < 0 for a in alpha):
        raise InputFormatError("shift exponent must be nonnegative")
    if direction == DERIVE:
        base_out = tuple(b - a for b, a in zip(f.base, alpha))
        # the action of d^alpha: its one shift -alpha moves no point off
        # its coordinates, and the window keeps them all
        d_alpha = WeylOperator.monomial(f.nvars, (0,) * f.nvars, alpha)
        stencil = {d_alpha.shifts()[0]: (0,) * f.lattice.cols}
        coeffs = _scatter(d_alpha, f._packed(), stencil, f.window)
    elif direction == ANTIDERIVE:
        base_out = tuple(b + a for b, a in zip(f.base, alpha))
        falling = _Falling(base_out)
        d_pow = falling.d ** sum(alpha)
        # u is integral, so [b_j + u_j]_k can vanish only for an integral b_j
        if any(a and b.denominator == 1 for a, b in zip(alpha, base_out)):
            for w in product(range(-f.window, f.window + 1), repeat=f.lattice.cols):
                u = _ambient(f.lattice, w)
                if not falling.action(alpha, u):
                    raise ZeroFactorialError(f"falling factorial vanishes at window point {u}")
        coeffs = {}
        for z, u in f._index.items():
            c = f.coeffs[u]
            coeffs[z] = Fraction(c.numerator * d_pow, c.denominator * falling.action(alpha, u))
    else:
        raise InputFormatError(f"unknown shift direction: {direction!r}")
    return PuiseuxSeries._from_coords(
        f.nvars, base_out, f.lattice, coeffs,
        window=f.window, reliable=f.reliable,
        window_exhausted=f.window_exhausted, points=f._index,
    )


def _ambient(lat: IntMatrix, w: tuple[int, ...]) -> tuple[int, ...]:
    """The ambient point L w of lattice coordinates w."""
    return tuple([sum(map(mul, row, w)) for row in lat.entries])


class _Frame:
    """A series' points packed for the operator action.

    points lists each point as (packed w, u, lam C) in _index order, with
    common = C the lcm of the coefficient denominators, so lam C is an
    integer; falling is the _Falling of the base over the support, whose
    table(j, k) holds D^k [b_j + u_j]_k for every point; w is z, or t z
    for a map t to the coordinates of a finer lattice.
    The reach is twice the largest of the window, the reliable radius, the
    stencil (the longest offset the caller adds) and the sup norm of the
    w: an offset that leaves a reliable output is no longer than the
    stencil or the reliable radius, so w + co stays inside its fields.
    """

    __slots__ = ("pk", "reach", "origin", "points", "common", "falling")

    def __init__(self, f: PuiseuxSeries, t: IntMatrix | None = None, stencil: int = 0):
        keys = list(f._index) if t is None else [t.mul_int_vector(z) for z in f._index]
        top = max(map(abs, chain.from_iterable(keys)), default=0)
        self.reach = 2 * max(f.window, f.reliable, stencil, top)
        # field j holds w_j + reach, at most 2 reach: the origin carries the
        # bias and an offset co none, so w + co packs as the sum of the two
        # ints while it stays within reach
        self.pk = _fit(f.lattice.cols if t is None else t.rows, (), False, self.reach)
        units = self.pk.units
        self.origin = origin = self.reach * sum(units)
        self.common = common = lcm(*(q.denominator for q in f.coeffs.values()))
        self.points = []
        for w, u in zip(keys, f._index.values()):
            q = f.coeffs[u]
            self.points.append(
                (origin + sum(map(mul, w, units)), u, q.numerator * (common // q.denominator))
            )
        self.falling = _Falling(f.base, zip(*f._index.values()))

    def coords(self, w: int) -> tuple[int, ...]:
        """The coordinate tuple of the packed point w."""
        reach = self.reach
        return tuple([x - reach for x in self.pk.exps(w)])


# ---------------------------------------------------------------------------
# Operator action


def apply_to_series(p: WeylOperator, f):
    """Apply an operator to a lattice-supported Puiseux series.

    The result is exact on a shrunk window: each term x^mu d^nu moves
    support by mu - nu, so output coefficients near the input window edge
    would need unknown input coefficients and are dropped from the
    reliable region rather than reported as spurious zeros.  When term
    shifts leave the series lattice the support lattice is refined first.
    """
    if p.nvars != f.nvars:
        raise DimensionMismatchError("operator and series variable counts differ")
    if p.is_zero():
        return PuiseuxSeries.make(
            f.nvars, f.base, f.lattice, {}, window=f.window, reliable=f.reliable,
            window_exhausted=f.window_exhausted,
        )

    shifts = p.shifts()
    delta0 = shifts[0]
    coords = {s: lattice_coordinates(f.lattice, _sub(s, delta0)) for s in shifts}
    if all(co is not None for co in coords.values()):
        return _apply_single_class(p, f, delta0, coords)
    return _apply_refined(p, f, delta0)


def _scatter(p: WeylOperator, frame: _Frame, coords: Mapping[Expo, Expo], radius: int):
    """The image under p of the series packed in frame, on the sup-norm
    ball of the given radius: the one value kernel of the operator action.

    coords maps each term shift mu - nu to the frame coordinates of
    mu - nu - delta0.  Terms are grouped into a stencil by that coordinate
    offset, and the walk goes over the frame's packed points: w + co is
    one int addition, and its window test compares every field with those
    of the packed corners -radius and radius by two subtractions under the
    guard mask.  Only the nonzero outputs are unpacked.

    The sums are exact in integers.  Every coefficient lam of f is taken
    as the integer lam C, C the lcm of f's coefficient denominators; every
    term weight c [base + u]_nu as an integer over E D^K (see below), its
    falling factorials read from the tables of the frame's _Falling, per
    (coordinate j, order k) keyed by u_j.  Each output is then an integer
    over C E D^K, and only the nonzero ones become a Fraction, keyed by
    coordinate tuple in the order first reached.
    """
    # term c x^mu d^nu weighs c [base + u]_nu; with K = max |nu| and E the
    # operator's denominator it is stored as the integer c E D^(K - |nu|),
    # so that the product of its factors D^k [b_j + u_j]_k is E D^K times
    # the rational weight
    d = frame.falling.d
    k_max = max(sum(nu) for _, nu in p.nums)
    e = p.den
    groups: dict[Expo, list[tuple[int, list[tuple[int, dict[int, int]]]]]] = {}
    # in term order, which fixes the order of the outputs
    for (mu, nu), c in sorted(p.nums.items()):
        scaled = c * d ** (k_max - sum(nu))
        factors = [(j, frame.falling.table(j, k)) for j, k in enumerate(nu) if k]
        groups.setdefault(coords[_sub(mu, nu)], []).append((scaled, factors))
    units, guard = frame.pk.units, frame.pk.guard
    stencil = [(sum(map(mul, co, units)), group) for co, group in groups.items()]
    # w = z + co lies in the output window exactly when no field of w - lo
    # or of hi - w borrows from its guard bit
    ones = sum(units)
    lo = frame.origin - radius * ones
    hi = (frame.origin + radius * ones) | guard
    acc: dict[int, int] = {}
    for z, u, lam in frame.points:
        for co, group in stencil:
            w = z + co
            if ((w | guard) - lo) & guard != guard or (hi - w) & guard != guard:
                continue
            # sum of the offset's term weights: lam multiplies once
            weight = 0
            for c, factors in group:
                for j, table in factors:
                    c *= table[u[j]]
                weight += c
            if weight:
                acc[w] = acc.get(w, 0) + lam * weight
    scale = frame.common * e * d**k_max
    return {frame.coords(w): Fraction(q, scale) for w, q in acc.items() if q}


def _apply_single_class(p: WeylOperator, f, delta0: Expo, coords: Mapping[Expo, Expo]):
    """All term shifts agree modulo the series lattice: the output lives on
    a translate of the same lattice, and the series' own frame (_packed),
    worked out once per series, is scattered onto it (_scatter) within the
    conservative radius f.reliable - max sup(co).

    coords maps each term shift mu - nu to the lattice coordinates of
    mu - nu - delta0.
    """
    base_out = tuple(b + s for b, s in zip(f.base, delta0))
    reliable = f.reliable - max(map(_sup, coords.values()))
    if reliable < 0:
        return PuiseuxSeries._from_coords(
            f.nvars, base_out, f.lattice, {}, window=0, reliable=-1,
            window_exhausted=True,
        )
    return PuiseuxSeries._from_coords(
        f.nvars, base_out, f.lattice, _scatter(p, f._packed(), coords, reliable),
        window=reliable, reliable=reliable,
    )


def _apply_refined(p: WeylOperator, f, delta0: Expo):
    """Term shifts fall into several classes modulo the series lattice L:
    refine to the lattice L' generated by L plus all shift differences,
    certify the output radius ring by ring (_refined_radius), and scatter
    f's points, packed at their L'-coordinates T z (L = L' T), onto it.
    The output keeps the rings' order: by sup norm, then lexicographic."""
    n = f.nvars
    gens = [f.lattice.col(j) for j in range(f.lattice.cols)]
    gens += [_sub(s, delta0) for s in p.shifts()]
    lat = hermite_column_basis(
        IntMatrix.from_rows([[g[i] for g in gens] for i in range(n)])
    )
    coords = {s: lattice_coordinates(lat, _sub(s, delta0)) for s in p.shifts()}
    stencil = max(map(_sup, coords.values()))
    frame = _Frame(f, _coordinate_map(lat, f.lattice), stencil)
    # an input with no reliable radius certifies no ring
    reliable = -1
    if f.reliable >= 0:
        reliable = _refined_radius(p, f, lat, delta0, f.window + stencil, frame.falling)
    values = _scatter(p, frame, coords, reliable) if reliable >= 0 else {}
    return PuiseuxSeries._from_coords(
        n, tuple(b + d for b, d in zip(f.base, delta0)), lat,
        {w: values[w] for w in sorted(values, key=lambda w: (_sup(w), w))},
        window=max(reliable, 0), reliable=reliable, window_exhausted=reliable < 0,
    )


def _refined_radius(p: WeylOperator, f, lat: IntMatrix, delta0: Expo, cap: int, falling) -> int:
    """One less than the first ring of lat's coordinates w holding a source
    src = lat w - (mu - nu - delta0) of some term that lies in f.lattice,
    has a nonzero factor [base + src]_nu and has coordinates beyond
    f.reliable; cap when no ring up to cap holds one.

    The coordinates are z = lattice_coordinates(f.lattice, src), the ones
    the series' radius is stated in.  With the Smith form U L V = diag(d)
    of f.lattice they are z = V t, t_k = (U src)_k / d_k, so
    D sup(z) <= P sup(src) for D the lcm of the nonzero d_k and
    P = max_i sum_{k: d_k != 0} |V_ik| |U_k|_1 D / d_k; and a point of ring
    r has sup(src) <= |lat|_inf r + omax, omax the longest offset o_t.
    Rings with P (|lat|_inf r + omax) < D (f.reliable + 1) hold no such
    source and are not visited; with P = 0 (rank 0, or every d_k zero) none
    is.
    """
    sf = smith_form(f.lattice)
    diag = sf.diagonal
    big_d = lcm(*(dk for dk in diag if dk))
    # |U_k|_1 D / d_k, and 0 where d_k is
    norms = [
        sum(map(abs, row)) * (big_d // dk) if dk else 0 for row, dk in zip(sf.u.entries, diag)
    ]
    big_p = max((sum(map(mul, map(abs, row), norms)) for row in sf.v.entries), default=0)
    if not big_p:
        return cap
    offsets = [(_sub(_sub(mu, nu), delta0), nu) for mu, nu in p.nums]
    # r0 is the first ring with P (|lat|_inf r0 + omax) >= D (f.reliable + 1)
    omax = max(_sup(o) for o, _ in offsets)
    per_ring = big_p * max(sum(map(abs, row)) for row in lat.entries)
    r0 = max(0, -((big_p * omax - big_d * (f.reliable + 1)) // per_ring))
    for r in range(r0, cap + 1):
        for w in _ring(lat.cols, r):
            u = _ambient(lat, w)
            for o, nu in offsets:
                src = _sub(u, o)
                z = lattice_coordinates(f.lattice, src)
                if z is not None and _sup(z) > f.reliable and falling.action(nu, src):
                    return r - 1
    return cap


# ---------------------------------------------------------------------------
# Annihilation checking


ZERO_ON_WINDOW = "ZERO_ON_WINDOW"
NONZERO = "NONZERO"
INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class AnnihilationVerdict:
    index: int
    status: str
    window: int
    witness_point: tuple[int, ...] | None = None
    witness_coeff: Fraction | None = None
    witness_exponent: tuple[Fraction, ...] | None = None

    def to_json(self) -> dict:
        out = {"generator": self.index, "status": self.status, "window": self.window}
        if self.witness_point is not None:
            out["witness"] = {
                "u": list(self.witness_point),
                "coeff": str(self.witness_coeff),
                "exponent": [str(q) for q in self.witness_exponent],
            }
        return out


@dataclass(frozen=True)
class AnnihilationReport:
    verdicts: tuple[AnnihilationVerdict, ...]

    @property
    def all_zero(self) -> bool:
        return all(v.status == ZERO_ON_WINDOW for v in self.verdicts)

    @property
    def any_inconclusive(self) -> bool:
        return any(v.status == INCONCLUSIVE for v in self.verdicts)

    def to_json(self) -> dict:
        return {
            "all_zero": self.all_zero,
            "verdicts": [v.to_json() for v in self.verdicts],
        }


def annihilation_check(gens, f: PuiseuxSeries) -> AnnihilationReport:
    """Apply each operator to f and report whether the image vanishes on its
    reliable window."""
    verdicts = []
    for i, g in enumerate(gens):
        image = apply_to_series(g, f)
        if image.window_exhausted or image.reliable < 0:
            verdicts.append(AnnihilationVerdict(i, INCONCLUSIVE, -1))
        elif not image.coeffs:
            verdicts.append(AnnihilationVerdict(i, ZERO_ON_WINDOW, image.reliable))
        else:
            u = min(image.coeffs)
            verdicts.append(
                AnnihilationVerdict(
                    i, NONZERO, image.reliable,
                    witness_point=u,
                    witness_coeff=image.coeffs[u],
                    witness_exponent=image.exponent(u),
                )
            )
    return AnnihilationReport(tuple(verdicts))


# ---------------------------------------------------------------------------
# Recurrence-built power series


def recurrence_series(ratios, window: int) -> PuiseuxSeries:
    """Power series on the nonnegative grid from unit-step coefficient ratios.

    ratios[i] maps a grid point k to c_{k+e_i}/c_k.  Coefficients start at
    c_0 = 1 and propagate along the first-coordinate-then-rest path; every
    unit square is then checked for path independence, by cross-multiplying
    the numerators and denominators of its four ratios, so incompatible
    ratio systems are rejected rather than silently linearized.  The
    lattice is the identity, so each grid point is its own coordinate.
    """
    m = len(ratios)
    if m == 0:
        raise InputFormatError("need at least one ratio")

    # each ratio is evaluated once: the fill and up to four unit squares
    # read it
    seen: dict[tuple[int, tuple[int, ...]], Fraction] = {}

    def step(i, k):
        r = seen.get((i, k))
        if r is None:
            try:
                r = ratios[i](k)
            except ZeroDivisionError as exc:
                raise DenominatorVanishedError(
                    f"ratio {i} undefined at grid point {k}"
                ) from exc
            r = seen[(i, k)] = Fraction(r)
        return r

    coeffs: dict[tuple[int, ...], Fraction] = {(0,) * m: Fraction(1)}
    grid = sorted(product(range(window + 1), repeat=m), key=lambda k: (sum(k), k))
    for k in grid:
        if k in coeffs:
            continue
        i = next(j for j in range(m) if k[j] > 0)
        prev = tuple(x - 1 if j == i else x for j, x in enumerate(k))
        coeffs[k] = coeffs[prev] * step(i, prev)
    for k in grid:
        for i in range(m):
            for j in range(i + 1, m):
                ki = tuple(x + 1 if t == i else x for t, x in enumerate(k))
                kj = tuple(x + 1 if t == j else x for t, x in enumerate(k))
                kij = tuple(x + 1 if t == j else x for t, x in enumerate(ki))
                if max(kij) > window:
                    continue
                r, s, t, u = step(i, k), step(j, ki), step(j, k), step(i, kj)
                if r.numerator * s.numerator * t.denominator * u.denominator != (
                    t.numerator * u.numerator * r.denominator * s.denominator
                ):
                    raise IncompatibleRecurrencesError(
                        f"unit square at {k} closes differently along the two paths"
                    )
    kept = {k: c for k, c in coeffs.items() if c}
    return PuiseuxSeries._from_coords(
        m, (Fraction(0),) * m, IntMatrix.identity(m), kept, window=window,
        reliable=window, points={k: k for k in kept},
    )


# ---------------------------------------------------------------------------
# Torus change of variables


def monomial_substitution(g: PuiseuxSeries, b: IntMatrix, vprime: RatVector) -> PuiseuxSeries:
    """Substitute s_j = x^(column j of b) and multiply by x^vprime.

    A term c s^w becomes c x^(vprime + B w); the image lattice is B times
    the source lattice, which must stay injective.  Then the coordinates of
    B u in B L are those of u in L, so the image keeps g's coordinates, and
    distinct support points stay distinct.
    """
    if b.cols != g.nvars:
        raise DimensionMismatchError("substitution matrix width must match series variables")
    if len(vprime) != b.rows:
        raise DimensionMismatchError("vprime length must match substitution matrix height")
    if any(q.denominator != 1 for q in g.base):
        raise InputFormatError("monomial substitution needs an integer base exponent")
    lat_out = b @ g.lattice
    if lat_out.cols and lat_out.rank() != lat_out.cols:
        raise LatticeCollisionError("substitution matrix is not injective on the lattice")
    shift_base = b.mul_int_vector(tuple(int(q) for q in g.base))
    base_out = tuple(q + s for q, s in zip(vprime.entries, shift_base))
    coeffs = {z: g.coeffs[u] for z, u in g._index.items()}
    points = {z: b.mul_int_vector(u) for z, u in g._index.items()}
    return PuiseuxSeries._from_coords(
        b.rows, base_out, lat_out, coeffs,
        window=g.window, reliable=g.reliable,
        window_exhausted=g.window_exhausted, points=points,
    )


# ---------------------------------------------------------------------------
# Gamma series


def gamma_series(
    a: IntMatrix,
    beta,
    v=None,
    window: int = 6,
) -> PuiseuxSeries:
    """Series solution on a translate of the integer kernel of a.

    The base exponent solves a.v = beta; coefficients obey the binomial
    recurrence lam_{u+b} [v+u+b]_{b+} = lam_u [v+u]_{b-} for kernel moves b,
    with lam = 1 at the origin, on the whole window box.  For a fully
    generic base they are built along one spanning tree, and a
    per-coordinate certificate on the falling-factor tables proves that
    every window edge holds (_tree_fill, _certify_tables); any other base
    is swept from the origin and every window edge is checked after.
    Either way path independence is a checked fact, not an assumption.

    With v omitted, candidates are tried in a deterministic order (the
    fully generic ones first; see _candidates) until one supports the
    whole window.  beta and v may be any sequences of rationals.
    """
    beta = RatVector.make(beta)
    if len(beta) != a.rows:
        raise DimensionMismatchError("beta length does not match matrix height")
    if window < 0:
        raise InputFormatError("bad window bounds")
    if not is_nonresonant(a, beta).nonresonant:
        warnings.warn("resonant parameter: series construction may fail", RuntimeWarning)
    lat = kernel_basis(a)
    if v is not None:
        v = RatVector.make(v)
        got = a.mul_vector(v)
        if got.entries != beta.entries:
            raise InputFormatError("supplied base exponent does not solve a.v = beta")
        return _gamma_fill(a, lat, tuple(v.entries), window)

    last_error = None
    for cand in _candidates(lat, tuple(solve_rational(a, beta).entries)):
        try:
            return _gamma_fill(a, lat, cand, window)
        except DenominatorVanishedError as exc:
            last_error = exc
    raise DenominatorVanishedError(
        f"no usable base exponent within the retry budget: {last_error}"
    )


def _candidates(lat: IntMatrix, v0: tuple[Fraction, ...]):
    """The base exponents gamma_series tries, lazily, in a fixed order.

    They are built in this order: v0, its shifts by the first 15 points of
    the lattice rings 1 and 2, then small non-integer kernel perturbations.
    A candidate is fully generic when every coordinate touched by some
    kernel move is non-integral: then no falling factorial can vanish and
    the window fills completely.  Those are yielded as they are built, and
    the others after them, in the same order.
    """
    m = lat.cols

    def built():
        yield v0
        for z in islice(chain(_ring(m, 1), _ring(m, 2)), 15):
            yield tuple(q + x for q, x in zip(v0, _ambient(lat, z)))
        fracs = [
            Fraction(1, 3), Fraction(2, 3), Fraction(1, 5), Fraction(2, 5),
            Fraction(1, 7), Fraction(3, 7), Fraction(1, 11), Fraction(5, 11),
        ]
        perturbations = [(q,) * m for q in fracs]
        if m == 2:
            perturbations += [(q1, q2) for q1 in fracs[:4] for q2 in fracs[:4] if q1 != q2]
        for q in perturbations:
            offset = tuple(
                sum(Fraction(row[j]) * q[j] for j in range(m)) for row in lat.entries
            )
            yield tuple(x + o for x, o in zip(v0, offset))

    later = []
    for cand in built():
        if _fully_generic(lat, cand):
            yield cand
        else:
            later.append(cand)
    yield from later


def _fully_generic(lat: IntMatrix, v: tuple[Fraction, ...]) -> bool:
    """Every coordinate that a kernel move touches has a non-integral base
    entry, so no falling factor [v_j + x]_k with x integral vanishes."""
    return all(q.denominator != 1 for q, row in zip(v, lat.entries) if any(row))


def _gamma_fill(
    a: IntMatrix, lat: IntMatrix, v: tuple[Fraction, ...], window: int
) -> PuiseuxSeries:
    """The gamma series with base v on the window box of lattice coordinates,
    where the unit step e_i carries the recurrence of kernel column i.

    A fully generic v takes the tree fill (_tree_fill), certified one
    coordinate at a time.  Any other v is swept by _binomial_fill,
    which fills each point from the first neighbour whose multiplier does
    not vanish and then checks every window edge.
    """
    if _fully_generic(lat, v):
        coeffs, index = _tree_fill(lat, v, window)
        return PuiseuxSeries(a.cols, v, lat, coeffs, window, window, False, index)
    m = lat.cols
    points = {z: _ambient(lat, z) for r in range(window + 1) for z in _ring(m, r)}
    steps = [(_embed((1,), (i,), m), *_split_move(b)) for i, b in enumerate(lat.columns())]
    lam, unfilled, failing = _binomial_fill(points, steps, v)
    if unfilled is not None:
        raise DenominatorVanishedError(
            f"window point {unfilled} unreachable through nonvanishing factorials"
        )
    if failing is not None:
        raise CycleInconsistentError(
            f"edge {failing[0]} -> {failing[1]} violates the recurrence"
        )
    return PuiseuxSeries._from_coords(
        a.cols, v, lat, lam, window=window, reliable=window, points=points
    )


def _binomial_fill(points, steps, base: tuple[Fraction, ...]):
    """Solve the binomial recurrence on points, from c = 1 at the first.

    points maps each coordinate tuple z to its ambient point, in sweep
    order.  Each step (s, pos, neg) reads the operator d^pos - d^neg along
    the edges z -> z + s between points, and asks
    c[z + s] [base + point(z + s)]_pos = c[z] [base + point(z)]_neg.
    Sweeps over the points, in their order, fill each from the first known
    neighbour whose multiplier does not vanish, as one Fraction built from
    integer falling factors.  Once every point is filled, every edge is
    checked by an integer cross-multiplication.  The factors come from one
    _Falling over the ambient points.

    Returns (c, unfilled, failing), c keyed by coordinate tuples in fill
    order: the first point no sweep reached, or None; then the first edge
    (z, z + s) that fails the recurrence, or None.
    """
    falling = _Falling(base, zip(*points.values()))
    action, d = falling.action, falling.d
    # action gives D^|nu| [base + u]_nu; along a step only the ratio
    # up / down = D^(|pos| - |neg|) of the two scalings survives (it is 1
    # when the recurrence is homogeneous)
    edges, ways = [], []
    for s, pos, neg in steps:
        k = sum(pos) - sum(neg)
        up, down = d ** max(k, 0), d ** max(-k, 0)
        edges.append((s, pos, neg, up, down))
        # z is reached from z - s through [.]_pos at z, or from z + s
        # through [.]_neg at z
        ways.append((tuple(-x for x in s), pos, neg, up, down))
        ways.append((s, neg, pos, down, up))
    root, *pending = points
    c = {root: Fraction(1)}
    progress = True
    while pending and progress:
        progress = False
        still = []
        for z in pending:
            u = points[z]
            for t, into, outof, num_pow, den_pow in ways:
                src = _add(z, t)
                if src in c:
                    mult = action(into, u)
                    if mult:
                        prev = c[src]
                        c[z] = Fraction(
                            prev.numerator * action(outof, points[src]) * num_pow,
                            prev.denominator * mult * den_pow,
                        )
                        progress = True
                        break
            else:
                still.append(z)
        pending = still
    if pending:
        return c, pending[0], None
    for z, u in points.items():
        n0, d0 = c[z].numerator, c[z].denominator
        for s, pos, neg, up, down in edges:
            w = _add(z, s)
            if w in c:
                n1, d1 = c[w].numerator, c[w].denominator
                if n1 * action(pos, points[w]) * d0 * down != n0 * action(neg, u) * d1 * up:
                    return c, None, (z, w)
    return c, None, None


def _tree_fill(lat: IntMatrix, v: tuple[Fraction, ...], window: int):
    """(coeffs, index) of the gamma series with fully generic base v on the
    window box, both in ring order (sup norm, then lexicographic).

    The coefficient at u is prod_j Gamma(v_j + 1) / Gamma(v_j + u_j + 1),
    so a step that raises u_j by e divides it by [v_j + u_j]_e at the new
    u_j, and one that lowers u_j by e multiplies it by [v_j + u_j]_e at the
    old u_j.  Each point z != 0 takes its coefficient from one neighbour, z
    with its first nonzero coordinate moved one step toward 0: the tree
    grows axis by axis from the last, each point so far extended both ways
    along the axis, and its ambient point by adding the column.  The step
    is one Fraction of integers D^e [v_j + x]_e read from a _Falling
    whose tables hold every value x that u_j takes on the box, with the
    powers of D netted over the step.  _certify_tables proves first that
    these steps satisfy every window edge.
    """
    moves = lat.columns()
    values = []
    for row in lat.entries:
        xs = {0}
        for c in row:
            if c:
                xs = {x + c * t for x in xs for t in range(-window, window + 1)}
        values.append(xs)
    falling = _Falling(v, values)
    _certify_tables(moves, falling)
    d = falling.d
    m = lat.cols
    # (sup norm, z, u, coefficient): sorted, the tree is in ring order
    tree = [(0, (0,) * m, (0,) * lat.rows, Fraction(1))]
    for i in reversed(range(m)):
        grown = []
        for sign in (1, -1):
            step = tuple(sign * x for x in moves[i])
            raised = [(j, falling.table(j, e)) for j, e in enumerate(step) if e > 0]
            lowered = [(j, falling.table(j, -e)) for j, e in enumerate(step) if e < 0]
            up, down = d ** max(sum(step), 0), d ** max(-sum(step), 0)
            for r, z, u, q in tree:
                head, tail = z[:i], z[i + 1 :]
                # out along the axis, each point from the one before it
                for t in range(1, window + 1):
                    w = tuple(map(add, u, step))
                    num, den = up, down
                    for j, table in lowered:
                        num *= table[u[j]]
                    for j, table in raised:
                        den *= table[w[j]]
                    q = Fraction(q.numerator * num, q.denominator * den)
                    u = w
                    grown.append((max(r, t), head + (sign * t,) + tail, u, q))
        tree += grown
    tree.sort()
    coeffs, index = {}, {}
    for _, z, u, q in tree:
        coeffs[u] = q
        index[z] = u
    return coeffs, index


def _certify_tables(moves, falling: _Falling) -> None:
    """Prove that the tree fill's steps satisfy every window edge, or raise
    CycleInconsistentError.

    Along a kernel column b the coefficient is multiplied by the product
    over j of r_{b_j}(u_j), with r_a(x) = D^a / D^a [v_j + x + a]_a for
    a > 0 and D^-a [v_j + x]_-a / D^-a for a < 0, read from falling's
    tables, which hold every value x of u_j on the window box.  The cycles
    of the box are generated by its unit squares, so every window edge
    holds once no multiplier vanishes and every square holds; a square
    spanned by columns b and c does when, on every coordinate j,
    r_{b_j}(x) r_{c_j}(x + b_j) = r_{c_j}(x) r_{b_j}(x + c_j) for every x
    whose four corners x, x + b_j, x + c_j, x + b_j + c_j are values of
    u_j.  Each is an integer check on one coordinate, so the cost is
    n x values x moves^2, not points x moves.
    """
    d = falling.d
    for j, xs in enumerate(falling.values):
        # r_a as (numerator, denominator) at each x with x and x + a on the box
        ratios = {}
        for a in sorted({b[j] for b in moves if b[j]}):
            t, p = falling.table(j, abs(a)), d ** abs(a)
            ratios[a] = {x: (p, t[x + a]) if a > 0 else (t[x], p) for x in xs if x + a in xs}
            if not all(num and den for num, den in ratios[a].values()):
                raise CycleInconsistentError(
                    f"a multiplier of step {a} vanishes on coordinate {j}"
                )
        for a, c in sorted({(b[j], e[j]) for b, e in combinations(moves, 2) if b[j] and e[j]}):
            ra, rc = ratios[a], ratios[c]
            for x in sorted(xs):
                if x in ra and x in rc and x + a in rc and x + c in ra:
                    (n1, d1), (n2, d2) = ra[x], rc[x + a]
                    (n3, d3), (n4, d4) = rc[x], ra[x + c]
                    if n1 * n2 * d3 * d4 != n3 * n4 * d1 * d2:
                        raise CycleInconsistentError(
                            f"steps {a} and {c} of coordinate {j} disagree at {x}"
                        )


# ---------------------------------------------------------------------------
# Solution bases attached to a toral block decomposition


def toral_solution_basis(b, dec, beta, window: int = 8, a=None):
    """Series solutions attached to one toral block of the kernel matrix.

    For the empty block the answer is a plain lattice series.  Otherwise
    each bounded move-graph class with representative u contributes

        sum over class vertices w = u + Mv of
            c_w * x_{zrows}^w * (antiderivative of f along Nv)

    where f solves the column-restricted system with parameter shifted by
    the zrow columns at u and the c_w come from the class polynomial.  Term
    supports land in pairwise disjoint lattice cosets, so the sum is a
    single series on the joint lattice.  The move-graph survey is capped at
    max(window, 6).
    """
    a = _toral_degree_matrix(b, dec, a)
    beta = RatVector.make(_as_beta(beta, a.rows))
    if dec.q == 0:
        return [gamma_series(a, beta, window=window)]

    n = b.rows
    a_j = _submatrix(a, range(a.rows), dec.j)
    a_zbar = _submatrix(a, range(a.rows), dec.jbar)
    bc = _submatrix(b, range(b.rows), dec.m_columns)
    basis = []
    for comp in bounded_representatives(dec.m, max(window, 6)).bounded:
        u = comp.representative
        f = gamma_series(a_j, beta.sub(RatVector.make(a_zbar.mul_int_vector(u))), window=window)
        graph_coeffs = lattice_polynomial_solutions(dec.m, comp)
        lat_f = _embed(f.lattice.entries, dec.j, n, zero=(0,) * f.lattice.cols)
        t = None
        if len(comp.vertices) == 1:
            lattice = IntMatrix.from_rows(lat_f)
        else:
            joint = IntMatrix.from_rows([r + s for r, s in zip(lat_f, bc.entries)])
            lattice = hermite_column_basis(joint)
            # embed(L_f z) + B_c v = joint (z, v) = lattice T (z, v)
            t = _coordinate_map(lattice, joint)
        base = _add(_embed(f.base, dec.j, n), _embed(u, dec.jbar, n))
        coords: dict[tuple[int, ...], Fraction] = {}
        points: dict[tuple[int, ...], tuple[int, ...]] = {}
        exact = f.lattice.cols == 0 and not f.window_exhausted
        for w in comp.vertices:
            # dec.m is square and nonsingular, so the moves are unique
            v_int = lattice_coordinates(dec.m, _sub(w, u))
            if v_int is None:
                raise InvariantError(f"vertex {w} is not an integer move away from {u}")
            g = f
            up, down = _split_move(dec.n_block.mul_int_vector(v_int))
            if any(down):
                g = shift(g, down, DERIVE)
            if any(up):
                g = shift(g, up, ANTIDERIVE)
            offset = bc.mul_int_vector(v_int)
            cw = graph_coeffs[w]
            # a single vertex keeps f's coordinates
            for z, key in g._index.items():
                y = z if t is None else t.mul_int_vector(z + v_int)
                coords[y] = cw * g.coeffs[key]
                points[y] = _add(_embed(key, dec.j, n), offset)
        window_out = max([window] + [_sup(z) for z in coords])
        if exact:
            reliable = window_out
            exhausted = False
        elif len(comp.vertices) == 1:
            window_out = f.window
            reliable = f.reliable
            exhausted = f.window_exhausted
        else:
            # mixed multi-coset sum: coefficients are individually exact on
            # each coset window but no joint radius is certified
            reliable = -1
            exhausted = True
        basis.append(
            PuiseuxSeries._from_coords(
                n, base, lattice, coords,
                window=window_out, reliable=reliable,
                window_exhausted=exhausted, points=points,
            )
        )
    return basis
