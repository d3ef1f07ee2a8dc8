"""Normal-ordered arithmetic in the Weyl algebra.

Operators are finite rational combinations of x^mu d^nu with all x factors
written to the left of all d factors, held as integer numerators keyed by
(mu, nu) over one positive denominator, with no common factor: sums and
products work on the integers, with one lcm or product of denominators
and one gcd per result, and the Groebner engine packs the numerators as
they are.  A Fraction per term is built only for the terms view
(printing, JSON, callers).  The module also provides the
A-grading, Euler operators, the theta-polynomial rewriting used for
operators built from x_i d_i, the split of a move into the exponents of
its binomial (_split_move), and what the series layer reads: lattice
points packed into ints (_lattice_packing), the one owner of the integer
falling factors (_Falling), whose tables the series layer's tree fill and
its per-coordinate certificate read, and the sweep fill of a binomial
recurrence (_binomial_fill), which takes coordinate tuples, packs its own
keys and checks every edge after the fill.  The sweep serves only the
gamma series whose base is not fully generic; the move graph's polynomial
solutions are a product of factorials.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, product
from math import comb, factorial, gcd, lcm, prod
from operator import add, mul, sub
from typing import Iterable, Mapping

from .errors import DhyperError, DimensionMismatchError, InputFormatError
from .exact import IntMatrix, RatVector, json_int, parse_fraction

Expo = tuple[int, ...]


def _add(u: Expo, v: Expo) -> Expo:
    return tuple(map(add, u, v))


def _sub(u: Expo, v: Expo) -> Expo:
    return tuple(map(sub, u, v))


@dataclass(frozen=True)
class WeylOperator:
    """Element of the Weyl algebra in normal order.

    nums maps (mu, nu), the pair standing for x^mu d^nu, to a nonzero
    integer numerator over the one positive denominator den, and the gcd of
    den and every numerator is 1, so equality and hashing are structural.
    nums is never mutated.  terms is the sorted (mu, nu, Fraction) view,
    built on first request, or by make from the Fractions it was given.
    make and from_json validate; the arithmetic works on the integers and
    builds its results directly (_reduced).
    """

    nvars: int
    nums: dict[tuple[Expo, Expo], int]
    den: int = 1

    @staticmethod
    def make(nvars: int, mapping: Mapping[tuple[Expo, Expo], Fraction | int]) -> "WeylOperator":
        clean = {}
        for (mu, nu), c in mapping.items():
            if len(mu) != nvars or len(nu) != nvars:
                raise DimensionMismatchError("exponent length does not match nvars")
            if any(e < 0 for e in mu) or any(e < 0 for e in nu):
                raise InputFormatError("negative operator exponent")
            q = c if type(c) is Fraction else Fraction(c)
            if q:
                clean[(tuple(mu), tuple(nu))] = q
        # over the lcm of the denominators in lowest terms, the numerators
        # and the lcm share no prime
        d = lcm(*(q.denominator for q in clean.values()))
        op = WeylOperator(nvars, {k: q.numerator * (d // q.denominator) for k, q in clean.items()}, d)
        # the Fractions are in hand, so keeping them as the terms view costs
        # only the sort, where a view built when the operator is printed
        # costs a Fraction per term
        op.__dict__["terms"] = tuple((mu, nu, clean[(mu, nu)]) for mu, nu in sorted(clean))
        return op

    @staticmethod
    def zero(nvars: int) -> "WeylOperator":
        return WeylOperator(nvars, {})

    @staticmethod
    def one(nvars: int) -> "WeylOperator":
        z = (0,) * nvars
        return WeylOperator(nvars, {(z, z): 1})

    @staticmethod
    def monomial(nvars: int, mu: Iterable[int], nu: Iterable[int], coeff=1) -> "WeylOperator":
        return WeylOperator.make(nvars, {(tuple(mu), tuple(nu)): Fraction(coeff)})

    @staticmethod
    def x(i: int, nvars: int) -> "WeylOperator":
        mu = tuple(1 if j == i else 0 for j in range(nvars))
        return WeylOperator.monomial(nvars, mu, (0,) * nvars)

    @staticmethod
    def d(i: int, nvars: int) -> "WeylOperator":
        nu = tuple(1 if j == i else 0 for j in range(nvars))
        return WeylOperator.monomial(nvars, (0,) * nvars, nu)

    @cached_property
    def terms(self) -> tuple[tuple[Expo, Expo, Fraction], ...]:
        """The (mu, nu, coefficient) triples, sorted by (mu, nu)."""
        d = self.den
        return tuple((mu, nu, Fraction(c, d)) for (mu, nu), c in sorted(self.nums.items()))

    def __hash__(self) -> int:
        return hash((self.nvars, self.den, frozenset(self.nums.items())))

    def is_zero(self) -> bool:
        return not self.nums

    def _check(self, other: "WeylOperator") -> None:
        if self.nvars != other.nvars:
            raise DimensionMismatchError("operator variable counts differ")

    def __add__(self, other: "WeylOperator") -> "WeylOperator":
        self._check(other)
        a, b = self.den, other.den
        g = gcd(a, b)
        sa, sb = b // g, a // g
        acc = {k: c * sa for k, c in self.nums.items()}
        for k, c in other.nums.items():
            v = acc.get(k, 0) + c * sb
            if v:
                acc[k] = v
            else:
                del acc[k]
        return _reduced(self.nvars, acc, a * sa)

    def __neg__(self) -> "WeylOperator":
        return WeylOperator(self.nvars, {k: -c for k, c in self.nums.items()}, self.den)

    def __sub__(self, other: "WeylOperator") -> "WeylOperator":
        return self + (-other)

    def scale(self, q) -> "WeylOperator":
        q = Fraction(q)
        if not q:
            return WeylOperator.zero(self.nvars)
        n = q.numerator
        return _reduced(self.nvars, {k: c * n for k, c in self.nums.items()}, self.den * q.denominator)

    def __mul__(self, other: "WeylOperator") -> "WeylOperator":
        return normal_product(self, other)

    def shifts(self) -> list[Expo]:
        """Exponent shifts mu - nu contributed by each term, deduplicated."""
        return sorted({_sub(mu, nu) for mu, nu in self.nums})

    def to_json(self) -> dict:
        return {
            "nvars": self.nvars,
            "terms": [
                {"coeff": str(c), "x": list(mu), "dx": list(nu)}
                for mu, nu, c in self.terms
            ],
        }

    @staticmethod
    def from_json(obj: dict) -> "WeylOperator":
        try:
            nvars = json_int(obj["nvars"])
            mapping = {}
            for t in obj["terms"]:
                key = (tuple(map(json_int, t["x"])), tuple(map(json_int, t["dx"])))
                mapping[key] = mapping.get(key, Fraction(0)) + parse_fraction(t["coeff"])
        except (KeyError, TypeError, ValueError) as exc:
            raise InputFormatError(f"bad operator json: {exc}") from exc
        if nvars < 0:
            raise InputFormatError(f"bad operator json: nvars {nvars} is negative")
        return WeylOperator.make(nvars, mapping)

    def __str__(self) -> str:
        return _format_terms(self.terms)


def _reduced(nvars: int, nums: dict, den: int) -> WeylOperator:
    """The operator nums / den, for nonzero integer numerators and den > 0,
    with the common factor of den and the numerators divided out."""
    g = gcd(den, *nums.values())
    if g != 1:
        nums = {k: c // g for k, c in nums.items()}
        den //= g
    return WeylOperator(nvars, nums, den)


def _format_terms(terms) -> str:
    """Print (mu, nu, coeff) terms in the given order, e.g. "x1 d2^2 - 3/2 d1 + 1"."""
    out = ""
    for mu, nu, c in terms:
        body = " ".join(
            f"{sym}{j + 1}" + (f"^{e}" if e > 1 else "")
            for sym, expo in (("x", mu), ("d", nu))
            for j, e in enumerate(expo)
            if e
        )
        if not body:
            part = str(c)
        elif abs(c) == 1:
            part = body if c > 0 else f"-{body}"
        else:
            part = f"{c} {body}"
        if not out:
            out = part
        elif part.startswith("-"):
            out += " - " + part[1:]
        else:
            out += " + " + part
    return out or "0"


class _Overflow(Exception):
    """A packed product left its fields; the caller re-runs wider."""


# the most entries one half's table holds: a full table is emptied before
# its next entry, so a packing's memory stays bounded however many distinct
# monomials pass through it
_TABLE_SIZE = 2048


class Packing:
    """Monomials x^mu d^nu as one int, ordered by an integer matrix W.

    After Monagan and Pearce (packed exponent vectors), the low part holds
    the raw exponents, mu's n fields (Weyl monomials only) below nu's, each
    width bits under a zero guard bit; the high part holds the signed digits
    of W e, e the flattened exponent, the first row most significant, each
    digit too wide for anything below it to outweigh.  So int comparison is
    lex order on W e (Robbiano), a one-term product is a sum whose overflow
    sets a guard bit, and a divides b exactly when
    ((b + guard) - a) & guard == guard.  W comes as sparse rows, each the
    (column, entry) pairs of its nonzero entries.  Packings come from
    _packing().

    A monomial packs as the sum of its halves' shares, mu's and nu's (a
    commutative packing has no mu fields, so its mu adds nothing and
    unpacks as zero).  Each packing keeps one table per half, keyed both
    ways: by the half's exponent tuple, giving its share, and by the
    half's fields shifted to the bottom, giving the tuple.  So pack and
    unpack are two lookups each; a miss fills one entry, and a table holds
    at most _TABLE_SIZE entries.
    """

    def __init__(self, nvars: int, rows: tuple, weyl: bool, width: int):
        self.nvars, self.rows, self.weyl, self.width = nvars, rows, weyl, width
        n = nvars if weyl else 0
        self.shifts = tuple(j * (width + 1) for j in range(n + nvars))
        self.mask = mask = (1 << width) - 1
        self.guard = sum(1 << (s + width) for s in self.shifts)
        digit = (max((sum(abs(w) for _, w in r) for r in rows), default=0) * mask).bit_length()
        top = self.guard.bit_length() + (len(rows) - 1) * digit
        # unit j adds column j of W to the digits, from its nonzero entries
        units = [1 << s for s in self.shifts]
        for i, r in enumerate(rows):
            for j, w in r:
                units[j] += w << (top - i * digit)
        self.units = tuple(units)
        # (a >> nshift) + ones and b + ones share a set mu guard bit exactly
        # when nu of a and mu of b share a nonzero index
        self.nshift = n * (width + 1)
        self.ones = sum(mask << s for s in self.shifts[:n])
        self.mu_guard = sum(1 << (s + width) for s in self.shifts[:n])
        # the lowest digit starts at the guard's top bit, so k & fields is
        # k's raw exponent fields
        self.fields = (1 << self.guard.bit_length()) - 1
        self.mu_fields = (1 << self.nshift) - 1
        self._mus: dict = {}
        self._nus: dict = {}

    def pack(self, mu: Expo, nu: Expo) -> int:
        try:
            return self._mus[mu] + self._nus[nu]
        except KeyError:
            n = self.nvars if self.weyl else 0
            return self._share(self._mus, mu, self.units[:n]) + self._share(self._nus, nu, self.units[n:])

    def unpack(self, k: int) -> tuple[Expo, Expo]:
        k &= self.fields
        try:
            return self._mus[k & self.mu_fields], self._nus[k >> self.nshift]
        except KeyError:
            return self._half(self._mus, k & self.mu_fields), self._half(self._nus, k >> self.nshift)

    def _share(self, table: dict, e: Expo, units: tuple) -> int:
        """The share in a packed int of the half exponent e, whose fields
        have these units: read from the half's table, entered on a miss.  A
        field past mask raises _Overflow and is never entered."""
        v = table.get(e)
        if v is None:
            if max(e, default=0) > self.mask:
                raise _Overflow
            if len(table) >= _TABLE_SIZE:
                table.clear()
            v = table[e] = sum(map(mul, e, units))
        return v

    def _half(self, table: dict, v: int) -> Expo:
        """The half exponent whose fields, shifted to the bottom, are v:
        read from the half's table, entered on a miss."""
        e = table.get(v)
        if e is None:
            if len(table) >= _TABLE_SIZE:
                table.clear()
            mask = self.mask
            e = table[v] = tuple([(v >> s) & mask for s in self.shifts[: self.nvars]])
        return e

    @cached_property
    def thetas(self) -> tuple[int, ...]:
        """The packed x_j d_j, built when a product first reorders: on many
        variables the units are long ints, and most packings never need it."""
        n = self.nvars if self.weyl else 0
        return tuple(self.units[j] + self.units[n + j] for j in range(n))

    def exps(self, k: int) -> Expo:
        mask = self.mask
        return tuple([(k >> s) & mask for s in self.shifts])

    def divides(self, a: int, b: int) -> bool:
        return ((b + self.guard) - a) & self.guard == self.guard

    def lcm(self, a: int, b: int) -> int:
        return sum(map(mul, map(max, self.exps(a), self.exps(b)), self.units))

    def degree(self, k: int) -> int:
        return sum(self.exps(k))

    def wider(self) -> "Packing":
        return _packing(self.nvars, self.rows, self.weyl, 2 * self.width)


@lru_cache(maxsize=64)
def _packing(nvars: int, rows: tuple, weyl: bool, width: int) -> Packing:
    return Packing(nvars, rows, weyl, width)


def _fit(nvars: int, rows: tuple, weyl: bool, top: int) -> Packing:
    """The packing whose fields hold every exponent up to 2 top, so the
    product of two monomials with exponents up to top never overflows."""
    return _packing(nvars, rows, weyl, max(1, (2 * top).bit_length()))


def _lattice_packing(m: int, reach: int):
    """(packing, origin) for points in Z^m of sup norm at most reach.

    The packing has no order rows: z packs as origin + sum z_j unit_j,
    field j holding z_j + reach under a zero guard bit.  A packed offset is
    sum co_j unit_j, with no bias, so z + co packs as the sum of the two
    ints while z + co stays within reach.
    """
    pk = _packing(m, (), False, max(1, (2 * reach).bit_length()))
    return pk, reach * sum(pk.units)


def _top(exps) -> int:
    return max((max(e, default=0) for e in exps), default=0)


def normal_product(p: WeylOperator, q: WeylOperator) -> WeylOperator:
    """Product in the Weyl algebra, renormal-ordered."""
    p._check(q)
    pk = _fit(p.nvars, (), True, _top(mu + nu for mu, nu in chain(p.nums, q.nums)))
    acc: dict[int, int] = {}
    g = {pk.pack(mu, nu): c for (mu, nu), c in q.nums.items()}
    for (mu, nu), c in p.nums.items():
        _lmul(acc, c, pk.pack(mu, nu), g, pk)
    return _reduced(p.nvars, {pk.unpack(k): c for k, c in acc.items()}, p.den * q.den)


@lru_cache(maxsize=4096)
def _reorderings(pk: Packing, nu: int, mu: int) -> tuple[tuple[int, int], ...]:
    """d^nu x^mu = sum_k (nu choose k)(mu choose k) k! x^(mu-k) d^(nu-k),
    componentwise over 0 <= k <= min(nu, mu), as (packed offset k theta,
    weight) pairs; nu and mu are the low fields of packed ints."""
    n = pk.nvars
    nus, mus = pk.exps(nu)[:n], pk.exps(mu)[:n]
    out = []
    for k in product(*[range(min(a, b) + 1) for a, b in zip(nus, mus)]):
        w, off = 1, 0
        for a, b, kk, theta in zip(nus, mus, k, pk.thetas):
            if kk:
                w *= comb(a, kk) * comb(b, kk) * factorial(kk)
                off += kk * theta
        out.append((off, w))
    return tuple(out)


def _lmul(acc: dict, coeff, a: int, g: dict, pk: Packing, entered: list | None = None) -> None:
    """acc += coeff * a . g for the packed monomial a and the packed
    operator g, dropping coefficients that cancel; raises _Overflow when a
    product leaves pk's fields.

    coeff and the coefficients of g are nonzero.  When entered is a list,
    each monomial new to acc is appended to it.  Unless nu of a and mu of a
    term share a nonzero index (never so for x-free operators), the product
    is the single monomial a + t; otherwise it is the sum of its reordering
    terms, none above a + t in any field, and each is added the same way.
    """
    guard, ones, mu_guard, low = pk.guard, pk.ones, pk.mu_guard, (1 << pk.nshift) - 1
    nu = (a >> pk.nshift) + ones
    get = acc.get
    for t, c in g.items():
        k = a + t
        if k & guard:
            raise _Overflow
        if nu & (t + ones) & mu_guard:
            cc = coeff * c
            for off, w in _reorderings(pk, (a >> pk.nshift) & low, t & low):
                r = k - off
                v = get(r)
                if v is None:
                    acc[r] = cc * w
                    if entered is not None:
                        entered.append(r)
                else:
                    v += cc * w
                    if v:
                        acc[r] = v
                    else:
                        del acc[r]
            continue
        v = get(k)
        if v is None:
            acc[k] = coeff * c
            if entered is not None:
                entered.append(k)
        else:
            v += coeff * c
            if v:
                acc[k] = v
            else:
                del acc[k]


def a_degree_components(a: IntMatrix, p: WeylOperator) -> list[tuple[Expo, WeylOperator]]:
    """Split p into homogeneous pieces for the grading deg(x^mu d^nu) = A(nu - mu)."""
    if a.cols != p.nvars:
        raise DimensionMismatchError("matrix width does not match operator variables")
    buckets: dict[Expo, dict[tuple[Expo, Expo], int]] = {}
    for (mu, nu), c in p.nums.items():
        deg = a.mul_int_vector(_sub(nu, mu))
        buckets.setdefault(deg, {})[(mu, nu)] = c
    return [(deg, _reduced(p.nvars, buckets[deg], p.den)) for deg in sorted(buckets)]


@dataclass(frozen=True)
class ThetaPoly:
    """Polynomial in the commuting symbols theta_i = x_i d_i."""

    nvars: int
    terms: tuple[tuple[Expo, Fraction], ...]

    @staticmethod
    def make(nvars: int, mapping: Mapping[Expo, Fraction | int]) -> "ThetaPoly":
        clean = {tuple(e): Fraction(c) for e, c in mapping.items() if Fraction(c)}
        for e in clean:
            if len(e) != nvars:
                raise DimensionMismatchError("exponent length does not match nvars")
        return ThetaPoly(nvars, tuple((e, clean[e]) for e in sorted(clean)))

    def evaluate(self, point: Iterable[Fraction]) -> Fraction:
        pt = [Fraction(v) for v in point]
        if len(pt) != self.nvars:
            raise DimensionMismatchError("evaluation point has wrong length")
        total = Fraction(0)
        for e, c in self.terms:
            v = c
            for base, exp in zip(pt, e):
                v *= base**exp
            total += v
        return total

    def to_weyl(self) -> WeylOperator:
        """Expand back into normal order via theta_i = x_i d_i."""
        out = WeylOperator.zero(self.nvars)
        for e, c in self.terms:
            piece = WeylOperator.one(self.nvars)
            for j, exp in enumerate(e):
                unit = tuple(1 if i == j else 0 for i in range(self.nvars))
                tj = WeylOperator.monomial(self.nvars, unit, unit)
                for _ in range(exp):
                    piece = normal_product(piece, tj)
            out = out + piece.scale(c)
        return out


def _stirling1(k: int) -> tuple[int, ...]:
    """The signed Stirling numbers of the first kind s(k, i), i = 0 .. k:
    [t]_k = sum_i s(k, i) t^i, by [t]_{m+1} = [t]_m (t - m)."""
    row = (1,)
    for m in range(k):
        row = tuple(a - m * b for a, b in zip((0,) + row, row + (0,)))
    return row


def theta_form(p: WeylOperator) -> ThetaPoly:
    """Rewrite an operator whose terms all have mu = nu as a polynomial in theta.

    Uses x^mu d^mu = prod_j [theta_j]_{mu_j}, each falling factor expanded
    by _stirling1.
    """
    acc: dict[Expo, Fraction] = {}
    for mu, nu, c in p.terms:
        if mu != nu:
            raise DhyperError("not a theta operator")
        rows = [_stirling1(k) for k in mu]
        for e in product(*(range(k + 1) for k in mu)):
            acc[e] = acc.get(e, 0) + c * prod(r[i] for r, i in zip(rows, e))
    return ThetaPoly.make(p.nvars, acc)


def euler_generators(a: IntMatrix, beta: RatVector) -> list[WeylOperator]:
    """The operators E_i - beta_i with E_i = sum_j a_ij x_j d_j."""
    if len(beta) != a.rows:
        raise DimensionMismatchError("beta length does not match row count")
    n = a.cols
    zero = (0,) * n
    out = []
    for i in range(a.rows):
        mapping: dict[tuple[Expo, Expo], Fraction] = {}
        for j in range(n):
            if a.entries[i][j]:
                unit = tuple(1 if t == j else 0 for t in range(n))
                mapping[(unit, unit)] = Fraction(a.entries[i][j])
        mapping[(zero, zero)] = mapping.get((zero, zero), Fraction(0)) - beta.entries[i]
        out.append(WeylOperator.make(n, mapping))
    return out


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


def _product(rows, u: Expo) -> int:
    """D^|nu| [b + u]_nu from the rows (j, table(j, nu_j)) of a _Falling."""
    v = 1
    for j, table in rows:
        v *= table[u[j]]
    return v


def _split_move(u) -> tuple[Expo, Expo]:
    """(u+, u-), the positive and negative parts of the integer vector u:
    the exponents of the binomial d^u+ - d^u- that the move u stands for."""
    return tuple(max(x, 0) for x in u), tuple(max(-x, 0) for x in u)


def _binomial_fill(points, steps, base: tuple[Fraction, ...]):
    """Solve the binomial recurrence on points, from c = 1 at the first.

    points maps each coordinate tuple z to its ambient point, in sweep
    order.  Each step (s, pos, neg) reads the operator d^pos - d^neg along
    the edges z -> z + s between points, and asks
    c[z + s] [base + point(z + s)]_pos = c[z] [base + point(z)]_neg.
    The fill packs the coordinates (see _lattice_packing), reaching the
    largest |coordinate| plus the largest |step entry|, so a step is one
    int addition.  Sweeps over the points, in their order, fill each from
    the first known neighbour whose multiplier does not vanish, as one
    Fraction built from integer falling factors.  Once every point is
    filled, every edge is checked by an integer cross-multiplication.  The
    factors come from one _Falling over the ambient points.

    Returns (c, unfilled, failing), keyed by coordinate tuples: the first
    point no sweep reached, or None; then the first edge (z, z + s) that
    fails the recurrence, or None.
    """
    root = next(iter(points))
    reach = max(map(abs, chain.from_iterable(points)), default=0) + max(
        (abs(x) for s, _, _ in steps for x in s), default=0
    )
    pk, origin = _lattice_packing(len(root), reach)
    back = {origin + sum(map(mul, z, pk.units)): z for z in points}
    keys = list(back)
    point = {k: points[z] for k, z in back.items()}
    falling = _Falling(base, zip(*points.values()))
    d = falling.d
    # the rows give D^|nu| [base + u]_nu; along a step only the ratio
    # up / down = D^(|pos| - |neg|) of the two scalings survives (it is 1
    # when the recurrence is homogeneous)
    edges = []
    ways = []
    for step, pos, neg in steps:
        s = sum(map(mul, step, pk.units))
        k = sum(pos) - sum(neg)
        up, down = d ** max(k, 0), d ** max(-k, 0)
        pos_rows = [(j, falling.table(j, e)) for j, e in enumerate(pos) if e]
        neg_rows = [(j, falling.table(j, e)) for j, e in enumerate(neg) if e]
        edges.append((s, pos_rows, neg_rows, up, down))
        # z is reached from z - s through [.]_pos at z, or from z + s
        # through [.]_neg at z
        ways.append((-s, pos_rows, neg_rows, up, down))
        ways.append((s, neg_rows, pos_rows, down, up))
    c = {keys[0]: Fraction(1)}
    pending = keys[1:]
    progress = True
    while pending and progress:
        progress = False
        still = []
        for z in pending:
            u = point[z]
            for t, into, outof, num_pow, den_pow in ways:
                src = z + t
                if src in c:
                    mult = _product(into, u)
                    if mult:
                        prev = c[src]
                        c[z] = Fraction(
                            prev.numerator * _product(outof, point[src]) * num_pow,
                            prev.denominator * mult * den_pow,
                        )
                        progress = True
                        break
            else:
                still.append(z)
        pending = still
    coeffs = {back[z]: q for z, q in c.items()}
    if pending:
        return coeffs, back[pending[0]], None
    for z in keys:
        u = point[z]
        n0, d0 = c[z].numerator, c[z].denominator
        for s, pos_rows, neg_rows, up, down in edges:
            w = z + s
            if w in c:
                n1, d1 = c[w].numerator, c[w].denominator
                lhs = n1 * _product(pos_rows, point[w]) * d0 * down
                if lhs != n0 * _product(neg_rows, u) * d1 * up:
                    return coeffs, None, (back[z], back[w])
    return coeffs, None, None
