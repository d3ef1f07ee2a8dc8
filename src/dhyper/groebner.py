"""Exact Groebner engines.

Two Buchberger cores.  The general one serves left ideals in the Weyl
algebra and commutative ideals with arbitrary coefficients.  Following
Kandri-Rody and Weispfenning (algebras of solvable type), the left-ideal
algorithm is the commutative one with a different monomial
multiplication, so the core works on operators in normal order and the
commutative engine feeds it x-free operators, for which left
multiplication is a plain shift.  It skips S-pairs by Buchberger's chain
criterion (Gebauer and Moeller), which stays sound for left ideals in
algebras of solvable type.  The binomial core completes commutative
ideals generated by pure differences x^p - x^q, as every step of a toric
ideal is (Sturmfels, Groebner Bases and Convex Polytopes, ch. 4 and 12):
an element is a pair of monomials, an S-pair and a reduction step are
lattice moves, and no coefficient is ever formed.  It skips by the chain
criterion and also by the product criterion, which is sound only
commutatively (d1 and x1 have disjoint leading monomials yet their Weyl
S-pair reduces to a unit).  Both cores keep each element's lead
exponents beside it, so the lead lcm that orders a pair is packed once,
from their field-wise max, when the pair is queued, and again only when
a widening repacks the queue.  Every completion reports its pair counts
as PairStats.  Membership answers always carry cofactors that
re-multiply to the queried operator.  The general core works on integer
operators over monomials packed into one int (weyl.Packing): it packs a
WeylOperator's integer numerators as they are, divides fraction-free,
and replays each membership answer on the division's own integers before
it unpacks it into numerators over one denominator; no Fraction is built
on the way.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd, lcm
from operator import itemgetter, mul
from typing import Iterable, Mapping

from .errors import DimensionMismatchError, InputFormatError, InvariantError
from .weyl import WeylOperator, _format_terms, _lmul, _Overflow, _fit, _reduced, _top

Expo = tuple[int, ...]


# ---------------------------------------------------------------------------
# Term orders


@dataclass(frozen=True)
class MatrixOrder:
    """Lex order on W e for an integer matrix W of full column rank
    (Robbiano 1985), W given by its rows, the first compared first.  Each
    row is sparse: the (column, entry) pairs of its nonzero entries, by
    column, so an order on n variables costs what its nonzero entries do
    (2n for degrevlex), not n^2."""

    rows: tuple[tuple[tuple[int, int], ...], ...]


def _revlex(nvars: int) -> list[tuple[tuple[int, int], ...]]:
    """Rows -e_(n-1), ..., -e_0: the lower power of a later variable wins."""
    return [((j, -1),) for j in reversed(range(nvars))]


def DegRevLex(nvars: int) -> MatrixOrder:
    """Degree-reverse-lexicographic order on exponent tuples."""
    return MatrixOrder((tuple((j, 1) for j in range(nvars)), *_revlex(nvars)))


def WeightedRevLexLast(weights: Iterable[int], last: int) -> MatrixOrder:
    """Weighted degree by positive integer weights, then reverse lex with
    variable number last as the smallest variable: among monomials of equal
    weight, the one with the lower power of it is greater."""
    weights = tuple(weights)
    first = ((last, -1),)
    rest = [row for row in _revlex(len(weights)) if row != first]
    return MatrixOrder((tuple(enumerate(weights)), first, *rest))


# ---------------------------------------------------------------------------
# Commutative polynomials


@dataclass(frozen=True)
class CommPoly:
    """Sparse commutative polynomial over Q, exponents in N^nvars, held as
    the x-free WeylOperator op: x-free operators commute, so its sums and
    products are the polynomial ones."""

    op: WeylOperator

    @staticmethod
    def make(nvars: int, mapping: Mapping[Expo, Fraction | int]) -> "CommPoly":
        clean = {}
        zero = (0,) * nvars
        for e, c in mapping.items():
            q = Fraction(c)
            if not q:
                continue
            e = tuple(int(x) for x in e)
            if len(e) != nvars or any(x < 0 for x in e):
                raise InputFormatError("bad exponent")
            clean[(zero, e)] = q
        return CommPoly(WeylOperator.make(nvars, clean))

    @staticmethod
    def zero(nvars: int) -> "CommPoly":
        return CommPoly(WeylOperator.zero(nvars))

    @staticmethod
    def variable(i: int, nvars: int) -> "CommPoly":
        return CommPoly.make(nvars, {tuple(1 if j == i else 0 for j in range(nvars)): 1})

    @property
    def nvars(self) -> int:
        return self.op.nvars

    @property
    def terms(self) -> tuple[tuple[Expo, Fraction], ...]:
        """The (exponent, coefficient) pairs, sorted by exponent."""
        return tuple((nu, c) for _, nu, c in self.op.terms)

    def is_zero(self) -> bool:
        return self.op.is_zero()

    def as_dict(self) -> dict[Expo, Fraction]:
        return dict(self.terms)

    def __add__(self, other: "CommPoly") -> "CommPoly":
        return CommPoly(self.op + other.op)

    def __neg__(self) -> "CommPoly":
        return CommPoly(-self.op)

    def __sub__(self, other: "CommPoly") -> "CommPoly":
        return CommPoly(self.op - other.op)

    def __mul__(self, other: "CommPoly") -> "CommPoly":
        return CommPoly(self.op * other.op)

    def scale(self, q) -> "CommPoly":
        return CommPoly(self.op.scale(q))

    def _ordered(self, order) -> list[tuple[Expo, Fraction]]:
        """The terms, greatest first in the order."""
        pk = _fit(self.nvars, order.rows, False, _top(e for e, _ in self.terms))
        return sorted(self.terms, key=lambda t: pk.pack((), t[0]), reverse=True)

    def lead(self, order) -> tuple[Expo, Fraction]:
        return self._ordered(order)[0]

    def __str__(self) -> str:
        return _format_terms(((), e, c) for e, c in self._ordered(DegRevLex(self.nvars)))


# ---------------------------------------------------------------------------
# Buchberger core
#
# An element is an operator dict {monomial: coeff} with integer
# coefficients, each monomial x^mu d^nu packed into one int by a Packing
# (weyl.Packing), paired with its cofactor list over the original
# generators: integer dicts over one positive denominator.  A divisor is the
# triple (lead monomial, lead coefficient, operator).  A WeylOperator,
# a CommPoly's x-free one included, enters as its integer numerators,
# packed (_weyl_packed), and leaves as integers over one denominator with
# unpacked keys (_over).  Each of these packs
# or unpacks a monomial by two lookups in the packing's own tables, one
# per half (mu, nu), so queries that never repeat still find the few
# distinct half exponents already there.  A product that leaves the
# packing's fields raises _Overflow, and there is one rule for it,
# _widening: whoever holds packed operators repacks them at double width
# (_repack) and retries only the step that overflowed, an S-pair in
# _buchberger, the whole of _interreduce or a WeylGroebner query.
# Packed ints compare the same at every width, so the result, down to the
# PairStats, does not depend on it.


def _widening(run, pk):
    """run(pk), retried at double width until no product overflows."""
    while True:
        try:
            return run(pk)
        except _Overflow:
            pk = pk.wider()


def _repack(basis, pk, wide) -> list:
    """The (operator, cofactors, denominator) triples of basis, moved from
    pk's fields to wide's."""

    def move(g):
        return {wide.pack(*pk.unpack(k)): c for k, c in g.items()}

    return [(move(g), [move(r) for r in rep], den) for g, rep, den in basis]


def _divisor(g: dict) -> tuple:
    lead = max(g)
    return lead, g[lead], g


def _primitive(g: dict, rep: list[dict], den: int, lead) -> tuple[dict, list[dict], int]:
    """Divide the integer operator g by its content, signed to leave a
    positive lead, and its cofactors rep / den by the same factor; the
    cofactors come back in lowest terms."""
    p = gcd(*g.values())
    if g[lead] < 0:
        p = -p
    if p != 1:
        g = {k: c // p for k, c in g.items()}
        den *= abs(p)
        if p < 0:
            rep = [{k: -c for k, c in r.items()} for r in rep]
    common = gcd(den, *(c for r in rep for c in r.values()))
    if common != 1:
        rep = [{k: c // common for k, c in r.items()} for r in rep]
        den //= common
    return g, rep, den


def _divide(f: dict, divisors, pk, cap: int | None = None) -> tuple[list[dict], dict, int]:
    """Fraction-free left division of the integer operator f by integer
    divisors: m f = sum quotients[i] . divisor i + remainder, with no
    remainder monomial divisible by a divisor lead.  Returns (quotients,
    remainder, m); every coefficient is an integer, and m > 0 when every
    divisor lead is positive.

    Each step scales the working operator by c / gcd(w, c), for w its lead
    coefficient and c that of the divisor, so the lead cancels in integers;
    m is the product of these scales.  Quotient and remainder terms are
    recorded with the scale of their step and brought to m once, at the end.
    The lead of the working operator comes off a heap of the packed
    monomials, negated; entries whose monomial has since cancelled are
    skipped.  Reduction only adds monomials below the lead it removes, so
    the leads are taken in the same order as by a fresh max.

    With a cap, the division stops at the first remainder monomial of total
    degree above it, which is returned as the whole remainder with no
    quotients: remainder terms are never taken back, so that much already
    decides a capped completion's drop.
    """
    steps: list[tuple] = []
    rems: list[tuple] = []
    work = dict(f)
    m = 1
    heap = [-t for t in work]
    heapify(heap)
    entered: list = []
    guard = pk.guard
    leads = [gl for gl, _, _ in divisors]
    while heap:
        lead = -heappop(heap)
        w = work.get(lead)
        if w is None:
            continue
        up = lead + guard
        for i, gl in enumerate(leads):
            if (up - gl) & guard == guard:
                break
        else:
            del work[lead]
            if cap is not None and pk.degree(lead) > cap:
                return [{} for _ in divisors], {lead: w}, m
            rems.append((lead, w, m))
            continue
        _, gc, g = divisors[i]
        h = gcd(w, gc)
        scale = gc // h
        if scale != 1:
            for t in work:
                work[t] *= scale
            m *= scale
        shift = lead - gl
        steps.append((i, shift, w // h, m))
        _lmul(work, -(w // h), shift, g, pk, entered)
        for t in entered:
            heappush(heap, -t)
        entered.clear()
    quots: list[dict] = [{} for _ in divisors]
    for i, shift, c, at in steps:
        quots[i][shift] = c if at == m else c * (m // at)
    rem = {t: c if at == m else c * (m // at) for t, c, at in rems}
    return quots, rem, m


def _spair(l: int, di, dj, pk) -> tuple[dict, tuple, tuple]:
    """Integer S-operator (c_j/k) a g_i - (c_i/k) a' g_j of two divisors,
    k = gcd(c_i, c_j), l the lcm of their leads, with the left multipliers
    (coeff, packed monomial) applied to each."""
    (li, ci, gi), (lj, cj, gj) = di, dj
    k = gcd(ci, cj)
    mi = (cj // k, l - li)
    mj = (-(ci // k), l - lj)
    s: dict = {}
    _lmul(s, *mi, gi, pk)
    _lmul(s, *mj, gj, pk)
    return s, mi, mj


def _used_lcm(quots: list[dict], basis, *more: int) -> int:
    """lcm of more and of the denominators of the elements with a quotient."""
    return lcm(*more, *(d for q, (_, _, d) in zip(quots, basis) if q))


def _add_cofactors(acc: list[dict], quots: list[dict], basis, den: int, sign: int, pk) -> None:
    """acc[t] += sign * sum over k of (den / d_k) quots[k] . rep_k[t], for
    the basis elements (g_k, rep_k, d_k): their cofactors brought to the
    denominator den, which every d_k with a nonzero quotient divides."""
    for q, (_, rep, d) in zip(quots, basis):
        if not q:
            continue
        s = sign * (den // d)
        for a, c in q.items():
            coeff = s * c
            for t, r in enumerate(rep):
                if r:
                    _lmul(acc[t], coeff, a, r, pk)


@dataclass(frozen=True)
class PairStats:
    """What one Buchberger completion did with its S-pairs.

    considered counts every pair taken off the queue; each is then skipped
    by the product criterion (binomial core only), skipped by the chain
    criterion, reduced to zero, added to the basis as a nonzero remainder,
    or dropped by the degree cap (general core only).
    """

    considered: int = 0
    product_skips: int = 0
    chain_skips: int = 0
    zero_reductions: int = 0
    added: int = 0
    cap_drops: int = 0


def _chained(rows: list[int], elements, i: int, j: int, l: int, pk) -> bool:
    """The chain criterion for the pair (i, j) of lead lcm l: bit k of
    rows[i] is set once the pair of i and k has been taken off the queue,
    and elements[k][0] is the lead of element k."""
    # the set bits are the k with (i, k) and (k, j) popped before; k is
    # neither i nor j, as no row has its own bit and (i, j) is popped now
    both = rows[i] & rows[j]
    while both:
        low = both & -both
        if pk.divides(elements[low.bit_length() - 1][0], l):
            return True
        both ^= low
    return False


def _buchberger(gens, pk, cap: int | None = None, chain: bool = True):
    """Complete nonzero (integer operator, integer cofactors) pairs, the
    cofactors over denominator 1, to a Groebner basis.

    Pairs are processed in order of (lcm L of the leads, i, j).  Each
    element's lead exponents are kept beside it, as in
    _binomial_buchberger: a new element queues each pair with L packed
    from their field-wise max, the popped L is the one its S-pair is formed
    at, and a widening packs every queued L again from them.  The chain
    criterion skips (i, j) when another element k has a lead dividing L and
    the pairs (i, k) and (k, j) were taken off the queue before: each then
    has a representation below its lcm, hence below L.  A nonzero remainder
    of total degree above cap is dropped, and from then on the chain
    criterion is off: a dropped remainder leaves pairs without such a
    representation, and skipping past it can lose basis elements the cap
    would have kept.  chain=False is the criterion-off reference for tests.
    An S-pair whose products overflow is retried alone, on the basis and
    pair queue repacked wider.  Returns (packing, basis, PairStats): the
    packing it finished at, and the basis as primitive (operator,
    cofactors, denominator) triples.
    """
    basis: list[tuple] = []
    divisors: list[tuple] = []
    # the exponents of each lead, the same at every width
    exps: list[Expo] = []
    heap: list[tuple] = []
    # bit k of rows[i] is set once the pair of i and k has been popped
    rows: list[int] = []
    counts: Counter = Counter()

    def admit(g, rep, den):
        lead = max(g)
        g, rep, den = _primitive(g, rep, den, lead)
        e, units, k = pk.exps(lead), pk.units, len(divisors)
        for i, ei in enumerate(exps):
            heappush(heap, (sum(map(mul, map(max, ei, e), units)), i, k))
        divisors.append((lead, g[lead], g))
        basis.append((g, rep, den))
        exps.append(e)
        rows.append(0)

    def reduced(wide, l, i, j) -> tuple:
        """(remainder, cofactors, denominator) of the S-pair (i, j) at wide,
        all held moved there first; cofactors None unless it is admitted.
        l is its lead lcm as popped, at the width it was popped at."""
        nonlocal pk
        if wide is not pk:
            basis[:] = _repack(basis, pk, wide)
            divisors[:] = [_divisor(g) for g, _, _ in basis]
            # the order is the same at every width, so the heap stays a heap
            heap[:] = [(sum(map(mul, map(max, exps[a], exps[b]), wide.units)), a, b) for _, a, b in heap]
            pk = wide
            # every retry comes here, so the lcm is always packed at wide
            l = sum(map(mul, map(max, exps[i], exps[j]), pk.units))
        s, (ci, ai), (cj, aj) = _spair(l, divisors[i], divisors[j], pk)
        quots, rem, m = _divide(s, divisors, pk, cap)
        # a capped _divide returns a remainder above the cap as its one
        # monomial, and every other remainder lies within the cap
        if not rem or cap is not None and pk.degree(max(rem)) > cap:
            return rem, None, 0
        # rem = m s - sum quots . divisors, over one denominator
        (_, repi, di), (_, repj, dj) = basis[i], basis[j]
        den = _used_lcm(quots, basis, di, dj)
        ci *= m * (den // di)
        cj *= m * (den // dj)
        srep: list[dict] = [{} for _ in repi]
        for acc, ri, rj in zip(srep, repi, repj):
            if ri:
                _lmul(acc, ci, ai, ri, pk)
            if rj:
                _lmul(acc, cj, aj, rj, pk)
        _add_cofactors(srep, quots, basis, den, -1, pk)
        return rem, srep, den

    for g, rep in gens:
        admit(g, rep, 1)
    while heap:
        l, i, j = heappop(heap)
        counts["considered"] += 1
        if chain and not counts["cap_drops"] and _chained(rows, divisors, i, j, l, pk):
            counts["chain_skips"] += 1
        else:
            rem, srep, den = _widening(lambda wide: reduced(wide, l, i, j), pk)
            if not rem:
                counts["zero_reductions"] += 1
            elif srep is None:
                counts["cap_drops"] += 1
            else:
                admit(rem, srep, den)
                counts["added"] += 1
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return pk, basis, PairStats(**counts)


def _minimal(pairs, pk) -> list:
    """The (lead, item) pairs whose lead no other lead divides, the first of
    equal leads kept, sorted by lead."""
    # a lead's divisors sort before it, and the sort is stable
    kept: list = []
    for pair in sorted(pairs, key=itemgetter(0)):
        if not any(pk.divides(k, pair[0]) for k, _ in kept):
            kept.append(pair)
    return kept


def _interreduce(basis, pk) -> tuple:
    """(packing, reduced basis): drop elements whose lead another lead
    divides, reduce each tail once by the rest, in index order, keeping
    every element primitive, and sort by lead.  One pass is enough (Cox,
    Little and O'Shea, 2.7): no kept lead divides another and a reduction
    keeps its element's lead, so a tail left irreducible stays so.  A
    product that overflows starts the reduction again on the input
    repacked wider."""

    def run(wide):
        held = basis if wide is pk else _repack(basis, pk, wide)
        leads = [(max(g), i) for i, (g, _, _) in enumerate(held)]
        kept = [held[i] for i in sorted(i for _, i in _minimal(leads, wide))]
        divisors = [_divisor(g) for g, _, _ in kept]
        for i, (g, rep, den) in enumerate(kept):
            quots, rem, m = _divide(g, divisors[:i] + divisors[i + 1 :], wide)
            if any(quots):
                rest = kept[:i] + kept[i + 1 :]
                new_den = _used_lcm(quots, rest, den)
                s = m * (new_den // den)
                acc = [{k: c * s for k, c in r.items()} for r in rep]
                _add_cofactors(acc, quots, rest, new_den, -1, wide)
                kept[i] = _primitive(rem, acc, new_den, divisors[i][0])
                divisors[i] = _divisor(kept[i][0])
        return wide, sorted(kept, key=lambda t: max(t[0]))

    return _widening(run, pk)


# ---------------------------------------------------------------------------
# Binomial core
#
# A pure difference x^p - x^q is kept as the pair (lead, tail) of its
# packed monomials, lead above tail in the order, and stands for the
# lattice move p -> q.  The S-pair of two elements is the pair of monomials
# L - l_i + t_i and L - l_j + t_j, L the lcm of their leads, and a
# reduction step takes a monomial u that a lead l divides to u - l + t.
# Each remainder is the primitive one the general core's division makes
# from the same pair and divisors, lead coefficient 1, so the two cores
# give equal reduced bases.
# A move that leaves the packing's fields raises _Overflow, and the
# completion widens by the rule of the general core.


def _repack_moves(moves, pk, wide) -> list[tuple[int, int]]:
    """The (lead, tail) pairs moves, moved from pk's fields to wide's."""
    return [(wide.pack(*pk.unpack(a)), wide.pack(*pk.unpack(b))) for a, b in moves]


def _binomial_step(u: int, divisors, guard: int) -> int | None:
    """u moved by the first divisor whose lead divides it, or None."""
    up = u + guard
    for lead, tail in divisors:
        if (up - lead) & guard == guard:
            u += tail - lead
            if u & guard:
                raise _Overflow
            return u
    return None


def _binomial_divide(a: int, b: int, divisors, pk) -> tuple[int, int] | None:
    """The remainder of x^a - x^b on division by the (lead, tail) divisors:
    None when it is zero, else its (lead, tail).

    As in _divide, the greater monomial is reduced first, by the first
    divisor whose lead divides it.  The two monomials cancel once they
    meet.  Once the greater one is irreducible, the other only moves
    further below it, so it is reduced to its normal form alone.
    """
    guard = pk.guard
    while a != b:
        if a < b:
            a, b = b, a
        moved = _binomial_step(a, divisors, guard)
        if moved is None:
            while (moved := _binomial_step(b, divisors, guard)) is not None:
                b = moved
            return a, b
        a = moved
    return None


def _binomial_spair(l: int, di: tuple[int, int], dj: tuple[int, int], pk) -> tuple[int, int]:
    """The monomials l - l_i + t_i and l - l_j + t_j of the S-pair of two
    (lead, tail) elements, l the lcm of their leads."""
    a, b = l - di[0] + di[1], l - dj[0] + dj[1]
    if (a | b) & pk.guard:
        raise _Overflow
    return a, b


def _binomial_buchberger(gens, pk, chain: bool = True):
    """Complete (lead, tail) pure differences packed by pk to a Groebner
    basis: _buchberger's pair order and chain criterion, with no cap, and
    the product criterion, which skips a pair whose leads share no
    variable, that is whose lcm is their product.  Returns (packing,
    basis, PairStats), the basis as (lead, tail) pairs.  chain=False is
    the criterion-off reference for tests."""
    basis: list[tuple[int, int]] = []
    # the exponents of each lead, the same at every width: the lcm of two
    # leads packs their field-wise max
    exps: list[Expo] = []
    heap: list[tuple] = []
    rows: list[int] = []
    counts: Counter = Counter()

    def admit(lead, tail):
        e, units, k = pk.exps(lead), pk.units, len(basis)
        for i, ei in enumerate(exps):
            heappush(heap, (sum(map(mul, map(max, ei, e), units)), i, k))
        basis.append((lead, tail))
        exps.append(e)
        rows.append(0)

    def reduced(wide, l, i, j):
        """The remainder of the S-pair (i, j) at wide, all held moved there
        first; l is its lead lcm as popped, at the width it was popped at."""
        nonlocal pk
        if wide is not pk:
            basis[:] = _repack_moves(basis, pk, wide)
            # the order is the same at every width, so the heap stays a heap
            heap[:] = [(wide.pack(*pk.unpack(m)), a, b) for m, a, b in heap]
            pk = wide
            # every retry comes here, so the lcm is always packed at wide
            l = sum(map(mul, map(max, exps[i], exps[j]), pk.units))
        return _binomial_divide(*_binomial_spair(l, basis[i], basis[j], pk), basis, pk)

    for lead, tail in gens:
        admit(lead, tail)
    while heap:
        l, i, j = heappop(heap)
        counts["considered"] += 1
        if l == basis[i][0] + basis[j][0]:
            counts["product_skips"] += 1
        elif chain and _chained(rows, basis, i, j, l, pk):
            counts["chain_skips"] += 1
        else:
            rem = _widening(lambda wide: reduced(wide, l, i, j), pk)
            if rem is None:
                counts["zero_reductions"] += 1
            else:
                admit(*rem)
                counts["added"] += 1
        rows[i] |= 1 << j
        rows[j] |= 1 << i
    return pk, basis, PairStats(**counts)


def _binomial_interreduce(basis, pk) -> tuple:
    """(packing, reduced basis) of (lead, tail) pairs: keep the minimal
    leads, the first of equal ones, move each tail to its normal form by
    the others and sort by lead.  A move that overflows starts the
    reduction again on the input repacked wider."""

    def run(wide):
        kept = _minimal(basis if wide is pk else _repack_moves(basis, pk, wide), wide)
        # no kept lead divides another, so only the tail moves, and its
        # normal form by a Groebner basis does not depend on the moves
        return wide, [_binomial_divide(*d, kept[:i] + kept[i + 1 :], wide) for i, d in enumerate(kept)]

    return _widening(run, pk)


def _binomial_basis(n: int, moves, order) -> list[tuple[Expo, Expo]]:
    """The reduced basis of the pure differences x^p - x^q, given as
    exponent pairs (p, q), as (lead, tail) exponent pairs sorted by lead."""
    pk = _fit(n, order.rows, False, _top(e for move in moves for e in move))
    packed = [(pk.pack((), p), pk.pack((), q)) for p, q in moves]
    pk, basis, _ = _binomial_buchberger([(a, b) if a > b else (b, a) for a, b in packed], pk)
    pk, basis = _binomial_interreduce(basis, pk)
    return [(pk.exps(a), pk.exps(b)) for a, b in basis]


def _binomial_gens(polys) -> list[tuple[Expo, Expo]] | None:
    """The exponent pairs (p, q) of nonzero polynomials that are all
    c (x^p - x^q), or None if one is not."""
    out = []
    for g in polys:
        if len(g.op.nums) != 2:
            return None
        ((_, p), c), ((_, q), d) = g.op.nums.items()
        if c != -d:
            return None
        out.append((p, q))
    return out


@dataclass(frozen=True)
class CommIdeal:
    """Ideal in the commutative polynomial ring, given by generators.

    basis_order, when set, is an order in which gens already is the
    reduced basis, monic and sorted by lead, as groebner returns it; it
    takes no part in equality, since equal generators have equal bases.
    """

    nvars: int
    gens: tuple[CommPoly, ...]
    basis_order: MatrixOrder | None = field(default=None, compare=False)

    @staticmethod
    def make(nvars: int, gens: Iterable[CommPoly], basis_order: MatrixOrder | None = None) -> "CommIdeal":
        gens = tuple(gens)
        for g in gens:
            if g.nvars != nvars:
                raise DimensionMismatchError("generator variable count mismatch")
        return CommIdeal(nvars, gens, basis_order)

    def groebner(self, order=None) -> tuple[CommPoly, ...]:
        order = order or DegRevLex(self.nvars)
        if order == self.basis_order:
            return self.gens
        return _groebner_cached(self, order)

    def normal_form(self, p: CommPoly) -> CommPoly:
        if p.nvars != self.nvars:
            raise DimensionMismatchError("polynomial variable count mismatch")
        gb = self.groebner()

        def run(pk):
            divisors = [_divisor(_weyl_packed(pk, g.op)[0]) for g in gb]
            f, d = _weyl_packed(pk, p.op)
            _, rem, m = _divide(f, divisors, pk)
            return CommPoly(_over(pk, rem, m * d))

        top = _weyl_top(g.op for g in (*gb, p))
        return _widening(run, _fit(self.nvars, DegRevLex(self.nvars).rows, False, top))

    def contains(self, p: CommPoly) -> bool:
        return self.normal_form(p).is_zero()


def _general_basis(n: int, polys, order) -> tuple[CommPoly, ...]:
    """The reduced basis of polys by the general core, monic, sorted by
    lead: the path of every ideal with a generator that is not a pure
    difference, and the oracle the binomial core is tested against."""
    ops = [g.op for g in polys if not g.is_zero()]
    pk = _fit(n, order.rows, False, _weyl_top(ops))
    pk, basis, _ = _buchberger([(_weyl_packed(pk, g)[0], []) for g in ops], pk)
    pk, basis = _interreduce(basis, pk)
    return tuple(CommPoly(_over(pk, g, g[max(g)])) for g, _, _ in basis)


@lru_cache(maxsize=256)
def _groebner_cached(ideal: CommIdeal, order) -> tuple[CommPoly, ...]:
    """The reduced basis, monic, sorted by lead: by the binomial core when
    every generator is a pure difference, else by the general one."""
    polys = [g for g in ideal.gens if not g.is_zero()]
    moves = _binomial_gens(polys)
    if moves is None:
        return _general_basis(ideal.nvars, polys, order)
    return _binomial_polys(ideal.nvars, _binomial_basis(ideal.nvars, moves, order))


def _binomial_polys(n: int, basis) -> tuple[CommPoly, ...]:
    """The (lead, tail) exponent pairs of basis as monic CommPolys."""
    # built directly: CommPoly.make's checks would cost about a tenth of a
    # catalogue pass, and lead and tail are distinct valid exponents
    zero = (0,) * n
    return tuple(CommPoly(WeylOperator(n, {(zero, a): 1, (zero, b): -1})) for a, b in basis)


def _over(pk, g: dict, den: int) -> WeylOperator:
    """The packed integer operator g divided by den > 0, as a WeylOperator;
    g comes from the core, so its exponents and coefficients need no
    checks."""
    unpack = pk.unpack
    return _reduced(pk.nvars, {unpack(k): c for k, c in g.items()}, den)


def _weyl_packed(pk, p: WeylOperator) -> tuple[dict, int]:
    """(den p, den) with den p, the numerators of p, packed by pk."""
    pack = pk.pack
    return {pack(mu, nu): c for (mu, nu), c in p.nums.items()}, p.den


def _weyl_top(ops) -> int:
    return _top(mu + nu for op in ops for mu, nu in op.nums)


def _division_replays(f: dict, m: int, rem: dict, cof: list[dict], den: int, gens: list, pk) -> bool:
    """den m f == sum_i cof_i . g_i + den rem, exactly, on the division's
    own integers: f the packed query, m and rem the division's scale and
    remainder, cof / den the cofactors over the generators g_i.

    gens holds each generator as (G, b), G = b g packed by pk, or None for
    a zero generator, whose cofactor adds nothing.  With B the lcm of the b
    in use, compare den B rem + sum_i cof_i (B / b_i) G_i with den m B f.
    """
    pairs = [(c, g) for c, g in zip(cof, gens) if c and g]
    big = lcm(*(b for _, (_, b) in pairs))
    s = den * big
    acc = {t: v * s for t, v in rem.items()}
    for c, (gd, b) in pairs:
        s = big // b
        for t, v in c.items():
            _lmul(acc, v * s, t, gd, pk)
    s = den * m * big
    return acc == {t: v * s for t, v in f.items()}


def _packed_gens(gens, pk) -> list:
    return [_weyl_packed(pk, g) if g.nums else None for g in gens]


@dataclass(frozen=True)
class MembershipCertificate:
    """Replayable left-ideal membership answer."""

    member: bool | str
    query: WeylOperator
    normal_form: WeylOperator
    cofactors: tuple[WeylOperator, ...]
    basis_status: str

    def verify(self, gens: Iterable[WeylOperator]) -> bool:
        """sum cofactor_i . gen_i + normal form == query, exactly.

        False when the cofactor count differs from the generator count;
        DimensionMismatchError when the variable counts differ.
        """
        gens = list(gens)
        if len(gens) != len(self.cofactors):
            return False
        self.query._check(self.normal_form)
        for q, g in zip(self.cofactors, gens):
            self.query._check(q)
            self.query._check(g)

        def run(pk):
            # cofactors Q_i / a_i, normal form N / c, query P / e: L = lcm(a_i, c, e)
            query, e = _weyl_packed(pk, self.query)
            nf, c = _weyl_packed(pk, self.normal_form)
            cofs = [_weyl_packed(pk, q) for q in self.cofactors]
            big = lcm(c, e, *(a for _, a in cofs))
            cof = [{t: v * (big // a) for t, v in q.items()} for q, a in cofs]
            rem = {t: v * (big // c) for t, v in nf.items()}
            return _division_replays(query, big // e, rem, cof, 1, _packed_gens(gens, pk), pk)

        top = _weyl_top([self.query, self.normal_form, *self.cofactors, *gens])
        return _widening(run, _fit(self.query.nvars, (), True, top))

    def to_json(self) -> dict:
        member = self.member if isinstance(self.member, str) else bool(self.member)
        return {
            "member": member,
            "normal_form": self.normal_form.to_json(),
            "cofactors": [q.to_json() for q in self.cofactors],
            "basis_status": self.basis_status,
        }


class WeylGroebner:
    """Left Groebner basis of a Weyl-algebra ideal with cofactor tracking.

    Every S-pair is reduced unless the chain criterion skips it.  A nonzero
    remainder whose total degree exceeds the cap is discarded and flags the
    basis CAPPED.  Zero normal forms prove membership either way; a nonzero
    normal form denies membership only against a COMPLETE basis.  stats
    holds the PairStats of the completion.  The basis, its cofactors and
    the generators are kept packed; a query whose work overflows the
    packing repacks them all at double width for good.
    """

    def __init__(self, gens: Iterable[WeylOperator], cap: int = 10):
        gens = list(gens)
        if not gens:
            raise InputFormatError("need at least one generator")
        n = gens[0].nvars
        for g in gens:
            if g.nvars != n:
                raise DimensionMismatchError("generator variable counts differ")
        self.nvars = n
        self.gens = tuple(gens)
        self.cap = cap

        pk = _fit(n, DegRevLex(2 * n).rows, True, max(cap, _weyl_top(self.gens)))
        seeds = []
        for i, gd in enumerate(_packed_gens(self.gens, pk)):
            if gd:
                # the seed is d g_i, so its cofactor is d at position i
                rep = [{} for _ in self.gens]
                rep[i] = {pk.pack((0,) * n, (0,) * n): gd[1]}
                seeds.append((gd[0], rep))
        pk, basis, self.stats = _buchberger(seeds, pk, cap=cap)
        self.status = "capped" if self.stats.cap_drops else "complete"
        self._state = self._packed(*_interreduce(basis, pk))

    def _packed(self, pk, basis) -> tuple:
        """The state every query reads, replaced only as a whole: the
        packing, the basis, its divisors and the packed generators."""
        return pk, basis, [_divisor(g) for g, _, _ in basis], _packed_gens(self.gens, pk)

    def _at_width(self, run):
        """run(*state), the state repacked at double width for good while a
        product overflows."""

        def at(wide):
            pk, basis = self._state[:2]
            if wide is not pk:
                self._state = self._packed(wide, _repack(basis, pk, wide))
            return run(*self._state)

        return _widening(at, self._state[0])

    @property
    def basis(self) -> tuple[WeylOperator, ...]:
        pk, basis = self._state[:2]
        return tuple(_over(pk, g, 1) for g, _, _ in basis)

    def basis_representation(self, idx: int) -> tuple[WeylOperator, ...]:
        """Cofactors writing basis element idx over the original generators."""
        pk, basis = self._state[:2]
        _, rep, den = basis[idx]
        return tuple(_over(pk, r, den) for r in rep)

    def normal_form(self, p: WeylOperator):
        """membership(p)'s (normal form, cofactors), replayed:
        p = sum cofactor_i . g_i + normal form over the generators g_i."""
        cert = self.membership(p)
        return cert.normal_form, cert.cofactors

    def membership(self, p: WeylOperator) -> MembershipCertificate:
        """The normal form of p by the basis, and cofactors over the
        generators g_i with p = sum cofactor_i . g_i + normal form, replayed
        against the generators on the division's integers before they are
        converted."""
        if p.nvars != self.nvars:
            raise DimensionMismatchError("query variable count mismatch")

        def run(pk, basis, divisors, gens):
            # f = d p, m f = sum quots . basis + rem, and then
            # den m f = sum cof . gens + den rem
            f, d = _weyl_packed(pk, p)
            quots, rem, m = _divide(f, divisors, pk)
            den = _used_lcm(quots, basis)
            cof: list[dict] = [{} for _ in self.gens]
            _add_cofactors(cof, quots, basis, den, 1, pk)
            if not _division_replays(f, m, rem, cof, den, gens, pk):
                raise InvariantError("internal cofactor replay failed")
            return _over(pk, rem, m * d), tuple(_over(pk, c, den * m * d) for c in cof)

        rem, cof = self._at_width(run)
        if rem.is_zero():
            member: bool | str = True
        elif self.status == "complete":
            member = False
        else:
            member = "inconclusive"
        return MembershipCertificate(
            member=member,
            query=p,
            normal_form=rem,
            cofactors=cof,
            basis_status=self.status,
        )

    def spair_remainders_vanish(self) -> bool:
        """Recheck the Buchberger criterion on the finished basis."""

        def run(pk, _, divisors, __):
            def remainder(di, dj):
                return _divide(_spair(pk.lcm(di[0], dj[0]), di, dj, pk)[0], divisors, pk)[1]

            return not any(remainder(di, dj) for di, dj in combinations(divisors, 2))

        return self._at_width(run)


def groebner_weyl(gens: Iterable[WeylOperator], cap: int = 10) -> WeylGroebner:
    return WeylGroebner(gens, cap=cap)
