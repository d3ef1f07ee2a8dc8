"""Exact Groebner engines.

One Buchberger core serves two callers: ideals in the commutative
d-variables (toric ideals) and left ideals in the Weyl algebra.
Following Kandri-Rody and Weispfenning (algebras of solvable type), the
left-ideal algorithm is the commutative one with a different monomial
multiplication, so the core works on operators in normal order and the
commutative engine feeds it x-free operators, for which left
multiplication is a plain shift.  Both callers skip S-pairs by
Buchberger's chain criterion (Gebauer and Moeller), which stays sound for
left ideals in algebras of solvable type.  Only the commutative caller
also turns on the product criterion: it is unsound in the Weyl algebra
(d1 and x1 have disjoint leading monomials yet their S-pair reduces to a
unit).  Every completion reports its pair counts as PairStats.
Membership answers always carry cofactors that re-multiply to the
queried operator.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from heapq import heapify, heappop, heappush
from itertools import combinations
from math import gcd, lcm
from typing import Iterable, Mapping

from .errors import DimensionMismatchError, InputFormatError, InvariantError
from .weyl import WeylOperator, _format_terms, _lmul, _Overflow, _fit, _top

Expo = tuple[int, ...]


# ---------------------------------------------------------------------------
# Term orders


@dataclass(frozen=True)
class MatrixOrder:
    """Lex order on W e for an integer matrix W of full column rank
    (Robbiano 1985), W given by its rows, the first compared first."""

    rows: tuple[tuple[int, ...], ...]


def _revlex(nvars: int) -> list[tuple[int, ...]]:
    """Rows -e_(n-1), ..., -e_0: the lower power of a later variable wins."""
    return [tuple(-(i == j) for i in range(nvars)) for j in reversed(range(nvars))]


def DegRevLex(nvars: int) -> MatrixOrder:
    """Degree-reverse-lexicographic order on exponent tuples."""
    return MatrixOrder(((1,) * nvars, *_revlex(nvars)))


def WeightedRevLexLast(weights: Iterable[int], last: int) -> MatrixOrder:
    """Weighted degree by positive integer weights, then reverse lex with
    variable number last as the smallest variable: among monomials of equal
    weight, the one with the lower power of it is greater."""
    weights = tuple(weights)
    revlex = _revlex(len(weights))
    return MatrixOrder((weights, revlex[len(weights) - 1 - last], *revlex))


# ---------------------------------------------------------------------------
# Commutative polynomials


@dataclass(frozen=True)
class CommPoly:
    """Sparse commutative polynomial over Q, exponents in N^nvars."""

    nvars: int
    terms: tuple[tuple[Expo, Fraction], ...]

    @staticmethod
    def make(nvars: int, mapping: Mapping[Expo, Fraction | int]) -> "CommPoly":
        clean = {}
        for e, c in mapping.items():
            q = Fraction(c)
            if not q:
                continue
            e = tuple(int(x) for x in e)
            if len(e) != nvars or any(x < 0 for x in e):
                raise InputFormatError("bad exponent")
            clean[e] = q
        return CommPoly(nvars, tuple((e, clean[e]) for e in sorted(clean)))

    @staticmethod
    def zero(nvars: int) -> "CommPoly":
        return CommPoly(nvars, ())

    @staticmethod
    def variable(i: int, nvars: int) -> "CommPoly":
        return CommPoly.make(nvars, {tuple(1 if j == i else 0 for j in range(nvars)): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def as_dict(self) -> dict[Expo, Fraction]:
        return dict(self.terms)

    def __add__(self, other: "CommPoly") -> "CommPoly":
        if self.nvars != other.nvars:
            raise DimensionMismatchError("polynomial variable counts differ")
        acc = self.as_dict()
        for e, c in other.terms:
            acc[e] = acc.get(e, Fraction(0)) + c
        return CommPoly.make(self.nvars, acc)

    def __neg__(self) -> "CommPoly":
        return CommPoly(self.nvars, tuple((e, -c) for e, c in self.terms))

    def __sub__(self, other: "CommPoly") -> "CommPoly":
        return self + (-other)

    def __mul__(self, other: "CommPoly") -> "CommPoly":
        if self.nvars != other.nvars:
            raise DimensionMismatchError("polynomial variable counts differ")
        acc: dict[Expo, Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = tuple(a + b for a, b in zip(e1, e2))
                acc[e] = acc.get(e, Fraction(0)) + c1 * c2
        return CommPoly.make(self.nvars, acc)

    def scale(self, q) -> "CommPoly":
        q = Fraction(q)
        return CommPoly.make(self.nvars, {e: c * q for e, c in self.terms})

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
# triple (lead monomial, lead coefficient, operator).  Rational input
# becomes integer and packed once, on the way in (_integral), and Fractions
# and exponent tuples are built again only at the public boundary.  A
# product that leaves the packing's fields raises _Overflow, and there is
# one rule for it, _widening: whoever holds packed operators repacks them at
# double width (_repack) and retries only the step that overflowed, an
# S-pair in _buchberger, the whole of _interreduce or a WeylGroebner query.
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
        return {wide.flat(pk.exps(k)): c for k, c in g.items()}

    return [(move(g), [move(r) for r in rep], den) for g, rep, den in basis]


def _divisor(g: dict) -> tuple:
    lead = max(g)
    return lead, g[lead], g


def _integral(pk, terms) -> tuple[dict, int]:
    """(d g, d) packed by pk, for g given by (mu, nu, coeff) terms and d the
    lcm of the denominators of its coefficients."""
    d = lcm(*(c.denominator for _, _, c in terms))
    return {pk.pack(mu, nu): c.numerator * (d // c.denominator) for mu, nu, c in terms}, d


def _xterms(p: CommPoly) -> list:
    return [((), e, c) for e, c in p.terms]


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


def _spair(di, dj, pk) -> tuple[dict, tuple, tuple]:
    """Integer S-operator (c_j/k) a g_i - (c_i/k) a' g_j of two divisors,
    k = gcd(c_i, c_j), with the left multipliers (coeff, packed monomial)
    applied to each."""
    (li, ci, gi), (lj, cj, gj) = di, dj
    l = pk.lcm(li, lj)
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
    by the product criterion, skipped by the chain criterion, reduced to
    zero, added to the basis as a nonzero remainder, or dropped by the
    degree cap.
    """

    considered: int = 0
    product_skips: int = 0
    chain_skips: int = 0
    zero_reductions: int = 0
    added: int = 0
    cap_drops: int = 0


def _buchberger(gens, pk, cap: int | None = None, coprime_skip: bool = False, chain: bool = True):
    """Complete nonzero (integer operator, integer cofactors) pairs, the
    cofactors over denominator 1, to a Groebner basis.

    Pairs are processed in order of (lcm L of the leads, i, j).
    coprime_skip turns on the product criterion, which is sound only
    commutatively: it skips a pair whose leads share no variable, that is
    whose lcm is their product.  The chain criterion skips (i, j) when
    another element k has a lead dividing L and the pairs (i, k) and (k, j)
    were taken off the queue before: each then has a representation below
    its lcm, hence below L.  A nonzero remainder of total degree above cap
    is dropped, and from then on the chain criterion is off: a dropped
    remainder leaves pairs without such a representation, and skipping past
    it can lose basis elements the cap would have kept.  chain=False is the
    criterion-off reference for tests.  An S-pair whose products overflow
    is retried alone, on the basis and pair queue repacked wider.  Returns
    (packing, basis, PairStats): the packing it finished at, and the basis
    as primitive (operator, cofactors, denominator) triples.
    """
    basis: list[tuple] = []
    divisors: list[tuple] = []
    heap: list[tuple] = []
    # bit k of rows[i] is set once the pair of i and k has been popped
    rows: list[int] = []
    counts: Counter = Counter()

    def admit(g, rep, den):
        lead = max(g)
        g, rep, den = _primitive(g, rep, den, lead)
        for i, (li, _, _) in enumerate(divisors):
            heappush(heap, (pk.lcm(li, lead), i, len(divisors)))
        divisors.append((lead, g[lead], g))
        basis.append((g, rep, den))
        rows.append(0)

    def chained(i, j, l) -> bool:
        # the set bits are the k with (i, k) and (k, j) popped before; k is
        # neither i nor j, as no row has its own bit and (i, j) is popped now
        both = rows[i] & rows[j]
        while both:
            low = both & -both
            if pk.divides(divisors[low.bit_length() - 1][0], l):
                return True
            both ^= low
        return False

    def reduced(wide, i, j) -> tuple:
        """(remainder, cofactors, denominator) of the S-pair (i, j) at wide,
        all held moved there first; cofactors None unless it is admitted."""
        nonlocal pk
        if wide is not pk:
            basis[:] = _repack(basis, pk, wide)
            divisors[:] = [_divisor(g) for g, _, _ in basis]
            # the order is the same at every width, so the heap stays a heap
            heap[:] = [(wide.lcm(divisors[a][0], divisors[b][0]), a, b) for _, a, b in heap]
            pk = wide
        s, (ci, ai), (cj, aj) = _spair(divisors[i], divisors[j], pk)
        quots, rem, m = _divide(s, divisors, pk, cap)
        if not rem or cap is not None and max(map(pk.degree, rem)) > cap:
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
        if coprime_skip and l == divisors[i][0] + divisors[j][0]:
            counts["product_skips"] += 1
        elif chain and not counts["cap_drops"] and chained(i, j, l):
            counts["chain_skips"] += 1
        else:
            rem, srep, den = _widening(lambda wide: reduced(wide, i, j), pk)
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


def _interreduce(basis, pk) -> tuple:
    """(packing, reduced basis): drop elements whose lead another lead
    divides, reduce each tail by the rest until nothing changes, keeping
    every element primitive, and sort by lead.  A product that overflows
    starts the reduction again on the input repacked wider."""

    def run(wide):
        held = basis if wide is pk else _repack(basis, pk, wide)
        leads = [max(g) for g, _, _ in held]
        kept = [
            held[i]
            for i, lead in enumerate(leads)
            if not any(
                j != i and wide.divides(lj, lead) and (lj != lead or j < i)
                for j, lj in enumerate(leads)
            )
        ]
        # no kept lead divides another, so reduction keeps every lead term
        divisors = [_divisor(g) for g, _, _ in kept]
        changed = True
        while changed:
            changed = False
            for i, (g, rep, den) in enumerate(kept):
                others = divisors[:i] + divisors[i + 1 :]
                quots, rem, m = _divide(g, others, wide)
                if any(quots):
                    changed = True
                    rest = kept[:i] + kept[i + 1 :]
                    new_den = _used_lcm(quots, rest, den)
                    s = m * (new_den // den)
                    acc = [{k: c * s for k, c in r.items()} for r in rep]
                    _add_cofactors(acc, quots, rest, new_den, -1, wide)
                    kept[i] = _primitive(rem, acc, new_den, divisors[i][0])
                    divisors[i] = _divisor(kept[i][0])
        return wide, sorted(kept, key=lambda t: max(t[0]))

    return _widening(run, pk)


@dataclass(frozen=True)
class CommIdeal:
    """Ideal in the commutative polynomial ring, given by generators."""

    nvars: int
    gens: tuple[CommPoly, ...]

    @staticmethod
    def make(nvars: int, gens: Iterable[CommPoly]) -> "CommIdeal":
        gens = tuple(gens)
        for g in gens:
            if g.nvars != nvars:
                raise DimensionMismatchError("generator variable count mismatch")
        return CommIdeal(nvars, gens)

    def groebner(self, order=None) -> tuple[CommPoly, ...]:
        order = order or DegRevLex(self.nvars)
        return _groebner_cached(self, order)

    def normal_form(self, p: CommPoly) -> CommPoly:
        if p.nvars != self.nvars:
            raise DimensionMismatchError("polynomial variable count mismatch")
        gb = self.groebner()

        def run(pk):
            divisors = [_divisor(_integral(pk, _xterms(g))[0]) for g in gb]
            f, d = _integral(pk, _xterms(p))
            _, rem, m = _divide(f, divisors, pk)
            return CommPoly.make(self.nvars, {pk.unpack(k)[1]: Fraction(c, m * d) for k, c in rem.items()})

        top = _top(e for g in (*gb, p) for e, _ in g.terms)
        return _widening(run, _fit(self.nvars, DegRevLex(self.nvars).rows, False, top))

    def contains(self, p: CommPoly) -> bool:
        return self.normal_form(p).is_zero()


@lru_cache(maxsize=256)
def _groebner_cached(ideal: CommIdeal, order) -> tuple[CommPoly, ...]:
    polys = [g for g in ideal.gens if not g.is_zero()]
    pk = _fit(ideal.nvars, order.rows, False, _top(e for g in polys for e, _ in g.terms))
    pk, basis, _ = _buchberger([(_integral(pk, _xterms(g))[0], []) for g in polys], pk, coprime_skip=True)
    pk, basis = _interreduce(basis, pk)
    out = []
    for g, _, _ in basis:
        lc = g[max(g)]
        out.append(CommPoly.make(ideal.nvars, {pk.unpack(k)[1]: Fraction(c, lc) for k, c in g.items()}))
    return tuple(out)


def _over(pk, g: dict, den: int) -> WeylOperator:
    """The packed integer operator g divided by den, as a WeylOperator; g
    comes from the core, so its exponents and coefficients need no checks."""
    return WeylOperator(pk.nvars, tuple(sorted((*pk.unpack(k), Fraction(c, den)) for k, c in g.items())))


def _weyl_top(ops) -> int:
    return _top(mu + nu for op in ops for mu, nu, _ in op.terms)


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
    return [_integral(pk, g.terms) if g.terms else None for g in gens]


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
            query, e = _integral(pk, self.query.terms)
            nf, c = _integral(pk, self.normal_form.terms)
            cofs = [_integral(pk, q.terms) for q in self.cofactors]
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

    def _divided(self, p: WeylOperator, pk, basis, divisors) -> tuple:
        """(f, d, m, rem, cof, den): f = d p packed by pk, and
        den m f = sum_i cof_i . g_i + den rem over the generators g_i."""
        if p.nvars != self.nvars:
            raise DimensionMismatchError("query variable count mismatch")
        f, d = _integral(pk, p.terms)
        quots, rem, m = _divide(f, divisors, pk)
        # m f = sum quots . basis + rem
        den = _used_lcm(quots, basis)
        cof: list[dict] = [{} for _ in self.gens]
        _add_cofactors(cof, quots, basis, den, 1, pk)
        return f, d, m, rem, cof, den

    def normal_form(self, p: WeylOperator):
        """(normal form, cofactors): p = sum cofactor_i . g_i + normal form
        over the generators g_i."""

        def run(pk, basis, divisors, _):
            _, d, m, rem, cof, den = self._divided(p, pk, basis, divisors)
            return _over(pk, rem, m * d), tuple(_over(pk, c, den * m * d) for c in cof)

        return self._at_width(run)

    def membership(self, p: WeylOperator) -> MembershipCertificate:
        """normal_form's answer, its cofactors replayed against the
        generators on the division's integers before they are converted."""

        def run(pk, basis, divisors, gens):
            f, d, m, rem, cof, den = self._divided(p, pk, basis, divisors)
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
            pairs = combinations(divisors, 2)
            return all(not _divide(_spair(di, dj, pk)[0], divisors, pk)[1] for di, dj in pairs)

        return self._at_width(run)


def groebner_weyl(gens: Iterable[WeylOperator], cap: int = 10) -> WeylGroebner:
    return WeylGroebner(gens, cap=cap)
