"""Correctness checks for benchmark answers, run outside the timed region.

Each check takes a task's inputs and the answer the program gave and either
returns ``True`` (decided and correct), returns ``False`` (correct but not
decided: an "inconclusive" membership answer, which only a capped basis may
give) or raises ``CheckFailed``.  The checks recompute what they can with
their own arithmetic instead of trusting the engine that produced the
answer: binomial fibres and monomial normal forms for toric bases, the
gamma recurrence for lattice series, and cofactor replay for certificates.
"""

from __future__ import annotations

import json
from fractions import Fraction
from itertools import combinations_with_replacement

from dhyper.weyl import WeylOperator, normal_product


class CheckFailed(Exception):
    """A task's answer is wrong."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


# ---------------------------------------------------------------------------
# Toric bases


def _degrevlex(e):
    return (sum(e), tuple(-x for x in reversed(e)))


def _divides(a, b) -> bool:
    return all(x <= y for x, y in zip(a, b))


def _image(a_rows, u):
    return tuple(sum(r[j] * u[j] for j in range(len(u))) for r in a_rows)


def _monomial_normal_form(u, rules):
    """Rewrite d^u with lead -> tail rules until no lead divides it."""
    while True:
        for lead, tail in rules:
            if _divides(lead, u):
                u = tuple(x - l + t for x, l, t in zip(u, lead, tail))
                break
        else:
            return u


def check_toric(a_rows, kernel_cols, basis) -> bool:
    """A reduced degrevlex Groebner basis of the toric ideal of ``a_rows``.

    Every element must be a monic binomial d^u - d^v with A.u = A.v and
    lead d^u; no lead divides another; every kernel-basis binomial reduces
    to zero; and, up to the largest basis degree, all monomials of one
    A-fibre share a single normal form (so every binomial of the ideal of
    that degree reduces to zero, which catches a missing element).
    """
    n = len(a_rows[0])
    _require(len(basis) > 0, "empty toric basis")
    rules = []
    for g in basis:
        terms = dict(g.terms)
        _require(len(terms) == 2, f"not a binomial: {g}")
        (u, cu), (v, cv) = sorted(terms.items(), key=lambda t: _degrevlex(t[0]), reverse=True)
        _require((cu, cv) == (1, -1), f"binomial not monic with -1 tail: {g}")
        _require(_image(a_rows, u) == _image(a_rows, v), f"A.u != A.v for {g}")
        rules.append((u, v))
    leads = [u for u, _ in rules]
    for i, li in enumerate(leads):
        for j, lj in enumerate(leads):
            _require(i == j or not _divides(li, lj), "a leading monomial divides another")
    for col in kernel_cols:
        _require(not any(_image(a_rows, col)), "kernel vector not in ker A")
        pos = tuple(max(x, 0) for x in col)
        neg = tuple(max(-x, 0) for x in col)
        _require(
            _monomial_normal_form(pos, rules) == _monomial_normal_form(neg, rules),
            "a kernel-basis binomial does not reduce to zero",
        )
    top = max(sum(u) for u in leads)
    for deg in range(1, top + 1):
        fibres: dict[tuple, tuple] = {}
        for combo in combinations_with_replacement(range(n), deg):
            u = [0] * n
            for j in combo:
                u[j] += 1
            u = tuple(u)
            nf = _monomial_normal_form(u, rules)
            seen = fibres.setdefault(_image(a_rows, u), nf)
            _require(seen == nf, f"two monomials of one A-fibre in degree {deg} differ mod the basis")
    return True


# ---------------------------------------------------------------------------
# Lattice series


def _falling(w: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for t in range(k):
        out *= w - t
    return out


def _action(nu, exponent) -> Fraction:
    out = Fraction(1)
    for k, w in zip(nu, exponent):
        out *= _falling(w, k)
    return out


def _window_points(m: int, r: int):
    pts = [()]
    for _ in range(m):
        pts = [p + (x,) for p in pts for x in range(-r, r + 1)]
    return pts


def check_gamma(a_rows, beta, f, report) -> bool:
    """A gamma series for (A, beta) with full support that the system kills.

    Recomputed here: A.v = beta for the base exponent, one coefficient at
    every window point (density 1), and the binomial recurrence
    lam_{z+e_i} [v+u+b]_{b+} = lam_z [v+u]_{b-} across every window edge,
    where b is lattice column i.
    """
    lat = [list(r) for r in f.lattice.entries]
    n, m = len(lat), (len(lat[0]) if lat else 0)
    _require(tuple(_image(a_rows, f.base)) == tuple(beta), "base exponent does not solve A.v = beta")
    pts = _window_points(m, f.window)
    _require(len(f.coeffs) == len(pts), f"density {len(f.coeffs)}/{len(pts)} != 1")

    def amb(z):
        return tuple(sum(lat[i][j] * z[j] for j in range(m)) for i in range(n))

    lam = {}
    for z in pts:
        u = amb(z)
        _require(u in f.coeffs, f"missing coefficient at window point {z}")
        lam[z] = f.coeffs[u]
    for j in range(m):
        b = [lat[i][j] for i in range(n)]
        pos = [max(x, 0) for x in b]
        neg = [max(-x, 0) for x in b]
        for z in pts:
            z2 = tuple(x + (1 if t == j else 0) for t, x in enumerate(z))
            if z2[j] > f.window:
                continue
            e1 = [q + x for q, x in zip(f.base, amb(z))]
            e2 = [q + x for q, x in zip(f.base, amb(z2))]
            _require(
                lam[z2] * _action(pos, e2) == lam[z] * _action(neg, e1),
                f"recurrence fails on the edge {z} -> {z2}",
            )
    statuses = [v.status for v in report.verdicts]
    _require(bool(statuses) and all(s == "ZERO_ON_WINDOW" for s in statuses), f"annihilation verdicts {statuses}")
    return True


def check_toral(a_rows, beta, basis, reports) -> bool:
    """Every series of the toral solution basis passes the gamma-series check."""
    _require(len(basis) > 0, "empty toral solution basis")
    for f, report in zip(basis, reports):
        check_gamma(a_rows, beta, f, report)
    return True


# ---------------------------------------------------------------------------
# Membership certificates


def replays(query, gens, cofactors, normal_form) -> bool:
    """sum cofactor_i . gen_i + normal form == query, by normal_product."""
    if len(cofactors) != len(gens):
        return False
    total = normal_form
    for q, g in zip(cofactors, gens):
        total = total + normal_product(q, g)
    return total == query


def check_membership(query, gens, planted: bool, cert) -> bool:
    """The certificate replays, a planted member is never denied, and
    "inconclusive" comes only from a capped basis."""
    _require(cert.query == query, "certificate answers another query")
    _require(replays(query, gens, cert.cofactors, cert.normal_form), "cofactors do not replay")
    member = cert.member
    _require(member in (True, False, "inconclusive"), f"unknown answer {member!r}")
    _require(not (planted and member is False), "a planted member was denied")
    _require(member is not True or cert.normal_form.is_zero(), "member with nonzero normal form")
    _require(member is not False or cert.basis_status == "complete", "denial from a capped basis")
    if member == "inconclusive":
        _require(cert.basis_status == "capped", "inconclusive answer from a complete basis")
        return False
    return True


# ---------------------------------------------------------------------------
# The worked example through the CLI


def _ops(items):
    return [WeylOperator.from_json(o) for o in items]


def check_erdelyi(missing, rc: int, text: str) -> bool:
    """Exit code 0, six passed verdicts, and both membership certificates
    rebuilt from the report JSON replay against their systems."""
    _require(rc == 0, f"exit code {rc}")
    report = json.loads(text)
    verdicts = report["verdicts"]
    _require(len(verdicts) == 6 and all(v["passed"] for v in verdicts), "a verdict failed")
    results = report["results"]
    for key, system, expected in (
        ("membership_horn", "horn_system", False),
        ("membership_ahyp", "ahyp_system", True),
    ):
        cert = results[key]
        _require(cert["member"] is expected, f"{key} answered {cert['member']!r}")
        ok = replays(
            missing,
            _ops(results[system]["generators"]),
            _ops(cert["cofactors"]),
            WeylOperator.from_json(cert["normal_form"]),
        )
        _require(ok, f"{key} certificate does not replay")
    return True
