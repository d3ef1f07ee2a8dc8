"""Seeded workloads for the dhyper benchmark.

A workload turns a seed into inputs for the program and nothing else
reaches the program.  ``prepare`` does the program work that belongs to
set-up (only ``membership`` has any: it completes the bases its queries run
against).  ``cycles`` yields the timed tasks in whole cycles.  Every cycle
of a workload has the same mix of task kinds, and a run stops only at a
cycle boundary, so its throughput does not depend on where the time budget
happens to fall.

Program functions are always reached through their module attributes
(``systems.toric_ideal``, ``cli.main``, ...) at call time, so the traced run
sees the wrappers it installs.
"""

from __future__ import annotations

import contextlib
import io
import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable

from dhyper import cli, exact, groebner, series, systems
from dhyper.exact import IntMatrix, RatVector
from dhyper.weyl import WeylOperator, normal_product

import checks

DEMO_A = [[3, 2, 1, 0], [0, 1, 2, 3]]
DEMO_B = [[1, 0], [-2, 1], [1, -2], [0, 1]]
DEMO_BETA = (Fraction(-11, 6), Fraction(-5, 3))
QUARTIC = [[1, 1, 1, 1, 1], [0, 1, 2, 3, 4]]
QUINTIC = [[1, 1, 1, 1, 1, 1], [0, 1, 2, 3, 4, 5]]
QUARTIC_BETA = (Fraction(1, 2), Fraction(1, 3))

# d1 d4 - d2 d3: in the A-hypergeometric ideal of the demo, not in the Horn one
MISSING = WeylOperator.make(
    4,
    {
        ((0, 0, 0, 0), (1, 0, 0, 1)): Fraction(1),
        ((0, 0, 0, 0), (0, 1, 1, 0)): Fraction(-1),
    },
)


@dataclass
class Task:
    """One certified answer: ``run`` is timed, ``check`` is not."""

    kind: str
    inputs: object  # a plain description of the inputs, for the self-test
    run: Callable[[], object]
    check: Callable[[object], bool]


def _fraction_in_unit_interval(rng: random.Random) -> Fraction:
    while True:
        q = rng.randint(2, 9)
        p = rng.randint(1, q - 1)
        if gcd(p, q) == 1:
            return Fraction(p, q)


def _call_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    return rc, out.getvalue()


class Erdelyi:
    """``dhyper example-erdelyi`` in-process, at seeded a, a' in (0, 1)."""

    name = "erdelyi"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def prepare(self) -> None:
        pass

    def cycles(self):
        while True:
            a = _fraction_in_unit_interval(self.rng)
            ap = _fraction_in_unit_interval(self.rng)
            argv = ["example-erdelyi", "--a-param", str(a), "--a-prime", str(ap)]
            yield [
                Task(
                    "example-erdelyi",
                    argv,
                    lambda argv=argv: _call_cli(argv),
                    lambda ans: checks.check_erdelyi(MISSING, *ans),
                )
            ]


def _curves():
    out = []
    for d in (5, 6):
        for a in range(1, d):
            for b in range(a + 1, d):
                for c in range(b + 1, d):
                    out.append([[1] * 5, [0, a, b, c, d]])
    return out + [QUARTIC, QUINTIC]


# Projective monomial curves with five columns of degree 5 and 6, and the
# rational normal quartic and quintic.  Matrices left out for run length are
# listed with their times in benchmark_notes.json.
TORIC_CATALOGUE = _curves()

# Pass p runs every catalogue matrix with its columns rotated by p, which is
# another ideal, so no pass hits the Groebner cache of an earlier one.  The
# rotations 0..2 are bounded (at most 7 s per matrix at the seed commit);
# rotation 3 has matrices running past 20 s, so the catalogue ends there.
TORIC_PASSES = 3


def _rotate(rows, p):
    return [r[p:] + r[:p] for r in rows]


class Toric:
    """Toric ideal bases of distinct matrices: commutative Buchberger only."""

    name = "toric"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def prepare(self) -> None:
        pass

    @staticmethod
    def task(rows) -> Task:
        def run():
            return systems.toric_ideal(IntMatrix.from_rows(rows)).groebner()

        def check(basis):
            kernel = exact.integer_kernel(IntMatrix.from_rows(rows))
            return checks.check_toric(rows, kernel.columns(), basis)

        return Task("toric", rows, run, check)

    def cycles(self):
        for p in range(TORIC_PASSES):
            order = list(range(len(TORIC_CATALOGUE)))
            self.rng.shuffle(order)
            yield [self.task(_rotate(TORIC_CATALOGUE[i], p)) for i in order]


def _nonresonant_beta(rng: random.Random, a: IntMatrix) -> tuple[Fraction, ...]:
    while True:
        beta = tuple(
            Fraction(rng.randint(-20, 20), rng.choice((2, 3, 5, 7))) for _ in range(a.rows)
        )
        if all(b.denominator != 1 for b in beta) and exact.is_nonresonant(
            a, RatVector.make(beta)
        ).nonresonant:
            return beta


# (matrix, window) of the gamma-series tasks in one cycle, then one toral task
SERIES_CYCLE = [("demo", w) for w in (12, 13, 14, 15, 16)] + [("quartic", 4), ("quartic", 5)]
TORAL_WINDOW = 6


class Series:
    """Gamma series and annihilation on two lattices, plus the toral pipeline.

    The toric ideal of each matrix repeats across tasks, so the commutative
    Groebner cache is hit after the first task of each matrix.
    """

    name = "series"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.mats = {"demo": IntMatrix.from_rows(DEMO_A), "quartic": IntMatrix.from_rows(QUARTIC)}
        self.b = IntMatrix.from_rows(DEMO_B)

    def prepare(self) -> None:
        pass

    def gamma_task(self, which: str, window: int) -> Task:
        a = self.mats[which]
        beta = _nonresonant_beta(self.rng, a)
        rows = [list(r) for r in a.entries]

        def run():
            f = series.gamma_series(a, RatVector.make(beta), window=window)
            gens = systems.hypergeometric_system(a, beta).generators
            return f, series.annihilation_check(list(gens), f)

        return Task(
            f"{which}-w{window}",
            (which, window, [str(b) for b in beta]),
            run,
            lambda ans: checks.check_gamma(rows, beta, *ans),
        )

    def toral_task(self) -> Task:
        a, b = self.mats["demo"], self.b
        beta = _nonresonant_beta(self.rng, a)

        def run():
            basis, reports = [], []
            for dec, cls in systems.block_decompositions(b):
                if cls.verdict != systems.TORAL:
                    continue
                spec = systems.toral_component_ideal(b, dec, beta, monomial_cap=4, a=a)
                for f in series.toral_solution_basis(b, dec, beta, window=TORAL_WINDOW, a=a):
                    basis.append(f)
                    reports.append(series.annihilation_check(list(spec.generators), f))
            return basis, reports

        rows = [list(r) for r in a.entries]
        return Task(
            "toral",
            ("toral", [str(x) for x in beta]),
            run,
            lambda ans: checks.check_toral(rows, beta, *ans),
        )

    def cycles(self):
        while True:
            yield [self.gamma_task(w, k) for w, k in SERIES_CYCLE] + [self.toral_task()]


def _random_operator(rng: random.Random, n: int, max_degree: int, nterms: int) -> WeylOperator:
    terms = {}
    for _ in range(nterms):
        e = [0] * (2 * n)
        for _ in range(rng.randint(0, max_degree)):
            e[rng.randrange(2 * n)] += 1
        terms[(tuple(e[:n]), tuple(e[n:]))] = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)))
    return WeylOperator.make(n, terms)


# (label, system constructor, degree cap); the quartic basis comes back capped
MEMBERSHIP_BASES = [
    ("horn", lambda: systems.horn_system(
        IntMatrix.from_rows(DEMO_B), DEMO_BETA, a=IntMatrix.from_rows(DEMO_A)), 10),
    ("ahyp", lambda: systems.hypergeometric_system(IntMatrix.from_rows(DEMO_A), DEMO_BETA), 10),
    ("quartic", lambda: systems.hypergeometric_system(IntMatrix.from_rows(QUARTIC), QUARTIC_BETA), 4),
]


class Membership:
    """Membership queries against three precomputed Weyl bases.

    Each query is a planted member sum c_i g_i with random cofactors of
    degree <= 4; every other query is also perturbed by a random operator.
    """

    name = "membership"

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.bases = []

    def prepare(self) -> None:
        for label, build, cap in MEMBERSHIP_BASES:
            gens = list(build().generators)
            self.bases.append((label, gens, groebner.groebner_weyl(gens, cap=cap)))

    def query_task(self, label, gens, gb, perturb: bool) -> Task:
        n = gens[0].nvars
        query = WeylOperator.zero(n)
        for g in gens:
            query = query + normal_product(_random_operator(self.rng, n, 4, 2), g)
        if perturb:
            query = query + _random_operator(self.rng, n, 4, 2)
        planted = not perturb
        return Task(
            f"{label}-{'perturbed' if perturb else 'planted'}",
            (label, query.to_json()),
            lambda: gb.membership(query),
            lambda cert: checks.check_membership(query, gens, planted, cert),
        )

    def cycles(self):
        while True:
            yield [
                self.query_task(label, gens, gb, perturb)
                for label, gens, gb in self.bases
                for perturb in (False, True)
            ]


WORKLOADS = {w.name: w for w in (Erdelyi, Toric, Series, Membership)}
