"""Self-test of the benchmark: seeded inputs repeat, and every correctness
check rejects a corrupted answer.

    python3 -m pytest -q bench/test_bench.py    (or: python3 bench/test_bench.py)
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import checks  # noqa: E402
import workloads  # noqa: E402
from dhyper.exact import IntMatrix, RatVector, integer_kernel  # noqa: E402
from dhyper.groebner import CommPoly, groebner_weyl  # noqa: E402
from dhyper.series import PuiseuxSeries, annihilation_check, gamma_series  # noqa: E402
from dhyper.systems import hypergeometric_system, toric_ideal  # noqa: E402
from dhyper.weyl import WeylOperator  # noqa: E402


def _inputs(name: str, seed: int, ncycles: int = 2):
    wl = workloads.WORKLOADS[name](seed)
    wl.prepare()
    cycles = wl.cycles()
    return [
        (task.kind, json.dumps(task.inputs, sort_keys=True))
        for _ in range(ncycles)
        for task in next(cycles)
    ]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_repeat_per_seed(name):
    first = _inputs(name, 7)
    assert first == _inputs(name, 7)
    assert first != _inputs(name, 8)


def test_toric_check_rejects_a_dropped_element():
    for rows in (workloads.DEMO_A, [[1] * 5, [0, 1, 2, 4, 6]]):
        a = IntMatrix.from_rows(rows)
        basis = toric_ideal(a).groebner()
        kernel = integer_kernel(a).columns()
        assert checks.check_toric(rows, kernel, basis)
        for k in range(len(basis)):
            with pytest.raises(checks.CheckFailed):
                checks.check_toric(rows, kernel, basis[:k] + basis[k + 1 :])
    bad = basis[:-1] + (basis[-1] + CommPoly.variable(0, 5),)
    with pytest.raises(checks.CheckFailed):
        checks.check_toric(rows, kernel, bad)


def test_series_check_rejects_a_perturbed_coefficient():
    rows, beta = workloads.DEMO_A, workloads.DEMO_BETA
    a = IntMatrix.from_rows(rows)
    f = gamma_series(a, RatVector.make(beta), window=5)
    gens = list(hypergeometric_system(a, beta).generators)
    assert checks.check_gamma(rows, beta, f, annihilation_check(gens, f))
    for u in (min(f.coeffs), max(f.coeffs)):
        coeffs = dict(f.coeffs)
        coeffs[u] += Fraction(1, 7)
        g = PuiseuxSeries.make(f.nvars, f.base, f.lattice, coeffs, window=f.window)
        with pytest.raises(checks.CheckFailed):
            checks.check_gamma(rows, beta, g, annihilation_check(gens, g))


def _corrupt_operator(op_json: dict) -> dict:
    """Change one term's coefficient, or add a unit term to a zero operator."""
    bad = json.loads(json.dumps(op_json))
    if bad["terms"]:
        bad["terms"][0]["coeff"] = str(Fraction(bad["terms"][0]["coeff"]) + 1)
    else:
        zero = [0] * bad["nvars"]
        bad["terms"].append({"coeff": "1", "x": zero, "dx": zero})
    return bad


def test_certificate_check_rejects_a_changed_cofactor_term():
    gens = list(hypergeometric_system(IntMatrix.from_rows(workloads.DEMO_A), workloads.DEMO_BETA).generators)
    gb = groebner_weyl(gens, cap=10)
    cert = gb.membership(workloads.MISSING)
    assert checks.check_membership(workloads.MISSING, gens, True, cert)
    cofactors = list(cert.cofactors)
    cofactors[0] = WeylOperator.from_json(_corrupt_operator(cofactors[0].to_json()))
    bad = type(cert)(cert.member, cert.query, cert.normal_form, tuple(cofactors), cert.basis_status)
    with pytest.raises(checks.CheckFailed):
        checks.check_membership(workloads.MISSING, gens, True, bad)


def test_erdelyi_check_rejects_a_changed_cofactor_term():
    rc, text = workloads._call_cli(["example-erdelyi"])
    assert checks.check_erdelyi(workloads.MISSING, rc, text)
    for key in ("membership_horn", "membership_ahyp"):
        report = json.loads(text)
        cofactors = report["results"][key]["cofactors"]
        cofactors[0] = _corrupt_operator(cofactors[0])
        with pytest.raises(checks.CheckFailed):
            checks.check_erdelyi(workloads.MISSING, rc, json.dumps(report))


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
