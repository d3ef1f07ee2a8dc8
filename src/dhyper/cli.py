"""Command line front end: exact JSON in, canonical JSON report out.

Matrix and vector flags take JSON inline or @path to read a file.  All
rational literals are integers or "p/q" strings; floats are rejected so
every computation downstream stays exact.  Reports and --emit artifacts
are written by one writer, _json_text, whose bytes are those of
json.dumps(obj, indent=2, sort_keys=True): sorted keys, so identical
invocations are byte-identical.  With indent set the standard library
encodes in pure Python; the writer escapes strings with json's C
encode_basestring_ascii and prints ints with int.__repr__, as json does.

Exit codes: 0 every check passed, 1 at least one check failed, 2 to 5
the exit_code of the DhyperError raised (errors.py: 2 malformed input, 3
shape mismatch, 4 unsupported lattice character, 5 other domain errors),
6 internal error (an exception that is not a DhyperError, which is a bug
in dhyper).  Every exit prints one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii

from .errors import DhyperError, InputFormatError, ResultTooLargeError
from .exact import (
    IntMatrix,
    RatVector,
    facets,
    is_nonresonant,
    parse_fraction,
)
from .groebner import groebner_weyl
from .mgraph import bounded_representatives, lattice_polynomial_solutions
from .series import (
    PuiseuxSeries,
    annihilation_check,
    density,
    gamma_series,
    monomial_substitution,
    recurrence_series,
    toral_solution_basis,
)
from .systems import (
    TORAL,
    block_decompositions,
    horn_system,
    hypergeometric_system,
    toral_component_ideal,
    toric_ideal,
)
from .weyl import WeylOperator

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INTERNAL = 6


@dataclass(frozen=True)
class Verdict:
    name: str
    passed: bool
    detail: dict

    def to_json(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


# ---------------------------------------------------------------------------
# Input decoding


def _read_flag_text(text: str) -> str:
    if text.startswith("@"):
        try:
            with open(text[1:], "r", encoding="utf-8") as fh:
                return fh.read()
        except OSError as exc:
            raise InputFormatError(f"cannot read {text[1:]}: {exc}") from exc
    return text


def _no_floats(obj) -> None:
    if isinstance(obj, float):
        raise InputFormatError(
            'rational literals must be integers or "p/q" strings, not floats'
        )
    if isinstance(obj, list):
        for x in obj:
            _no_floats(x)
    if isinstance(obj, dict):
        for v in obj.values():
            _no_floats(v)


def _load_json(text: str):
    text = _read_flag_text(text)
    try:
        obj = json.loads(text)
        _no_floats(obj)
    except ValueError as exc:
        # a JSONDecodeError, or an integer literal past the int-string limit
        raise InputFormatError(f"malformed JSON: {exc}") from exc
    except RecursionError as exc:
        raise InputFormatError("malformed JSON: nested too deeply") from exc
    return obj


def _is_int(x) -> bool:
    # JSON true/false decode to bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _as_matrix(obj) -> IntMatrix:
    if not isinstance(obj, list) or not all(isinstance(r, list) for r in obj):
        raise InputFormatError("matrix must be a JSON array of rows")
    for r in obj:
        for x in r:
            if not _is_int(x):
                raise InputFormatError("matrix entries must be integers")
    m = IntMatrix.from_rows(obj)
    if m.rows == 0 or m.cols == 0:
        raise InputFormatError("matrix must have at least one row and one column")
    return m


def _as_vector(obj) -> RatVector:
    if not isinstance(obj, list):
        raise InputFormatError("vector must be a JSON array")
    vals = []
    for x in obj:
        if _is_int(x):
            vals.append(Fraction(x))
        elif isinstance(x, str):
            vals.append(parse_fraction(x))
        else:
            raise InputFormatError('vector entries must be integers or "p/q" strings')
    return RatVector.make(vals)


def _as_operators(obj) -> list[WeylOperator]:
    if isinstance(obj, dict):
        obj = [obj]
    if not isinstance(obj, list) or not obj:
        raise InputFormatError("expected a JSON operator or nonempty array of them")
    return [WeylOperator.from_json(o) for o in obj]


def _comm_to_json(p) -> dict:
    return {
        "poly": str(p),
        "terms": [
            {"dx": list(e), "coeff": str(c)}
            for e, c in sorted(p.as_dict().items())
        ],
    }


# ---------------------------------------------------------------------------
# Subcommand handlers: each returns (verdicts, payload)


def _cmd_facets(args):
    a = _as_matrix(_load_json(args.a))
    fs = facets(a)
    payload = {"facets": [f.to_json() for f in fs]}
    verdicts = [
        Verdict("facets-computed", True, {"count": len(fs)}),
    ]
    return verdicts, payload


def _cmd_nonresonant(args):
    a = _as_matrix(_load_json(args.a))
    beta = _as_vector(_load_json(args.beta))
    verdict = is_nonresonant(a, beta)
    detail: dict = {"beta": beta.to_json()}
    if verdict.violating is not None:
        detail["violating_facet"] = verdict.violating.to_json()
        detail["value"] = str(verdict.violating.value(beta))
    verdicts = [Verdict("nonresonant", verdict.nonresonant, detail)]
    return verdicts, {"nonresonance": verdict.to_json()}


def _cmd_toric(args):
    a = _as_matrix(_load_json(args.a))
    gb = toric_ideal(a).groebner()
    payload = {"groebner": [_comm_to_json(g) for g in gb]}
    return [Verdict("toric-groebner", True, {"count": len(gb)})], payload


def _cmd_horn(args):
    b = _as_matrix(_load_json(args.b))
    beta = _as_vector(_load_json(args.beta))
    a = _as_matrix(_load_json(args.a)) if args.a else None
    spec = horn_system(b, tuple(beta.entries), a=a)
    return (
        [Verdict("horn-built", True, {"generators": len(spec.generators)})],
        {"system": spec.to_json()},
    )


def _cmd_ahyp(args):
    a = _as_matrix(_load_json(args.a))
    beta = _as_vector(_load_json(args.beta))
    spec = hypergeometric_system(a, tuple(beta.entries))
    return (
        [Verdict("ahyp-built", True, {"generators": len(spec.generators)})],
        {"system": spec.to_json()},
    )


def _cmd_components(args):
    b = _as_matrix(_load_json(args.b))
    a = _as_matrix(_load_json(args.a)) if args.a else None
    beta = _as_vector(_load_json(args.beta)) if args.beta else None
    decs = block_decompositions(b)
    items = []
    toral_count = 0
    for dec, cls in decs:
        entry = {"decomposition": dec.to_json(), "class": cls.to_json()}
        if cls.verdict == TORAL:
            toral_count += 1
            if beta is not None:
                spec = toral_component_ideal(
                    b, dec, tuple(beta.entries), monomial_cap=args.monomial_cap, a=a
                )
                entry["ideal"] = spec.to_json()
        items.append(entry)
    verdicts = [
        Verdict(
            "components-classified",
            True,
            {"count": len(items), "toral": toral_count},
        )
    ]
    return verdicts, {"components": items}


def _cmd_mgraph(args):
    m = _as_matrix(_load_json(args.m))
    survey = bounded_representatives(m, args.cap)
    bounded = []
    for comp in survey.bounded:
        sols = lattice_polynomial_solutions(m, comp)
        entry = comp.to_json()
        entry["coefficients"] = [
            {"vertex": list(v), "coeff": str(sols[v])}
            for v in sorted(sols)
        ]
        bounded.append(entry)
    payload = {
        "cap": survey.cap,
        "complete": survey.complete,
        "bounded": bounded,
        "explored": [
            {"representative": list(c.representative), "verdict": c.verdict}
            for c in survey.explored
        ],
    }
    verdicts = [
        Verdict(
            "mgraph-survey",
            True,
            {
                "bounded_classes": len(survey.bounded),
                "explored_classes": len(survey.explored),
                "complete": survey.complete,
            },
        )
    ]
    return verdicts, payload


def _cmd_gamma(args):
    a = _as_matrix(_load_json(args.a))
    beta = _as_vector(_load_json(args.beta))
    v = _as_vector(_load_json(args.v)) if args.v else None
    f = gamma_series(a, beta, v=v, window=args.window)
    dens = density(f)
    verdicts = [
        Verdict(
            "gamma-built",
            True,
            {"terms": len(f.coeffs), "density": str(dens)},
        )
    ]
    return verdicts, {"series": f.to_json(), "density": str(dens)}


def _cmd_membership(args):
    gens = _as_operators(_load_json(args.gens))
    query = _as_operators(_load_json(args.query))
    if len(query) != 1:
        raise InputFormatError("query must be a single operator")
    gb = groebner_weyl(gens, cap=args.cap)
    cert = gb.membership(query[0])
    conclusive = cert.member != "inconclusive"
    verdicts = [
        Verdict(
            "membership-conclusive",
            conclusive,
            {
                "member": cert.member if isinstance(cert.member, str) else bool(cert.member),
                "basis_status": cert.basis_status,
                "normal_form": str(cert.normal_form),
            },
        )
    ]
    return verdicts, {"certificate": cert.to_json()}


def _cmd_annihilate(args):
    gens = _as_operators(_load_json(args.gens))
    f = PuiseuxSeries.from_json(_load_json(args.series))
    report = annihilation_check(gens, f)
    verdicts = [
        Verdict(
            "annihilation",
            report.all_zero,
            {
                "statuses": [v.status for v in report.verdicts],
                "inconclusive": report.any_inconclusive,
            },
        )
    ]
    return verdicts, {"annihilation": report.to_json()}


# ---------------------------------------------------------------------------
# The worked example: one degenerate Horn system end to end

EXAMPLE_B = [[1, 0], [-2, 1], [1, -2], [0, 1]]
EXAMPLE_A = [[3, 2, 1, 0], [0, 1, 2, 3]]


def _example_ratios(a: Fraction, ap: Fraction):
    """The ratios (-2m + n + a' - 1)(-2m + n + a' - 2) / ((m + 1)(m - 2n + a))
    and its mirror (m, a <-> n, a'), each one Fraction of integers, with the
    denominators of a = p/q and a' = p'/q' cleared."""
    p, q = a.numerator, a.denominator
    pp, qp = ap.numerator, ap.denominator

    def ratio_m(k):
        m, n = k
        s = (-2 * m + n) * qp + pp
        return Fraction(q * (s - qp) * (s - 2 * qp), qp * qp * (m + 1) * ((m - 2 * n) * q + p))

    def ratio_n(k):
        m, n = k
        s = (-2 * n + m) * q + p
        return Fraction(qp * (s - q) * (s - 2 * q), q * q * (n + 1) * ((n - 2 * m) * qp + pp))

    return [ratio_m, ratio_n]


def _cmd_example(args):
    a = parse_fraction(args.a_param)
    ap = parse_fraction(args.a_prime)
    window = args.window
    cap = args.cap
    b = IntMatrix.from_rows(EXAMPLE_B)
    amat = IntMatrix.from_rows(EXAMPLE_A)
    beta = (2 * ap + a - 3, 2 * a + ap - 3)

    horn = horn_system(b, beta, a=amat)
    ahyp = hypergeometric_system(amat, beta)

    g = recurrence_series(_example_ratios(a, ap), window=window)
    vprime = RatVector.make([Fraction(0), ap - 1, a - 1, Fraction(0)])
    f = monomial_substitution(g, b, vprime)

    f_horn = annihilation_check(list(horn.generators), f)
    f_ahyp = annihilation_check(list(ahyp.generators), f)

    decs = block_decompositions(b)
    dec = [d for d, _ in decs if d.jbar == (1, 2)][0]
    mono = toral_solution_basis(b, dec, beta, window=window, a=amat)[0]
    mono_horn = annihilation_check(list(horn.generators), mono)

    missing = WeylOperator.make(
        4,
        {
            ((0, 0, 0, 0), (1, 0, 0, 1)): Fraction(1),
            ((0, 0, 0, 0), (0, 1, 1, 0)): Fraction(-1),
        },
    )
    mono_missing = annihilation_check([missing], mono)
    witness = mono_missing.verdicts[0]

    horn_gb = groebner_weyl(list(horn.generators), cap=cap)
    ahyp_gb = groebner_weyl(list(ahyp.generators), cap=cap)
    cert_horn = horn_gb.membership(missing)
    cert_ahyp = ahyp_gb.membership(missing)

    verdicts = [
        Verdict(
            "series-solves-horn",
            f_horn.all_zero,
            {"window": window, "terms": len(f.coeffs)},
        ),
        Verdict(
            "series-solves-ahyp",
            f_ahyp.all_zero,
            {"window": window},
        ),
        Verdict(
            "monomial-solves-horn",
            mono_horn.all_zero,
            {"exponent": [str(q) for q in mono.base]},
        ),
        Verdict(
            "monomial-fails-missing-binomial",
            witness.status == "NONZERO",
            {
                "witness_coeff": str(witness.witness_coeff)
                if witness.witness_coeff is not None
                else None
            },
        ),
        Verdict(
            "missing-binomial-in-ahyp",
            cert_ahyp.member is True,
            {"basis_status": cert_ahyp.basis_status},
        ),
        Verdict(
            "missing-binomial-not-in-horn",
            cert_horn.member is False,
            {
                "basis_status": cert_horn.basis_status,
                "normal_form": str(cert_horn.normal_form),
            },
        ),
    ]
    payload = {
        "beta": [str(q) for q in beta],
        "horn_system": horn.to_json(),
        "ahyp_system": ahyp.to_json(),
        "series_g": g.to_json(),
        "series_f": f.to_json(),
        "monomial": mono.to_json(),
        "annihilation_f_horn": f_horn.to_json(),
        "annihilation_f_ahyp": f_ahyp.to_json(),
        "annihilation_monomial_horn": mono_horn.to_json(),
        "annihilation_monomial_missing": mono_missing.to_json(),
        "membership_horn": cert_horn.to_json(),
        "membership_ahyp": cert_ahyp.to_json(),
    }
    return verdicts, payload


# ---------------------------------------------------------------------------
# Output


def _json_text(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte.

    Values of exact type str, int, list, tuple and dict take the first
    branches; their subclasses are found by isinstance, in json's order.
    A non-str key and any other value (a float, or a type json refuses) go
    to json.dumps, so they are written, or refused, as json writes them.
    An int past the int-string limit raises int.__repr__'s ValueError, as
    in json.
    """
    out: list[str] = []
    put = out.append

    def write(obj, pad: str) -> None:
        # pad is the newline and indentation of obj's own line
        t = type(obj)
        if t is str:
            put(encode_basestring_ascii(obj))
        elif t is int:
            put(int.__repr__(obj))
        elif t is list or t is tuple:
            if not obj:
                put("[]")
                return
            inner = pad + "  "
            sep, comma = "[" + inner, "," + inner
            for v in obj:
                put(sep)
                write(v, inner)
                sep = comma
            put(pad + "]")
        elif t is dict:
            if not obj:
                put("{}")
                return
            inner = pad + "  "
            sep, comma = "{" + inner, "," + inner
            for k, v in sorted(obj.items()):
                if type(k) is str:
                    put(sep + encode_basestring_ascii(k) + ": ")
                else:
                    # json.dumps({k: None}) is "{", the key as json quotes it, ": null}"
                    put(sep + json.dumps({k: None})[1:-7] + ": ")
                write(v, inner)
                sep = comma
            put(pad + "}")
        elif obj is None:
            put("null")
        elif obj is True:
            put("true")
        elif obj is False:
            put("false")
        elif isinstance(obj, str):
            put(encode_basestring_ascii(obj))
        elif isinstance(obj, int):
            put(int.__repr__(obj))
        elif isinstance(obj, (list, tuple)):
            write(list(obj), pad)
        elif isinstance(obj, dict):
            write(dict(obj.items()), pad)
        else:
            put(json.dumps(obj))

    write(obj, "\n")
    return "".join(out)


# ---------------------------------------------------------------------------
# Dispatch


class _Parser(argparse.ArgumentParser):
    """argparse whose usage errors (a missing flag, --window true) raise
    InputFormatError, so they exit 2 with one JSON object like any bad input.
    A negative rational such as -1/2 is a value, as -1 and -0.5 are to
    argparse; subparsers are made of this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+(/\d+)?$|^-\d*\.\d+$")

    def error(self, message):
        raise InputFormatError(message)


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on first use: parse_args keeps
    no state in it, so every run can share it."""
    parser = _Parser(
        prog="dhyper",
        description="exact workbench for lattice hypergeometric systems",
    )
    parser.add_argument("--emit", help="directory for emitted JSON artifacts")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("facets", help="facets of the column cone")
    p.add_argument("--a", required=True, help="integer matrix JSON")

    p = sub.add_parser("nonresonant", help="facet resonance screen")
    p.add_argument("--a", required=True)
    p.add_argument("--beta", required=True, help='vector JSON of "p/q" entries')

    p = sub.add_parser("toric", help="reduced basis of the column toric ideal")
    p.add_argument("--a", required=True)

    p = sub.add_parser("horn", help="binomial system of a kernel matrix")
    p.add_argument("--b", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--a", help="optional compatible degree matrix")

    p = sub.add_parser("ahyp", help="lattice system of a degree matrix")
    p.add_argument("--a", required=True)
    p.add_argument("--beta", required=True)

    p = sub.add_parser("components", help="block decompositions and their ideals")
    p.add_argument("--b", required=True)
    p.add_argument("--beta")
    p.add_argument("--a")
    p.add_argument("--monomial-cap", type=int, default=6)

    p = sub.add_parser("mgraph", help="move-graph survey of a block matrix")
    p.add_argument("--m", required=True)
    p.add_argument("--cap", type=int, default=12)

    p = sub.add_parser("gamma", help="lattice series for a degree matrix")
    p.add_argument("--a", required=True)
    p.add_argument("--beta", required=True)
    p.add_argument("--v", help="optional base exponent")
    p.add_argument("--window", type=int, default=8)

    p = sub.add_parser("membership", help="left-ideal membership certificate")
    p.add_argument("--gens", required=True, help="JSON array of operators")
    p.add_argument("--query", required=True, help="single operator JSON")
    p.add_argument("--cap", type=int, default=10)

    p = sub.add_parser("annihilate", help="apply operators to a series")
    p.add_argument("--gens", required=True)
    p.add_argument("--series", required=True)

    p = sub.add_parser(
        "example-erdelyi",
        help="reproduce the cubic-kernel worked example end to end",
    )
    p.add_argument("--a-param", default="1/2", help='rational "p/q"')
    p.add_argument("--a-prime", default="1/3", help='rational "p/q"')
    p.add_argument("--window", type=int, default=8)
    p.add_argument("--cap", type=int, default=10)

    return parser


_HANDLERS = {
    "facets": _cmd_facets,
    "nonresonant": _cmd_nonresonant,
    "toric": _cmd_toric,
    "horn": _cmd_horn,
    "ahyp": _cmd_ahyp,
    "components": _cmd_components,
    "mgraph": _cmd_mgraph,
    "gamma": _cmd_gamma,
    "membership": _cmd_membership,
    "annihilate": _cmd_annihilate,
    "example-erdelyi": _cmd_example,
}


def _digest(args: argparse.Namespace) -> str:
    skip = {"command", "emit"}
    flags = {
        k: v for k, v in sorted(vars(args).items()) if k not in skip and v is not None
    }
    blob = json.dumps({"command": args.command, "flags": flags}, sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def run(argv=None) -> dict:
    """The report of one command, as main prints it."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    for flag in ("cap", "monomial_cap"):
        if getattr(args, flag, 0) < 0:
            raise InputFormatError(f"--{flag.replace('_', '-')} must be nonnegative")
    verdicts, payload = _HANDLERS[args.command](args)
    artifacts = []
    if args.emit:
        path = args.emit
        try:
            os.makedirs(path, exist_ok=True)
            for key in sorted(payload):
                path = os.path.join(args.emit, f"{key}.json")
                # written whole, so a refused value leaves no partial file
                text = _json_text(payload[key]) + "\n"
                with open(path, "w", encoding="utf-8") as fh:
                    fh.write(text)
                artifacts.append(path)
        except OSError as exc:
            raise InputFormatError(f"cannot write {path}: {exc}") from exc
    return {
        "command": args.command,
        "inputs_digest": _digest(args),
        "verdicts": [v.to_json() for v in verdicts],
        "artifacts": artifacts,
        "exit_code": EXIT_OK if all(v.passed for v in verdicts) else EXIT_CHECK_FAILED,
        "results": payload,
    }


def _printed(argv) -> tuple[dict, str]:
    """The report of run(argv) and the JSON text that main prints.

    Parsing refuses an input literal past Python's int-string limit (exit
    2), so an integer that meets the limit here, while the report is built
    or printed, is one the computation made: a ResultTooLargeError.
    """
    try:
        report = run(argv)
        return report, _json_text(report)
    except ValueError as exc:
        if "integer string conversion" not in str(exc):
            raise
        raise ResultTooLargeError(
            f"a result integer has more than {sys.get_int_max_str_digits()} digits, "
            "past Python's int-string limit"
        ) from exc


def main(argv=None) -> int:
    try:
        report, text = _printed(argv)
    except DhyperError as exc:
        print(json.dumps({"error": str(exc), "exit_code": exc.exit_code}))
        return exc.exit_code
    except Exception as exc:
        # anything else is a bug; it still gets the one-JSON-object contract
        error = f"internal error: {type(exc).__name__}: {exc}"
        print(json.dumps({"error": error, "exit_code": EXIT_INTERNAL}))
        return EXIT_INTERNAL
    print(text)
    return report["exit_code"]


if __name__ == "__main__":
    sys.exit(main())
