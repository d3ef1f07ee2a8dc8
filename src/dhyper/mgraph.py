"""Connected components of the move graph on nonnegative lattice points.

Vertices are points of N^q; two points are adjacent when their difference
is plus or minus a column of an integer matrix M.  Searches run inside a
box with per-coordinate bound cap, so verdicts are three-valued: a
component fully closed inside the box is BOUNDED, one that escapes is
CAP_EXCEEDED unless a translation certificate is found.  Reaching both v
and v+s with s nonnegative and nonzero certifies unboundedness: the path
between them can be translated upward forever without leaving N^q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import factorial, perm, prod
from operator import add

from .errors import (
    DhyperError,
    DimensionMismatchError,
    InconsistentCoefficientsError,
    InputFormatError,
    InvariantError,
)
from .exact import IntMatrix
from .weyl import _split_move

Point = tuple[int, ...]

BOUNDED = "BOUNDED"
UNBOUNDED_CERTIFIED = "UNBOUNDED_CERTIFIED"
CAP_EXCEEDED = "CAP_EXCEEDED"


@dataclass(frozen=True)
class MGraphComponent:
    """One explored component: exact when BOUNDED, else the in-box portion."""

    m: IntMatrix
    representative: Point
    vertices: tuple[Point, ...]
    verdict: str
    cap: int
    certificate: tuple[Point, Point] | None = None

    def to_json(self) -> dict:
        data = {
            "representative": list(self.representative),
            "verdict": self.verdict,
            "cap": self.cap,
            "vertex_count": len(self.vertices),
            "vertices": [list(v) for v in self.vertices],
        }
        if self.certificate is not None:
            v, s = self.certificate
            data["certificate"] = {"base": list(v), "step": list(s)}
        return data


@dataclass(frozen=True)
class ComponentSurvey:
    """Scan of a whole cap box: bounded representatives plus completeness."""

    bounded: tuple[MGraphComponent, ...]
    explored: tuple[MGraphComponent, ...]
    complete: bool
    cap: int


def _moves(m: IntMatrix) -> list[Point]:
    out = []
    for j in range(m.cols):
        col = tuple(m.entries[i][j] for i in range(m.rows))
        if any(col):
            if col not in out:
                out.append(col)
            neg = tuple(-x for x in col)
            if neg not in out:
                out.append(neg)
    return out


def component(m: IntMatrix, u, cap: int) -> MGraphComponent:
    q = m.rows
    u = tuple(int(x) for x in u)
    if len(u) != q:
        raise DimensionMismatchError(f"point has {len(u)} coordinates, expected {q}")
    if any(x < 0 for x in u):
        raise InputFormatError("start point has a negative coordinate")
    if any(x > cap for x in u):
        raise InputFormatError("start point lies outside the cap box")
    moves = _moves(m)
    seen = {u}
    frontier = [u]
    escaped = False
    while frontier:
        v = frontier.pop()
        for mv in moves:
            w = tuple(a + b for a, b in zip(v, mv))
            if any(x < 0 for x in w):
                continue
            if any(x > cap for x in w):
                escaped = True
                continue
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    vertices = tuple(sorted(seen))
    certificate = None
    for i, v1 in enumerate(vertices):
        for v2 in vertices[i + 1 :]:
            if v1 != v2 and all(a <= b for a, b in zip(v1, v2)):
                certificate = (v1, tuple(b - a for a, b in zip(v1, v2)))
                break
        if certificate:
            break
    if not escaped:
        # a finite closed component cannot contain a comparable pair
        if certificate is not None:
            raise InvariantError("closed component contains a translation certificate")
        verdict = BOUNDED
    elif certificate is not None:
        verdict = UNBOUNDED_CERTIFIED
    else:
        verdict = CAP_EXCEEDED
    return MGraphComponent(
        m=m,
        representative=vertices[0],
        vertices=vertices,
        verdict=verdict,
        cap=cap,
        certificate=certificate,
    )


def _components_in_box(m: IntMatrix, box: int, cap: int):
    """Each component, searched with cap, that a point of [0, box]^q meets,
    once, in the box's scan order."""
    seen: set[Point] = set()
    for u in product(range(box + 1), repeat=m.rows):
        if u not in seen:
            comp = component(m, u, cap)
            seen.update(comp.vertices)
            yield comp


def bounded_representatives(m: IntMatrix, cap: int) -> ComponentSurvey:
    if cap < 0:
        raise InputFormatError("cap must be nonnegative")
    explored = tuple(_components_in_box(m, cap, cap))
    return ComponentSurvey(
        bounded=tuple(c for c in explored if c.verdict == BOUNDED),
        explored=explored,
        complete=all(c.verdict != CAP_EXCEEDED for c in explored),
        cap=cap,
    )


def lattice_polynomial_solutions(m: IntMatrix, comp: MGraphComponent) -> dict[Point, Fraction]:
    """Coefficients of the polynomial solution supported on a bounded component.

    Each column b of m, read as the binomial operator d^{b+} - d^{b-},
    forces c_w [w]_{b+} = c_{w-b} [w-b]_{b-} along edges.  With the
    representative r normalized to 1, c_w = prod_j r_j! / w_j! solves every
    one of them, since [w]_k = w! / (w - k)!, and every in-component edge
    is checked exactly.
    """
    if comp.verdict != BOUNDED:
        raise DhyperError("component is not certified bounded")
    top = prod(map(factorial, comp.representative))
    coeffs = {w: Fraction(top, prod(map(factorial, w))) for w in (comp.representative, *comp.vertices)}
    steps = [(b, *_split_move(b)) for b in m.columns() if any(b)]
    for v, c in coeffs.items():
        for b, pos, neg in steps:
            w = tuple(map(add, v, b))
            if w in coeffs and coeffs[w] * prod(map(perm, w, pos)) != c * prod(map(perm, v, neg)):
                raise InconsistentCoefficientsError(f"edge {v} -> {w} fails the binomial relation")
    return coeffs
