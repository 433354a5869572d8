"""Index pairing between skeleton components and split collar bundles, and
the commuting-square checks that tie the step maps between projectivized
components to the splitting-type families on the collar.

For a collar parameter n the skeleton side is the cotangent bundle of
projective (n-1)-space with its n components, and the collar side is the
set of n residue classes of line-bundle pairs (j mod n, -j mod n).  Each
square couples the step map from component j to j+1 with the index-step
family on the collar side, whose certified endpoints must step the
splitting from j+1 down to j, so both reach row j+1.  A square keeps what
its check decided; the report derives each row's shape and residue pairs
from (n, j).  Every report first checks the toric duality between the
quotients 1/n(1,1) and 1/n(1,n-1) that the correspondence is built from.
"""

from __future__ import annotations

from typing import Optional

from .birmaps import Verdict, bir_step, point_text, verify_birational
from .deform import index_step_family
from .exact import Record, VerificationFailed
from .skeleton import SkeletonComponent, skeleton
from .toric import (
    QuotientSingularity,
    dynkin_dual_graph,
    is_negative_definite,
    minimal_resolution,
    quotient_cone,
)


def _check_collar(n: int) -> None:
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"collar parameter must be a positive integer, got {n!r}")


def dual_of_lagrangian(n: int, j: int) -> tuple[int, int]:
    """Collar residue pair assigned to skeleton component j."""
    _check_collar(n)
    if not 0 <= j <= n - 1:
        raise ValueError(f"no skeleton component {j} for collar parameter {n}")
    return (j % n, (-j) % n)


class DualityEntry(Record):
    """One row of the correspondence: a skeleton component and the residue
    pair of its split collar partner."""

    component: SkeletonComponent
    collar_pair: tuple[int, int]


class SquareReport(Record):
    """Certificates for one square: the step map between components j and
    j+1, and the family whose endpoints step the collar splitting by the
    same amount; the report derives the residue pairs of both rows."""

    j: int
    bir_verdict: Verdict
    def_endpoints: tuple[int, int]
    failure: Optional[str]

    @property
    def verdict(self) -> bool:
        return self.failure is None


def square_check(n: int, j: int, samples: int, seed: int) -> SquareReport:
    """Verify one square: the sampled round trip of the step map, and the
    family endpoints, which must step the collar splitting from j+1 to j."""
    _check_collar(n)
    if not 0 <= j <= n - 2:
        raise ValueError(f"no square at index {j} for collar parameter {n}")
    bir_verdict = verify_birational(bir_step(n, j), samples, seed)
    def_endpoints = index_step_family(n, j, 1).endpoints

    failure: Optional[str] = None
    if not bir_verdict.passed:
        point, image = bir_verdict.failures[0]
        failure = (
            f"step map round trip failed on {len(bir_verdict.failures)} of "
            f"{bir_verdict.checked} samples, first at {point_text(point)}, "
            f"which comes back as {point_text(image)}"
        )
    elif def_endpoints != (j + 1, j):
        failure = (
            f"family endpoints {def_endpoints} do not step the splitting "
            f"from {j + 1} to {j}"
        )
    return SquareReport(j, bir_verdict, def_endpoints, failure)


class DualityReport(Record):
    """The full correspondence table for one collar parameter together with
    every square certificate."""

    n: int
    entries: tuple[DualityEntry, ...]
    squares: tuple[SquareReport, ...]

    @property
    def all_ok(self) -> bool:
        return all(s.verdict for s in self.squares)

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "entries": [
                {
                    "j": e.component.j,
                    "skeleton": e.component.description,
                    "collar_pair": list(e.collar_pair),
                }
                for e in self.entries
            ],
            "squares": [
                {
                    "j": s.j,
                    "step": 1,
                    "bir_checked": s.bir_verdict.checked,
                    "bir_skipped": s.bir_verdict.skipped,
                    "bir_passed": s.bir_verdict.passed,
                    "lower_pair": list(dual_of_lagrangian(self.n, s.j)),
                    "upper_pair": list(dual_of_lagrangian(self.n, s.j + 1)),
                    "def_endpoints": list(s.def_endpoints),
                    "def_pair": [s.def_endpoints[0] % self.n, -s.def_endpoints[0] % self.n],
                    "verdict": s.verdict,
                    "failure": s.failure,
                }
                for s in self.squares
            ],
            "all_ok": self.all_ok,
        }

    def to_text(self) -> str:
        lines = [f"collar parameter n = {self.n}"]
        lines.append("index | skeleton component | collar pair")
        for e in self.entries:
            lines.append(f"{e.component.j:5d} | {e.component.description} | {e.collar_pair}")
        for s in self.squares:
            status = "ok" if s.verdict else f"FAIL: {s.failure}"
            lower, upper = dual_of_lagrangian(self.n, s.j), dual_of_lagrangian(self.n, s.j + 1)
            lines.append(
                f"square {s.j} -> {s.j + 1}: round trip checked={s.bir_verdict.checked} "
                f"skipped={s.bir_verdict.skipped}, family endpoints {s.def_endpoints}, "
                f"pairs {lower} -> {upper}: {status}"
            )
        lines.append(f"all squares verified: {'yes' if self.all_ok else 'no'}")
        return "\n".join(lines)


def _check_toric_leg(n: int, components: int) -> None:
    """The toric duality the correspondence rests on: the cone of 1/n(1,1)
    is dual to that of 1/n(1,n-1); the first resolves to one (-n)-curve, the
    zero section of the total space whose collar the bundles live on; the
    second to the A_(n-1) chain of n - 1 (-2)-curves, whose n torus-fixed
    points match the ``components`` skeleton components."""
    sharp, flat = QuotientSingularity(n, 1), QuotientSingularity(n, n - 1)
    curve, chain = minimal_resolution(sharp), minimal_resolution(flat)
    legs = (
        ("the dual of the 1/n(1,1) cone is the 1/n(1,n-1) cone",
         quotient_cone(sharp).dual().is_equivalent(quotient_cone(flat))),
        ("1/n(1,1) resolves to one (-n)-curve", curve.self_intersections == (-n,)),
        ("1/n(1,n-1) resolves to (-2)-curves whose torus-fixed points match "
         "the skeleton components", chain.self_intersections == (-2,) * (components - 1)),
        ("the dual graph of the 1/n(1,n-1) chain is a path",
         dynkin_dual_graph(chain).is_path()),
        ("both chains are negative definite",
         is_negative_definite(curve.self_intersections)
         and is_negative_definite(chain.self_intersections)),
    )
    for statement, holds in legs:
        if not holds:
            raise VerificationFailed(f"toric leg at n = {n}: expected {statement}")


def duality_report(n: int, samples: int, seed: int) -> DualityReport:
    """Assemble the table of all rows and all squares for one parameter."""
    if not isinstance(n, int) or n < 2:
        raise ValueError(f"the report needs a collar parameter of at least 2, got {n!r}")
    components = skeleton(n - 1)
    if len(components) != n:
        raise VerificationFailed("skeleton side must have exactly n components")
    _check_toric_leg(n, len(components))
    entries = tuple(DualityEntry(c, dual_of_lagrangian(n, c.j)) for c in components)
    if sorted(e.collar_pair[0] for e in entries) != list(range(n)):
        raise VerificationFailed("collar side must cover every residue class once")
    squares = tuple(square_check(n, j, samples, seed) for j in range(n - 1))
    return DualityReport(n=n, entries=entries, squares=squares)
