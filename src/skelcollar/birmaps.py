"""Segre embeddings, coordinate projections, and the induced birational
maps between products of projective spaces.

The product of projective spaces of dimensions a and b embeds into the
projective space of dimension (a+1)(b+1)-1 by all pairwise products of
coordinates, listed in lexicographic (i, j) order.  Forgetting every
coordinate u_ij with both indices positive, keeping only the row u_i0 and
the column u_0j, projects the image birationally onto a projective space
of dimension a+b; the inverse simply reads both factors off the kept
coordinates.  A `MapPair` holds each direction as its tuple of stages,
so chaining one collapse forward and another one backward, which walks a
projectivized skeleton component to the next one, concatenates tuples.

Birationality is witnessed by a seeded round trip, not proved: exact
rational sample points are pushed forward, then back, and compared
projectively, so a pass is reproducible evidence that the round trip
starting on the source is the identity, and a failure names a point where
it is not.  The sampler is a fixed
linear congruential generator over small fractions, so every run of every
machine draws the same points.  Each factor of a drawn point is scaled by
the lcm of its denominators before it enters the loop; the integer
homogeneous coordinates name the same projective point, so the same points
are checked or skipped, and the whole round trip runs on Python integers.
Each map compiles its components once into an evaluation plan over the
positions of the flattened source point.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from .exact import LaurentPoly, Record, VerificationFailed

# exact homogeneous coordinates, one tuple per factor
Point = tuple[tuple[int | Fraction, ...], ...]

# one term of a compiled component: the coefficient (an int when integral)
# and its (position in the flattened source point, nonzero exponent) factors
# in the order of the polynomial's variables
Term = tuple[int | Fraction, tuple[tuple[int, int], ...]]


class IndeterminacyHit(ValueError):
    """A point on the locus where a map is undefined; the sampler redraws."""


def _factor_vars(prefix: str, dim: int) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(dim + 1))


def _term_plan(poly: LaurentPoly, positions: dict[str, int]) -> tuple[Term, ...]:
    """Compile ``poly`` against the positions of its variables."""
    missing = set(poly.variables) - positions.keys()
    if missing:
        raise ValueError(f"component {poly} uses {sorted(missing)}, not source variables")
    return tuple(
        (
            coeff.numerator if coeff.denominator == 1 else coeff,
            tuple((positions[v], e) for v, e in zip(poly.variables, exps) if e),
        )
        for exps, coeff in poly.terms.items()
    )


def _run_terms(terms: tuple[Term, ...], coords: Sequence[int | Fraction]) -> int | Fraction:
    """Value of a compiled component at ``coords``: the polynomial's value
    at the same point, term by term.  A term stops at its first zero
    factor in variable order, so a 0 under a negative power raises
    ValueError only if no earlier factor is 0.  It is an int when every
    input is one and no exponent is negative."""
    total = 0
    for value, factors in terms:
        for pos, e in factors:
            x = coords[pos]
            if not x:
                if e < 0:
                    raise ValueError(
                        f"0 given at position {pos} which occurs with exponent {e}"
                    )
                break
            if e == 1:
                value *= x
            elif e > 0:
                value *= x**e
            else:
                value = Fraction(value, x**-e)
        else:
            total += value
    return total


class RationalMap(Record):
    """Map between products of projective spaces, one homogeneous
    component tuple per target factor.

    Undefined exactly where all components of some target factor vanish;
    ``apply`` raises IndeterminacyHit there.
    """

    source_dims: tuple[int, ...]
    target_dims: tuple[int, ...]
    source_vars: tuple[tuple[str, ...], ...]
    components: tuple[tuple[LaurentPoly, ...], ...]
    label: str

    def __post_init__(self) -> None:
        if len(self.source_vars) != len(self.source_dims):
            raise ValueError("one variable tuple per source factor required")
        for dim, vs in zip(self.source_dims, self.source_vars):
            if len(vs) != dim + 1:
                raise ValueError("variable count must be dimension + 1")
        if len(self.components) != len(self.target_dims):
            raise ValueError("one component tuple per target factor required")
        for dim, comps in zip(self.target_dims, self.components):
            if len(comps) != dim + 1:
                raise ValueError("component count must be dimension + 1")
            if all(c.is_zero for c in comps):
                raise ValueError("a target factor has identically zero components")
            self._check_multidegree(comps)
        # a name bound twice takes the later factor's value, as a bindings
        # dict filled factor by factor would
        positions = {v: i for i, v in enumerate(v for vs in self.source_vars for v in vs)}
        plan = tuple(
            tuple(_term_plan(c, positions) for c in comps) for comps in self.components
        )
        object.__setattr__(self, "_plan", plan)

    def _check_multidegree(self, comps: tuple[LaurentPoly, ...]) -> None:
        # each component's variables are looked up once: linear in the terms
        for group in self.source_vars:
            names = set(group)
            degrees = set()
            for c in comps:
                idx = [i for i, v in enumerate(c.variables) if v in names]
                found = {sum(e[i] for i in idx) for e in c.terms}
                if len(found) > 1:
                    raise ValueError(f"component {c} not homogeneous in {group}")
                degrees |= found
            if len(degrees) > 1:
                raise ValueError(f"components have mixed degrees {degrees} in {group}")

    def apply(self, point: Point) -> Point:
        if len(point) != len(self.source_dims):
            raise ValueError("point has wrong number of factors")
        coords: list[int | Fraction] = []
        for vs, vals in zip(self.source_vars, point):
            if len(vals) != len(vs):
                raise ValueError("point factor has wrong length")
            coords.extend(vals)
        image = []
        for factor in self._plan:
            vals = tuple(_run_terms(terms, coords) for terms in factor)
            if not any(vals):
                raise IndeterminacyHit(f"{self.label}: sample on the indeterminacy locus")
            image.append(vals)
        return tuple(image)


class MapPair(Record):
    """A rational map with a declared inverse, each a non-empty tuple of
    stages applied in order."""

    forward: tuple[RationalMap, ...]
    inverse: tuple[RationalMap, ...]

    def __post_init__(self) -> None:
        for stages in (self.forward, self.inverse):
            if not stages:
                raise ValueError("a map needs at least one stage")
            for left, right in zip(stages, stages[1:]):
                if left.target_dims != right.source_dims:
                    raise ValueError(
                        f"stage mismatch: {left.target_dims} feeds {right.source_dims}"
                    )
        if self.forward[0].source_dims != self.inverse[-1].target_dims:
            raise ValueError("inverse target does not match forward source")
        if self.forward[-1].target_dims != self.inverse[0].source_dims:
            raise ValueError("inverse source does not match forward target")


def segre(a: int, b: int) -> RationalMap:
    """Embedding of the (a, b) product by u_ij = y_i z_j, lexicographic."""
    if a < 0 or b < 0:
        raise ValueError("factor dimensions must be nonnegative")
    ys = _factor_vars("y", a)
    zs = _factor_vars("z", b)
    comps = tuple(
        LaurentPoly.var(ys[i]) * LaurentPoly.var(zs[j])
        for i in range(a + 1)
        for j in range(b + 1)
    )
    r = (a + 1) * (b + 1) - 1
    return RationalMap((a, b), (r,), (ys, zs), (comps,), label=f"segre({a},{b})")


def linear_projection(r: int, keep: Sequence[int]) -> RationalMap:
    """Forget the coordinates of the r-dimensional space not in ``keep``."""
    keep = tuple(sorted(set(keep)))
    if not keep:
        raise ValueError("must keep at least one coordinate")
    if keep[0] < 0 or keep[-1] > r:
        raise ValueError(f"keep indices must lie in 0..{r}")
    us = _factor_vars("u", r)
    comps = tuple(LaurentPoly.var(us[k]) for k in keep)
    return RationalMap(
        (r,),
        (len(keep) - 1,),
        (us,),
        (comps,),
        label=f"project(keep={','.join(map(str, keep))})",
    )


def _ptp_keep(a: int, b: int) -> tuple[int, ...]:
    """Kept coordinate positions: the u_i0 row and the u_0j column, in the
    lexicographic numbering of u_ij."""
    positions = {i * (b + 1) for i in range(a + 1)}
    positions |= set(range(1, b + 1))
    return tuple(sorted(positions))


def product_to_projective(a: int, b: int) -> MapPair:
    """Birational collapse of the (a, b) product onto projective (a+b)-space.

    Forward is the stage pair (Segre embedding, projection keeping the
    u_i0 row and u_0j column); the one inverse stage reads factor one off
    (w_0, w_{b+1}, ..., w_{b+a}) and factor two off (w_0, ..., w_b).
    """
    if a < 0 or b < 0 or a + b < 1:
        raise ValueError("need a + b >= 1")
    r = (a + 1) * (b + 1) - 1
    forward = (segre(a, b), linear_projection(r, _ptp_keep(a, b)))
    ws = _factor_vars("w", a + b)
    first = (LaurentPoly.var(ws[0]),) + tuple(
        LaurentPoly.var(ws[b + i]) for i in range(1, a + 1)
    )
    second = tuple(LaurentPoly.var(ws[j]) for j in range(b + 1))
    inverse = RationalMap(
        (a + b,),
        (a, b),
        (ws,),
        (first, second),
        label=f"split({a},{b})",
    )
    return MapPair(forward, (inverse,))


def bir_step(n: int, j: int) -> MapPair:
    """One step between consecutive projectivized skeleton components,
    factoring through projective (n-1)-space.

    Twist normalization note: the components only match up to an overall
    line-bundle twist, which projectivizing absorbs; nothing is rescaled.
    """
    if not 0 < j + 1 < n:
        raise ValueError(f"no step from component {j} in dimension {n}")
    down = product_to_projective(j, n - j - 1)
    up = product_to_projective(j + 1, n - j - 2)
    return MapPair(down.forward + up.inverse, up.forward + down.inverse)


class RationalSampler:
    """Deterministic stream of small exact rationals (fixed LCG)."""

    MULT = 6364136223846793005
    INC = 1442695040888963407
    MOD = 1 << 64

    def __init__(self, seed: int) -> None:
        self.state = seed % self.MOD

    def _step(self) -> int:
        self.state = (self.MULT * self.state + self.INC) % self.MOD
        return self.state

    def fraction(self) -> Fraction:
        x = self._step()
        num = (x >> 16) % 195 - 97
        den = (x >> 40) % 97 + 1
        return Fraction(num, den)

    def point(self, dims: Sequence[int]) -> Point:
        factors = []
        for d in dims:
            while True:
                coords = tuple(self.fraction() for _ in range(d + 1))
                if any(coords):
                    factors.append(coords)
                    break
        return tuple(factors)


def projectively_equal(p: Point, q: Point) -> bool:
    """Each factor of ``q`` a nonzero multiple of ``p``'s: ``vq`` is nonzero at the
    first nonzero coordinate of ``vp``, and every coordinate cross-multiplies."""
    if len(p) != len(q):
        return False
    for vp, vq in zip(p, q):
        if len(vp) != len(vq):
            return False
        i = next((i for i, x in enumerate(vp) if x), None)
        if i is None or not vq[i]:
            return False
        if any(x * vq[i] != y * vp[i] for x, y in zip(vp, vq)):
            return False
    return True


def point_text(point: Point) -> str:
    """``(1 : -1/2) x (3 : 0 : 1)``, one tuple of homogeneous coordinates
    per factor."""
    return " x ".join("(" + " : ".join(str(c) for c in factor) + ")" for factor in point)


class Verdict(Record):
    checked: int
    skipped: int
    failures: tuple[tuple[Point, Point], ...]

    @property
    def passed(self) -> bool:
        return not self.failures


def _integral_point(point: Point) -> Point:
    """The same projective point with each factor scaled by the lcm of its
    denominators, so every coordinate is an integer."""
    scaled = []
    for factor in point:
        scale = lcm(*(c.denominator for c in factor))
        scaled.append(tuple(c.numerator * (scale // c.denominator) for c in factor))
    return tuple(scaled)


# fresh points drawn for one sample before it counts as skipped
_RETRIES = 10


def verify_birational(pair: MapPair, samples: int, seed: int) -> Verdict:
    """Push exact sample points through the forward stages, then the
    inverse stages, in order, and compare projectively; indeterminacy hits
    are retried with fresh points and counted as skipped only if every
    retry hits.

    Each drawn point travels as its integer homogeneous coordinates
    (``_integral_point``); a failure records the drawn point and the image
    the round trip gave."""
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    sampler = RationalSampler(seed)
    round_trip = pair.forward + pair.inverse
    checked = 0
    skipped = 0
    failures: list[tuple[Point, Point]] = []
    for _ in range(samples):
        resolved = False
        for _ in range(_RETRIES):
            point = sampler.point(pair.forward[0].source_dims)
            scaled = back = _integral_point(point)
            try:
                for stage in round_trip:
                    back = stage.apply(back)
            except IndeterminacyHit:
                continue
            resolved = True
            checked += 1
            if not projectively_equal(scaled, back):
                failures.append((point, back))
            break
        if not resolved:
            skipped += 1
    if checked == 0:
        raise VerificationFailed(
            f"all {samples} samples hit indeterminacy loci (even with retries)"
        )
    return Verdict(checked, skipped, tuple(failures))
