"""LP-based sharding-ratio optimisation (Sec. 5 of the paper).

Given a fixed distributed program ``Q``, the load balancer chooses the
sharding ratios ``B`` that minimise the estimated per-iteration time.  Stage
times are linear in the ratios (computation) and in the largest ratio
(communication); with the dual-stream overlap model a stage's exposed
communication is ``max((1 - e) * C, C - e * I_j)`` — a maximum of linear
functions, so the overlapped stage time stays convex and the problem

    min  sum_i T_i
    s.t. T_i >= comp_ij(B) + (1 - e) * comm_i(M)               for all i, j
         T_i >= comp_ij(B) + comm_i(M) - e * indep_ij(B)       for all i, j
         M >= B_j                                              for all j
         M <= 1,  sum_j B_j = 1,  B, M, T >= 0

is a linear program.  ``B`` is one ratio vector for the whole program — the
base case of Sec. 5.1, and the one vector synthesis, the runtime and the
simulator all read.  With ``e = 0`` both constraint families coincide with
the paper's original serialized LP.  The overlap efficiency ``e`` is taken
from the cost model (ultimately the cluster spec), so the LP and
:meth:`CostModel.evaluate` optimise and score the same objective.  The LP
has no memory rows: :func:`repro.core.hierarchical.device_peak_memory` is
the one memory model plans are judged by.

The paper solves the LP with CBC; here a small simplex solves it in-tree
(:func:`solve_lp`), with no solver dependency.  It runs on the LP's dual,
which is feasible at its slack basis because the objective is
non-negative, so no phase I is needed.  A revised simplex in plain Python
floats finds the optimal basis: the entering column has the most negative
reduced cost, and after a run of degenerate (zero-step) pivots the rule
switches to Bland's until a pivot makes progress, so the solve cannot
cycle.  An exact phase in :class:`fractions.Fraction` then proves that
basis optimal (or pivots on, by Bland's rule, to one that is), and the
returned point is the basis's vertex, solved exactly and rounded once — so
the ratios do not depend on the pivot order or solver tolerances.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Set, Tuple


from ..cluster.spec import ClusterSpec
from .costmodel import CostModel, StageCoefficients
from .program import DistributedProgram

#: Consecutive degenerate pivots after which the solve uses Bland's rule.
BLAND_AFTER = 16
#: Pivots after which a phase stops: the float phase hands its basis to the
#: exact phase, which raises (far above any LP the planner builds).
MAX_PIVOTS = 10_000
#: Reduced costs above ``-_COST_TOL`` count as optimal (in scaled time units).
_COST_TOL = 1e-11
#: Smallest column entry the ratio test pivots on, relative to the largest.
_PIVOT_TOL = 1e-9
#: Ratio-test steps at or below this are degenerate.
_STEP_TOL = 1e-12

Row = Tuple[Tuple[int, float], ...]


class LoadBalanceError(RuntimeError):
    """Raised when the load-balancing LP has no optimal vertex.

    The LP is always feasible (``B`` on the simplex, ``M = 1``, ``T`` large)
    and bounded (the objective and ``T`` are non-negative), so this signals
    malformed stage coefficients or a solver fault, never a plan choice.
    """


@dataclass
class LoadBalanceResult:
    """Outcome of one load-balancing solve.

    Attributes:
        ratios: sharding ratios, one per virtual device.
        objective: LP objective value (estimated per-iteration seconds).
    """

    ratios: List[float]
    objective: float


@dataclass(frozen=True)
class LinearProgram:
    """The load-balancing LP over ``x = [B (m), M, T (num_stages)]``::

        min sum_i T_i  s.t.  rows[r] . x <= rhs[r],  sum_j B_j = 1,  x >= 0

    ``rows`` are sparse ``(column, coefficient)`` pairs, at most three per
    row (a ratio ``B_j``, ``M`` and one ``T_i``).  Equation ids name
    the constraints a vertex can make tight: ``r < len(rows)`` is row ``r``,
    ``len(rows)`` the ratio sum and ``len(rows) + 1 + k`` the bound
    ``x_k = 0``.
    """

    num_devices: int
    num_stages: int
    rows: Tuple[Row, ...]
    rhs: Tuple[float, ...]
    _exact: Dict[int, Tuple[Dict[int, Fraction], Fraction]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def num_vars(self) -> int:
        return self.num_devices + 1 + self.num_stages

    def equation(self, eq: int) -> Tuple[Dict[int, float], float]:
        """Coefficients and right-hand side of equation ``eq`` (see above)."""
        num_rows = len(self.rows)
        if eq < num_rows:
            return dict(self.rows[eq]), self.rhs[eq]
        if eq == num_rows:
            return {j: 1.0 for j in range(self.num_devices)}, 1.0
        return {eq - num_rows - 1: 1.0}, 0.0

    def normal(self, eq: int) -> Tuple[Dict[int, Fraction], Fraction]:
        """Equation ``eq`` in :class:`Fraction`, oriented as ``normal . x >= bound``."""
        exact = self._exact.get(eq)
        if exact is None:
            coeffs, bound = self.equation(eq)
            sign = -1 if eq < len(self.rows) else 1
            exact = {k: Fraction(sign * v) for k, v in coeffs.items()}, Fraction(sign * bound)
            self._exact[eq] = exact
        return exact


class LPSolution(NamedTuple):
    """An optimal vertex and the equation ids of the basis that defines it."""

    vertex: List[Fraction]
    basis: List[int]


class LoadBalancer:
    """Solves ``argmin_B t(Q, B)`` for a fixed distributed program."""

    def __init__(self, cluster: ClusterSpec) -> None:
        self.cluster = cluster

    def optimize(
        self,
        program: DistributedProgram,
        cost_model: CostModel,
    ) -> LoadBalanceResult:
        """Compute optimal sharding ratios for ``program``.

        Args:
            program: the distributed program produced by the synthesizer.
            cost_model: cost model for the same graph/cluster pair.

        Returns:
            A :class:`LoadBalanceResult` at an optimal vertex of the LP.

        Raises:
            LoadBalanceError: if the LP has no optimum (it always has one).
        """
        coeffs = cost_model.stage_coefficients(program)
        m = self.cluster.num_devices
        if m == 1:
            return LoadBalanceResult([1.0], sum(
                c.time([1.0], overlap=cost_model.overlap) for c in coeffs
            ))
        if not coeffs:
            return LoadBalanceResult([1.0 / m] * m, 0.0)

        lp = assemble_lp(coeffs, m, cost_model.overlap)
        vertex = solve_lp(lp).vertex
        ratios = _normalise([float(v) for v in vertex[:m]])
        objective = float(sum(vertex[m + 1:], Fraction(0)))
        return LoadBalanceResult(ratios=ratios, objective=objective)


def assemble_lp(
    coeffs: Sequence[StageCoefficients], num_devices: int, overlap: float = 0.0
) -> LinearProgram:
    """The LP of the module docstring for stage lines ``coeffs``."""
    m = num_devices
    m_idx = m
    rows: List[Row] = []
    rhs: List[float] = []

    def add(row: Sequence[Tuple[int, float]], bound: float) -> None:
        rows.append(tuple((k, v) for k, v in row if v != 0.0))
        rhs.append(bound)

    # Per (stage, device): the exposed collective time is
    # max((1 - e) * comm, comm - e * indep_j), so two rows bound T_i:
    #   T_i >= comp_ij(B) + (1 - e) * comm_i(M)
    #   T_i >= comp_ij(B) + comm_i(M) - e * indep_ij(B)
    # With e == 0 they coincide with the serialized LP.
    for i, coeff in enumerate(coeffs):
        t_idx = m + 1 + i
        indep_slope = coeff.indep_slope or [0.0] * m
        indep_const = coeff.indep_const or [0.0] * m
        for j in range(m):
            add(
                [(j, coeff.comp_slope[j]), (m_idx, (1.0 - overlap) * coeff.comm_slope),
                 (t_idx, -1.0)],
                -coeff.comp_const[j] - (1.0 - overlap) * coeff.comm_const,
            )
            if overlap > 0.0:
                add(
                    [(j, coeff.comp_slope[j] - overlap * indep_slope[j]),
                     (m_idx, coeff.comm_slope), (t_idx, -1.0)],
                    -coeff.comp_const[j] - coeff.comm_const + overlap * indep_const[j],
                )
    # M >= B_j, M <= 1
    for j in range(m):
        add([(j, 1.0), (m_idx, -1.0)], 0.0)
    add([(m_idx, 1.0)], 1.0)
    return LinearProgram(m, len(coeffs), tuple(rows), tuple(rhs))


def solve_lp(lp: LinearProgram) -> LPSolution:
    """An optimal vertex of ``lp``, exact, with the basis that defines it.

    Both phases run the simplex on the dual ``max -rhs.y + w  s.t.
    -A^T y + a w <= c,  y >= 0,  w free`` (``a`` the ratio-sum row, ``c``
    the objective), whose basic columns each name one primal equation: a
    tight row, the ratio sum, or ``x_k = 0``.  A float revised simplex
    finds a basis that is optimal up to rounding; an exact one then proves
    it optimal in :class:`Fraction`, or pivots on to one that is.

    Raises:
        LoadBalanceError: if the LP is infeasible (the dual is unbounded)
            or the exact phase reaches :data:`MAX_PIVOTS`.
    """
    return _exact_simplex(lp, _float_basis(lp))


def _float_basis(lp: LinearProgram) -> List[int]:
    """Equation ids of a basis the float simplex on the dual finds optimal.

    A revised simplex with an explicit inverse of the ``n x n`` basis, kept
    as one Python list per row.  The dual's columns are ``y_r = -row_r``
    (cost ``rhs_r``), ``w+ = a`` (cost ``-1``), ``w- = -a`` (cost ``1``) and
    the slacks ``e_k`` (cost ``0``); the slack basis is feasible because
    ``c >= 0``, so there is no phase I.  A pivot touches only the inverse's
    rows where ``direction`` is nonzero, moves the prices along the new
    pivot row, and re-prices only the columns whose prices moved, so every
    reduced cost equals its from-scratch value; a heap of ``(reduced cost,
    column)`` finds the most negative one.
    """
    m, n, num_rows = lp.num_devices, lp.num_vars, len(lp.rows)
    w_col = num_rows
    slack0 = num_rows + 2
    # Scale the time unit by a power of two (exactly) so the stage rows'
    # coefficients and the reduced costs are of order one.
    timed = [bool(row) and max(row)[0] > m for row in lp.rows]
    scale = max(
        [abs(v) for row, t in zip(lp.rows, timed) if t for k, v in row if k <= m]
        + [abs(b) for b, t in zip(lp.rhs, timed) if t],
        default=0.0,
    )
    inv = math.ldexp(1.0, -math.frexp(scale)[1]) if scale > 0.0 else 1.0
    # Every row has at most three entries.  Each is priced as one expression
    # ``(cost, k0, v0, k1, v1, k2, v2)``, padded on column ``n``, whose price
    # stays zero.
    priced: List[List] = []
    rows_of: List[List[int]] = [[] for _ in range(n)]
    for r, (row, bound, t) in enumerate(zip(lp.rows, lp.rhs, timed)):
        entry: List = [bound * inv if t else bound]
        for k, v in row:
            entry += (k, v * inv if t and k <= m else v)
            rows_of[k].append(r)
        priced.append(entry + [n, 0.0] * (3 - len(row)))
    reduced = [entry[0] for entry in priced] + [-1.0, 1.0] + [0.0] * n
    heap = [(v, j) for j, v in enumerate(reduced)]
    heapq.heapify(heap)

    basis = list(range(slack0, slack0 + n))
    is_basic = [False] * slack0 + [True] * n
    # The basis inverse's rows, each with a zero entry for the padding column.
    basis_inv = [[0.0] * (n + 1) for _ in range(n)]
    for i, row in enumerate(basis_inv):
        row[i] = 1.0
    prices = [0.0] * (n + 1)
    primal = [0.0] * (m + 1) + [1.0] * (n - m - 1)  # the dual's solution
    degenerate = 0
    for _ in range(MAX_PIVOTS):
        bland = degenerate >= BLAND_AFTER
        if bland:
            col = next((j for j, r in enumerate(reduced) if r < -_COST_TOL), -1)
            if col < 0:
                break
        else:
            while reduced[heap[0][1]] != heap[0][0]:
                heapq.heappop(heap)  # stale: the column was re-priced
            low, col = heap[0]
            if low >= -_COST_TOL:
                break
        if col < w_col:
            _, k0, v0, k1, v1, k2, v2 = priced[col]
            direction = [-(r[k0] * v0 + r[k1] * v1 + r[k2] * v2) for r in basis_inv]
        elif col < slack0:
            direction = [sum(r[:m]) for r in basis_inv]
            if col != w_col:
                direction = [-d for d in direction]
        else:
            k = col - slack0
            direction = [r[k] for r in basis_inv]
        nonzero = [(i, d) for i, d in enumerate(direction) if d]
        tol = _PIVOT_TOL * max([abs(d) for _, d in nonzero], default=0.0)
        pivot, step = -1, math.inf
        for i, d in nonzero:
            if d > tol and primal[i] / d < step:
                pivot, step = i, primal[i] / d
        if pivot < 0:
            break  # unbounded in floats: the exact phase decides
        if bland:
            pivot = min(
                (i for i, d in nonzero if d > tol and primal[i] / d <= step + _STEP_TOL),
                key=basis.__getitem__,
            )
        degenerate = degenerate + 1 if step <= _STEP_TOL else 0
        step = primal[pivot] / direction[pivot]
        for i, d in nonzero:
            x = primal[i] - step * d
            primal[i] = x if x > 0.0 else 0.0
        primal[pivot] = step
        pivot_row = basis_inv[pivot]
        moved = [k for k, x in enumerate(pivot_row) if x]
        for k in moved:
            pivot_row[k] /= direction[pivot]
        for i, d in nonzero:
            if i != pivot:
                row = basis_inv[i]
                for k in moved:
                    row[k] -= d * pivot_row[k]
        entering_cost = reduced[col]
        for k in moved:
            prices[k] += entering_cost * pivot_row[k]
        leaving = basis[pivot]
        basis[pivot] = col
        is_basic[leaving], is_basic[col] = False, True
        reduced[col] = 0.0  # exactly, not up to rounding
        stale = {r for k in moved for r in rows_of[k]}
        stale.update([slack0 + k for k in moved] + [w_col, w_col + 1, leaving])
        price_sum = sum(prices[:m])
        for j in stale:
            if is_basic[j]:
                continue
            if j < w_col:
                c, k0, v0, k1, v1, k2, v2 = priced[j]
                reduced[j] = c + (prices[k0] * v0 + prices[k1] * v1 + prices[k2] * v2)
            elif j < slack0:
                reduced[j] = -1.0 - price_sum if j == w_col else 1.0 + price_sum
            else:
                reduced[j] = -prices[j - slack0]
            heapq.heappush(heap, (reduced[j], j))
    return [min(col, w_col) if col < slack0 else col - 1 for col in basis]


def _exact_simplex(lp: LinearProgram, basis: List[int]) -> LPSolution:
    """Finish the solve in exact arithmetic from the float ``basis``.

    A revised simplex on the same dual, over :class:`Fraction`, with Bland's
    rule (so it cannot cycle).  The entering column is the first primal
    constraint the basis's vertex violates; the multipliers ``lam`` express
    the objective in the basic equations' normals, each oriented as
    ``normal . x >= bound``.  On the planner's LPs the float basis is
    already optimal and this only proves it.  When near-tied coefficients
    leave a multiplier of the float basis exactly negative (a dual basis
    that is infeasible, seen on random stage lines, never on the planner's),
    the exact solve restarts from the slack basis instead.
    """
    m, n, num_rows = lp.num_devices, lp.num_vars, len(lp.rows)
    cost = [Fraction(int(k > m)) for k in range(n)]
    lam = _solve_exact(_transposed(lp, basis), cost, n)
    if lam is None or any(v < 0 for eq, v in zip(basis, lam) if eq != num_rows):
        basis = [num_rows + 1 + k for k in range(n)]
        lam = list(cost)
    for _ in range(MAX_PIVOTS):
        normals, bounds = zip(*(lp.normal(eq) for eq in basis))
        vertex = _solve_exact(normals, bounds, n)
        assert vertex is not None  # each pivot keeps the basis nonsingular
        entering = _first_violated(lp, vertex, basis)
        if entering is None:
            return LPSolution(vertex, basis)
        eq, sign = entering
        normal = lp.normal(eq)[0]
        direction = _solve_exact(
            _transposed(lp, basis), [sign * normal.get(k, Fraction(0)) for k in range(n)], n
        )
        assert direction is not None
        leave = None
        for p, (basic, d) in enumerate(zip(basis, direction)):
            if basic == num_rows or d <= 0:
                continue  # the ratio sum's multiplier is free
            if leave is None or (lam[p] / d, basic) < (lam[leave] / direction[leave], basis[leave]):
                leave = p
        if leave is None:
            raise _error(lp, "is infeasible (its dual is unbounded)")
        step = lam[leave] / direction[leave]
        lam = [v - step * d for v, d in zip(lam, direction)]
        lam[leave] = sign * step
        basis[leave] = eq
    raise _error(lp, f"did not converge in {MAX_PIVOTS} exact pivots")


def _first_violated(
    lp: LinearProgram, vertex: Sequence[Fraction], basis: Sequence[int]
) -> Optional[Tuple[int, int]]:
    """The smallest non-basic equation id whose constraint ``vertex`` violates.

    Returns ``(eq, sign)``: ``sign`` is ``-1`` when the ratio sum is exceeded
    (its normal enters negated), else ``1``; ``None`` if ``vertex`` is
    feasible.  Rows are screened in floats: a row whose float slack exceeds
    ``1e-9`` of its magnitude (far above the rounding error of a three-term
    dot product) holds exactly; the rest are checked exactly, in integers.
    """
    m, num_rows = lp.num_devices, len(lp.rows)
    basic = set(basis)
    point = [float(v) for v in vertex]
    # Exactly, in integers: vertex = numerators / denominator, and every
    # float is p / 2^e, so scaling a row by its largest 2^e clears it.
    denominator = math.lcm(*(v.denominator for v in vertex))
    numerators = [v.numerator * (denominator // v.denominator) for v in vertex]
    for r, (row, bound) in enumerate(zip(lp.rows, lp.rhs)):
        if r in basic:
            continue
        lhs = 0.0
        size = abs(bound)
        for k, v in row:
            term = v * point[k]
            lhs += term
            size += abs(term)
        if bound - lhs > 1e-9 * size:
            continue
        ratios = [v.as_integer_ratio() for _, v in row]
        bound_num, bound_den = bound.as_integer_ratio()
        scale = max([bound_den] + [d for _, d in ratios])
        exact = sum(p * (scale // d) * numerators[k] for (k, _), (p, d) in zip(row, ratios))
        if exact > bound_num * (scale // bound_den) * denominator:
            return r, 1
    if num_rows not in basic:
        total = sum(vertex[:m], Fraction(0))
        if total != 1:
            return num_rows, 1 if total < 1 else -1
    for k, v in enumerate(vertex):
        if v < 0:
            return num_rows + 1 + k, 1
    return None


def _transposed(lp: LinearProgram, basis: Sequence[int]) -> List[Dict[int, Fraction]]:
    """The basis matrix transposed: one equation per variable, one unknown per basic equation."""
    columns: List[Dict[int, Fraction]] = [{} for _ in range(lp.num_vars)]
    for p, eq in enumerate(basis):
        for k, v in lp.normal(eq)[0].items():
            columns[k][p] = v
    return columns


def _solve_exact(
    equations: Sequence[Dict[int, Fraction]], rhs: Sequence[Fraction], size: int
) -> Optional[List[Fraction]]:
    """Solve a square sparse system exactly; ``None`` if it is singular.

    Gaussian elimination over :class:`Fraction`, each step pivoting on the
    shortest pending equation at its unknown the fewest pending equations
    hold.  On the LP's bases that eliminates each ``T`` column first (it
    appears only in its own stage's rows), so the fill stays in ``B``/``M``.
    """
    rows = [dict(eq) for eq in equations]
    bounds = list(rhs)
    holders: Dict[int, Set[int]] = {k: set() for k in range(size)}
    for i, row in enumerate(rows):
        for k in row:
            holders[k].add(i)
    pending = set(range(len(rows)))
    steps: List[Tuple[int, Dict[int, Fraction], Fraction]] = []
    while pending:
        i = min(pending, key=lambda i: (len(rows[i]), i))
        row = rows[i]
        if not row:
            return None
        var = min(row, key=lambda k: (len(holders[k]), k))
        pending.remove(i)
        for k in row:
            holders[k].discard(i)
        pivot = row.pop(var)
        row = {k: v / pivot for k, v in row.items()}
        bound = bounds[i] / pivot
        steps.append((var, row, bound))
        for j in holders.pop(var):
            other = rows[j]
            factor = other.pop(var)
            for k, v in row.items():
                updated = other.get(k, 0) - factor * v
                if updated:
                    other[k] = updated
                    holders[k].add(j)
                else:
                    other.pop(k, None)
                    holders[k].discard(j)
            bounds[j] -= factor * bound
    solution = [Fraction(0)] * size
    for var, row, bound in reversed(steps):
        solution[var] = bound - sum((v * solution[k] for k, v in row.items()), Fraction(0))
    return solution


def _error(lp: LinearProgram, reason: str) -> LoadBalanceError:
    return LoadBalanceError(
        f"load-balancing LP over {lp.num_devices} devices and {lp.num_stages} stages {reason}"
    )


def _normalise(ratios: Sequence[float]) -> List[float]:
    cleaned = [max(float(r), 0.0) for r in ratios]
    total = sum(cleaned)
    if total <= 0:
        return [1.0 / len(cleaned)] * len(cleaned)
    return [r / total for r in cleaned]
