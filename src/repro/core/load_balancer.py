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
         M_k >= B_{k,j}                                        for all k, j
         sum_j B_{k,j} = 1,  B >= 0

is a linear program; we solve it with scipy's HiGHS backend (the paper uses
CBC).  ``k(i)`` is the model segment a stage belongs to (Sec. 5.2); with a
single segment this reduces to the base case of Sec. 5.1, and with
``e = 0`` both constraint families coincide with the paper's original
serialized LP.  The overlap efficiency ``e`` is taken from the cost model
(ultimately the cluster spec), so the LP and :meth:`CostModel.evaluate`
optimise and score the same objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence, Tuple

import numpy as np
from scipy.optimize import linprog

from ..cluster.spec import ClusterSpec
from ..graph.tensor import shard_sizes
from .config import LoadBalancerConfig
from .costmodel import CostModel, StageCoefficients
from .program import DistributedProgram


@dataclass
class LoadBalanceResult:
    """Outcome of one load-balancing solve.

    Attributes:
        ratios: per-segment sharding ratios, shape ``(num_segments, m)``.
        objective: LP objective value (estimated per-iteration seconds).
        success: whether the LP solver converged.
        num_segments: number of model segments.
    """

    ratios: List[List[float]]
    objective: float
    success: bool
    num_segments: int

    @property
    def flat_ratios(self) -> List[float]:
        """Ratios of the first segment (the common single-segment case)."""
        return list(self.ratios[0])

    def ratios_for_segment(self, segment: int) -> List[float]:
        """Ratios of a given segment.

        Raises:
            ValueError: when ``segment`` is outside ``0..num_segments-1``.
            An out-of-range index means the caller's segmentation disagrees
            with the one this result was solved for — silently reusing the
            last segment's ratios (the old behaviour) would hide such
            planner/segmentation bugs behind slightly-wrong load balance.
        """
        if not 0 <= segment < len(self.ratios):
            raise ValueError(
                f"segment index {segment} out of range: this result was solved "
                f"for {len(self.ratios)} segment(s)"
            )
        return list(self.ratios[segment])


class LoadBalancer:
    """Solves ``argmin_B t(Q, B)`` for a fixed distributed program."""

    def __init__(
        self,
        cluster: ClusterSpec,
        config: Optional[LoadBalancerConfig] = None,
    ) -> None:
        self.cluster = cluster
        self.config = config or LoadBalancerConfig()

    def optimize(
        self,
        program: DistributedProgram,
        cost_model: CostModel,
        segment_of: Optional[Mapping[str, int]] = None,
    ) -> LoadBalanceResult:
        """Compute optimal sharding ratios for ``program``.

        Args:
            program: the distributed program produced by the synthesizer.
            cost_model: cost model for the same graph/cluster pair.
            segment_of: optional node-name -> segment-index map; when omitted
                a single segment is used.

        Returns:
            A :class:`LoadBalanceResult`; if the LP fails the computation-
            proportional ratios are returned with ``success=False``.
        """
        m = self.cluster.num_devices
        coeffs = cost_model.stage_coefficients(program, segment_of)
        num_segments = 1
        if segment_of is not None:
            num_segments = max((c.segment for c in coeffs), default=0) + 1
        fallback = [list(self.cluster.proportional_ratios()) for _ in range(num_segments)]
        if m == 1:
            return LoadBalanceResult([[1.0]] * num_segments, sum(
                c.time([1.0], overlap=cost_model.overlap) for c in coeffs
            ), True, num_segments)

        result = self._solve_lp(coeffs, num_segments, program, cost_model.overlap)
        if result is None:
            return LoadBalanceResult(fallback, float("inf"), False, num_segments)
        return result

    # -- LP assembly -------------------------------------------------------------
    def _solve_lp(
        self,
        coeffs: Sequence[StageCoefficients],
        num_segments: int,
        program: DistributedProgram,
        overlap: float = 0.0,
    ) -> Optional[LoadBalanceResult]:
        m = self.cluster.num_devices
        g = num_segments
        num_stages = len(coeffs)
        if num_stages == 0:
            return LoadBalanceResult([[1.0 / m] * m for _ in range(g)], 0.0, True, g)

        # Variable layout: [B (g*m), M (g), T (num_stages)].  T_i is the full
        # (overlapped) stage time, communication included.
        num_vars = g * m + g + num_stages

        def b_idx(k: int, j: int) -> int:
            return k * m + j

        def m_idx(k: int) -> int:
            return g * m + k

        def t_idx(i: int) -> int:
            return g * m + g + i

        objective = np.zeros(num_vars)
        for i in range(num_stages):
            objective[t_idx(i)] += 1.0

        rows_ub: List[np.ndarray] = []
        rhs_ub: List[float] = []
        # Per (stage, device): the exposed collective time is
        # max((1 - e) * comm, comm - e * indep_j), so two rows bound T_i:
        #   T_i >= comp_ij(B) + (1 - e) * comm_i(M)
        #   T_i >= comp_ij(B) + comm_i(M) - e * indep_ij(B)
        # With e == 0 they coincide with the serialized LP.
        for i, coeff in enumerate(coeffs):
            k = coeff.segment
            indep_slope = coeff.indep_slope or [0.0] * m
            indep_const = coeff.indep_const or [0.0] * m
            for j in range(m):
                row = np.zeros(num_vars)
                row[b_idx(k, j)] = coeff.comp_slope[j]
                row[m_idx(k)] = (1.0 - overlap) * coeff.comm_slope
                row[t_idx(i)] = -1.0
                rows_ub.append(row)
                rhs_ub.append(-coeff.comp_const[j] - (1.0 - overlap) * coeff.comm_const)
                if overlap > 0.0:
                    row = np.zeros(num_vars)
                    row[b_idx(k, j)] = coeff.comp_slope[j] - overlap * indep_slope[j]
                    row[m_idx(k)] = coeff.comm_slope
                    row[t_idx(i)] = -1.0
                    rows_ub.append(row)
                    rhs_ub.append(
                        -coeff.comp_const[j]
                        - coeff.comm_const
                        + overlap * indep_const[j]
                    )
        # M_k >= B_kj
        for k in range(g):
            for j in range(m):
                row = np.zeros(num_vars)
                row[b_idx(k, j)] = 1.0
                row[m_idx(k)] = -1.0
                rows_ub.append(row)
                rhs_ub.append(0.0)
        # optional per-device memory constraints
        if self.config.respect_memory:
            rows_mem, rhs_mem = self._memory_constraints(program, g, m, b_idx, num_vars)
            rows_ub.extend(rows_mem)
            rhs_ub.extend(rhs_mem)

        rows_eq: List[np.ndarray] = []
        rhs_eq: List[float] = []
        for k in range(g):
            row = np.zeros(num_vars)
            for j in range(m):
                row[b_idx(k, j)] = 1.0
            rows_eq.append(row)
            rhs_eq.append(1.0)

        bounds = [(0.0, 1.0)] * (g * m) + [(0.0, 1.0)] * g + [(0.0, None)] * num_stages
        res = linprog(
            c=objective,
            A_ub=np.vstack(rows_ub) if rows_ub else None,
            b_ub=np.asarray(rhs_ub) if rhs_ub else None,
            A_eq=np.vstack(rows_eq),
            b_eq=np.asarray(rhs_eq),
            bounds=bounds,
            method=self.config.solver_method,
        )
        if not res.success:
            return None
        ratios = [
            [float(res.x[b_idx(k, j)]) for j in range(m)] for k in range(g)
        ]
        # Clean tiny negative numerical noise and renormalise.
        ratios = [_normalise(r) for r in ratios]
        return LoadBalanceResult(
            ratios=ratios,
            objective=float(res.fun),
            success=True,
            num_segments=g,
        )

    def _memory_constraints(self, program, g, m, b_idx, num_vars):
        """Per-device memory-capacity rows: sharded params scale with B."""
        graph = program.graph
        shardings = program.parameter_shardings()
        sharded_bytes = 0.0
        replicated_bytes = 0.0
        for param in graph.parameters():
            if shardings.get(param.name) is not None:
                sharded_bytes += param.spec.size_bytes
            else:
                replicated_bytes += param.spec.size_bytes
        # States (gradients + optimizer moment) roughly triple parameter memory.
        overhead = 3.0
        rows, rhs = [], []
        memory = self.cluster.device_memory()
        for j in range(m):
            for k in range(g):
                row = np.zeros(num_vars)
                row[b_idx(k, j)] = sharded_bytes * overhead
                rows.append(row)
                rhs.append(max(memory[j] - replicated_bytes * overhead, 1.0))
        return rows, rhs


def _normalise(ratios: Sequence[float]) -> List[float]:
    cleaned = [max(float(r), 0.0) for r in ratios]
    total = sum(cleaned)
    if total <= 0:
        return [1.0 / len(cleaned)] * len(cleaned)
    return [r / total for r in cleaned]


def integer_shard_sizes(dim_size: int, ratios: Sequence[float]) -> Tuple[int, ...]:
    """Round fractional ratios to integer shard sizes (Sec. 5.1).

    Re-exported from :mod:`repro.graph.tensor` for convenience: sets shards to
    the nearest integers, then repairs the sum one element at a time choosing
    the adjustment with the smallest rounding error.
    """
    return shard_sizes(dim_size, ratios)
