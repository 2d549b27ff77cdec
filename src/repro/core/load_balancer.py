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
         sum_j B_j = 1,  B >= 0

is a linear program; we solve it with scipy's HiGHS backend (the paper uses
CBC).  ``B`` is one ratio vector for the whole program — the base case of
Sec. 5.1, and the one vector synthesis, the runtime and the simulator all
read.  With ``e = 0`` both constraint families coincide with the paper's
original serialized LP.  The overlap efficiency ``e`` is taken from the
cost model (ultimately the cluster spec), so the LP and
:meth:`CostModel.evaluate` optimise and score the same objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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
        ratios: sharding ratios, one per virtual device.
        objective: LP objective value (estimated per-iteration seconds).
        success: whether the LP solver converged.
    """

    ratios: List[float]
    objective: float
    success: bool


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
    ) -> LoadBalanceResult:
        """Compute optimal sharding ratios for ``program``.

        Args:
            program: the distributed program produced by the synthesizer.
            cost_model: cost model for the same graph/cluster pair.

        Returns:
            A :class:`LoadBalanceResult`; if the LP fails the computation-
            proportional ratios are returned with ``success=False``.
        """
        coeffs = cost_model.stage_coefficients(program)
        if self.cluster.num_devices == 1:
            return LoadBalanceResult([1.0], sum(
                c.time([1.0], overlap=cost_model.overlap) for c in coeffs
            ), True)

        result = self._solve_lp(coeffs, program, cost_model.overlap)
        if result is None:
            return LoadBalanceResult(
                list(self.cluster.proportional_ratios()), float("inf"), False
            )
        return result

    # -- LP assembly -------------------------------------------------------------
    def _solve_lp(
        self,
        coeffs: Sequence[StageCoefficients],
        program: DistributedProgram,
        overlap: float = 0.0,
    ) -> Optional[LoadBalanceResult]:
        m = self.cluster.num_devices
        num_stages = len(coeffs)
        if num_stages == 0:
            return LoadBalanceResult([1.0 / m] * m, 0.0, True)

        # Variable layout: [B (m), M, T (num_stages)].  T_i is the full
        # (overlapped) stage time, communication included.
        num_vars = m + 1 + num_stages
        m_idx = m

        def t_idx(i: int) -> int:
            return m + 1 + i

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
            indep_slope = coeff.indep_slope or [0.0] * m
            indep_const = coeff.indep_const or [0.0] * m
            for j in range(m):
                row = np.zeros(num_vars)
                row[j] = coeff.comp_slope[j]
                row[m_idx] = (1.0 - overlap) * coeff.comm_slope
                row[t_idx(i)] = -1.0
                rows_ub.append(row)
                rhs_ub.append(-coeff.comp_const[j] - (1.0 - overlap) * coeff.comm_const)
                if overlap > 0.0:
                    row = np.zeros(num_vars)
                    row[j] = coeff.comp_slope[j] - overlap * indep_slope[j]
                    row[m_idx] = coeff.comm_slope
                    row[t_idx(i)] = -1.0
                    rows_ub.append(row)
                    rhs_ub.append(
                        -coeff.comp_const[j]
                        - coeff.comm_const
                        + overlap * indep_const[j]
                    )
        # M >= B_j
        for j in range(m):
            row = np.zeros(num_vars)
            row[j] = 1.0
            row[m_idx] = -1.0
            rows_ub.append(row)
            rhs_ub.append(0.0)
        # optional per-device memory constraints
        if self.config.respect_memory:
            rows_mem, rhs_mem = self._memory_constraints(program, m, num_vars)
            rows_ub.extend(rows_mem)
            rhs_ub.extend(rhs_mem)

        # sum_j B_j = 1
        row_eq = np.zeros(num_vars)
        row_eq[:m] = 1.0

        bounds = [(0.0, 1.0)] * (m + 1) + [(0.0, None)] * num_stages
        res = linprog(
            c=objective,
            A_ub=np.vstack(rows_ub) if rows_ub else None,
            b_ub=np.asarray(rhs_ub) if rhs_ub else None,
            A_eq=np.vstack([row_eq]),
            b_eq=np.asarray([1.0]),
            bounds=bounds,
            method="highs",
        )
        if not res.success:
            return None
        # Clean tiny negative numerical noise and renormalise.
        ratios = _normalise([float(res.x[j]) for j in range(m)])
        return LoadBalanceResult(ratios=ratios, objective=float(res.fun), success=True)

    def _memory_constraints(self, program, m, num_vars):
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
            row = np.zeros(num_vars)
            row[j] = sharded_bytes * overhead
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
