"""The in-tree load-balancing LP solver, checked by exact optimality certificates.

Every solve is checked in :class:`fractions.Fraction`: the vertex the solver
rounds satisfies the basis's equations and every constraint of the LP, the
basis's dual multipliers are feasible, and the primal and dual objectives
are equal — so the vertex is an exact optimum, whatever the float pivots.

``tests/golden/lp.json`` holds the LPs the three cold problems of the
end-to-end benchmark (``benchmarks/e2e``) solve, each row as sparse
``column:float.hex`` pairs, with the ratios and objective SciPy's HiGHS
returned for it.  Regenerate it (only when a change is meant to alter the
LPs the planner builds; it needs SciPy, which the library does not) with::

    PYTHONPATH=src python -m tests.test_lp_solver --regenerate
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.core import StageCoefficients
from repro.core import load_balancer as lb

GOLDEN = Path(__file__).with_name("golden") / "lp.json"

#: The benchmark workloads whose LPs the fixture holds.
WORKLOADS = ("hetero-pipeline", "flat-deep", "moe-memory")

#: LPs where HiGHS's ratios are not the exact optimum's, so only the
#: certificate is checked.  The two zero-objective LPs have every vertex
#: optimal (HiGHS returns ``[1, 0]``); on ``flat-deep`` HiGHS leaves a row
#: violated by 6e-9 and is 1 ULP off the exact vertex.
CERTIFICATE_ONLY = {"hetero-pipeline/3", "flat-deep/0", "moe-memory/3"}


def _exact_solve(matrix: List[List[Fraction]], rhs: List[Fraction]) -> List[Fraction]:
    """Solve a square nonsingular system by Gauss-Jordan elimination."""
    n = len(rhs)
    rows = [list(row) + [b] for row, b in zip(matrix, rhs)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if rows[r][col] != 0)
        rows[col], rows[pivot] = rows[pivot], rows[col]
        head = rows[col]
        inv = 1 / head[col]
        head[:] = [v * inv for v in head]
        for r in range(n):
            factor = rows[r][col]
            if r != col and factor != 0:
                rows[r] = [v - factor * h for v, h in zip(rows[r], head)]
    return [row[n] for row in rows]


def check_certificate(lp: lb.LinearProgram, solution: lb.LPSolution) -> Fraction:
    """Assert that ``solution`` is an exact optimum of ``lp``; return its objective."""
    m, n, num_rows = lp.num_devices, lp.num_vars, len(lp.rows)
    x = solution.vertex
    assert len(x) == n and len(solution.basis) == n
    assert len(set(solution.basis)) == n

    # Primal feasibility: every row, the ratio sum and the bounds hold exactly.
    for row, bound in zip(lp.rows, lp.rhs):
        assert sum((Fraction(v) * x[k] for k, v in row), Fraction(0)) <= Fraction(bound)
    assert sum(x[:m]) == 1
    assert all(v >= 0 for v in x)

    # The vertex is the basis's: each basic equation is tight.
    normals: List[Dict[int, Fraction]] = []
    for eq in solution.basis:
        coeffs, bound = lp.equation(eq)
        exact = {k: Fraction(v) for k, v in coeffs.items()}
        assert sum(v * x[k] for k, v in exact.items()) == Fraction(bound)
        # Orient each inequality as ``normal . x >= bound``.
        normals.append({k: -v for k, v in exact.items()} if eq < num_rows else exact)

    # Dual feasibility: c = sum_e lambda_e * normal_e with lambda_e >= 0 on
    # every inequality (the ratio sum's multiplier is free).
    cost = [Fraction(int(k > m)) for k in range(n)]
    matrix = [[normal.get(k, Fraction(0)) for normal in normals] for k in range(n)]
    multipliers = _exact_solve(matrix, cost)
    for eq, value in zip(solution.basis, multipliers):
        if eq != num_rows:
            assert value >= 0, f"equation {eq} has dual multiplier {value}"

    # Equal objectives.
    primal = sum(x[m + 1:], Fraction(0))
    dual = Fraction(0)
    for eq, value in zip(solution.basis, multipliers):
        _, bound = lp.equation(eq)
        dual += value * (-Fraction(bound) if eq < num_rows else Fraction(bound))
    assert primal == dual
    return primal


def _load_golden() -> List[dict]:
    # Absent only while ``--regenerate`` writes it for the first time.
    return json.loads(GOLDEN.read_text()) if GOLDEN.exists() else []


def _lp(record: dict) -> lb.LinearProgram:
    rows = tuple(
        tuple((int(k), float.fromhex(v)) for k, v in (pair.split(":") for pair in row.split()))
        for row in record["rows"]
    )
    return lb.LinearProgram(
        record["devices"], record["stages"], rows, tuple(map(float.fromhex, record["rhs"]))
    )


@pytest.mark.parametrize("record", _load_golden(), ids=lambda r: r["id"])
def test_golden_lp(record):
    lp = _lp(record)
    solution = lb.solve_lp(lp)
    objective = check_certificate(lp, solution)
    ratios = lb._normalise([float(v) for v in solution.vertex[: lp.num_devices]])
    assert float(objective) == pytest.approx(
        float.fromhex(record["highs_objective"]), rel=1e-6, abs=1e-12
    )
    if record["id"] not in CERTIFICATE_ONLY:
        assert [r.hex() for r in ratios] == record["highs_ratios"]


def test_golden_holds_every_cold_workload():
    ids = [r["id"] for r in _load_golden()]
    assert len(ids) == 14
    assert {i.split("/")[0] for i in ids} == set(WORKLOADS)
    assert CERTIFICATE_ONLY <= set(ids)


_TIME_SCALE = st.sampled_from([1e-6, 1e-3, 1.0])
_SHARE = st.sampled_from([0.0, 0.5, 1.0])


@st.composite
def stage_problems(draw):
    """Random stage lines: 2-4 devices, 1-6 stages, overlap 0 or 0.6.

    Some devices copy another's columns (duplicate devices) and some stages
    are all zero.
    """
    m = draw(st.integers(2, 4))
    scale = draw(_TIME_SCALE)
    times = st.one_of(st.just(0.0), st.floats(1e-4, 1.0).map(lambda t: t * scale))
    twin = draw(st.lists(st.integers(0, m - 1), min_size=m, max_size=m))
    coeffs = []
    for _ in range(draw(st.integers(1, 6))):
        if draw(st.integers(0, 4)) == 0:
            coeffs.append(StageCoefficients(0.0, 0.0, [0.0] * m, [0.0] * m, [0.0] * m, [0.0] * m))
            continue
        slope = [draw(times) for _ in range(m)]
        const = [draw(times) for _ in range(m)]
        share = draw(_SHARE)
        slope = [slope[twin[j]] for j in range(m)]
        const = [const[twin[j]] for j in range(m)]
        coeffs.append(
            StageCoefficients(
                comm_const=draw(times),
                comm_slope=draw(times),
                comp_slope=slope,
                comp_const=const,
                indep_slope=[s * share for s in slope],
                indep_const=[c * share for c in const],
            )
        )
    return m, coeffs, draw(st.sampled_from([0.0, 0.6]))


@given(stage_problems())
@settings(max_examples=150, deadline=None)
def test_property_solve_is_certified_optimal(problem):
    m, coeffs, overlap = problem
    lp = lb.assemble_lp(coeffs, m, overlap)
    solution = lb.solve_lp(lp)
    objective = check_certificate(lp, solution)
    # The LP's optimum is what the stage lines price at its ratios.
    ratios = [float(v) for v in solution.vertex[:m]]
    priced = sum(c.time(ratios, overlap=overlap) for c in coeffs)
    assert float(objective) == pytest.approx(priced, rel=1e-9, abs=1e-15)


def test_infeasible_lp_raises_typed_error():
    # x_0 + x_1 = 1 with both rows forcing B_j <= -1: no feasible point.
    lp = lb.LinearProgram(2, 1, (((0, 1.0),), ((1, 1.0),), ((3, 1.0),)), (-1.0, -1.0, 1.0))
    with pytest.raises(lb.LoadBalanceError, match="2 devices and 1 stages"):
        lb.solve_lp(lp)


#: Run in a fresh interpreter: import the planner, plan a small flat and a
#: small hierarchical problem, then fill a disk plan cache and serve a
#: whole-plan hit from it, printing the SciPy and numpy modules loaded
#: after each step.
_NO_NUMPY_SCRIPT = """
import sys
import tempfile

import repro.hap, repro.models, repro.verify, repro.simulator, repro.cluster

def loaded():
    return sorted(m for m in sys.modules if m.split(".")[0] in ("scipy", "numpy"))

print("import", loaded())

from repro.cluster import ClusterSpec, Machine, device_type
from repro.core import DiskPlanCache, HierarchicalConfig
from repro.graph import DType, GraphBuilder
from repro.hap import hap, hap_pipeline

b = GraphBuilder("mlp")
features = b.placeholder((16, 32), name="features")
logits = b.linear(b.relu(b.linear(features, 64)), 10)
labels = b.placeholder((16,), dtype=DType.INT64, name="labels")
b.loss(b.cross_entropy(logits, labels))
model = b.build()
gpus = ("A100", "A100", "P100", "P100")
machines = [Machine(f"m{i}", device_type(g), num_gpus=1) for i, g in enumerate(gpus)]
cluster = ClusterSpec(machines, group_by_machine=True)
hap(model, cluster)
hap_pipeline(model, cluster)
print("plan", loaded())

with tempfile.TemporaryDirectory() as cache_dir:
    hap_pipeline(model, cluster, HierarchicalConfig(plan_cache=DiskPlanCache(cache_dir)))
    hit = hap_pipeline(model, cluster, HierarchicalConfig(plan_cache=DiskPlanCache(cache_dir)))
    assert hit.reuse_stats["whole_plan_hit"] == 1
print("cache", loaded())
"""


def test_planning_loads_no_scipy_or_numpy():
    src = str(Path(repro.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run(
        [sys.executable, "-c", _NO_NUMPY_SCRIPT],
        env=env, capture_output=True, text=True, check=True,
    ).stdout
    assert out.splitlines() == ["import []", "plan []", "cache []"]


@pytest.mark.parametrize("record", _load_golden(), ids=lambda r: r["id"])
def test_float_basis_is_already_optimal(record):
    # The exact phase only proves the float basis optimal: no pivot, and no
    # restart from the slack basis.
    lp = _lp(record)
    basis = lb._float_basis(lp)
    assert lb._exact_simplex(lp, list(basis)).basis == basis


def _record(workload: str, index: int, lp: lb.LinearProgram) -> dict:
    """One fixture record: ``lp`` and SciPy HiGHS's answer to it."""
    import numpy as np
    from scipy.optimize import linprog

    m, n = lp.num_devices, lp.num_vars
    # HiGHS takes M <= 1 (and the implied B <= 1) as bounds, not a row.
    rows = [(row, b) for row, b in zip(lp.rows, lp.rhs) if row != ((m, 1.0),)]
    a_ub = np.zeros((len(rows), n))
    for r, (row, _) in enumerate(rows):
        for k, v in row:
            a_ub[r, k] = v
    res = linprog(
        c=[float(k > m) for k in range(n)],
        A_ub=a_ub,
        b_ub=[b for _, b in rows],
        A_eq=[[float(k < m) for k in range(n)]],
        b_eq=[1.0],
        bounds=[(0.0, 1.0)] * (m + 1) + [(0.0, None)] * lp.num_stages,
        method="highs",
    )
    assert res.success
    return {
        "id": f"{workload}/{index}",
        "devices": m,
        "stages": lp.num_stages,
        "rows": [" ".join(f"{k}:{v.hex()}" for k, v in row) for row in lp.rows],
        "rhs": [b.hex() for b in lp.rhs],
        "highs_ratios": [r.hex() for r in lb._normalise([float(v) for v in res.x[:m]])],
        "highs_objective": float(res.fun).hex(),
    }


def regenerate() -> List[dict]:
    """Plan the cold workloads and record every LP the planner assembles."""
    from benchmarks.e2e import workloads

    captured: List[lb.LinearProgram] = []
    assemble = lb.assemble_lp

    def capture(*args, **kwargs):
        captured.append(assemble(*args, **kwargs))
        return captured[-1]

    records = []
    lb.assemble_lp = capture
    try:
        for workload in WORKLOADS:
            cluster = workloads.build_cluster(workload)
            workloads.plan(workload, workloads.build_forward(workload, cluster.num_gpus, ""), cluster)
            records += [_record(workload, i, lp) for i, lp in enumerate(captured)]
            captured.clear()
    finally:
        lb.assemble_lp = assemble
    return records


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit("usage: python -m tests.test_lp_solver --regenerate")
    GOLDEN.write_text(json.dumps(regenerate(), indent=1) + "\n")
    print(f"wrote {GOLDEN}")
