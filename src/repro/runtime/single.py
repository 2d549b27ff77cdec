"""Single-device reference executor for computation graphs.

Executes a :class:`~repro.graph.graph.ComputationGraph` with the numpy kernels
of :mod:`repro.runtime.kernels`, producing exactly the values the distributed
SPMD runtime must emulate.  Used by tests (gradient checks, SPMD equivalence)
and by the examples.
"""

from __future__ import annotations

from typing import Dict, Iterable, Mapping, Optional

import numpy as np

from ..graph.graph import ComputationGraph, GraphError
from .kernels import KERNELS


def init_parameters(
    graph: ComputationGraph, seed: int = 0, scale: float = 0.02
) -> Dict[str, np.ndarray]:
    """Deterministically initialise all parameters of a graph.

    Mirrors the paper's setup where every worker initialises the single-device
    model with the same seed before sharding (Sec. 6).
    """
    rng = np.random.default_rng(seed)
    params: Dict[str, np.ndarray] = {}
    for node in graph.parameters():
        params[node.name] = rng.normal(0.0, scale, size=node.spec.shape).astype(np.float32)
    return params


class SingleDeviceExecutor:
    """Interpret a computation graph on one (simulated) device."""

    def __init__(self, graph: ComputationGraph) -> None:
        graph.validate()
        self.graph = graph

    def run(
        self,
        bindings: Mapping[str, np.ndarray],
        outputs: Optional[Iterable[str]] = None,
    ) -> Dict[str, np.ndarray]:
        """Execute the graph.

        Args:
            bindings: values for every placeholder and parameter node.
            outputs: node names to return; defaults to the graph's outputs.

        Returns:
            Map from node name to numpy value.

        Raises:
            GraphError: if a required binding is missing or a shape mismatches.
        """
        wanted = list(outputs) if outputs is not None else list(self.graph.outputs)
        env: Dict[str, np.ndarray] = {}
        for node in self.graph:
            if node.op in ("placeholder", "parameter"):
                if node.name not in bindings:
                    raise GraphError(f"missing binding for {node.op} {node.name!r}")
                value = np.asarray(bindings[node.name])
                if tuple(value.shape) != node.spec.shape:
                    raise GraphError(
                        f"binding for {node.name!r} has shape {value.shape}, expected {node.spec.shape}"
                    )
                env[node.name] = value
            elif node.op == "constant":
                value = np.asarray(node.attrs.get("value", 0.0), dtype=np.float32)
                env[node.name] = np.broadcast_to(value, node.spec.shape).astype(np.float32)
            else:
                args = [env[i] for i in node.inputs]
                env[node.name] = np.asarray(KERNELS[node.op](args, node.attrs))
        return {name: env[name] for name in wanted}

    def loss_value(self, bindings: Mapping[str, np.ndarray]) -> float:
        """Convenience: execute and return the scalar loss."""
        if self.graph.loss is None:
            raise GraphError("graph has no loss node")
        return float(self.run(bindings, outputs=[self.graph.loss])[self.graph.loss])
