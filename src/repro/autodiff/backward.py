"""Construction of the training graph (forward + backward + optimizer step).

HAP's input is the full per-iteration program: forward pass, loss, backward
pass, and the parameter update for every trainable tensor (Sec. 6 of the
paper: each worker applies gradients to its own parameter shards after running
``Q``).  The paper obtains this program by tracing PyTorch autograd; here we
construct it ourselves with reverse-mode differentiation over the IR.

There is one reverse sweep, :func:`build_stage_training_graph`, which copies
a (stage) forward graph, seeds the loss gradient with a constant ``1.0`` and
every outgoing pipeline-boundary activation with a gradient placeholder,
emits vector-Jacobian products for every operator in reverse topological
order, sums gradient contributions from multiple consumers, and finally
appends an ``sgd_update`` node per parameter.  :func:`build_training_graph`
is its one-stage case: a whole model with a loss and no boundaries.  The
updated parameters and the loss are the outputs of the resulting graph —
they are exactly the tensors whose distributed properties the synthesizer
must establish.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..graph import grad_ops  # noqa: F401  (registers the backward operators)
from ..graph.graph import ComputationGraph, GraphError, Node
from ..graph.tensor import DType


#: Suffix of the gradient-seed placeholders of a pipeline-stage graph.
GRAD_SEED_SUFFIX = "__grad_in"


@dataclass
class TrainingGraphInfo:
    """Book-keeping produced alongside a (stage) training graph.

    A whole-model training graph is the one-stage case: it has a loss and no
    boundaries, so the boundary fields stay empty.

    Attributes:
        graph: the constructed training graph (forward + backward + SGD
            updates for the graph's own parameters).
        loss: name of the loss node (``None`` on a non-final pipeline stage).
        gradients: map from parameter name to its gradient node name.
        updates: map from parameter name to its ``sgd_update`` node name.
        skipped_parameters: parameters with no gradient path (e.g. MoE gate
            weights under straight-through routing); they receive no update.
        forward_nodes: names of the forward nodes (including the placeholder
            stand-ins for incoming activations) — everything else in
            ``graph`` is backward or optimizer work.
        boundary_outputs: activations this stage sends downstream; each is a
            graph output and has a matching gradient-seed placeholder.
        grad_input_of: boundary-output ref -> its gradient-seed placeholder
            (bound by the runtime to the gradient received from downstream).
        grad_output_of: incoming-activation ref -> node holding the gradient
            this stage sends back upstream (a graph output).
    """

    graph: ComputationGraph
    loss: Optional[str]
    gradients: Dict[str, str] = field(default_factory=dict)
    updates: Dict[str, str] = field(default_factory=dict)
    skipped_parameters: List[str] = field(default_factory=list)
    forward_nodes: List[str] = field(default_factory=list)
    boundary_outputs: List[str] = field(default_factory=list)
    grad_input_of: Dict[str, str] = field(default_factory=dict)
    grad_output_of: Dict[str, str] = field(default_factory=dict)


class _GradBuilder:
    """Helper that adds backward nodes with unique names."""

    def __init__(self, graph: ComputationGraph) -> None:
        self.graph = graph
        self._counter = 0

    def add(self, prefix: str, op: str, inputs: Tuple[str, ...], **attrs) -> str:
        name = f"{prefix}__g{self._counter}"
        self._counter += 1
        self.graph.add_node(name, op, inputs, attrs)
        return name


def _copy_forward(forward: ComputationGraph) -> ComputationGraph:
    graph = ComputationGraph(f"{forward.name}_train")
    for node in forward:
        graph.add_node(node.name, node.op, node.inputs, dict(node.attrs))
    return graph


def build_training_graph(
    forward: ComputationGraph, lr: float = 0.01
) -> TrainingGraphInfo:
    """Expand a forward graph with a marked loss into a full training graph.

    The one-stage case of :func:`build_stage_training_graph`: no incoming or
    outgoing boundaries, so the loss is the only gradient seed.

    Args:
        forward: single-device forward graph; ``forward.loss`` must be set.
        lr: learning rate stored on the ``sgd_update`` nodes.

    Returns:
        A :class:`TrainingGraphInfo` whose ``graph`` contains the forward
        nodes, all gradient nodes, and one ``sgd_update`` per parameter that
        receives a gradient.  The loss and the updated parameters are marked
        as outputs.

    Raises:
        GraphError: if the forward graph has no loss or uses an operator with
            no differentiation rule on the path to a parameter.
    """
    return build_stage_training_graph(forward, lr=lr)


def build_stage_training_graph(
    stage_forward: ComputationGraph,
    boundary_inputs: Tuple[str, ...] = (),
    boundary_outputs: Tuple[str, ...] = (),
    lr: float = 0.01,
) -> TrainingGraphInfo:
    """Differentiate a forward graph, or one pipeline stage of it.

    The reverse sweep copies the forward graph, seeds the loss gradient (when
    the stage holds the loss) with a constant ``1.0``, emits vector-Jacobian
    products for every operator in reverse topological order, sums gradient
    contributions from multiple consumers, and appends an ``sgd_update`` node
    per parameter.  Non-final stages have no loss; instead, each
    ``boundary_outputs`` activation gets a gradient-seed *placeholder* (named
    ``<ref>__grad_in``) standing in for the gradient that arrives from the
    downstream stage at run time, and the accumulated gradient of each
    ``boundary_inputs`` activation is marked as a graph output so it can be
    sent upstream.  Chaining the stage graphs through these placeholders
    reproduces the single-device backward pass.

    Args:
        stage_forward: the stage's forward subgraph.  Incoming activations
            must already be placeholder nodes carrying the original node
            names; the loss must be marked on the last stage.
        boundary_inputs: incoming-activation refs whose gradients this stage
            must export upstream.
        boundary_outputs: activation refs this stage exports downstream (the
            gradient seeds of its backward pass).
        lr: learning rate stored on the ``sgd_update`` nodes.

    Returns:
        A :class:`TrainingGraphInfo`; the graph's outputs are the updated
        parameters, the boundary activations, the upstream gradients, and the
        loss when present.

    Raises:
        GraphError: if the graph has neither a loss nor a boundary output to
            seed the backward pass, or uses an operator with no
            differentiation rule on the path to a parameter.
    """
    if stage_forward.loss is None and not boundary_outputs:
        raise GraphError(
            "a training graph needs a marked loss or at least one boundary "
            "output to seed its backward pass"
        )
    stage_forward.validate()

    graph = _copy_forward(stage_forward)
    b = _GradBuilder(graph)
    # Gradient accumulation buckets: node name -> list of grad node names.
    pending: Dict[str, List[str]] = {}

    if stage_forward.loss is not None:
        seed = b.add("grad_seed", "constant", (), shape=(), dtype=DType.FLOAT32, value=1.0)
        pending[stage_forward.loss] = [seed]

    grad_input_of: Dict[str, str] = {}
    for ref in boundary_outputs:
        spec = stage_forward[ref].spec
        seed_name = f"{ref}{GRAD_SEED_SUFFIX}"
        graph.add_node(seed_name, "placeholder", (), {"shape": spec.shape, "dtype": spec.dtype})
        pending.setdefault(ref, []).append(seed_name)
        grad_input_of[ref] = seed_name

    def grad_of(name: str) -> Optional[str]:
        """Sum accumulated gradient contributions of a node (or None)."""
        contribs = pending.get(name)
        if not contribs:
            return None
        total = contribs[0]
        for extra in contribs[1:]:
            total = b.add(f"grad_{name}_acc", "add", (total, extra))
        pending[name] = [total]
        return total

    def push(name: str, grad: Optional[str]) -> None:
        if grad is not None:
            pending.setdefault(name, []).append(grad)

    # Reverse topological sweep of the forward nodes.
    for node in reversed(stage_forward.nodes):
        dy = grad_of(node.name)
        if dy is None:
            continue
        for inp, grad in _vjp(b, stage_forward, node, dy).items():
            push(inp, grad)

    gradients: Dict[str, str] = {}
    updates: Dict[str, str] = {}
    skipped: List[str] = []
    for param in stage_forward.parameters():
        grad = grad_of(param.name)
        if grad is None:
            skipped.append(param.name)
            continue
        gradients[param.name] = grad
        upd = b.add(f"{param.name}_new", "sgd_update", (param.name, grad), lr=lr)
        updates[param.name] = upd
        graph.mark_output(upd)

    for ref in boundary_outputs:
        graph.mark_output(ref)
    grad_output_of: Dict[str, str] = {}
    for ref in boundary_inputs:
        grad = grad_of(ref)
        if grad is not None:
            graph.mark_output(grad)
            grad_output_of[ref] = grad

    if stage_forward.loss is not None:
        graph.mark_loss(stage_forward.loss)
    # The eager VJP sweep materialises gradients for every input, including
    # data placeholders nobody updates; drop those dead sinks so the planner
    # never pays (or shards) compute whose result is unobservable.  Boundary
    # activations and exported upstream gradients are outputs, so they stay.
    graph.prune_dead()
    graph.validate()
    return TrainingGraphInfo(
        graph=graph,
        loss=stage_forward.loss,
        gradients=gradients,
        updates=updates,
        skipped_parameters=skipped,
        forward_nodes=[n for n in stage_forward.node_names if n in graph],
        boundary_outputs=list(boundary_outputs),
        grad_input_of=grad_input_of,
        grad_output_of=grad_output_of,
    )


# ---------------------------------------------------------------------------
# per-operator vector-Jacobian products
# ---------------------------------------------------------------------------

def _vjp(b: _GradBuilder, fwd: ComputationGraph, node: Node, dy: str) -> Dict[str, Optional[str]]:
    """Gradient contributions of node ``node`` to each of its inputs.

    ``dy`` is the (already accumulated) gradient of the node's output.
    Returns a map input-name -> grad node name (``None`` entries are ignored).
    """
    op = node.op
    ins = node.inputs
    specs = fwd.input_specs(node)

    if op in ("placeholder", "parameter", "constant"):
        return {}

    if op in ("identity", "dropout"):
        return {ins[0]: dy}
    if op == "neg":
        return {ins[0]: b.add(f"d_{ins[0]}", "neg", (dy,))}
    if op == "scale":
        return {ins[0]: b.add(f"d_{ins[0]}", "scale", (dy,), factor=node.attrs.get("factor", 1.0))}
    if op in ("relu", "gelu", "sigmoid", "tanh", "square"):
        return {ins[0]: b.add(f"d_{ins[0]}", f"{op}_grad", (dy, ins[0]))}
    if op == "add":
        return {ins[0]: dy, ins[1]: dy}
    if op == "sub":
        return {ins[0]: dy, ins[1]: b.add(f"d_{ins[1]}", "neg", (dy,))}
    if op == "mul":
        return {
            ins[0]: b.add(f"d_{ins[0]}", "mul", (dy, ins[1])),
            ins[1]: b.add(f"d_{ins[1]}", "mul", (dy, ins[0])),
        }
    if op == "div":
        da = b.add(f"d_{ins[0]}", "div", (dy, ins[1]))
        num = b.add("div_grad_num", "mul", (dy, ins[0]))
        den = b.add("div_grad_den", "mul", (ins[1], ins[1]))
        db = b.add(f"d_{ins[1]}", "neg", (b.add("div_grad_q", "div", (num, den)),))
        return {ins[0]: da, ins[1]: db}
    if op == "bias_add":
        return {ins[0]: dy, ins[1]: b.add(f"d_{ins[1]}", "sum_leading", (dy,))}

    if op == "matmul":
        return _matmul_vjp(b, node, dy, specs)

    if op == "softmax":
        return {ins[0]: b.add(f"d_{ins[0]}", "softmax_grad", (dy, node.name), axis=node.attrs.get("axis", -1))}
    if op == "layernorm":
        return {
            ins[0]: b.add(
                f"d_{ins[0]}",
                "layernorm_grad",
                (dy, ins[0]),
                axis=node.attrs.get("axis", -1),
                eps=node.attrs.get("eps", 1e-5),
            )
        }

    if op in ("reshape", "flatten"):
        return {ins[0]: b.add(f"d_{ins[0]}", "reshape", (dy,), shape=specs[0].shape)}
    if op == "transpose":
        perm = tuple(int(p) for p in node.attrs["perm"])
        inverse = tuple(perm.index(i) for i in range(len(perm)))
        return {ins[0]: b.add(f"d_{ins[0]}", "transpose", (dy,), perm=inverse)}

    if op == "reduce_sum":
        return {ins[0]: b.add(f"d_{ins[0]}", "broadcast_to", (dy,), shape=specs[0].shape)}
    if op == "reduce_mean":
        bc = b.add("mean_grad_bc", "broadcast_to", (dy,), shape=specs[0].shape)
        return {ins[0]: b.add(f"d_{ins[0]}", "scale", (bc,), factor=1.0 / specs[0].numel)}

    if op == "cross_entropy":
        return {ins[0]: b.add(f"d_{ins[0]}", "cross_entropy_grad", (dy, ins[0], ins[1])), ins[1]: None}
    if op == "embedding":
        vocab = specs[1].shape[0]
        return {ins[1]: b.add(f"d_{ins[1]}", "embedding_grad", (dy, ins[0]), vocab_size=vocab), ins[0]: None}

    if op == "conv2d":
        stride = int(node.attrs.get("stride", 1))
        padding = int(node.attrs.get("padding", 0))
        dx = b.add(
            f"d_{ins[0]}",
            "conv2d_grad_input",
            (dy, ins[1]),
            stride=stride,
            padding=padding,
            input_shape=specs[0].shape,
        )
        dw = b.add(
            f"d_{ins[1]}",
            "conv2d_grad_weight",
            (dy, ins[0]),
            stride=stride,
            padding=padding,
            weight_shape=specs[1].shape,
        )
        return {ins[0]: dx, ins[1]: dw}

    if op in ("maxpool2d", "avgpool2d"):
        return {
            ins[0]: b.add(
                f"d_{ins[0]}",
                f"{op}_grad",
                (dy, ins[0]),
                kernel=node.attrs.get("kernel", 2),
                stride=node.attrs.get("stride", node.attrs.get("kernel", 2)),
            )
        }

    if op == "moe_dispatch":
        return {ins[0]: b.add(f"d_{ins[0]}", "moe_dispatch_grad", (dy, ins[1])), ins[1]: None}
    if op == "moe_combine":
        capacity = fwd[ins[0]].spec.shape[1]
        return {
            ins[0]: b.add(
                f"d_{ins[0]}",
                "moe_combine_grad",
                (dy, ins[1]),
                capacity=capacity,
                capacity_factor=node.attrs.get("capacity_factor", 1.25),
            ),
            ins[1]: None,
        }

    raise GraphError(f"no differentiation rule for operator {op!r} (node {node.name!r})")


def _matmul_vjp(b: _GradBuilder, node: Node, dy: str, specs) -> Dict[str, Optional[str]]:
    a_name, w_name = node.inputs
    a, w = specs
    if a.rank == 2 and w.rank == 2:
        wt = b.add("matmul_wt", "transpose", (w_name,), perm=(1, 0))
        da = b.add(f"d_{a_name}", "matmul", (dy, wt))
        at = b.add("matmul_at", "transpose", (a_name,), perm=(1, 0))
        dw = b.add(f"d_{w_name}", "matmul", (at, dy))
        return {a_name: da, w_name: dw}
    if a.rank == 3 and w.rank == 3:
        wt = b.add("matmul_wt", "transpose", (w_name,), perm=(0, 2, 1))
        da = b.add(f"d_{a_name}", "matmul", (dy, wt))
        at = b.add("matmul_at", "transpose", (a_name,), perm=(0, 2, 1))
        dw = b.add(f"d_{w_name}", "matmul", (at, dy))
        return {a_name: da, w_name: dw}
    if a.rank == 3 and w.rank == 2:
        # a: [B, M, K], w: [K, N], y: [B, M, N]
        batch, m, k = a.shape
        n = w.shape[1]
        wt = b.add("matmul_wt", "transpose", (w_name,), perm=(1, 0))
        da = b.add(f"d_{a_name}", "matmul", (dy, wt))
        a2 = b.add("matmul_a2", "reshape", (a_name,), shape=(batch * m, k))
        dy2 = b.add("matmul_dy2", "reshape", (dy,), shape=(batch * m, n))
        a2t = b.add("matmul_a2t", "transpose", (a2,), perm=(1, 0))
        dw = b.add(f"d_{w_name}", "matmul", (a2t, dy2))
        return {a_name: da, w_name: dw}
    raise GraphError(f"unsupported matmul ranks in autodiff: {a.rank} x {w.rank}")
