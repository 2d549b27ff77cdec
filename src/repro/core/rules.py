"""Background-theory construction (Sec. 4.2 of the paper).

Given a single-device training graph, :func:`build_theory` derives the set of
Hoare triples that the synthesizer searches over.  Each triple (a
:class:`Rule`) has

* a precondition — properties the partial program must already contain,
* one or more distributed instructions to append, and
* a postcondition — the properties those instructions establish.

Rules come in three families:

1. **Computation rules**, one per (node, sharding variant): generated from the
   mathematical characteristics of the node's operator (``OpKind``), e.g. the
   three MatMul sharding rules of Fig. 9 plus the duplicated-compute rule that
   enables sufficient factor broadcasting (Sec. 4.4).
2. **Source rules** for placeholders/parameters/constants
   (``Placeholder-Shard(d)`` etc.).  Following the paper's first search-time
   optimisation these are *fused* into consumers so that the search never has
   to decide where to place them: each source is created by the rules of its
   first consumer in graph order (:func:`first_use_sources`), and every later
   consumer requires it as a precondition.
3. **Communication rules**, converting a tensor between distribution states
   with a collective.  Only conversions from a state some rule can produce to
   a state some rule wants are generated, and each reference tensor may be
   communicated at most once per program (the paper's second optimisation).

Mixture-of-Experts capacity tensors carry device-local routing; gathering them
back to a "replicated" tensor would not reproduce the reference value, so such
tensors are restricted to All-To-All communication (expert parallelism), which
is exactly how GShard-style systems treat them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..collectives.cost import CollectiveKind
from ..graph.graph import ComputationGraph, Node
from ..graph.ops import OpKind
from .config import SynthesisConfig
from .instructions import CommInstruction, CompInstruction, Instruction
from .properties import DistState, Property


@dataclass(frozen=True)
class Rule:
    """One Hoare triple of the background theory.

    Attributes:
        pre: properties required of the partial program.
        instructions: distributed instructions appended when the rule fires.
        post: properties established by the instructions.
        completes: single-device nodes emulated by this rule (each node may be
            emulated at most once per program): a computation rule's node
            plus the sources that node consumes first, so every rule of a
            node completes the same set.
        communicates: reference tensors communicated by this rule (each may be
            communicated at most once per program).
        pre_mask, post_mask: ``pre`` / ``post`` as bit masks over the owning
            theory's property index (:attr:`Theory.props`).
        comm_mask: ``communicates`` as a bit mask over graph positions.

    :func:`build_theory` builds each rule once, masks included, after the
    property index is sorted; every property a rule mentions (in ``pre``,
    ``post`` or an instruction) is the interned object at its bit in
    :attr:`Theory.props`.  The masks take no part in rule equality.
    """

    pre: FrozenSet[Property]
    instructions: Tuple[Instruction, ...]
    post: FrozenSet[Property]
    completes: FrozenSet[str]
    communicates: FrozenSet[str]
    pre_mask: int = field(default=0, compare=False, repr=False)
    post_mask: int = field(default=0, compare=False, repr=False)
    comm_mask: int = field(default=0, compare=False, repr=False)

    @property
    def is_communication(self) -> bool:
        """True if any appended instruction is a collective."""
        return any(instr.is_communication for instr in self.instructions)

    def describe(self) -> str:
        """Readable rendering for debugging and documentation."""
        pre = ", ".join(sorted(str(p) for p in self.pre)) or "∅"
        post = ", ".join(sorted(str(p) for p in self.post))
        body = "; ".join(i.describe() for i in self.instructions)
        return f"{{ {pre} }} {body} {{ {post} }}"


@dataclass(frozen=True)
class Variant:
    """One sharding variant of a computation node: input states -> output state."""

    input_states: Tuple[DistState, ...]
    output_state: DistState
    flops_sharded: bool


class Theory:
    """The background theory for one training graph on one cluster size.

    Every property that appears in a rule owns one bit: bit ``i`` stands for
    ``props[i]``, so a set of properties is an ``int`` (see :meth:`encode` /
    :meth:`decode`).  Bits are ordered by the ref's position in
    ``graph.node_names``, then state kind, then dim, so isomorphic graphs
    share one layout and each ref's properties are contiguous bits.  Each
    property exists once: ``props[i]`` is the very object every rule holds
    for that (ref, state) pair.
    """

    def __init__(
        self,
        graph: ComputationGraph,
        num_devices: int,
        config: SynthesisConfig,
        rules: List[Rule],
        restricted_refs: FrozenSet[str],
        props: Tuple[Property, ...],
    ) -> None:
        self.graph = graph
        self.num_devices = num_devices
        self.config = config
        self.rules = rules
        #: refs restricted to All-To-All communication (MoE capacity tensors)
        self.restricted_refs = restricted_refs
        #: the property index: bit i of a property mask stands for props[i]
        self.props = props
        self.prop_bits: Dict[Property, int] = {p: 1 << i for i, p in enumerate(props)}
        #: ref -> mask of all of its properties (the liveness drop), in
        #: graph order whatever the bit order
        by_ref: Dict[str, int] = {}
        for prop, bit in self.prop_bits.items():
            by_ref[prop.ref] = by_ref.get(prop.ref, 0) | bit
        self.ref_masks: Dict[str, int] = {
            name: by_ref[name] for name in graph.node_names if name in by_ref
        }
        # Index rules by the computation node they emulate (the last
        # instruction's) / the tensor they communicate (used by the
        # topological-order searches).
        self.comp_rules_by_node: Dict[str, List[Rule]] = {}
        self.comm_rules_by_ref: Dict[str, List[Rule]] = {}
        for rule in rules:
            if rule.is_communication:
                for ref in {p.ref for p in rule.pre}:
                    self.comm_rules_by_ref.setdefault(ref, []).append(rule)
            else:
                node = rule.instructions[-1].node  # type: ignore[union-attr]
                self.comp_rules_by_node.setdefault(node, []).append(rule)
        # Communication rules keyed by the index ``i`` of the property
        # ``props[i]`` they establish (a small int hashes in O(1), a bit mask
        # in O(bits)).  Lists preserve the relative order of
        # ``comm_rules_by_ref`` so that indexed candidate enumeration visits
        # rules in exactly the same order as a filtering scan of that table
        # (byte-identical synthesis results).
        index = {p: i for i, p in enumerate(props)}
        self.comm_rules_by_post: Dict[int, List[Rule]] = {}
        for rules_for_ref in self.comm_rules_by_ref.values():
            for rule in rules_for_ref:
                for prop in rule.post:
                    self.comm_rules_by_post.setdefault(index[prop], []).append(rule)

    def __len__(self) -> int:
        return len(self.rules)

    def encode(self, properties: Iterable[Property]) -> int:
        """Bit mask of a set of the theory's properties."""
        # A sum is an OR here: the set holds each bit at most once.
        return sum(map(self.prop_bits.__getitem__, frozenset(properties)))

    def decode(self, bits: int) -> FrozenSet[Property]:
        """The properties whose bits are set in ``bits``."""
        props = self.props
        out = []
        while bits:
            low = bits & -bits
            out.append(props[low.bit_length() - 1])
            bits ^= low
        return frozenset(out)

    def describe(self, limit: Optional[int] = None) -> str:
        """Multi-line listing of (a prefix of) the rules."""
        rules = self.rules[:limit] if limit else self.rules
        return "\n".join(r.describe() for r in rules)


# ---------------------------------------------------------------------------
# sharding-variant generation per operator kind
# ---------------------------------------------------------------------------

R = DistState.replicated()
P = DistState.partial()

#: Tensor dimensions smaller than this (or than the device count) are never
#: considered as sharding dimensions.
MIN_SHARD_DIM_SIZE = 2


def S(dim: int) -> DistState:
    return DistState.sharded(dim)


def _input_shardable(spec_shape: Tuple[int, ...], dim: int, num_devices: int) -> bool:
    if dim >= len(spec_shape):
        return False
    return spec_shape[dim] >= max(MIN_SHARD_DIM_SIZE, num_devices)


def node_variants(
    node: Node, graph: ComputationGraph, cfg: SynthesisConfig, num_devices: int
) -> List[Variant]:
    """All sharding variants of one computation node.

    This is the reproduction of the rule tables sketched in Fig. 9: for each
    operator kind we enumerate the combinations of input distribution states
    under which running the operator locally yields an output in a known
    distribution state.
    """
    kind = node.kind
    in_specs = graph.input_specs(node)
    out_spec = node.spec
    variants: List[Variant] = []

    def add(in_states: Sequence[DistState], out_state: DistState, sharded: bool) -> None:
        variants.append(Variant(tuple(in_states), out_state, sharded))

    def out_dims() -> List[int]:
        return [
            d
            for d, size in enumerate(out_spec.shape)
            if size >= max(MIN_SHARD_DIM_SIZE, num_devices)
        ]

    arity = len(node.inputs)

    if kind is OpKind.SOURCE:
        raise ValueError("source nodes are handled by source_variants()")

    # -- shape-preserving elementwise maps -----------------------------------
    if kind is OpKind.ELEMENTWISE:
        add([R] * arity, R, sharded=False)
        for d in out_dims():
            add([S(d)] * arity, S(d), sharded=True)
        # Linear ops propagate partial values (needed on gradient paths).
        if node.op in ("identity", "dropout", "neg", "scale"):
            add([P], P, sharded=False)
        if node.op == "add":
            add([P, P], P, sharded=False)
        return variants

    if kind is OpKind.BROADCAST_BIAS:
        add([R, R], R, sharded=False)
        for d in out_dims():
            if d == out_spec.rank - 1:
                add([S(d), S(0)], S(d), sharded=True)
            else:
                add([S(d), R], S(d), sharded=True)
        return variants

    if kind is OpKind.MATMUL:
        a, b = in_specs
        if cfg.enable_sfb:
            add([R, R], R, sharded=False)  # duplicated compute (enables SFB)
        if a.rank == 2 and b.rank == 2:
            if _input_shardable(a.shape, 0, num_devices):
                add([S(0), R], S(0), sharded=True)
            if _input_shardable(b.shape, 1, num_devices):
                add([R, S(1)], S(1), sharded=True)
            if _input_shardable(a.shape, 1, num_devices):
                add([S(1), S(0)], P, sharded=True)
        elif a.rank == 3 and b.rank == 3:
            if _input_shardable(a.shape, 0, num_devices):
                add([S(0), S(0)], S(0), sharded=True)
            if _input_shardable(a.shape, 1, num_devices):
                add([S(1), R], S(1), sharded=True)
            if _input_shardable(b.shape, 2, num_devices):
                add([R, S(2)], S(2), sharded=True)
            if _input_shardable(a.shape, 2, num_devices):
                add([S(2), S(1)], P, sharded=True)
        elif a.rank == 3 and b.rank == 2:
            if _input_shardable(a.shape, 0, num_devices):
                add([S(0), R], S(0), sharded=True)
            if _input_shardable(a.shape, 1, num_devices):
                add([S(1), R], S(1), sharded=True)
            if _input_shardable(b.shape, 1, num_devices):
                add([R, S(1)], S(2), sharded=True)
            if _input_shardable(a.shape, 2, num_devices):
                add([S(2), S(0)], P, sharded=True)
        return variants

    if kind is OpKind.REDUCTION:
        add([R], R, sharded=False)
        if node.op == "reduce_sum":
            for d, size in enumerate(in_specs[0].shape):
                if size >= max(MIN_SHARD_DIM_SIZE, num_devices):
                    add([S(d)], P, sharded=True)
        return variants

    if kind is OpKind.NORMALIZATION:
        axis = int(node.attrs.get("axis", -1)) % out_spec.rank
        add([R] * arity, R, sharded=False)
        for d in out_dims():
            if d != axis:
                add([S(d)] * arity, S(d), sharded=True)
        return variants

    if kind in (OpKind.RESHAPE, OpKind.FLATTEN):
        add([R], R, sharded=False)
        add([P], P, sharded=False)
        for din, dout in _reshape_dim_map(in_specs[0].shape, out_spec.shape):
            if _input_shardable(in_specs[0].shape, din, num_devices):
                add([S(din)], S(dout), sharded=True)
        return variants

    if kind is OpKind.TRANSPOSE:
        perm = tuple(int(p) for p in node.attrs["perm"])
        add([R], R, sharded=False)
        add([P], P, sharded=False)
        for dout, din in enumerate(perm):
            if _input_shardable(in_specs[0].shape, din, num_devices):
                add([S(din)], S(dout), sharded=True)
        return variants

    if kind is OpKind.EMBEDDING:
        ids, table = in_specs
        add([R, R], R, sharded=False)
        for d in range(ids.rank):
            if _input_shardable(ids.shape, d, num_devices):
                add([S(d), R], S(d), sharded=True)
        if _input_shardable(table.shape, 1, num_devices):
            add([R, S(1)], S(out_spec.rank - 1), sharded=True)
        return variants

    if kind in (OpKind.CONV, OpKind.POOL, OpKind.CONV_GRAD_INPUT):
        add([R] * arity, R, sharded=False)
        if _input_shardable(out_spec.shape, 0, num_devices):
            states = [S(0)] + [R] * (arity - 1)
            if kind is OpKind.POOL and arity == 2:  # pool grads take (dy, x)
                states = [S(0), S(0)]
            add(states, S(0), sharded=True)
        return variants

    if kind is OpKind.CONV_GRAD_WEIGHT:
        add([R, R], R, sharded=False)
        if _input_shardable(in_specs[0].shape, 0, num_devices):
            add([S(0), S(0)], P, sharded=True)
        return variants

    if kind is OpKind.CROSS_ENTROPY:
        if node.op == "cross_entropy":
            add([R, R], R, sharded=False)
            if _input_shardable(in_specs[0].shape, 0, num_devices):
                add([S(0), S(0)], P, sharded=True)
        else:  # cross_entropy_grad(dy, logits, labels)
            add([R, R, R], R, sharded=False)
            if _input_shardable(in_specs[1].shape, 0, num_devices):
                add([R, S(0), S(0)], S(0), sharded=True)
        return variants

    if kind is OpKind.BROADCAST:
        add([R], R, sharded=False)
        return variants

    if kind is OpKind.SUM_LEADING:
        src = in_specs[0]
        add([R], R, sharded=False)
        for d in range(src.rank - 1):
            if _input_shardable(src.shape, d, num_devices):
                add([S(d)], P, sharded=True)
        if _input_shardable(src.shape, src.rank - 1, num_devices):
            add([S(src.rank - 1)], S(0), sharded=True)
        return variants

    if kind is OpKind.EMBEDDING_GRAD:
        dy, ids = in_specs
        add([R, R], R, sharded=False)
        for d in range(ids.rank):
            if _input_shardable(ids.shape, d, num_devices):
                add([S(d), S(d)], P, sharded=True)
        if _input_shardable(dy.shape, dy.rank - 1, num_devices):
            add([S(dy.rank - 1), R], S(1), sharded=True)
        return variants

    if kind is OpKind.MOE_DISPATCH:
        # moe_dispatch(tokens [N,H], gates [N,E]) -> [E, C, H]
        # moe_combine_grad(dy [N,H], gates [N,E]) -> [E, C, H]
        add([R, R], R, sharded=False)
        if _input_shardable(in_specs[0].shape, 0, num_devices):
            add([S(0), S(0)], S(1), sharded=True)
        return variants

    if kind is OpKind.MOE_COMBINE:
        # moe_combine(expert_out [E,C,H], gates [N,E]) -> [N,H]
        # moe_dispatch_grad(dy [E,C,H], gates [N,E]) -> [N,H]
        add([R, R], R, sharded=False)
        if _input_shardable(in_specs[1].shape, 0, num_devices):
            add([S(1), S(0)], S(0), sharded=True)
        return variants

    if kind is OpKind.OPTIMIZER:
        add([R, R], R, sharded=False)
        for d in out_dims():
            add([S(d), S(d)], S(d), sharded=True)
        return variants

    raise ValueError(f"no sharding rules defined for operator kind {kind!r} (node {node.name!r})")


def _reshape_dim_map(
    in_shape: Tuple[int, ...], out_shape: Tuple[int, ...]
) -> List[Tuple[int, int]]:
    """Pairs (input dim, output dim) along which a sharded reshape stays local.

    A shard along an input dimension survives a local reshape when either the
    dimension lies in the longest common prefix/suffix of the two shapes, or
    it is the outermost dimension and the reshape only merges/splits leading
    dimensions (e.g. ``[B, S, H] -> [B*S, H]`` or ``[B*h, S, d] ->
    [B, h, S, d]``): the locally reshaped shards concatenate to the reshaped
    reference tensor because the trailing "row" layout is unchanged.
    """
    pairs: List[Tuple[int, int]] = []
    rin, rout = len(in_shape), len(out_shape)
    # common prefix
    prefix = 0
    while prefix < min(rin, rout) and in_shape[prefix] == out_shape[prefix]:
        prefix += 1
    for d in range(prefix):
        pairs.append((d, d))
    # common suffix
    suffix = 0
    while (
        suffix < min(rin, rout) - prefix
        and in_shape[rin - 1 - suffix] == out_shape[rout - 1 - suffix]
    ):
        suffix += 1
    for k in range(suffix):
        pairs.append((rin - 1 - k, rout - 1 - k))
    # merging all leading input dims into output dim 0, or splitting input
    # dim 0 into several leading output dims
    if rout < rin and suffix >= rout - 1:
        pairs.append((0, 0))
    if rout > rin and suffix >= rin - 1:
        pairs.append((0, 0))
    return sorted(set(pairs))


def source_variants(
    node: Node, cfg: SynthesisConfig, num_devices: int
) -> List[DistState]:
    """Distribution states a source node can be created in."""
    states: List[DistState] = []
    if node.op == "constant":
        return [R]
    if cfg.force_data_parallel:
        # Baseline emulation: placeholders are always sharded along the batch
        # dimension, parameters are replicated (except expert parameters when
        # expert parallelism is requested, as in DeepSpeed-MoE).
        if node.op == "placeholder":
            if node.spec.rank and node.spec.shape[0] >= max(MIN_SHARD_DIM_SIZE, num_devices):
                return [S(0)]
            return [R]
        if cfg.expert_parallel_parameters and node.spec.rank == 3:
            return [S(0)]
        return [R]
    for d, size in enumerate(node.spec.shape):
        if size >= max(MIN_SHARD_DIM_SIZE, num_devices):
            states.append(S(d))
    if cfg.enable_replicated_sources or not states:
        states.append(R)
    return states


# ---------------------------------------------------------------------------
# MoE capacity-tensor taint
# ---------------------------------------------------------------------------

def moe_restricted_refs(graph: ComputationGraph) -> FrozenSet[str]:
    """Reference tensors that live in the MoE expert-capacity layout.

    The outputs of ``moe_dispatch``/``moe_combine_grad`` hold one row per
    *capacity slot*, and slots are assigned by device-local routing when the
    tokens are sharded.  Any tensor that still carries that capacity dimension
    (tracked positionally through transposes, element-wise ops and batched
    matmuls) may only be re-distributed with All-To-All — gathering it to a
    "replicated" tensor would not reproduce the reference value.  Tensors that
    contract the capacity dimension away (e.g. expert weight gradients) leave
    the restricted set and can be all-reduced normally.
    """
    capacity_dim: Dict[str, int] = {}
    for node in graph:
        if node.op in ("moe_dispatch", "moe_combine_grad"):
            capacity_dim[node.name] = 1
            continue
        if node.op in ("moe_combine", "moe_dispatch_grad"):
            continue
        tainted_inputs = [(inp, capacity_dim[inp]) for inp in node.inputs if inp in capacity_dim]
        if not tainted_inputs:
            continue
        dim = _propagate_capacity_dim(node, graph, dict(tainted_inputs))
        if dim is not None:
            capacity_dim[node.name] = dim
    return frozenset(capacity_dim)


def _propagate_capacity_dim(
    node: Node, graph: ComputationGraph, tainted: Dict[str, int]
) -> Optional[int]:
    """Position of the capacity dimension in a node's output, if it survives."""
    kind = node.kind
    first_ref, first_dim = next(iter(tainted.items()))
    if kind is OpKind.TRANSPOSE:
        perm = tuple(int(p) for p in node.attrs["perm"])
        return perm.index(first_dim) if first_dim in perm else None
    if kind in (OpKind.ELEMENTWISE, OpKind.BROADCAST_BIAS, OpKind.NORMALIZATION):
        return first_dim
    if kind is OpKind.MATMUL:
        a_name, b_name = node.inputs
        a, b = graph.input_specs(node)
        if a.rank == 3 and b.rank == 3:
            if a_name in tainted:
                dim = tainted[a_name]
                if dim == 1:
                    return 1  # rows survive as output dim 1
                return None  # capacity was the contracted dimension
            if b_name in tainted:
                dim = tainted[b_name]
                if dim == 2:
                    return 2
                return None
        return None
    if kind in (OpKind.RESHAPE, OpKind.FLATTEN):
        for din, dout in _reshape_dim_map(graph.input_specs(node)[0].shape, node.spec.shape):
            if din == first_dim:
                return dout
        return None
    # Reductions and other contractions drop the capacity layout.
    return None


# ---------------------------------------------------------------------------
# theory construction
# ---------------------------------------------------------------------------

#: A rule before its masks are known: (pre, instructions, post, completes,
#: communicates), over interned properties.
_RuleParts = Tuple[
    FrozenSet[Property],
    Tuple[Instruction, ...],
    FrozenSet[Property],
    FrozenSet[str],
    FrozenSet[str],
]
_NO_REFS: FrozenSet[str] = frozenset()


def build_theory(
    graph: ComputationGraph, num_devices: int, config: Optional[SynthesisConfig] = None
) -> Theory:
    """Derive the background theory T for a training graph.

    On one virtual device (``num_devices == 1``) outside baseline emulation
    (``force_data_parallel``) the theory is the single-device program's:
    every source is created ``Replicated``, every other node has exactly one
    variant (all inputs and the output ``Replicated``, unsharded flops — the
    MatMul one included when ``enable_sfb`` is off), and since nothing but
    ``Replicated`` is produced or wanted there are no communication rules.
    This loses nothing.  On one device every variant of a node computes the
    whole tensor, so all of them cost the same, and every collective costs
    at least zero; the collective-free replicated program therefore already
    reaches the lower bound, the sum of its computation times.  A machine
    group's intra-machine data parallelism is priced by the cost model, not
    by the theory.

    The build is one pass.  Each (ref, state) property is interned on first
    use, and each instruction is built once over interned properties.  Once
    every rule's parts are known, the property index is sorted and each
    :class:`Rule` is built exactly once with its masks.

    Args:
        graph: single-device training graph (forward + backward + updates).
        num_devices: number of HAP virtual devices in the cluster.
        config: synthesizer configuration (defaults to full HAP).

    Returns:
        A :class:`Theory` containing the computation rules, each with its
        node's first-use sources fused in, and the communication rules.
    """
    cfg = config or SynthesisConfig()
    graph.validate()
    restricted = moe_restricted_refs(graph)
    single_device = num_devices == 1 and not cfg.force_data_parallel

    source_states: Dict[str, List[DistState]] = {}
    for node in graph:
        if node.kind is OpKind.SOURCE:
            source_states[node.name] = (
                [R] if single_device else source_variants(node, cfg, num_devices)
            )

    # Every (ref, state) property is built once: rules and instructions share
    # one object per value, the one at its bit in the property index.
    pool: Dict[Tuple[str, DistState], Property] = {}

    def prop(ref: str, state: DistState) -> Property:
        found = pool.get((ref, state))
        if found is None:
            found = pool[(ref, state)] = Property(ref, state)
        return found

    # 1. computation rules, each source fused into its first consumer
    #    (search-time optimisation #1) ----------------------------------------
    comp_rules: List[_RuleParts] = []
    produced: Dict[str, Set[DistState]] = {name: set() for name in graph.node_names}
    wanted: Dict[str, Set[DistState]] = {name: set() for name in graph.node_names}

    for name, states in source_states.items():
        produced[name].update(states)

    for name, fused_refs in first_use_sources(graph).items():
        node = graph[name]
        if single_device:
            variants = [Variant((R,) * len(node.inputs), R, flops_sharded=False)]
        else:
            variants = node_variants(node, graph, cfg, num_devices)
        completes = frozenset((node.name, *fused_refs))
        for variant in variants:
            inputs = tuple(map(prop, node.inputs, variant.input_states))
            out_prop = prop(node.name, variant.output_state)
            produced[node.name].add(variant.output_state)
            for inp, state in zip(node.inputs, variant.input_states):
                wanted[inp].add(state)
            # The variant's first-use sources, in input order.  No rule
            # establishes a source property, so a variant wanting one in a
            # state the source cannot be created in can never fire.
            fused = [p for p in dict.fromkeys(inputs) if p.ref in fused_refs]
            if any(p.state not in source_states[p.ref] for p in fused):
                continue
            creates = tuple(
                CompInstruction(
                    node=p.ref,
                    op=graph[p.ref].op,
                    inputs=(),
                    output=p,
                    flops_sharded=p.state.is_sharded,
                )
                for p in fused
            )
            instr = CompInstruction(
                node=node.name,
                op=node.op,
                inputs=inputs,
                output=out_prop,
                flops_sharded=variant.flops_sharded,
            )
            comp_rules.append(
                (
                    frozenset(inputs).difference(fused),
                    creates + (instr,),
                    frozenset((*fused, out_prop)),
                    completes,
                    _NO_REFS,
                )
            )

    # 2. communication rules -----------------------------------------------------
    comm_rules: List[_RuleParts] = []
    for node in graph:
        name = node.name
        if node.kind is OpKind.SOURCE:
            continue  # optimisation #2: sources use *-Shard instructions instead
        # Sorted, not set order: a set of states iterates in hash-seed order,
        # and rule order is the search's candidate order.
        targets = sorted(wanted[name], key=lambda st: st.sort_key)
        sources = sorted(produced[name], key=lambda st: st.sort_key)
        if not sources or not targets:
            continue
        for src in sources:
            for dst in targets:
                if src == dst:
                    continue
                comm_rules.extend(_comm_rules_for(name, src, dst, cfg, name in restricted, prop))

    rules, props = _index_rules(graph, comp_rules + comm_rules, pool.values())
    return Theory(graph, num_devices, cfg, rules, restricted, props)


def first_use_sources(graph: ComputationGraph) -> Dict[str, FrozenSet[str]]:
    """Every computation node's name, in graph order, with the sources it
    consumes first.

    A source is created exactly once, by the rules of its first consumer in
    graph order; the searches emulate nodes in that order.  Sources nothing
    consumes appear under no node.
    """
    seen: Set[str] = set()
    out: Dict[str, FrozenSet[str]] = {}
    for node in graph:
        if node.kind is OpKind.SOURCE:
            continue
        fresh = frozenset(
            name for name in node.inputs if name not in seen and graph[name].kind is OpKind.SOURCE
        )
        seen.update(fresh)
        out[node.name] = fresh
    return out


def _index_rules(
    graph: ComputationGraph, parts: List[_RuleParts], pool: Iterable[Property]
) -> Tuple[List[Rule], Tuple[Property, ...]]:
    """Order the property index and build each rule once, with its masks.

    ``pool`` holds exactly the (interned) properties the parts mention.
    Returns the rules, in ``parts`` order, and the property index: every
    property of a pre- or postcondition, ordered by the ref's graph
    position, then state kind, then dim.
    """
    position = {name: i for i, name in enumerate(graph.node_names)}
    props = tuple(sorted(pool, key=lambda p: (position[p.ref], p.state.sort_key)))
    # Keyed by identity: every property is interned, and id() is far cheaper
    # than Property.__hash__.  A mask is the sum of distinct bits, which
    # equals their OR.
    bit_of = {id(p): 1 << i for i, p in enumerate(props)}.__getitem__
    rules = [
        Rule(
            pre=pre,
            instructions=instructions,
            post=post,
            completes=completes,
            communicates=communicates,
            pre_mask=sum(map(bit_of, map(id, pre))),
            post_mask=sum(map(bit_of, map(id, post))),
            comm_mask=sum(1 << position[ref] for ref in communicates),
        )
        for pre, instructions, post, completes, communicates in parts
    ]
    return rules, props


def _comm_rules_for(
    ref: str,
    src: DistState,
    dst: DistState,
    cfg: SynthesisConfig,
    restricted: bool,
    prop: Callable[[str, DistState], Property],
) -> List[_RuleParts]:
    """Communication rules converting ``ref`` from state ``src`` to ``dst``.

    ``prop`` interns a property; it is called only when a rule is made, so
    the pool holds no property that no rule mentions.
    """
    rules: List[_RuleParts] = []

    def make(
        kind: CollectiveKind,
        dim: Optional[int] = None,
        dim2: Optional[int] = None,
        counts_as_communication: bool = True,
    ) -> _RuleParts:
        pin, pout = prop(ref, src), prop(ref, dst)
        instr = CommInstruction(kind=kind, input=pin, output=pout, dim=dim, dim2=dim2)
        return (
            frozenset((pin,)),
            (instr,),
            frozenset((pout,)),
            _NO_REFS,
            frozenset((ref,)) if counts_as_communication else _NO_REFS,
        )

    if restricted:
        if src.is_sharded and dst.is_sharded and src.dim != dst.dim:
            rules.append(make(CollectiveKind.ALL_TO_ALL, dim=src.dim, dim2=dst.dim))
        return rules

    if src.is_partial and dst.is_replicated:
        rules.append(make(CollectiveKind.ALL_REDUCE))
    elif src.is_partial and dst.is_sharded:
        rules.append(make(CollectiveKind.REDUCE_SCATTER, dim=dst.dim))
    elif src.is_sharded and dst.is_replicated:
        rules.append(make(CollectiveKind.ALL_GATHER, dim=src.dim))
        if cfg.enable_grouped_all_gather:
            rules.append(make(CollectiveKind.ALL_GATHER_GROUPED, dim=src.dim))
    elif src.is_sharded and dst.is_sharded and src.dim != dst.dim:
        rules.append(make(CollectiveKind.ALL_TO_ALL, dim=src.dim, dim2=dst.dim))
    elif src.is_replicated and dst.is_sharded:
        # Each device keeps only its own slice of the replicated tensor; this
        # involves no network traffic and does not count against the
        # one-communication-per-tensor budget.
        rules.append(
            make(CollectiveKind.SLICE, dim=dst.dim, counts_as_communication=False)
        )
    return rules
