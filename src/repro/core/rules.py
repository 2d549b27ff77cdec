"""Background-theory construction (Sec. 4.2 of the paper).

Given a single-device training graph, :func:`build_theory` derives the set of
Hoare triples that the synthesizer searches over.  Each triple (a
:class:`Rule`) has

* a precondition — properties the partial program must already contain,
* one or more distributed instructions to append, and
* a postcondition — the properties those instructions establish.

Rules come in three families:

1. **Computation rules**, one per (node, sharding variant): generated from the
   mathematical characteristics of the node's operator (``OpKind``; the
   variant tables are :mod:`repro.core.variants`), e.g. the three MatMul
   sharding rules of Fig. 9 plus the duplicated-compute rule that enables
   sufficient factor broadcasting (Sec. 4.4).
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

Only rules that can fire are built: an order-free reachability fixpoint over
(ref, state) pairs (:func:`fireable_rules`) drops the candidates whose
preconditions no fired rule establishes.  Property bits are recycled over
ref lifetimes (:func:`ref_lifetimes`), so a mask spans the live frontier,
not the graph's depth.

Mixture-of-Experts capacity tensors are restricted to All-To-All
communication (:func:`~repro.core.variants.moe_restricted_refs`).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import (
    Collection,
    Dict,
    FrozenSet,
    Hashable,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
)

from ..collectives.cost import CollectiveKind
from ..graph.graph import ComputationGraph, Node
from ..graph.ops import OpKind
from .config import SynthesisConfig
from .instructions import CommInstruction, CompInstruction, Instruction
from .program import DistributedProgram
from .properties import DistState, Property
from .variants import R, Variant, moe_restricted_refs, node_variants, source_variants


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
        pre_mask, post_mask: ``pre`` / ``post`` as bit masks, the OR of their
            properties' bits (:attr:`Theory.prop_bits`).
        comm_mask: ``communicates`` as a bit mask over graph positions.

    :func:`build_theory` builds only rules that can fire, each once, masks
    included, after the property bits are assigned.  Every property a rule
    mentions (in ``pre``, ``post`` or an instruction) is the interned object
    at its index in :attr:`Theory.props`.  A one-element ``pre`` or
    ``post`` is its property's one shared set; a communication rule also
    shares its ``communicates`` set and its masks with the other rules over
    the same ref and properties.  The masks take no part in rule equality.
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


class Theory:
    """The background theory for one training graph on one cluster size.

    The theory holds only rules that can fire (:func:`fireable_rules`), and
    only the properties those rules mention.  ``props`` lists them by the
    ref's position in ``graph.node_names``, then state kind, then dim;
    ``prop_index`` maps each to its index there.  Each property exists once:
    ``props[i]`` is the very object every rule holds for that (ref, state)
    pair.

    A set of properties the search can hold is an ``int`` (see
    :meth:`encode` / :meth:`decode`).  Bits are recycled over ref lifetimes
    (:func:`ref_lifetimes`): a ref lives from the topological level that
    creates it to the level of its last consumer, and properties of refs
    whose lifetimes overlap get distinct bits.  Masks therefore span the
    live frontier, not the graph's depth, and a mask is unambiguous only
    among co-live properties, the sets one search state can hold.
    """

    def __init__(
        self,
        graph: ComputationGraph,
        num_devices: int,
        config: SynthesisConfig,
        rules: List[Rule],
        restricted_refs: FrozenSet[str],
        props: Tuple[Property, ...],
        prop_bits: Dict[Property, int],
        lifetimes: Dict[str, Tuple[int, int]],
        comp_rules_by_node: Dict[str, List[Rule]],
        comm_rules_by_ref: Dict[str, List[Rule]],
        comm_rules_by_post: Dict[int, List[Rule]],
    ) -> None:
        self.graph = graph
        self.num_devices = num_devices
        self.config = config
        self.rules = rules
        #: refs restricted to All-To-All communication (MoE capacity tensors)
        self.restricted_refs = restricted_refs
        #: every property a rule mentions, in graph, state-kind, dim order
        self.props = props
        self.prop_index: Dict[Property, int] = {p: i for i, p in enumerate(props)}
        #: property -> its bit (one shared ``int`` per property)
        self.prop_bits = prop_bits
        #: ref -> (birth, death) topological levels (:func:`ref_lifetimes`)
        self.lifetimes = lifetimes
        #: ref -> mask of all of its properties (the liveness drop), in
        #: graph order
        self.ref_masks: Dict[str, int] = {}
        for prop in props:
            self.ref_masks[prop.ref] = self.ref_masks.get(prop.ref, 0) | prop_bits[prop]
        #: the rules of each computation node (the last instruction's), in
        #: rule order
        self.comp_rules_by_node = comp_rules_by_node
        #: the communication rules of each ref, in rule order
        self.comm_rules_by_ref = comm_rules_by_ref
        #: communication rules keyed by the index (in ``props``) of the
        #: property they establish, in rule order: the relative order of
        #: ``comm_rules_by_ref``, so indexed candidate enumeration visits
        #: rules in exactly the order of a filtering scan of that table
        self.comm_rules_by_post = comm_rules_by_post

    def __len__(self) -> int:
        return len(self.rules)

    def encode(self, properties: Iterable[Property]) -> int:
        """Bit mask of a set of co-live properties of the theory."""
        bits = 0
        for prop in properties:
            bits |= self.prop_bits[prop]
        return bits

    def decode(self, bits: int, position: int) -> FrozenSet[Property]:
        """The properties live at topological level ``position`` whose bits
        are set in ``bits``.

        A search state at ``topo_ptr`` holds properties live at level
        ``topo_ptr``.  Raises ``ValueError`` for a bit no live property owns.
        """
        lifetimes = self.lifetimes
        live = {
            bit: prop
            for prop, bit in self.prop_bits.items()
            if lifetimes[prop.ref][0] <= position <= lifetimes[prop.ref][1]
        }
        out = []
        while bits:
            low = bits & -bits
            if low not in live:
                raise ValueError(f"bit {low.bit_length() - 1} is not live at level {position}")
            out.append(live[low])
            bits ^= low
        return frozenset(out)

    def describe(self, limit: Optional[int] = None) -> str:
        """Multi-line listing of (a prefix of) the rules."""
        rules = self.rules[:limit] if limit else self.rules
        return "\n".join(r.describe() for r in rules)


# ---------------------------------------------------------------------------
# theory construction
# ---------------------------------------------------------------------------

class _CompCandidate(NamedTuple):
    """A computation rule before the fixpoint, over interned properties."""

    node: Node
    completes: FrozenSet[str]
    flops_sharded: bool
    inputs: Tuple[Property, ...]
    output: Property
    #: the first-use sources the rule creates, in input order
    fused: Tuple[Property, ...]
    pre: FrozenSet[Property]


#: The collectives of one conversion: (kind, dim, dim2, counts as communication).
_Collective = Tuple[CollectiveKind, Optional[int], Optional[int], bool]
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
    by the theory.  The planner does not search this theory: it builds its
    only program in closed form (:func:`single_device_program`).  The branch
    stays as the reference that closed form is tested against.

    The build has three steps.  It enumerates the candidate rules as
    (ref, state) pairs, each property interned on first use.  An order-free
    reachability fixpoint (:func:`fireable_rules`) then keeps the candidates
    that can fire.  Last, the kept properties get their bits
    (:func:`_assign_bits`) and each kept rule is built exactly once, with
    its masks, into the theory's indexes.

    Args:
        graph: single-device training graph (forward + backward + updates).
        num_devices: number of HAP virtual devices in the cluster.
        config: synthesizer configuration (defaults to full HAP).

    Returns:
        A :class:`Theory` containing the fireable computation rules, each
        with its node's first-use sources fused in, and the fireable
        communication rules.
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
    # one object per value, the one at its index in the property index.
    pool: Dict[Tuple[str, DistState], Property] = {}

    def prop(ref: str, state: DistState) -> Property:
        found = pool.get((ref, state))
        if found is None:
            found = pool[(ref, state)] = Property(ref, state)
        return found

    # One shared one-element set per property: every rule whose pre- or
    # postcondition is that one property holds it.
    singletons: Dict[Property, FrozenSet[Property]] = {}

    def one(p: Property) -> FrozenSet[Property]:
        found = singletons.get(p)
        if found is None:
            found = singletons[p] = frozenset((p,))
        return found

    # 1. computation rules, each source fused into its first consumer
    #    (search-time optimisation #1) ----------------------------------------
    comp: List[_CompCandidate] = []
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
            produced[node.name].add(variant.output_state)
            for inp, state in zip(node.inputs, variant.input_states):
                wanted[inp].add(state)
            # The variant's first-use sources, in input order.  No rule
            # establishes a source property, so a variant wanting one in a
            # state the source cannot be created in can never fire.
            fused = tuple(p for p in dict.fromkeys(inputs) if p.ref in fused_refs)
            if any(p.state not in source_states[p.ref] for p in fused):
                continue
            pre = frozenset(inputs).difference(fused)
            comp.append(
                _CompCandidate(
                    node,
                    completes,
                    variant.flops_sharded,
                    inputs,
                    prop(node.name, variant.output_state),
                    fused,
                    one(*pre) if len(pre) == 1 else pre,
                )
            )

    # 2. communication rules: conversions from a state some rule produces to
    #    a state some rule wants -------------------------------------------------
    conversions: List[Tuple[Property, Property, Tuple[_Collective, ...]]] = []
    # The collectives of each (src, dst, restricted) conversion, derived once.
    convert: Dict[Tuple[DistState, DistState, bool], Tuple[_Collective, ...]] = {}
    for node in graph:
        name = node.name
        if node.kind is OpKind.SOURCE:
            continue  # optimisation #2: sources use *-Shard instructions instead
        only_all_to_all = name in restricted
        # Sorted, not set order: a set of states iterates in hash-seed order,
        # and rule order is the search's candidate order.
        targets = sorted(wanted[name], key=lambda st: st.sort_key)
        for src in sorted(produced[name], key=lambda st: st.sort_key):
            for dst in targets:
                if src is dst:
                    continue
                key = (src, dst, only_all_to_all)
                collectives = convert.get(key)
                if collectives is None:
                    collectives = convert[key] = _collectives(src, dst, cfg, only_all_to_all)
                if collectives:
                    conversions.append((prop(name, src), prop(name, dst), collectives))

    # 3. keep what can fire, assign bits, build each kept rule once ------------
    fires, reached = fireable_rules(
        [c.pre for c in comp] + [(src,) for src, _, _ in conversions],
        [(*c.fused, c.output) for c in comp] + [(dst,) for _, dst, _ in conversions],
    )
    position = {name: i for i, name in enumerate(graph.node_names)}
    props = tuple(sorted(reached, key=lambda p: (position[p.ref], p.state.sort_key)))
    lifetimes = ref_lifetimes(graph)
    bits = _assign_bits(props, lifetimes, position)

    def mask(properties: Iterable[Property]) -> int:
        out = 0
        for p in properties:
            out |= bits[p]
        return out

    rules: List[Rule] = []
    comp_rules_by_node: Dict[str, List[Rule]] = {}
    for (node, completes, flops_sharded, inputs, out_prop, fused, pre), fired in zip(comp, fires):
        if not fired:
            continue
        # Positional arguments throughout: keywords cost a frozen dataclass
        # measurably more, thousands of times per theory.
        creates = tuple(
            CompInstruction(p.ref, graph[p.ref].op, (), p, p.state.is_sharded) for p in fused
        )
        instr = CompInstruction(node.name, node.op, inputs, out_prop, flops_sharded)
        post = frozenset((*fused, out_prop)) if fused else one(out_prop)
        rule = Rule(pre, creates + (instr,), post, completes, _NO_REFS, mask(pre), mask(post))
        rules.append(rule)
        comp_rules_by_node.setdefault(node.name, []).append(rule)

    prop_index = {p: i for i, p in enumerate(props)}
    comm_rules_by_ref: Dict[str, List[Rule]] = {}
    comm_rules_by_post: Dict[int, List[Rule]] = {}
    for (pin, pout, collectives), fired in zip(conversions, fires[len(comp) :]):
        if not fired:
            continue
        ref = pin.ref
        pre, post = one(pin), one(pout)
        by_ref = comm_rules_by_ref.get(ref)
        if by_ref is None:
            # The conversions of one ref are contiguous: its one-element set
            # and its bit, shared by its rules, are made once, here.
            by_ref = comm_rules_by_ref[ref] = []
            refs, ref_bit = frozenset((ref,)), 1 << position[ref]
        by_post = comm_rules_by_post.setdefault(prop_index[pout], [])
        for kind, dim, dim2, counts in collectives:
            rule = Rule(
                pre,
                (CommInstruction(kind, pin, pout, dim, dim2),),
                post,
                _NO_REFS,
                refs if counts else _NO_REFS,
                bits[pin],
                bits[pout],
                ref_bit if counts else 0,
            )
            rules.append(rule)
            by_ref.append(rule)
            by_post.append(rule)

    return Theory(
        graph,
        num_devices,
        cfg,
        rules,
        restricted,
        props,
        bits,
        lifetimes,
        comp_rules_by_node,
        comm_rules_by_ref,
        comm_rules_by_post,
    )


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


def single_device_program(graph: ComputationGraph) -> DistributedProgram:
    """The one program of :func:`build_theory`'s one-device theory, built
    directly.

    Each computation node, in graph order, first creates the sources it
    consumes first (:func:`first_use_sources`, in input order) and then runs
    itself, every tensor ``Replicated`` and every flop unsharded: the
    instructions of the theory's only rule per node, in the order both
    searches fire them.  No theory, search or cost is involved.
    """
    graph.validate()
    props: Dict[str, Property] = {}

    def prop(ref: str) -> Property:
        found = props.get(ref)
        if found is None:
            found = props[ref] = Property(ref, R)
        return found

    instructions: List[Instruction] = []
    for name, fused_refs in first_use_sources(graph).items():
        node = graph[name]
        inputs = tuple(map(prop, node.inputs))
        for p in dict.fromkeys(inputs):
            if p.ref in fused_refs:
                instructions.append(CompInstruction(p.ref, graph[p.ref].op, (), p, False))
        instructions.append(CompInstruction(name, node.op, inputs, prop(name), False))
    return DistributedProgram(
        graph, instructions, frozenset(instr.output for instr in instructions), 1
    )


def fireable_rules(
    pres: Sequence[Collection[Hashable]], posts: Sequence[Collection[Hashable]]
) -> Tuple[List[bool], Set[Hashable]]:
    """The order-free reachability fixpoint over rules given as
    ``(pres[i], posts[i])``, each a collection of distinct properties.

    Starting from no properties, a rule fires once every property of its
    precondition has been established by a fired rule, and then establishes
    its postcondition.  Topological order and the one-communication-per-ref
    budget are ignored, so the fixpoint over-approximates what any program
    can reach: a rule it leaves unfired is on no search path.  Returns, per
    rule, whether it fires, and the set of established properties.  Linear
    in the rules' total size: each rule counts its missing preconditions.
    """
    waiting: Dict[Hashable, List[int]] = {}
    missing = [len(pre) for pre in pres]
    ready = [i for i, count in enumerate(missing) if not count]
    for i, pre in enumerate(pres):
        for p in pre:
            waiting.setdefault(p, []).append(i)
    fires = [False] * len(pres)
    reached: Set[Hashable] = set()
    while ready:
        i = ready.pop()
        fires[i] = True
        for p in posts[i]:
            if p in reached:
                continue
            reached.add(p)
            for j in waiting.get(p, ()):
                missing[j] -= 1
                if not missing[j]:
                    ready.append(j)
    return fires, reached


def ref_lifetimes(graph: ComputationGraph) -> Dict[str, Tuple[int, int]]:
    """Each ref's lifetime ``(birth, death)`` in topological levels.

    Level ``k`` emulates the ``k``-th computation node in graph order (the
    searches' order).  A ref is born at its producer's level; a source, at
    its first consumer's, which creates it.  It dies at its last consumer's
    level, or at its own for a program output nothing consumes.  A non-output
    ref nothing consumes never dies: its death is the number of levels.  A
    source nothing consumes is never created and has no lifetime.

    The liveness drop clears a ref's properties at its death level, so they
    are in use over the closed interval ``[birth, death]``.
    """
    levels: Dict[str, int] = {}
    births: Dict[str, int] = {}
    deaths: Dict[str, int] = {}
    for node in graph:
        if node.kind is OpKind.SOURCE:
            continue
        level = levels[node.name] = births[node.name] = len(levels)
        for inp in node.inputs:
            births.setdefault(inp, level)
            deaths[inp] = level
    outputs = set(graph.outputs)
    never = len(levels)
    return {
        name: (birth, deaths.get(name, birth if name in outputs else never))
        for name, birth in births.items()
    }


def _assign_bits(
    props: Sequence[Property],
    lifetimes: Dict[str, Tuple[int, int]],
    position: Dict[str, int],
) -> Dict[Property, int]:
    """One bit per property, recycled over ref lifetimes.

    Interval colouring: refs are taken in order of birth, ties broken by
    graph position (never by name); every ref whose death level lies before
    the birth frees its slots, and each of the ref's properties (in
    ``props`` order) takes the lowest free slot.  Greedy colouring of
    intervals is optimal, so the width is the largest number of properties
    live at one level.  Returns one shared ``int`` per property.
    """
    by_ref: Dict[str, List[Property]] = {}
    for p in props:
        by_ref.setdefault(p.ref, []).append(p)
    free: List[int] = []
    dying: List[Tuple[int, int, List[int]]] = []
    slot_bits: List[int] = []
    bits: Dict[Property, int] = {}
    for ref in sorted(by_ref, key=lambda r: (lifetimes[r][0], position[r])):
        birth, death = lifetimes[ref]
        while dying and dying[0][0] < birth:
            for slot in heapq.heappop(dying)[2]:
                heapq.heappush(free, slot)
        slots = []
        for p in by_ref[ref]:
            if free:
                slot = heapq.heappop(free)
            else:
                slot = len(slot_bits)
                slot_bits.append(1 << slot)
            slots.append(slot)
            bits[p] = slot_bits[slot]
        heapq.heappush(dying, (death, position[ref], slots))
    return bits


def _collectives(
    src: DistState, dst: DistState, cfg: SynthesisConfig, restricted: bool
) -> Tuple[_Collective, ...]:
    """The collectives converting a tensor from state ``src`` to ``dst``,
    each ``(kind, dim, dim2, counts as communication)``."""
    if restricted:
        if src.is_sharded and dst.is_sharded and src.dim != dst.dim:
            return ((CollectiveKind.ALL_TO_ALL, src.dim, dst.dim, True),)
        return ()
    if src.is_partial and dst.is_replicated:
        return ((CollectiveKind.ALL_REDUCE, None, None, True),)
    if src.is_partial and dst.is_sharded:
        return ((CollectiveKind.REDUCE_SCATTER, dst.dim, None, True),)
    if src.is_sharded and dst.is_replicated:
        if cfg.enable_grouped_all_gather:
            return (
                (CollectiveKind.ALL_GATHER, src.dim, None, True),
                (CollectiveKind.ALL_GATHER_GROUPED, src.dim, None, True),
            )
        return ((CollectiveKind.ALL_GATHER, src.dim, None, True),)
    if src.is_sharded and dst.is_sharded and src.dim != dst.dim:
        return ((CollectiveKind.ALL_TO_ALL, src.dim, dst.dim, True),)
    if src.is_replicated and dst.is_sharded:
        # Each device keeps only its own slice of the replicated tensor; this
        # involves no network traffic and does not count against the
        # one-communication-per-tensor budget.
        return ((CollectiveKind.SLICE, dst.dim, None, False),)
    return ()
