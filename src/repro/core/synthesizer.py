"""A*-based distributed-program synthesis (Sec. 4.3 of the paper).

The synthesizer searches the space of distributed programs defined by the
background theory (:mod:`repro.core.rules`).  A partial program is represented
by its *search state*: the set of live properties, the set of emulated
single-device nodes, the set of communicated tensors, and the cost bookkeeping
of the stage currently being filled.  The three sets are machine ints — bit
masks over the theory's property index and over graph positions — so a union
is ``|``, a precondition check is ``pre & bits == pre`` and a state key is a
tuple of three ints.  The search repeatedly pops the
lowest-score state from a priority queue and appends every applicable Hoare
triple, exactly as in Fig. 10, with the paper's three search-time
optimisations:

1. source instructions are pre-fused into consumer rules (done in
   :func:`repro.core.rules.build_theory`);
2. every reference tensor may be communicated at most once, and placeholders /
   parameters are never communicated (they are created already sharded);
3. properties of tensors whose consumers have all been emulated are dropped,
   which lets the dominance check merge many more states.

The dominance check itself generalises lines 9–14 of Fig. 10: two partial
programs with identical state are compared by their per-device accumulated
cost vectors, and the dominated one is discarded.
"""

from __future__ import annotations

import heapq
import itertools
import time as _time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..cluster.spec import ClusterSpec
from ..graph.canonical import BlockRun, find_repeated_blocks
from ..graph.graph import ComputationGraph
from ..graph.ops import OpKind
from .config import SynthesisConfig
from .costmodel import CostModel, beam_rank_order
from .instructions import CommInstruction, CompInstruction, Instruction
from .pareto import ParetoFront
from .program import DistributedProgram
from .properties import Property
from .rules import Rule, Theory, build_theory

#: Markers of the per-rule cost plan replayed by ``_apply``: a synchronising
#: collective (closes the open stage) or a per-device computation-time delta.
_SYNC = 0
_COMP = 1


class SynthesisError(RuntimeError):
    """Raised when no semantically equivalent distributed program is found."""


@dataclass
class SynthesisResult:
    """Outcome of one synthesis run.

    Attributes:
        program: the optimal distributed program found.
        cost: its estimated per-iteration time under the given ratios.
        expanded_states: number of states popped from the priority queue.
        generated_states: number of states pushed to the priority queue.
        elapsed_seconds: wall-clock synthesis time.
    """

    program: DistributedProgram
    cost: float
    expanded_states: int
    generated_states: int
    elapsed_seconds: float


class _SearchNode:
    """One partial program in the search (immutable once created).

    Its state is ``(pbits, completed, cbits)`` plus the cost bookkeeping:

    * ``pbits``: the live properties, a bit mask over the theory's property
      index (:attr:`Theory.props`);
    * ``completed``: the emulated single-device nodes, bits at their
      ``graph.node_names`` positions;
    * ``cbits``: the communicated reference tensors, bits at the same
      positions.

    The triple is the dedupe / dominance key of both searches.  Bit order
    never orders the search: candidates are visited in rule and
    precondition order, whatever bits they own.
    """

    __slots__ = (
        "parent",
        "rule",
        "pbits",
        "completed",
        "cbits",
        "closed_cost",
        "stage_comp",
        "completed_ideal",
        "depth",
        "topo_ptr",
    )

    def __init__(
        self,
        parent: Optional[_SearchNode],
        rule: Optional[Rule],
        pbits: int,
        completed: int,
        cbits: int,
        closed_cost: float,
        stage_comp: Tuple[float, ...],
        completed_ideal: float,
        depth: int,
        topo_ptr: int = 0,
    ) -> None:
        self.parent = parent
        self.rule = rule
        self.pbits = pbits
        self.completed = completed
        self.cbits = cbits
        self.closed_cost = closed_cost
        self.stage_comp = stage_comp
        self.completed_ideal = completed_ideal
        self.depth = depth
        #: index into the synthesizer's topological order of the first node
        #: not yet emulated (maintained incrementally by ``_apply``).
        self.topo_ptr = topo_ptr

    def instructions(self) -> List[Instruction]:
        """Reconstruct the instruction sequence by walking parent pointers."""
        rules: List[Rule] = []
        node: Optional[_SearchNode] = self
        while node is not None and node.rule is not None:
            rules.append(node.rule)
            node = node.parent
        out: List[Instruction] = []
        for rule in reversed(rules):
            out.extend(rule.instructions)
        return out

    def open_stage_cost(self) -> float:
        return max(self.stage_comp) if self.stage_comp else 0.0


class _OccurrenceInfo:
    """Static (ratio-independent) data of one repeated-block occurrence."""

    __slots__ = (
        "node_names",
        "occ_refs",
        "ref_idx",
        "ref_bits",
        "relevant_mask",
        "prop_mask",
        "pending_masks",
        "sigmaps",
    )

    def __init__(
        self,
        node_names: Tuple[str, ...],
        occ_refs: Tuple[str, ...],
        ref_idx: Dict[str, int],
        ref_bits: Tuple[int, ...],
        relevant_mask: int,
        prop_mask: int,
        pending_masks: Tuple[int, ...],
    ) -> None:
        self.node_names = node_names
        self.occ_refs = occ_refs
        self.ref_idx = ref_idx
        #: graph-position bits of the block's refs (the ``completed`` and
        #: ``cbits`` space) and their union
        self.ref_bits = ref_bits
        self.relevant_mask = relevant_mask
        #: every property bit of the block's refs (the ``pbits`` space)
        self.prop_mask = prop_mask
        self.pending_masks = pending_masks
        #: lazily-built signature -> rule maps per candidate list (signatures
        #: are structural, so the maps survive across synthesize() calls).
        self.sigmaps: Dict[Tuple, Dict[Tuple, Rule]] = {}


class _BlockRecord:
    """Recorded beam decisions of one block template.

    ``levels[j]`` holds, per surviving beam state of in-block level ``j``, the
    pair ``(parent index in the entering beam, descriptor chain)`` where the
    chain lists the applied rules (enabling collectives, then the computation
    rule) as block-local structural descriptors.  ``needed[j]`` is the set of
    level-``j`` beam positions consumed by later levels (the rest were padding
    in the template's beam and need not be replayed); the final level is
    needed in full, since the post-block search continues from it.
    ``exit_rel`` describes, per exit-beam position, the block-relevant part of
    the template's exit state — (property encodings, communicated ref indices,
    completed ref indices) — from which a replay reconstructs the occurrence's
    exit states directly: context irrelevant to the block passes through a
    block unchanged (liveness drops, completions and communications only ever
    touch the block's own references), so only cost accumulation needs to walk
    the decision chains.
    """

    __slots__ = ("entry_sig", "levels", "needed", "exit_rel")

    def __init__(
        self, entry_sig: Tuple, levels: List[List[Tuple]], exit_rel: List[Tuple]
    ) -> None:
        self.entry_sig = entry_sig
        self.levels = levels
        self.exit_rel = exit_rel
        needed: List[Set[int]] = [set() for _ in levels]
        if levels:
            needed[-1] = set(range(len(levels[-1])))
            for j in range(len(levels) - 2, -1, -1):
                needed[j] = {levels[j + 1][pos][0] for pos in needed[j + 1]}
        self.needed = needed


class ProgramSynthesizer:
    """Synthesizes the optimal distributed program for fixed sharding ratios."""

    def __init__(
        self,
        graph: ComputationGraph,
        cluster: ClusterSpec,
        config: Optional[SynthesisConfig] = None,
        theory: Optional[Theory] = None,
        cost_model: Optional[CostModel] = None,
    ) -> None:
        self.graph = graph
        self.cluster = cluster
        self.config = config or SynthesisConfig()
        self.theory = theory or build_theory(graph, cluster.num_devices, self.config)
        self.cost_model = cost_model or CostModel(graph, cluster)
        self._node_index = {name: i for i, name in enumerate(graph.node_names)}
        self._consumers = graph.consumers()
        self._outputs = set(graph.outputs)
        self._output_mask = 0
        for name in graph.outputs:
            self._output_mask |= 1 << self._node_index[name]
        self._total_ideal = sum(
            self.cost_model.ideal_node_time(n.name)
            for n in graph
            if n.kind is not OpKind.SOURCE
        )
        self._ideal_cache: Dict[str, float] = {}
        # Topological emulation order (non-source nodes only) used when
        # ``config.follow_topological_order`` is set.
        self._topo_order = [n.name for n in graph if n.kind is not OpKind.SOURCE]
        #: completion-bitmask of each topological-order node (topo_ptr scans).
        self._topo_masks = [1 << self._node_index[name] for name in self._topo_order]
        #: all-zero open-stage vector reused by _apply.
        self._zero_stage: Tuple[float, ...] = (0.0,) * cluster.num_devices
        # -- hot-path indexes: state-independent quantities precomputed once ---
        #: id(rule) -> bitmask over graph nodes the rule completes.
        self._completes_mask: Dict[int, int] = {}
        #: ref -> (consumer bitmask, participates-in-liveness flag).
        self._liveness_mask: Dict[str, Tuple[int, bool]] = {}
        #: node name -> candidate rules of the topological-order search.
        self._topo_candidates: Dict[str, List[Rule]] = {}
        #: id(rule) -> (completes mask, ideal deltas, liveness drops).
        self._rule_static_cache: Dict[int, Tuple[int, Tuple[float, ...], Tuple[Tuple[int, int], ...]]] = {}
        #: id(rule) -> (cost plan, completes mask, ideals, liveness drops)
        #: — the single-lookup cache of _apply (cleared with the cost plans
        #: whenever the ratios change).
        self._rule_runtime: Dict[int, Tuple] = {}
        for rule in self.theory.rules:
            mask = 0
            for name in rule.completes:
                mask |= 1 << self._node_index[name]
            self._completes_mask[id(rule)] = mask
        for name in graph.node_names:
            consumers = self._consumers.get(name, [])
            mask = 0
            for consumer in consumers:
                mask |= 1 << self._node_index[consumer]
            self._liveness_mask[name] = (mask, bool(consumers) or name in self._outputs)
        # -- per-search caches -------------------------------------------------
        #: id(rule) -> cost-replay plan for the current ratios (cost memo).
        self._rule_plans: Dict[int, Tuple] = {}
        self._plan_ratios: Optional[Tuple[float, ...]] = None
        #: id(rule) -> precondition bits in deterministic order (_ordered_pre).
        self._pre_order_cache: Dict[int, Tuple[int, ...]] = {}
        # -- block reuse (config.enable_block_reuse) ---------------------------
        #: segment schedule over the topological order: plain nodes plus
        #: repeated-block occurrences (built lazily on first beam search).
        self._reuse_segments: Optional[List[Tuple]] = None
        #: (id(run), occurrence index) -> per-occurrence static info.
        self._occ_info: Dict[Tuple[int, int], _OccurrenceInfo] = {}
        #: id(run) -> recorded template decisions (reset per synthesize call;
        #: decisions depend on the sharding ratios).
        self._reuse_records: Dict[int, _BlockRecord] = {}
        #: per-synthesize block-reuse accounting (inspectable after a run).
        self.reuse_stats: Dict[str, int] = {}

    # -- helpers -----------------------------------------------------------------
    def _ideal(self, name: str) -> float:
        if name not in self._ideal_cache:
            node = self.graph[name]
            self._ideal_cache[name] = (
                0.0 if node.kind is OpKind.SOURCE else self.cost_model.ideal_node_time(name)
            )
        return self._ideal_cache[name]

    def _score(self, node: _SearchNode) -> float:
        remaining = max(self._total_ideal - node.completed_ideal, 0.0)
        return node.closed_cost + max(node.open_stage_cost(), remaining)

    def _is_complete(self, node: _SearchNode) -> bool:
        return (node.completed & self._output_mask) == self._output_mask

    def _final_cost(self, node: _SearchNode) -> float:
        return node.closed_cost + node.open_stage_cost()

    def _rule_plan(self, rule: Rule, ratios: Sequence[float]) -> Tuple:
        """Cost-replay plan of a rule for fixed ratios.

        The plan holds the cost-model evaluations of the rule's instructions
        in their order, so ``_apply`` accumulates them in that order.
        """
        plan = self._rule_plans.get(id(rule))
        if plan is None:
            steps: List[Tuple[int, object]] = []
            for instr in rule.instructions:
                if isinstance(instr, CommInstruction):
                    if not instr.synchronises:
                        continue  # local slice: no synchronisation, no cost
                    steps.append((_SYNC, self.cost_model.comm_time(instr, ratios)))
                else:
                    steps.append((_COMP, tuple(self.cost_model.comp_times(instr, ratios))))
            plan = self._rule_plans[id(rule)] = tuple(steps)
        return plan

    def _rule_static(
        self, rule: Rule
    ) -> Tuple[int, Tuple[float, ...], Tuple[Tuple[int, int], ...]]:
        """State-independent per-rule quantities.

        Returns the bitmask of nodes the rule completes, their ideal-time
        contributions (in ``rule.completes`` order), and the liveness drops:
        per reference tensor whose liveness may change when the rule fires,
        ``(consumer mask, property mask)`` — once every consumer is
        completed, the ref's property bits leave the state.
        """
        info = self._rule_static_cache.get(id(rule))
        if info is None:
            mask = 0
            ideals: List[float] = []
            dead_candidates: Set[str] = set()
            for name in rule.completes:
                mask |= 1 << self._node_index[name]
                ideals.append(self._ideal(name))
                dead_candidates.update(self.graph[name].inputs)
                dead_candidates.add(name)
            drops = []
            for ref in dead_candidates:
                consumers, relevant = self._liveness_mask[ref]
                prop_mask = self.theory.ref_masks.get(ref, 0)
                if relevant and prop_mask:
                    drops.append((consumers, prop_mask))
            info = (mask, tuple(ideals), tuple(drops))
            self._rule_static_cache[id(rule)] = info
        return info

    def _apply(self, node: _SearchNode, rule: Rule, ratios: Sequence[float]) -> _SearchNode:
        """Append a rule to a partial program, updating state and cost."""
        runtime = self._rule_runtime.get(id(rule))
        if runtime is None:
            runtime = self._replay_runtime(rule, ratios)
        plan, mask, ideals, drops = runtime
        closed = node.closed_cost
        stage = node.stage_comp
        for kind, payload in plan:
            if kind == _SYNC:
                closed += max(stage) + payload
                stage = self._zero_stage
            else:
                stage = tuple([s + t for s, t in zip(stage, payload)])
        completed = node.completed | mask if mask else node.completed
        completed_ideal = node.completed_ideal
        for ideal in ideals:
            completed_ideal += ideal
        topo_ptr = (
            self._advance_topo_ptr(node.topo_ptr, completed) if mask else node.topo_ptr
        )
        # Post union, then optimisation #3: drop the properties of tensors
        # that can no longer be consumed (every consumer already emulated).
        # Program outputs with no consumers (updated parameters, the loss) are
        # dropped as well — the completion bitmask tracks them, and removing
        # them lets the dominance check merge programs that made different
        # (already-paid-for) choices for earlier parts of the model.  A pure
        # communication rule completes nothing and has no drops.
        pbits = node.pbits | rule.post_mask
        for consumers, prop_mask in drops:
            if completed & consumers == consumers:
                pbits &= ~prop_mask
        child = _SearchNode.__new__(_SearchNode)
        child.parent = node
        child.rule = rule
        child.pbits = pbits
        child.completed = completed
        child.cbits = node.cbits | rule.comm_mask
        child.closed_cost = closed
        child.stage_comp = stage
        child.completed_ideal = completed_ideal
        child.depth = node.depth + 1
        child.topo_ptr = topo_ptr
        return child

    def _advance_topo_ptr(self, ptr: int, completed: int) -> int:
        """First index >= ptr in topological order not yet emulated."""
        topo_masks = self._topo_masks
        n = len(topo_masks)
        while ptr < n and completed & topo_masks[ptr]:
            ptr += 1
        return ptr

    def _applicable_rules(self, node: _SearchNode) -> List[Rule]:
        """Rules whose precondition holds and whose application adds something."""
        if self.config.follow_topological_order:
            candidates = self._topological_candidates(node)
        else:
            candidates = self._unrestricted_candidates(node)
        out: List[Rule] = []
        pbits, cbits = node.pbits, node.cbits
        completed = node.completed
        masks = self._completes_mask
        for rule in candidates:
            if rule.completes:
                if completed & masks[id(rule)]:
                    continue
            else:
                # pure communication rule: must add a new property
                if not rule.post_mask & ~pbits:
                    continue
            if rule.comm_mask & cbits:
                continue
            if rule.pre_mask & pbits == rule.pre_mask:
                out.append(rule)
        return out

    def _unrestricted_candidates(self, node: _SearchNode) -> List[Rule]:
        """All rules triggered by the live properties (paper's Fig. 10 search)."""
        candidates: List[Rule] = list(self.theory.rules_by_pre_ref.get("__empty__", []))
        seen: Set[int] = set()
        pbits = node.pbits
        # Live refs in graph order (``ref_masks`` is kept in graph order).
        for ref, ref_mask in self.theory.ref_masks.items():
            if not pbits & ref_mask:
                continue
            for rule in self.theory.rules_by_pre_ref.get(ref, []):
                rid = id(rule)
                if rid not in seen:
                    seen.add(rid)
                    candidates.append(rule)
        return candidates

    def _next_node(self, node: _SearchNode) -> Optional[str]:
        """First non-source node in topological order not yet emulated."""
        if node.topo_ptr < len(self._topo_order):
            return self._topo_order[node.topo_ptr]
        return None

    def _topological_candidates(self, node: _SearchNode) -> List[Rule]:
        """Rules for the next node in topological order plus enabling comms.

        The computation candidates are the sharding variants of the next
        pending node.  The communication candidates are restricted to
        collectives whose output property appears in the precondition of one
        of those variants — i.e. collectives that can enable the next node.
        The candidate list depends only on the next pending node, so it is
        computed once per node and reused.
        """
        next_node = self._next_node(node)
        if next_node is None:
            return []
        cached = self._topo_candidates.get(next_node)
        if cached is None:
            cached = self._topo_candidates[next_node] = self._candidates_for(next_node)
        return cached

    def _candidates_for(self, next_node: str) -> List[Rule]:
        comp_rules = self.theory.comp_rules_by_node.get(next_node, [])
        # The needed properties' refs in first-use order over the variants'
        # ordered preconditions (hash-seed free).
        props = self.theory.props
        needed = 0
        refs: Dict[str, None] = {}
        for rule in comp_rules:
            for bit in self._ordered_pre(rule):
                needed |= bit
                refs.setdefault(props[bit.bit_length() - 1].ref)
        candidates: List[Rule] = list(comp_rules)
        for ref in refs:
            for comm_rule in self.theory.comm_rules_by_ref.get(ref, []):
                if comm_rule.post_mask & needed:
                    candidates.append(comm_rule)
        return candidates

    # -- main search ----------------------------------------------------------------
    def synthesize(self, ratios: Optional[Sequence[float]] = None) -> SynthesisResult:
        """Synthesize the optimal distributed program for the given ratios.

        Dispatches to the level-synchronised beam search (default) or the
        unrestricted A* search of Fig. 10 according to the configuration.

        Args:
            ratios: sharding ratios ``B`` (defaults to computation-proportional
                ratios, the paper's ``B^(0)``).

        Returns:
            The best complete program found and search statistics.

        Raises:
            SynthesisError: if no complete program exists in the search space
                (indicates a missing rule for some operator).
        """
        # Keep the ratios as a tuple: the cost-model memo keys on it, and
        # tuple(t) on a tuple is free.
        ratios = tuple(ratios) if ratios is not None else tuple(self.cluster.proportional_ratios())
        if len(ratios) != self.cluster.num_devices:
            raise ValueError(
                f"expected {self.cluster.num_devices} sharding ratios, got {len(ratios)}"
            )
        # The rule cost plans are only valid for one ratio vector; drop them
        # when the ratios change between synthesize() calls.
        if ratios != self._plan_ratios:
            self._rule_plans.clear()
            self._rule_runtime.clear()
            self._plan_ratios = ratios
        if self.config.search_strategy == "beam":
            return self._beam_search(ratios)
        return self._astar_search(ratios)

    def _root(self) -> _SearchNode:
        return _SearchNode(
            parent=None,
            rule=None,
            pbits=0,
            completed=0,
            cbits=0,
            closed_cost=0.0,
            stage_comp=self._zero_stage,
            completed_ideal=0.0,
            depth=0,
        )

    def _result(
        self, best: _SearchNode, cost: float, expanded: int, generated: int, start: float
    ) -> SynthesisResult:
        instructions = best.instructions()
        established = frozenset(instr.output for instr in instructions)
        program = DistributedProgram(
            graph=self.graph,
            instructions=instructions,
            properties=established,
            num_devices=self.cluster.num_devices,
        )
        return SynthesisResult(
            program=program,
            cost=cost,
            expanded_states=expanded,
            generated_states=generated,
            elapsed_seconds=_time.perf_counter() - start,
        )

    # -- level-synchronised beam search ----------------------------------------------
    def _beam_search(self, ratios: Sequence[float]) -> SynthesisResult:
        """Per-node beam search over distribution states.

        Processes the single-device nodes in topological order; for every node
        it tries each sharding variant, optionally preceded by the collectives
        that establish the variant's missing preconditions, and keeps the
        ``beam_width`` cheapest resulting states (after merging states that
        are identical or dominated device-wise; ``None`` keeps them all).
        """
        start = _time.perf_counter()
        beam_width = self.config.beam_width
        states: List[_SearchNode] = [self._root()]
        self._bm_expanded = 0
        self._bm_generated = 1

        if self.config.enable_block_reuse and self.config.follow_topological_order:
            self._reuse_records = {}
            self.reuse_stats = {"occurrences": 0, "replayed": 0, "recorded": 0, "fallbacks": 0}
            for segment in self._reuse_schedule():
                if segment[0] == "node":
                    states = self._beam_level(states, segment[1], ratios, beam_width)
                else:
                    _, run, occ_idx = segment
                    states = self._block_occurrence(states, run, occ_idx, ratios, beam_width)
        else:
            for node_name in self._topo_order:
                states = self._beam_level(states, node_name, ratios, beam_width)

        complete = [s for s in states if self._is_complete(s)]
        if not complete:
            raise SynthesisError("beam search finished without a complete program")
        best = min(complete, key=self._final_cost)
        return self._result(
            best, self._final_cost(best), self._bm_expanded, self._bm_generated, start
        )

    def _beam_level(
        self,
        states: List[_SearchNode],
        node_name: str,
        ratios: Sequence[float],
        beam_width: Optional[int],
        record_into: Optional[List[Tuple]] = None,
    ) -> List[_SearchNode]:
        """Expand one topological-order node and keep the best states.

        When ``record_into`` is given, the surviving states are additionally
        recorded as ``(parent index in the entering beam, applied-rule chain)``
        pairs so a repeated-block occurrence can replay them.
        """
        children: Dict[Tuple[int, int, int], Tuple[_SearchNode, Tuple[float, ...]]] = {}
        comp_rules = self.theory.comp_rules_by_node.get(node_name, [])
        if not comp_rules:
            raise SynthesisError(f"no sharding rules for node {node_name!r}")
        for state in states:
            self._bm_expanded += 1
            for rule in comp_rules:
                for child in self._expand_with_rule(state, rule, ratios):
                    self._bm_generated += 1
                    key = (child.pbits, child.completed, child.cbits)
                    closed = child.closed_cost
                    vector = tuple([closed + c for c in child.stage_comp])
                    existing = children.get(key)
                    if existing is not None and all(
                        e <= v + 1e-15 for e, v in zip(existing[1], vector)
                    ):
                        continue
                    children[key] = (child, vector)
        if not children:
            raise SynthesisError(
                f"beam search dead-ended at node {node_name!r}: no variant of the "
                "operator is reachable from the surviving states"
            )
        # Rank by the cost actually accumulated so far (closed stages plus
        # the open stage's critical path, with total device work as the
        # tie-breaker).  The A* heuristic term would be identical for all
        # states at the same level and would therefore make them tie.
        # beam_rank_order is stable, so generation order breaks exact ties.
        entries = list(children.values())
        order = beam_rank_order(
            [e[1] for e in entries], [e[0].stage_comp for e in entries]
        )
        survivors = [entries[i][0] for i in order[:beam_width]]
        if record_into is not None:
            origin = {id(s): i for i, s in enumerate(states)}
            for survivor in survivors:
                chain: List[Rule] = []
                cursor: Optional[_SearchNode] = survivor
                while cursor is not None and id(cursor) not in origin:
                    chain.append(cursor.rule)  # type: ignore[arg-type]
                    cursor = cursor.parent
                assert cursor is not None
                record_into.append((origin[id(cursor)], tuple(reversed(chain))))
        return survivors

    # -- repeated-block record/replay (config.enable_block_reuse) ----------------------
    def _reuse_schedule(self) -> List[Tuple]:
        """Segment the topological order into plain nodes and block occurrences."""
        if self._reuse_segments is not None:
            return self._reuse_segments
        runs = find_repeated_blocks(self.graph, self._topo_order)
        occurrence_at: Dict[int, Tuple[BlockRun, int]] = {}
        for run in runs:
            for occ_idx, start in enumerate(run.occurrence_starts):
                occurrence_at[start] = (run, occ_idx)
        segments: List[Tuple] = []
        i = 0
        n = len(self._topo_order)
        while i < n:
            entry = occurrence_at.get(i)
            if entry is not None:
                run, occ_idx = entry
                segments.append(("block", run, occ_idx))
                self._occ_info[(id(run), occ_idx)] = self._build_occ_info(run, occ_idx)
                i += run.length
            else:
                segments.append(("node", self._topo_order[i]))
                i += 1
        self._reuse_segments = segments
        return segments

    def _build_occ_info(self, run: BlockRun, occ_idx: int) -> _OccurrenceInfo:
        mapping = run.maps[occ_idx]
        start = run.occurrence_starts[occ_idx]
        node_names = tuple(self._topo_order[start : start + run.length])
        occ_refs = tuple(mapping[ref] for ref in run.refs)
        ref_idx = {ref: i for i, ref in enumerate(occ_refs)}
        ref_bits = tuple(1 << self._node_index[ref] for ref in occ_refs)
        relevant_mask = 0
        for bit in ref_bits:
            relevant_mask |= bit
        prop_mask = 0
        for ref in occ_refs:
            prop_mask |= self.theory.ref_masks.get(ref, 0)
        block_nodes = set(node_names)
        pending_masks: List[int] = []
        for ref in occ_refs:
            mask = 0
            for consumer in self._consumers.get(ref, []):
                if consumer not in block_nodes:
                    mask |= 1 << self._node_index[consumer]
            pending_masks.append(mask)
        return _OccurrenceInfo(
            node_names=node_names,
            occ_refs=occ_refs,
            ref_idx=ref_idx,
            ref_bits=ref_bits,
            relevant_mask=relevant_mask,
            prop_mask=prop_mask,
            pending_masks=tuple(pending_masks),
        )

    def _block_occurrence(
        self,
        states: List[_SearchNode],
        run: BlockRun,
        occ_idx: int,
        ratios: Sequence[float],
        beam_width: Optional[int],
    ) -> List[_SearchNode]:
        """Process one occurrence of a repeated block: replay or record.

        The first occurrence (and any occurrence whose entry signature differs
        from the recorded template's) is expanded in full with its decisions
        recorded; matching occurrences replay the recorded decision chains,
        re-running the exact cost model per applied rule.  Replay bails out to
        full expansion on any structural mismatch.
        """
        info = self._occ_info[(id(run), occ_idx)]
        sig = self._block_entry_signature(states, info)
        record = self._reuse_records.get(id(run))
        self.reuse_stats["occurrences"] += 1
        if record is not None and record.entry_sig == sig:
            replayed = self._replay_block(states, info, record, ratios)
            if replayed is not None:
                self.reuse_stats["replayed"] += 1
                return replayed
            self.reuse_stats["fallbacks"] += 1
        self.reuse_stats["recorded"] += 1
        levels: List[List[Tuple]] = []
        for node_name in info.node_names:
            decisions: List[Tuple] = []
            states = self._beam_level(
                states, node_name, ratios, beam_width, record_into=decisions
            )
            levels.append(decisions)
        self._reuse_records[id(run)] = _BlockRecord(
            entry_sig=sig,
            levels=self._normalize_levels(levels, info),
            exit_rel=[self._exit_encoding(state, info) for state in states],
        )
        return states

    def _exit_encoding(self, state: _SearchNode, info: _OccurrenceInfo) -> Tuple:
        """Block-relevant part of an exit state, in block-local indices.

        Only the block's own property bits are decoded.
        """
        ref_idx = info.ref_idx
        rel_props = tuple(
            (ref_idx[p.ref], p.state)
            for p in self.theory.decode(state.pbits & info.prop_mask)
        )
        cbits, completed = state.cbits, state.completed
        rel_comm = tuple(i for i, bit in enumerate(info.ref_bits) if cbits & bit)
        rel_completed = tuple(
            i for i, bit in enumerate(info.ref_bits) if completed & bit
        )
        return (rel_props, rel_comm, rel_completed)

    def _normalize_levels(
        self, levels: List[List[Tuple]], info: _OccurrenceInfo
    ) -> List[List[Tuple]]:
        """Convert recorded rule chains into block-local structural descriptors."""
        out: List[List[Tuple]] = []
        for decisions in levels:
            converted: List[Tuple] = []
            for parent_idx, chain in decisions:
                converted.append(
                    (parent_idx, tuple(self._rule_descriptor(rule, info) for rule in chain))
                )
            out.append(converted)
        return out

    def _rule_descriptor(self, rule: Rule, info: _OccurrenceInfo) -> Tuple:
        """Block-local descriptor of a rule: (kind, lookup ref index, signature).

        Computation rules are looked up among the sharding variants of the
        occurrence's node at the same in-block level; communication rules
        among the collectives of the translated reference.  The signature is
        entirely in terms of block-local reference indices, so it transfers
        between occurrences without a rename pass; an untranslatable rule
        yields a ``None`` signature, which makes replay fall back.
        """
        sig = self._rule_sig(rule, info.ref_idx)
        if rule.completes:
            return ("comp", -1, sig)
        lookup = -1
        if sig is not None:
            lookup = min(info.ref_idx[p.ref] for p in rule.pre)
        return ("comm", lookup, sig)

    def _rule_sig(self, rule: Rule, ref_idx: Dict[str, int]) -> Optional[Tuple]:
        """Name-free structural signature of a rule (block-local ref indices)."""

        def prop(p: Property) -> Optional[Tuple]:
            i = ref_idx.get(p.ref)
            if i is None:
                return None
            return (i, p.state.kind.value, p.state.dim)

        pre = []
        for p in rule.pre:
            enc = prop(p)
            if enc is None:
                return None
            pre.append(enc)
        post = []
        for p in rule.post:
            enc = prop(p)
            if enc is None:
                return None
            post.append(enc)
        completes = []
        for name in rule.completes:
            i = ref_idx.get(name)
            if i is None:
                return None
            completes.append(i)
        communicates = []
        for name in rule.communicates:
            i = ref_idx.get(name)
            if i is None:
                return None
            communicates.append(i)
        instrs: List[Tuple] = []
        for instr in rule.instructions:
            if isinstance(instr, CommInstruction):
                src = prop(instr.input)
                dst = prop(instr.output)
                if src is None or dst is None:
                    return None
                instrs.append(("m", instr.kind.value, src, dst, instr.dim, instr.dim2))
            else:
                node_i = ref_idx.get(instr.node)
                out = prop(instr.output)
                if node_i is None or out is None:
                    return None
                inputs = []
                for p in instr.inputs:
                    enc = prop(p)
                    if enc is None:
                        return None
                    inputs.append(enc)
                instrs.append(("c", node_i, instr.op, tuple(inputs), out, instr.flops_sharded))
        return (
            tuple(sorted(pre)),
            tuple(instrs),
            tuple(sorted(post)),
            tuple(sorted(completes)),
            tuple(sorted(communicates)),
        )

    def _block_entry_signature(self, states: List[_SearchNode], info: _OccurrenceInfo) -> Tuple:
        """Structural signature of the beam at a block boundary.

        Per state, block-relevant properties / communicated refs / completion
        bits are expressed in block-local indices; everything irrelevant to
        the block is reduced to a distinctness-pattern id across the beam (the
        block's decisions can only depend on *which states share* irrelevant
        context, not on what it is).  ``ext_pending`` captures, per relevant
        reference, whether consumers outside the block are still pending —
        this determines when the liveness optimisation may drop the reference
        mid-block, so it must agree with the template's.
        """
        ref_idx = info.ref_idx
        ref_bits = info.ref_bits
        pending_masks = info.pending_masks
        relevant_mask = info.relevant_mask
        prop_mask = info.prop_mask
        decode = self.theory.decode
        pattern_ids: Dict[Tuple, int] = {}
        sig: List[Tuple] = []
        for state in states:
            pbits, cbits, completed = state.pbits, state.cbits, state.completed
            rel_props = [
                (ref_idx[p.ref], p.state.kind.value, p.state.dim)
                for p in decode(pbits & prop_mask)
            ]
            rel_props.sort(key=lambda t: (t[0], t[1], -1 if t[2] is None else t[2]))
            rel_comm = [i for i, bit in enumerate(ref_bits) if cbits & bit]
            rel_completed = tuple(
                1 if completed & bit else 0 for bit in ref_bits
            )
            ext_pending = tuple(
                1 if mask & ~completed else 0 for mask in pending_masks
            )
            pattern_key = (
                pbits & ~prop_mask,
                cbits & ~relevant_mask,
                completed & ~relevant_mask,
            )
            pid = pattern_ids.setdefault(pattern_key, len(pattern_ids))
            sig.append((tuple(rel_props), tuple(rel_comm), rel_completed, ext_pending, pid))
        return tuple(sig)

    def _replay_block(
        self,
        states: List[_SearchNode],
        info: _OccurrenceInfo,
        record: _BlockRecord,
        ratios: Sequence[float],
    ) -> Optional[List[_SearchNode]]:
        """Replay a recorded block's decision chains on this occurrence.

        Cost accumulation must be exact, so the chains are walked rule by
        rule through the occurrence's own (signature-translated) rules and
        cost plans — the identical float operations the full expansion would
        perform on the winning lineages.  State sets need no walking: context
        irrelevant to the block passes through unchanged and the relevant
        part of each exit state is recorded on the template, so exit states
        are reconstructed directly.  Intermediate steps only allocate
        lightweight "ghost" parents carrying the applied rule, which is what
        program reconstruction walks at the end of the search.

        Returns ``None`` on any mismatch (untranslatable rule, missing
        parent), in which case the caller re-expands the occurrence in full.
        """
        # Per position: (closed, stage, completed_ideal, depth, tail, root idx).
        current: Dict[int, Tuple] = {
            i: (s.closed_cost, s.stage_comp, s.completed_ideal, s.depth, s, i)
            for i, s in enumerate(states)
        }
        applied = 0
        for level, decisions in enumerate(record.levels):
            node_name = info.node_names[level]
            needed = record.needed[level]
            new_states: Dict[int, Tuple] = {}
            for position in sorted(needed):
                parent_idx, chain = decisions[position]
                entry = current.get(parent_idx)
                if entry is None:
                    return None
                closed, stage, ideal, depth, tail, root_idx = entry
                for descriptor in chain:
                    rule = self._translate_descriptor(descriptor, info, node_name)
                    if rule is None:
                        return None
                    plan, _, ideals, _ = self._replay_runtime(rule, ratios)
                    for kind, payload in plan:
                        if kind == _SYNC:
                            closed += max(stage) + payload
                            stage = self._zero_stage
                        else:
                            stage = tuple([s + t for s, t in zip(stage, payload)])
                    for delta in ideals:
                        ideal += delta
                    ghost = _SearchNode.__new__(_SearchNode)
                    ghost.parent = tail
                    ghost.rule = rule
                    tail = ghost
                    depth += 1
                    applied += 1
                new_states[position] = (closed, stage, ideal, depth, tail, root_idx)
            if not new_states:
                return None
            current = new_states
        self._bm_generated += applied
        self._bm_expanded += len(record.levels)
        # Reconstruct the exit beam (final level is needed in full, so the
        # positions are contiguous and sorting restores the template order).
        out: List[_SearchNode] = []
        for position in sorted(current):
            closed, stage, ideal, depth, tail, root_idx = current[position]
            exit_state = self._reconstruct_exit(
                states[root_idx],
                record.exit_rel[position],
                info,
                closed,
                stage,
                ideal,
                depth,
                tail,
            )
            out.append(exit_state)
        return out

    def _replay_runtime(self, rule: Rule, ratios: Sequence[float]) -> Tuple:
        """(cost plan, completes mask, ideal deltas, liveness drops).

        The per-rule entry of the runtime cache that :meth:`_apply` reads.
        """
        rid = id(rule)
        runtime = self._rule_runtime.get(rid)
        if runtime is None:
            runtime = self._rule_runtime[rid] = (
                self._rule_plan(rule, ratios),
                *self._rule_static(rule),
            )
        return runtime

    def _reconstruct_exit(
        self,
        root: _SearchNode,
        exit_rel: Tuple,
        info: _OccurrenceInfo,
        closed: float,
        stage: Tuple[float, ...],
        ideal: float,
        depth: int,
        tail: _SearchNode,
    ) -> _SearchNode:
        """Build a full exit state from pass-through context + template encoding."""
        rel_props, rel_comm, rel_completed = exit_rel
        occ_refs = info.occ_refs
        pbits = (root.pbits & ~info.prop_mask) | self.theory.encode(
            Property(occ_refs[i], state) for i, state in rel_props
        )
        cbits = root.cbits & ~info.relevant_mask
        for i in rel_comm:
            cbits |= info.ref_bits[i]
        completed = root.completed & ~info.relevant_mask
        for i in rel_completed:
            completed |= info.ref_bits[i]
        node = _SearchNode.__new__(_SearchNode)
        node.parent = tail.parent
        node.rule = tail.rule
        node.pbits = pbits
        node.completed = completed
        node.cbits = cbits
        node.closed_cost = closed
        node.stage_comp = stage
        node.completed_ideal = ideal
        node.depth = depth
        node.topo_ptr = self._advance_topo_ptr(root.topo_ptr, completed)
        return node

    def _translate_descriptor(
        self, descriptor: Tuple, info: _OccurrenceInfo, node_name: str
    ) -> Optional[Rule]:
        """Resolve a block-local rule descriptor against this occurrence.

        Candidate rules (the node's sharding variants, or the reference's
        collectives) are indexed by structural signature once per occurrence
        and cached on the occurrence info, so repeated replays — including
        across planner rounds with different ratios — are dictionary lookups.
        """
        kind, lookup, sig = descriptor
        if sig is None:
            return None
        map_key = (kind, node_name) if kind == "comp" else (kind, lookup)
        sigmap = info.sigmaps.get(map_key)
        if sigmap is None:
            if kind == "comp":
                candidates = self.theory.comp_rules_by_node.get(node_name, [])
            else:
                candidates = self.theory.comm_rules_by_ref.get(info.occ_refs[lookup], [])
            sigmap = {}
            for candidate in candidates:
                candidate_sig = self._rule_sig(candidate, info.ref_idx)
                if candidate_sig is not None and candidate_sig not in sigmap:
                    sigmap[candidate_sig] = candidate
            info.sigmaps[map_key] = sigmap
        return sigmap.get(sig)

    def _expand_with_rule(
        self, state: _SearchNode, rule: Rule, ratios: Sequence[float]
    ) -> List[_SearchNode]:
        """Apply a computation rule, inserting enabling collectives if needed."""
        if state.completed & self._completes_mask[id(rule)]:
            return []
        pbits, cbits = state.pbits, state.cbits
        if rule.pre_mask & pbits == rule.pre_mask:
            return [self._apply(state, rule, ratios)]
        missing = [bit for bit in self._ordered_pre(rule) if not pbits & bit]
        # Find, for every missing precondition, the collectives that produce
        # it: the ``comm_rules_by_post`` index holds the state-independent
        # part, so only the per-state filters remain in the loop.
        option_sets: List[List[Rule]] = []
        for bit in missing:
            options = [
                comm
                for comm in self.theory.comm_rules_by_post.get(bit, ())
                if comm.pre_mask & pbits == comm.pre_mask and not comm.comm_mask & cbits
            ]
            if not options:
                return []
            option_sets.append(options)
        if len(option_sets) == 1:
            return [
                self._apply(self._apply(state, comm, ratios), rule, ratios)
                for comm in option_sets[0]
            ]
        # Visit the combinations in itertools.product order (last option set
        # fastest); the depth-first walk applies each shared collective prefix
        # once.
        results: List[_SearchNode] = []

        def walk(current: _SearchNode, level: int) -> None:
            if level == len(option_sets):
                results.append(self._apply(current, rule, ratios))
                return
            for comm in option_sets[level]:
                walk(self._apply(current, comm, ratios), level + 1)

        walk(state, 0)
        return results

    def _ordered_pre(self, rule: Rule) -> Tuple[int, ...]:
        """Precondition bits of a rule in a deterministic, name-independent order.

        ``rule.pre`` is a frozenset, whose iteration order depends on the hash
        values of the reference names; enumerating missing preconditions in
        that order would make both the generated-children order and the
        enabling-collective instruction order vary between isomorphic graphs
        (and with ``PYTHONHASHSEED``).  The computation instruction's input
        order is structural, so it is used as the primary order, with any
        leftover preconditions appended in sorted order.  Bit positions play
        no part in the order.
        """
        entry = self._pre_order_cache.get(id(rule))
        if entry is None:
            ordered: List[Property] = []
            primary = rule.instructions[-1] if rule.instructions else None
            if isinstance(primary, CompInstruction):
                for prop in primary.inputs:
                    if prop in rule.pre and prop not in ordered:
                        ordered.append(prop)
            if len(ordered) < len(rule.pre):
                leftover = sorted(
                    (p for p in rule.pre if p not in ordered),
                    key=lambda p: (
                        p.ref,
                        p.state.kind.value,
                        -1 if p.state.dim is None else p.state.dim,
                    ),
                )
                ordered.extend(leftover)
            bits = self.theory.prop_bits
            entry = self._pre_order_cache[id(rule)] = tuple(bits[p] for p in ordered)
        return entry

    # -- unrestricted A* search (Fig. 10) ----------------------------------------------
    def _greedy_complete(
        self, node: _SearchNode, ratios: Sequence[float]
    ) -> Tuple[Optional[_SearchNode], int]:
        """Extend a partial program to completion with width-1 beam steps.

        Used as the completion fallback when open-list trimming discarded
        every completable state: follow the topological order from the
        prefix, picking the cheapest sharding variant (with enabling
        collectives) of each remaining node.  Returns the completed state
        (suboptimal but valid) and the number of children generated, or
        ``None`` if some node has no reachable variant from the prefix.
        """
        current = node
        generated = 0
        while not self._is_complete(current):
            next_node = self._next_node(current)
            if next_node is None:
                return None, generated
            children: List[_SearchNode] = []
            for rule in self.theory.comp_rules_by_node.get(next_node, []):
                children.extend(self._expand_with_rule(current, rule, ratios))
            generated += len(children)
            if not children:
                return None, generated
            current = min(children, key=lambda s: (self._final_cost(s), sum(s.stage_comp)))
        return current, generated

    def _astar_search(self, ratios: Sequence[float], _allow_trim: bool = True) -> SynthesisResult:
        start = _time.perf_counter()
        root = self._root()
        counter = itertools.count()
        # Ties are broken towards deeper programs so that a first complete
        # program (and thus an upper bound for pruning) is found quickly.
        heap: List[Tuple[float, int, int, _SearchNode]] = [
            (self._score(root), 0, next(counter), root)
        ]
        # Dominance table: state key -> Pareto front of the undominated
        # per-device cost vectors.
        fronts: Dict[Tuple[int, int, int], ParetoFront] = {}
        best_complete: Optional[_SearchNode] = None
        best_cost = float("inf")
        #: Most-progressed state popped so far — the completion-fallback seed.
        best_prefix = root
        trim = _allow_trim and self.config.beam_width is not None
        expanded = 0
        generated = 1
        # Local bindings of loop-invariant lookups (hot loop).
        output_mask = self._output_mask
        total_ideal = self._total_ideal
        heappush, heappop = heapq.heappush, heapq.heappop

        while heap:
            score, _, _, node = heappop(heap)
            if score >= best_cost:
                break
            if expanded >= self.config.max_search_steps:
                break
            expanded += 1
            if node.completed_ideal > best_prefix.completed_ideal or (
                node.completed_ideal == best_prefix.completed_ideal
                and self._final_cost(node) < self._final_cost(best_prefix)
            ):
                best_prefix = node

            for rule in self._applicable_rules(node):
                child = self._apply(node, rule, ratios)
                generated += 1
                closed = child.closed_cost
                stage_comp = child.stage_comp
                open_cost = max(stage_comp) if stage_comp else 0.0
                if (child.completed & output_mask) == output_mask:
                    cost = closed + open_cost
                    if cost < best_cost:
                        best_cost = cost
                        best_complete = child
                    continue
                key = (child.pbits, child.completed, child.cbits)
                vector = tuple([closed + c for c in stage_comp])
                front = fronts.get(key)
                if front is None:
                    front = fronts[key] = ParetoFront(eps=1e-12)
                if not front.insert(vector):
                    continue  # dominated by an already-known program
                remaining = total_ideal - child.completed_ideal
                if remaining < 0.0:
                    remaining = 0.0
                child_score = closed + (open_cost if open_cost > remaining else remaining)
                if child_score < best_cost:
                    heappush(heap, (child_score, -child.depth, next(counter), child))

            if trim and len(heap) > 4 * self.config.beam_width:
                heap = heapq.nsmallest(self.config.beam_width, heap)
                heapq.heapify(heap)

        if best_complete is None:
            # Completion fallback (ROADMAP dead-end): trimming the open list
            # can discard every completable state.  Greedily complete the
            # most-progressed prefix; if even that dead-ends, redo the search
            # without trimming before giving up.
            for prefix in (best_prefix, root):
                completed, extra = self._greedy_complete(prefix, ratios)
                generated += extra
                if completed is not None:
                    return self._result(
                        completed, self._final_cost(completed), expanded, generated, start
                    )
            if trim:
                return self._astar_search(ratios, _allow_trim=False)
            raise SynthesisError(
                "A* search exhausted without finding a complete distributed program; "
                "the background theory may be missing rules for some operator"
            )
        return self._result(best_complete, best_cost, expanded, generated, start)



def synthesize_program(
    graph: ComputationGraph,
    cluster: ClusterSpec,
    ratios: Optional[Sequence[float]] = None,
    config: Optional[SynthesisConfig] = None,
) -> SynthesisResult:
    """Convenience wrapper: build the theory and run one synthesis."""
    return ProgramSynthesizer(graph, cluster, config).synthesize(ratios)
