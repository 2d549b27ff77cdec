"""Distributed-program synthesis (Sec. 4.3 of the paper).

The synthesizer searches the space of distributed programs defined by the
background theory (:mod:`repro.core.rules`).  Both searches walk one
topological order of the single-device graph: a step emulates the next
pending node with one of its sharding variants, preceded by the collectives
that establish the variant's missing preconditions.

A partial program is represented by its *search state*: the set of live
properties and the set of communicated tensors at a topological position,
plus the cost bookkeeping of the stage currently being filled.  The two sets
are machine ints — bit masks over the theory's property bits and over graph
positions — so a union is ``|``, a precondition check is
``pre & bits == pre`` and a state key is ``(pbits, cbits)``.  Property bits
are recycled over ref lifetimes (:attr:`~repro.core.rules.Theory.lifetimes`),
so a ``pbits`` mask is unambiguous among the states of one position, the
only states a key compares.  The set of emulated nodes is not part of the
state: every source is created by its first consumer, so all states at one
position have emulated the same nodes, and a beam level computes that set
and its liveness drop once.

* The beam search (:meth:`ProgramSynthesizer.synthesize`) is the planner's
  search.  It expands every node of the order in turn and keeps the
  ``beam_width`` cheapest states per node.
* A* (Fig. 10, :meth:`ProgramSynthesizer.astar`) is the exact oracle over
  the same space, the search the tests check the beam against.  It
  repeatedly pops the lowest-score state from a priority queue and expands
  it as the beam would.  Its heuristic,
  the remaining nodes' :meth:`~repro.core.costmodel.CostModel.ideal_node_time`,
  is admissible, so the first popped score at or above the best complete
  cost proves that program optimal.  Its dominance check generalises lines
  9–14 of Fig. 10: two partial programs with identical state are compared
  by their per-device accumulated cost vectors, with a ``1e-12`` slack, and
  the dominated one is discarded.

Both apply the paper's three search-time optimisations:

1. each source instruction is pre-fused into the rules of its first
   consumer in graph order (done in :func:`repro.core.rules.build_theory`);
2. every reference tensor may be communicated at most once, and placeholders /
   parameters are never communicated (they are created already sharded);
3. properties of tensors whose consumers have all been emulated are dropped,
   which lets the dominance check merge many more states.  The drop reads
   the theory's lifetime table, the one that recycles the dropped bits.

Both also price the All-Gather implementation instead of searching both
(Sec. 2.5.1): a missing precondition that the padded and the grouped
All-Gather can each establish is enabled by the one whose cost is strictly
lower at the ratios being synthesized, the padded one on a tie
(:meth:`ProgramSynthesizer._chains`).  The other's children would differ
only in a closed cost that is never lower, so both searches' merges would
discard them; pricing up front drops them before they are generated.
"""

from __future__ import annotations

import heapq
import itertools
import time as _time
from dataclasses import dataclass
from operator import add
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..cluster.spec import ClusterSpec
from ..graph.graph import ComputationGraph
from ..graph.ops import OpKind
from .config import SynthesisConfig
from .costmodel import CostModel
from .instructions import CommInstruction, CompInstruction, Instruction
from .pareto import ParetoFront
from .program import DistributedProgram
from .properties import Property
from .rules import Rule, Theory, build_theory

#: Most states A* expands; reaching it raises :class:`SynthesisError`.
MAX_SEARCH_STEPS = 2_000_000


class _CostPlan(NamedTuple):
    """The compiled cost of a rule, or of a chain of rules, for fixed ratios.

    The rules' instructions cost, in order, per-device computation deltas
    (added to the open stage) and synchronising collectives (each closes the
    open stage, ``closed += max(stage) + comm``, and restarts it at zero).
    Only the part up to the first collective depends on the state the plan
    is replayed on.  The rest is folded when the plan is built, with the
    float operations a step-by-step replay would perform, in its order:

    * ``head``: the computation deltas before the first collective;
    * ``sync``: the first collective's cost, ``None`` without one;
    * ``closes``: the later collectives' closed-cost increments,
      ``max(stage) + comm`` each;
    * ``stage``: the open stage after the last collective, with its
      ``stage_max`` and its left-to-right ``work`` (the beam's rank key).

    Without a collective the last three are ``None``: the open stage is the
    state's plus the head.

    All-zero deltas are left out: an open-stage entry is a sum of
    non-negative times, never ``-0.0``, and ``x + 0.0 == x`` bit for bit
    for every such ``x``.  A plan of free steps is therefore
    :data:`_EMPTY_PLAN`, and its children keep their parent's open stage.
    """

    head: Tuple[Tuple[float, ...], ...]
    sync: Optional[float]
    closes: Tuple[float, ...]
    stage: Optional[Tuple[float, ...]]
    stage_max: Optional[float]
    work: Optional[float]


#: The plan of an instruction list that costs nothing (the identity of _then).
_EMPTY_PLAN = _CostPlan((), None, (), None, None, None)


def _work(times: Iterable[float]) -> float:
    """Total of ``times`` (an open stage's device work), accumulated left to right.

    Not ``sum``: from Python 3.12 it compensates rounding, and neither the
    beam's tie-breaker nor A*'s heuristic may depend on the interpreter.
    """
    work = 0.0
    for c in times:
        work += c
    return work


def _then(first: _CostPlan, second: _CostPlan) -> _CostPlan:
    """The plan of ``first``'s instructions followed by ``second``'s."""
    if first.sync is None:
        if not first.head:
            return second
        return _CostPlan(first.head + second.head, *second[1:])
    stage = first.stage
    for delta in second.head:
        stage = tuple(map(add, stage, delta))
    closes = first.closes
    if second.sync is not None:
        closes += (max(stage) + second.sync,) + second.closes
        stage = second.stage
    return _CostPlan(first.head, first.sync, closes, stage, max(stage), _work(stage))


def _twins(a: Rule, b: Rule) -> bool:
    """True for two collectives of one conversion: equal pre, post and comm
    masks (the padded and grouped All-Gather)."""
    return a.pre_mask == b.pre_mask and a.post_mask == b.post_mask and a.comm_mask == b.comm_mask


def beam_rank_order(keys: Sequence[Tuple[float, float]]) -> List[int]:
    """Ranking permutation of one beam level's merged children, best first.

    ``keys[i]`` is child *i*'s ``(cost, work)``: the cost accumulated so
    far, ``closed + max(stage)``, and the total device work of its open
    stage, summed left to right (:func:`_work`).  ``closed + max(stage)``
    equals ``max(closed + c for c in stage)`` bit for bit, because rounding
    is monotone: adding one constant to every element moves the maximum by
    that constant.  The sort is stable, so children with equal keys keep
    their generation order.
    """
    return sorted(range(len(keys)), key=keys.__getitem__)


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

    Its state is ``(pbits, cbits)`` at topological position ``topo_ptr``,
    plus the cost bookkeeping:

    * ``pbits``: the live properties, the OR of their bits
      (:attr:`Theory.prop_bits`); bits are recycled over ref lifetimes, so
      only properties live at ``topo_ptr`` own the set bits
      (:meth:`Theory.decode`);
    * ``cbits``: the communicated reference tensors, bits at their
      ``graph.node_names`` positions.

    ``completed`` (the emulated single-device nodes, bits at the same
    positions) belongs to the position: every state at one position holds
    the same value, and a beam level's survivors share one ``completed``
    int.  The beam dedupes a level's children on
    ``(pbits, cbits)``; A* keys its dominance check on
    ``(pbits, cbits, topo_ptr)``: both compare states of one position only.
    Bit order never orders the search: candidates are visited in rule and
    precondition order, whatever bits they own.

    Both searches also make parent-only lineage nodes (:meth:`link`),
    which set just ``parent`` and ``rule``: one per enabling collective of
    a materialized child (:meth:`ProgramSynthesizer._materialize`).  They
    are never search states.  Only :meth:`instructions` reaches them, and
    it reads nothing but the two fields.
    """

    __slots__ = (
        "parent",
        "rule",
        "pbits",
        "completed",
        "cbits",
        "closed_cost",
        "stage_comp",
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
        self.depth = depth
        #: index into the synthesizer's topological order of the first node
        #: not yet emulated.
        self.topo_ptr = topo_ptr

    @staticmethod
    def link(parent: _SearchNode, rule: Rule) -> _SearchNode:
        """A parent-only lineage node: ``rule`` applied after ``parent``."""
        node = _SearchNode.__new__(_SearchNode)
        node.parent = parent
        node.rule = rule
        return node

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
        self._output_mask = 0
        for name in graph.outputs:
            self._output_mask |= 1 << self._node_index[name]
        self._ideal_cache: Dict[str, float] = {}
        # Topological emulation order (non-source nodes only), walked by
        # both searches.
        self._topo_order = [n.name for n in graph if n.kind is not OpKind.SOURCE]
        #: A*'s heuristic per topological position: the ideal time of the
        #: nodes not yet emulated, the total less the emulated prefix, each
        #: summed left to right like :func:`_work`, floored at zero.
        done = [0.0]
        for name in self._topo_order:
            done.append(done[-1] + self._ideal(name))
        self._remaining_ideal = [max(done[-1] - d, 0.0) for d in done]
        #: all-zero open-stage vector of the root and of collectives' plans.
        self._zero_stage: Tuple[float, ...] = (0.0,) * cluster.num_devices
        # -- hot-path indexes: state-independent quantities precomputed once ---
        #: per topological level, the property bits of the refs that die
        #: there: the theory's lifetime table, which also recycles the bits.
        self._drops = [0] * (len(self._topo_order) + 1)
        ref_masks = self.theory.ref_masks
        for ref, (_, death) in self.theory.lifetimes.items():
            self._drops[death] |= ref_masks.get(ref, 0)
        #: node -> completion mask of its level.
        self._completion_masks: Dict[str, int] = {}
        #: id(rule) -> compiled cost plan (cleared whenever the ratios
        #: change, since the cost plans depend on them).
        self._rule_plans: Dict[int, _CostPlan] = {}
        # -- per-search caches -------------------------------------------------
        #: the ratios the runtime cache's cost plans were built for.
        self._plan_ratios: Optional[Tuple[float, ...]] = None
        #: id(rule) -> (index, bit) of its preconditions in deterministic order
        #: (_ordered_pre).
        self._pre_order_cache: Dict[int, Tuple[Tuple[int, int], ...]] = {}

    # -- helpers -----------------------------------------------------------------
    def _ideal(self, name: str) -> float:
        if name not in self._ideal_cache:
            node = self.graph[name]
            self._ideal_cache[name] = (
                0.0 if node.kind is OpKind.SOURCE else self.cost_model.ideal_node_time(name)
            )
        return self._ideal_cache[name]

    def _score(self, node: _SearchNode) -> float:
        remaining = self._remaining_ideal[node.topo_ptr]
        return node.closed_cost + max(node.open_stage_cost(), remaining)

    def _is_complete(self, node: _SearchNode) -> bool:
        return (node.completed & self._output_mask) == self._output_mask

    def _final_cost(self, node: _SearchNode) -> float:
        return node.closed_cost + node.open_stage_cost()

    def _rule_plan(self, rule: Rule, ratios: Sequence[float]) -> _CostPlan:
        """Compiled cost plan of a rule's instructions for fixed ratios.

        Cached per rule; :meth:`_chains` joins the plans of a chain's rules
        with :func:`_then`.  A computation that costs zero on every device
        (a source's creation, a zero-flop op) is left out: adding it would
        return every open-stage entry unchanged (:class:`_CostPlan`).
        """
        plan = self._rule_plans.get(id(rule))
        if plan is None:
            plan = _EMPTY_PLAN
            zero = self._zero_stage
            for instr in rule.instructions:
                if isinstance(instr, CommInstruction):
                    if not instr.synchronises:
                        continue  # local slice: no synchronisation, no cost
                    cost = self.cost_model.comm_time(instr, ratios)
                    step = _CostPlan((), cost, (), zero, 0.0, 0.0)
                else:
                    times = tuple(self.cost_model.comp_times(instr, ratios))
                    if not any(times):
                        continue
                    step = _CostPlan((times,), None, (), None, None, None)
                plan = _then(plan, step)
            self._rule_plans[id(rule)] = plan
        return plan

    def _completion_mask(self, node_name: str) -> int:
        """Bitmask of the nodes the level that emulates ``node_name`` completes.

        Every rule of the node completes the same nodes: the node and the
        sources it consumes first.
        """
        mask = self._completion_masks.get(node_name)
        if mask is None:
            mask = 0
            for name in self.theory.comp_rules_by_node[node_name][0].completes:
                mask |= 1 << self._node_index[name]
            self._completion_masks[node_name] = mask
        return mask

    def _use_ratios(self, ratios: Optional[Sequence[float]]) -> Tuple[float, ...]:
        """A search's ratios as a checked tuple (the cost-model memo's key).

        ``None`` means computation-proportional ratios.  The compiled rule
        cost plans hold for one ratio vector, so a new vector drops them.
        """
        ratios = tuple(ratios) if ratios is not None else tuple(self.cluster.proportional_ratios())
        if len(ratios) != self.cluster.num_devices:
            raise ValueError(
                f"expected {self.cluster.num_devices} sharding ratios, got {len(ratios)}"
            )
        if ratios != self._plan_ratios:
            self._rule_plans.clear()
            self._plan_ratios = ratios
        return ratios

    def _root(self) -> _SearchNode:
        return _SearchNode(
            parent=None,
            rule=None,
            pbits=0,
            completed=0,
            cbits=0,
            closed_cost=0.0,
            stage_comp=self._zero_stage,
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
    def synthesize(self, ratios: Optional[Sequence[float]] = None) -> SynthesisResult:
        """Synthesize the best distributed program for the given ratios.

        The planner's search, a per-node beam search over distribution
        states.  It processes the single-device nodes in topological order;
        for every node it tries each sharding variant, optionally preceded
        by the collectives that establish the variant's missing
        preconditions, and keeps the ``beam_width`` cheapest resulting
        states (after merging children that share a state key, see
        :meth:`_beam_level`; ``None`` keeps them all).

        Args:
            ratios: sharding ratios ``B`` (defaults to computation-proportional
                ratios, the paper's ``B^(0)``).

        Returns:
            The best complete program found and search statistics.

        Raises:
            ValueError: if ``ratios`` is not one ratio per device.
            SynthesisError: if no complete program exists in the search space
                (indicates a missing rule for some operator).
        """
        start = _time.perf_counter()
        ratios = self._use_ratios(ratios)
        beam_width = self.config.beam_width
        states: List[_SearchNode] = [self._root()]
        self._bm_expanded = 0
        self._bm_generated = 1
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
    ) -> List[_SearchNode]:
        """Expand one topological-order node and keep the best states.

        :meth:`_expand` returns the level's children as plain tuples; they
        stay tuples through the merge and the ranking, and only the at most
        ``beam_width`` survivors become search nodes, all sharing the
        level's ``completed`` int.  The chain memo lives for this level
        only: the node's rules fire at no other level.

        The merge keeps one child per state key ``(pbits, cbits)``, at the
        position of the key's first child.  A later child with the same key
        is dropped when the kept one dominates it: each device's ``closed +
        stage_comp`` is at most the later child's plus ``1e-15``.  Otherwise
        the later child replaces the kept one, even when it ranks worse.  Those vectors are
        built only for such a key collision.  The survivors are then ranked
        by the keys :meth:`_expand` carries (:func:`beam_rank_order`).
        """
        level, batch = self._expand(states, node_name, ratios, {})
        children: Dict[Tuple[int, int], Tuple] = {}
        for child in batch:
            existing = children.setdefault(child[0], child)
            if existing is not child:
                kept, closed = existing[1], child[1]
                if not all(
                    kept + e <= closed + c + 1e-15 for e, c in zip(existing[2], child[2])
                ):
                    children[child[0]] = child
        self._bm_expanded += len(states)
        self._bm_generated += len(batch)
        if not children:
            raise SynthesisError(
                f"beam search dead-ended at node {node_name!r}: no variant of the "
                "operator is reachable from the surviving states"
            )
        # Rank by the cost actually accumulated so far (closed stages plus
        # the open stage's critical path, with total device work as the
        # tie-breaker).  The A* heuristic term would be identical for all
        # states at the same level and would therefore make them tie.
        entries = list(children.values())
        order = beam_rank_order([child[3] for child in entries])
        return [self._materialize(entries[i], level) for i in order[:beam_width]]

    def _expand(
        self,
        states: Sequence[_SearchNode],
        node_name: str,
        ratios: Sequence[float],
        memo: Dict[str, List[Tuple]],
    ) -> Tuple[Tuple[int, int], List[Tuple]]:
        """Every child of one level: each state fires each rule of ``node_name``.

        ``states`` all sit at the node's topological position, so they share
        ``completed``: every source is fused into its first consumer
        (:func:`repro.core.rules.build_theory`).  The level's completion
        mask, topological pointer and liveness drop are therefore computed
        once, from ``states[0]``, and returned first as ``(completed,
        topo_ptr)``.

        Then one plain tuple per child, ``((pbits, cbits), closed_cost,
        stage_comp, rank, state, rule, collectives)``, state by state, rule
        by rule, in :meth:`_chains` order; :meth:`_materialize` builds a
        child's search node.  ``rank`` is the child's
        :func:`beam_rank_order` key.

        The caller owns ``memo`` (one per beam level, one per A* search).
        Per node it holds each rule with its chains (:meth:`_chains`), keyed
        by the only state bits they read: ``(pbits & scope_p, cbits &
        scope_c)``.  A child then applies its chain's compiled plan inline,
        with the float operations of a step-by-step replay in their order,
        and ``max(stage_comp)`` taken once per state.  A chain that starts
        with a collective costs a few float adds, with the open stage and
        the rank key's ``max`` and work taken from the plan.  A free chain
        (:data:`_EMPTY_PLAN`) passes on the state's open stage and the
        state's rank key, computed once.  Only a chain with computation
        before its first collective builds a new open-stage vector.
        """
        rules = memo.get(node_name)
        if rules is None:
            comp_rules = self.theory.comp_rules_by_node.get(node_name)
            if not comp_rules:
                raise SynthesisError(f"no sharding rules for node {node_name!r}")
            rules = memo[node_name] = [
                (rule, *self._expansion_scope(rule), {}) for rule in comp_rules
            ]
        first = states[0]
        completed = first.completed | self._completion_mask(node_name)
        level = (completed, first.topo_ptr + 1)
        # Optimisation #3: the properties of tensors that can no longer be
        # consumed (every consumer emulated) leave the state.  Program outputs
        # with no consumers (updated parameters, the loss) leave it as well —
        # the completion bitmask tracks them, and dropping them lets the
        # dominance checks merge programs that made different (already
        # paid-for) choices for earlier parts of the model.  Their bits are
        # then free for the refs born at later levels.
        keep = ~self._drops[first.topo_ptr]
        children: List[Tuple] = []
        append = children.append
        chains_of = self._chains
        for state in states:
            pbits, cbits = state.pbits, state.cbits
            closed0, stage0 = state.closed_cost, state.stage_comp
            open0 = max(stage0)
            rank0 = None
            for rule, scope_p, scope_c, by_bits in rules:
                key = (pbits & scope_p, cbits & scope_c)
                chains = by_bits.get(key)
                if chains is None:
                    chains = by_bits[key] = chains_of(rule, pbits, cbits, ratios)
                for comms, (head, sync, closes, final, final_max, work), post, comm in chains:
                    closed, stage = closed0, stage0
                    for times in head:
                        stage = tuple(map(add, stage, times))
                    if sync is not None:
                        closed += (max(stage) if head else open0) + sync
                        for close in closes:
                            closed += close
                        stage, rank = final, (closed + final_max, work)
                    elif head:
                        rank = (closed + max(stage), _work(stage))
                    else:
                        if rank0 is None:
                            rank0 = (closed0 + open0, _work(stage0))
                        rank = rank0
                    append(
                        (
                            ((pbits | post) & keep, cbits | comm),
                            closed,
                            stage,
                            rank,
                            state,
                            rule,
                            comms,
                        )
                    )
        return level, children

    def _chains(self, rule: Rule, pbits: int, cbits: int, ratios: Sequence[float]) -> List[Tuple]:
        """Every chain of enabling collectives that lets ``rule`` fire.

        One ``(collectives, compiled cost plan, post mask, comm mask)`` per
        chain, in ``itertools.product`` order over the missing
        preconditions' options (last fastest).  The plan is the collectives'
        compiled plans followed by the rule's, joined with :func:`_then`
        once here, so its state-independent part is folded once per chain
        rather than once per child.  The masks are unions over the chain and
        the rule.  A state that already holds every precondition gets the
        one empty chain; a missing precondition that no collective can
        establish leaves none.

        A missing precondition's options keep one rule of each twin pair:
        the padded and grouped All-Gather of one conversion, which
        :func:`repro.core.rules.build_theory` lists next to each other with
        equal ``pre_mask``, ``post_mask`` and ``comm_mask``.  The kept rule
        is the one whose sync is strictly lower for these ratios, the
        padded one (listed first) on a tie.  The twins' chains differ in
        that one sync term, so their children share a state key and an open
        stage, and the costlier child's closed cost is never lower: both
        searches' merges would discard it.
        """
        by_post = self.theory.comm_rules_by_post
        option_sets: List[List[Rule]] = []
        for index, bit in self._ordered_pre(rule):
            if pbits & bit:
                continue
            options: List[Rule] = []
            for comm in by_post.get(index, ()):
                if comm.pre_mask & pbits != comm.pre_mask or comm.comm_mask & cbits:
                    continue
                if options and _twins(options[-1], comm):
                    twin = options[-1]
                    if self._rule_plan(comm, ratios).sync < self._rule_plan(twin, ratios).sync:
                        options[-1] = comm
                else:
                    options.append(comm)
            if not options:
                return []
            option_sets.append(options)
        rule_plan = self._rule_plan(rule, ratios)
        chains: List[Tuple] = []
        for comms in itertools.product(*option_sets):
            plan = _EMPTY_PLAN
            post, comm_mask = rule.post_mask, rule.comm_mask
            for comm in comms:
                plan = _then(plan, self._rule_plan(comm, ratios))
                post |= comm.post_mask
                comm_mask |= comm.comm_mask
            chains.append((comms, _then(plan, rule_plan), post, comm_mask))
        return chains

    def _expansion_scope(self, rule: Rule) -> Tuple[int, int]:
        """The state bits :meth:`_chains` reads for a computation rule.

        ``(scope_p, scope_c)``: the rule's ``pre_mask`` ORed with the
        ``pre_mask`` of every collective that can establish one of its
        preconditions, and the OR of those collectives' ``comm_mask``.  Two
        states that agree on ``pbits & scope_p`` and ``cbits & scope_c`` get
        the same chains.
        """
        scope_p, scope_c = rule.pre_mask, 0
        for index, _ in self._ordered_pre(rule):
            for comm in self.theory.comm_rules_by_post.get(index, ()):
                scope_p |= comm.pre_mask
                scope_c |= comm.comm_mask
        return scope_p, scope_c

    def _materialize(self, child: Tuple, level: Tuple[int, int]) -> _SearchNode:
        """The search node of an :meth:`_expand` child at its ``level``.

        Each enabling collective gets a lineage node that carries only
        ``parent`` and ``rule`` (:meth:`_SearchNode.link`).
        """
        (pbits, cbits), closed, stage, _, state, rule, comms = child
        parent = state
        for comm in comms:
            parent = _SearchNode.link(parent, comm)
        node = _SearchNode.__new__(_SearchNode)
        node.parent = parent
        node.rule = rule
        node.pbits = pbits
        node.cbits = cbits
        node.closed_cost = closed
        node.stage_comp = stage
        node.completed, node.topo_ptr = level
        node.depth = state.depth + len(comms) + 1
        return node

    def _ordered_pre(self, rule: Rule) -> Tuple[Tuple[int, int], ...]:
        """A rule's preconditions as ``(property index, bit)`` pairs, in a
        deterministic, name-independent order; the index is
        :attr:`Theory.prop_index`'s, the key of ``comm_rules_by_post``.

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
            index, bits = self.theory.prop_index, self.theory.prop_bits
            entry = self._pre_order_cache[id(rule)] = tuple(
                (index[p], bits[p]) for p in ordered
            )
        return entry

    # -- exact A* search (Fig. 10) -------------------------------------------------
    def astar(self, ratios: Optional[Sequence[float]] = None) -> SynthesisResult:
        """Exact A* over :meth:`synthesize`'s space: the oracle the tests call.

        It ignores ``beam_width`` and is practical only on small graphs.  A
        state's successors are the beam's children of its next
        topological-order node (:meth:`_expand` on that one state), so the
        two searches differ only in pruning.  The dominance check keys on
        ``(pbits, cbits, topo_ptr)``: the position fixes ``completed``.
        States are expanded in score order until the lowest open score
        reaches the best complete cost.  Raises :class:`ValueError` like
        :meth:`synthesize`, and :class:`SynthesisError` when the search
        exhausts without a complete program or reaches
        :data:`MAX_SEARCH_STEPS` first; it never returns a program it has
        not proved optimal.
        """
        start = _time.perf_counter()
        ratios = self._use_ratios(ratios)
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
        expanded = 0
        generated = 1
        memo: Dict[str, List[Tuple]] = {}
        output_mask = self._output_mask

        while heap:
            score, _, _, node = heapq.heappop(heap)
            if score >= best_cost:
                break
            if expanded >= MAX_SEARCH_STEPS:
                best = (
                    f"best complete cost so far {best_cost:.6g}"
                    if best_complete is not None
                    else "no complete program found yet"
                )
                raise SynthesisError(
                    f"A* search reached MAX_SEARCH_STEPS={MAX_SEARCH_STEPS} after "
                    f"expanding {expanded} states; lowest open score {score:.6g}, {best}"
                )
            expanded += 1
            # A pushed state is incomplete, so some node is still pending.
            level, children = self._expand(
                [node], self._topo_order[node.topo_ptr], ratios, memo
            )
            generated += len(children)
            completed, topo_ptr = level
            for child in children:
                (pbits, cbits), closed, stage = child[:3]
                if completed & output_mask == output_mask:
                    cost = closed + max(stage)
                    if cost < best_cost:
                        best_cost, best_complete = cost, self._materialize(child, level)
                    continue
                key = (pbits, cbits, topo_ptr)
                front = fronts.get(key)
                if front is None:
                    front = fronts[key] = ParetoFront(eps=1e-12)
                if not front.insert(tuple([closed + c for c in stage])):
                    continue  # dominated by an already-known program
                state = self._materialize(child, level)
                child_score = self._score(state)
                if child_score < best_cost:
                    heapq.heappush(heap, (child_score, -state.depth, next(counter), state))

        if best_complete is None:
            raise SynthesisError(
                "A* search exhausted without finding a complete distributed program; "
                "the background theory may be missing rules for some operator"
            )
        return self._result(best_complete, best_cost, expanded, generated, start)
