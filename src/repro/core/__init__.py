"""HAP core: properties, background theory, A* synthesis, LP load balancing."""

from .config import SynthesisConfig
from .costmodel import CostBreakdown, CostModel, StageCoefficients
from .hierarchical import (
    HierarchicalConfig,
    HierarchicalPlan,
    HierarchicalPlanner,
    StagePlan,
    stage_forward_graph,
)
from .instructions import CommInstruction, CompInstruction, Instruction, is_source_op
from .load_balancer import LoadBalanceError, LoadBalancer, LoadBalanceResult
from .pareto import ParetoFront
from .pipeline import HAPPlan, HAPPlanner, OptimizationRound
from .plancache import (
    CACHE_VERSION,
    CachedPlan,
    DiskPlanCache,
    InMemoryPlanCache,
    cluster_signature,
    config_signature,
    plan_key,
    remap_plan,
    remap_program,
)
from .program import DistributedProgram, Stage
from .properties import DistState, Property, StateKind, partial, replicated, sharded
from .rules import Rule, Theory, build_theory
from .synthesizer import ProgramSynthesizer, SynthesisError, SynthesisResult
from .variants import Variant, moe_restricted_refs, node_variants

__all__ = [
    "SynthesisConfig",
    "CostModel",
    "CostBreakdown",
    "StageCoefficients",
    "CompInstruction",
    "CommInstruction",
    "Instruction",
    "is_source_op",
    "LoadBalancer",
    "LoadBalanceError",
    "LoadBalanceResult",
    "ParetoFront",
    "HAPPlanner",
    "HAPPlan",
    "OptimizationRound",
    "DistributedProgram",
    "Stage",
    "DistState",
    "Property",
    "StateKind",
    "replicated",
    "partial",
    "sharded",
    "Rule",
    "Theory",
    "Variant",
    "build_theory",
    "node_variants",
    "moe_restricted_refs",
    "ProgramSynthesizer",
    "SynthesisResult",
    "SynthesisError",
    "CACHE_VERSION",
    "CachedPlan",
    "DiskPlanCache",
    "InMemoryPlanCache",
    "cluster_signature",
    "config_signature",
    "plan_key",
    "remap_plan",
    "remap_program",
    "HierarchicalConfig",
    "HierarchicalPlan",
    "HierarchicalPlanner",
    "StagePlan",
    "stage_forward_graph",
]
