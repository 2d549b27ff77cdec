"""HAP core: properties, background theory, A* synthesis, LP load balancing."""

from .config import LoadBalancerConfig, PlannerConfig, SynthesisConfig
from .costmodel import CostBreakdown, CostModel, StageCoefficientArrays, StageCoefficients
from .hierarchical import (
    ChunkPlan,
    HierarchicalConfig,
    HierarchicalPlan,
    HierarchicalPlanner,
    StagePlan,
    stage_forward_graph,
)
from .instructions import CommInstruction, CompInstruction, Instruction, is_source_op
from .load_balancer import LoadBalancer, LoadBalanceResult, integer_shard_sizes
from .pareto import ParetoFront, ParetoStore, dominates
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
from .rules import Rule, Theory, Variant, build_theory, moe_restricted_refs, node_variants
from .synthesizer import ProgramSynthesizer, SynthesisError, SynthesisResult, synthesize_program

__all__ = [
    "SynthesisConfig",
    "LoadBalancerConfig",
    "PlannerConfig",
    "CostModel",
    "CostBreakdown",
    "StageCoefficients",
    "StageCoefficientArrays",
    "CompInstruction",
    "CommInstruction",
    "Instruction",
    "is_source_op",
    "LoadBalancer",
    "LoadBalanceResult",
    "integer_shard_sizes",
    "ParetoFront",
    "ParetoStore",
    "dominates",
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
    "synthesize_program",
    "CACHE_VERSION",
    "CachedPlan",
    "DiskPlanCache",
    "InMemoryPlanCache",
    "cluster_signature",
    "config_signature",
    "plan_key",
    "remap_plan",
    "remap_program",
    "ChunkPlan",
    "HierarchicalConfig",
    "HierarchicalPlan",
    "HierarchicalPlanner",
    "StagePlan",
    "stage_forward_graph",
]
