"""teachdim: exact teaching-dimension computations and dominating-set reductions.

The package computes minimum teaching sets, teaching dimension, TD_min and
the recursive teaching dimension of explicitly given concept classes, builds
the weight-k pattern class used to replicate concepts, reduces dominating-set
instances to RTD instances, and mechanically verifies the reduction's
completeness and soundness on desk-scale inputs.
"""

from .errors import (
    CapacityError,
    InvalidArgumentError,
    InvalidPlanError,
    InvariantError,
    MalformedPlanError,
    ParseError,
    SoundnessViolationError,
    TeachdimError,
)
from .gadget import Gadget, GadgetReport, build_gadget, ones_extension, verify_gadget
from .graph import (
    Graph,
    dominates,
    gen_random_graph,
    has_dominating_set,
    parse_graph,
    serialize_graph,
)
from .model import (
    Concept,
    ConceptClass,
    DomainPoint,
    TeachingPlan,
    check_plan,
    is_teaching_set,
    parse_class,
    parse_plan,
    restrict,
    serialize_class,
    serialize_plan,
)
from .reduction import (
    ConceptRef,
    ObservationReport,
    PointRef,
    ReductionOutput,
    ShinoharaResult,
    check_observations,
    domset_to_rtd,
    extract_domset,
    metadata_json,
    nu_pairing,
    shinohara_metadata_json,
    shinohara_reduce,
    witness_plan,
)
from .teaching import (
    RtdResult,
    TsResult,
    min_teaching_set,
    rtd,
    rtd_decision,
    rtd_oracle_subsets,
    td_min,
    teaching_dim,
)

__version__ = "0.1.0"

__all__ = [
    "CapacityError",
    "Concept",
    "ConceptClass",
    "ConceptRef",
    "DomainPoint",
    "Gadget",
    "GadgetReport",
    "Graph",
    "InvalidArgumentError",
    "InvalidPlanError",
    "InvariantError",
    "MalformedPlanError",
    "ObservationReport",
    "ParseError",
    "PointRef",
    "ReductionOutput",
    "RtdResult",
    "ShinoharaResult",
    "SoundnessViolationError",
    "TeachdimError",
    "TeachingPlan",
    "TsResult",
    "build_gadget",
    "check_observations",
    "check_plan",
    "dominates",
    "domset_to_rtd",
    "extract_domset",
    "gen_random_graph",
    "has_dominating_set",
    "is_teaching_set",
    "metadata_json",
    "min_teaching_set",
    "nu_pairing",
    "ones_extension",
    "parse_class",
    "parse_graph",
    "parse_plan",
    "restrict",
    "rtd",
    "rtd_decision",
    "rtd_oracle_subsets",
    "serialize_class",
    "serialize_graph",
    "serialize_plan",
    "shinohara_metadata_json",
    "shinohara_reduce",
    "td_min",
    "teaching_dim",
    "verify_gadget",
    "witness_plan",
]
