"""Spill-everywhere register allocation toolkit for SSA programs.

Linear codes (basic blocks) and dominance-tree codes, with or without
hole semantics at spilled definitions and uses. Polynomial solvers where
they exist (greedy furthest-use, min-cost flow, three dynamic programs),
exact oracles for the NP-complete regimes, and generators realizing the
classic hardness reductions for adversarial testing.
"""

from .errors import (
    BudgetExceededError,
    InfeasibleError,
    MalformedCodeError,
    ParseError,
    SizeCapError,
    SpillkitError,
    UnsupportedModeError,
    WrongShapeError,
)
from .fileformat import parse, parse_source, serialize
from .intervals import greedy_furthest, incremental_cover_dp, weighted_optimal
from .kernel import IMPLEMENTATION as KERNEL_IMPLEMENTATION
from .model import (
    DEF,
    HOLES,
    LINEAR,
    NOHOLES,
    TREE,
    USE,
    Instance,
    Instruction,
    LiveRange,
    Point,
    PressureProfile,
    SpillSolution,
    Variable,
    Violation,
    interference_graph,
    is_chordal,
    pressure,
    validate,
)
from .oracle import branch_and_bound, brute_force, brute_force_all, verify
from .punched import extra_set_dp
from .reductions import (
    CheckResult,
    CoverInstance,
    GraphInstance,
    MapBackError,
    ReductionCertificate,
    X3CInstance,
    check_reduction,
    gen_indepset_h1,
    gen_indepset_h2,
    gen_mincover,
    gen_x3c,
    map_back,
)
from .treedp import fitting_set_dp, fitting_set_dp_holes

__version__ = "0.1.0"

__all__ = [
    "BudgetExceededError", "InfeasibleError", "MalformedCodeError",
    "ParseError", "SizeCapError", "SpillkitError", "UnsupportedModeError",
    "WrongShapeError",
    "parse", "parse_source", "serialize",
    "greedy_furthest", "incremental_cover_dp", "weighted_optimal",
    "KERNEL_IMPLEMENTATION",
    "DEF", "HOLES", "LINEAR", "NOHOLES", "TREE", "USE",
    "Instance", "Instruction", "LiveRange", "Point", "PressureProfile",
    "SpillSolution", "Variable", "Violation",
    "interference_graph", "is_chordal", "pressure", "validate",
    "branch_and_bound", "brute_force", "brute_force_all", "verify",
    "extra_set_dp",
    "CheckResult", "CoverInstance", "GraphInstance", "MapBackError",
    "ReductionCertificate", "X3CInstance", "check_reduction",
    "gen_indepset_h1", "gen_indepset_h2", "gen_mincover", "gen_x3c",
    "map_back",
    "fitting_set_dp", "fitting_set_dp_holes",
]
