"""Core ABC-model machinery: execution graphs, cycles, cuts, assignments.

This subpackage implements the paper's primary contribution in a
simulation-independent way: everything operates on
:class:`~repro.core.execution_graph.ExecutionGraph` objects, which can be
hand-crafted (:class:`~repro.core.execution_graph.GraphBuilder`) or
recorded from simulations (:mod:`repro.sim.trace`).
"""

from repro.core.chains import (
    chain_length,
    is_causal_chain,
    longest_chain_between,
    longest_incoming_chain,
)
from repro.core.cuts import (
    Cut,
    clock_values_at_cut,
    cut_interval,
    is_consistent_cut,
    left_closure,
    real_time_cut,
)
from repro.core.cycle_space import (
    CycleVector,
    combine,
    consistency,
    farkas_sum_property,
    mixed_free_decomposition,
    nonrelevant_sum_property,
    relevant_sum_property,
    vector_of,
    walk_vector,
)
from repro.core.cycles import (
    Cycle,
    CycleClassification,
    Step,
    classify,
    enumerate_cycles,
    relevant_cycles,
)
from repro.core.delay_assignment import (
    DelayAssignment,
    FarkasSystem,
    assignment_exists,
    build_farkas_system,
    canonical_solution,
    certificate_from_cycle_coefficients,
    farkas_certificate_value,
    normalized_assignment,
    verify_normalized,
)
from repro.core.events import Event, ProcessId
from repro.core.kernel import resolve_kernel_name
from repro.core.execution_graph import (
    Edge,
    ExecutionGraph,
    GraphBuilder,
    LocalEdge,
    MessageEdge,
)
from repro.core.synchrony import (
    AdmissibilityChecker,
    AdmissibilityResult,
    CheckerCheckpoint,
    SummaryEdge,
    as_xi,
    check_abc,
    check_abc_exhaustive,
    farey_predecessor,
    find_violating_cycle,
    has_relevant_cycle_with_ratio_at_least,
    worst_relevant_ratio,
    worst_relevant_ratio_exhaustive,
)
from repro.core.visualize import to_ascii, to_dot
from repro.core.variants import (
    check_abc_forward_bounded,
    check_abc_length_restricted,
    check_eventual_abc,
    earliest_stabilization_cut,
    running_worst_ratio,
    suffix_graph,
    unknown_xi_infimum,
)

__all__ = [
    # events / graph
    "Event",
    "ProcessId",
    "Edge",
    "ExecutionGraph",
    "GraphBuilder",
    "LocalEdge",
    "MessageEdge",
    # chains
    "chain_length",
    "is_causal_chain",
    "longest_chain_between",
    "longest_incoming_chain",
    # cuts
    "Cut",
    "clock_values_at_cut",
    "cut_interval",
    "is_consistent_cut",
    "left_closure",
    "real_time_cut",
    # cycles
    "Cycle",
    "CycleClassification",
    "Step",
    "classify",
    "enumerate_cycles",
    "relevant_cycles",
    # kernel
    "resolve_kernel_name",
    # synchrony
    "AdmissibilityChecker",
    "AdmissibilityResult",
    "CheckerCheckpoint",
    "SummaryEdge",
    "as_xi",
    "check_abc",
    "check_abc_exhaustive",
    "farey_predecessor",
    "find_violating_cycle",
    "has_relevant_cycle_with_ratio_at_least",
    "worst_relevant_ratio",
    "worst_relevant_ratio_exhaustive",
    # cycle space
    "CycleVector",
    "combine",
    "consistency",
    "farkas_sum_property",
    "mixed_free_decomposition",
    "nonrelevant_sum_property",
    "relevant_sum_property",
    "vector_of",
    "walk_vector",
    # delay assignment
    "DelayAssignment",
    "FarkasSystem",
    "assignment_exists",
    "build_farkas_system",
    "canonical_solution",
    "certificate_from_cycle_coefficients",
    "farkas_certificate_value",
    "normalized_assignment",
    "verify_normalized",
    # visualization
    "to_ascii",
    "to_dot",
    # variants
    "check_abc_forward_bounded",
    "check_abc_length_restricted",
    "check_eventual_abc",
    "earliest_stabilization_cut",
    "running_worst_ratio",
    "suffix_graph",
    "unknown_xi_infimum",
]
