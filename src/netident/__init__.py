"""Generic identifiability of dynamical networks with partial excitation and measurement.

A network is a directed graph whose edges carry scalar transfer
coefficients, some known, some unknown; a subset of nodes is excited and a
subset measured.  This package decides whether the unknown coefficients
are generically recoverable from the excitation-to-measurement response,
by exact randomized rank and determinant tests, by a separability-aware
decoupling construction, and by signed counting of excitation-to-
measurement walk collections, cross-checked against a truncated symbolic
determinant.
"""

from .netmodel import (
    Edge,
    NetworkModel,
    SeparableBlocks,
    ValidationError,
    SelfLoopError,
    DuplicateEdgeError,
    IndexOutOfRangeError,
    DuplicateExcitationError,
    DuplicateMeasurementError,
    NotSeparableError,
    NotSquareError,
    NetworkFormatError,
    MAX_NODES,
    separate,
    is_separable,
    decouple,
    network_from_dict,
    network_to_dict,
    load_network,
    save_network,
)
from .numeric import (
    PRIME,
    SingularMatrixError,
    AllSamplesSingularError,
    random_field_values,
    network_matrix,
    closed_loop,
    sensitivity_matrix,
    rank_field,
    generic_rank,
    generic_det_nonzero,
)
from .identifiability import (
    IDENTIFIABLE,
    NOT_IDENTIFIABLE,
    INCONCLUSIVE,
    LOCAL_GENERIC,
    DECOUPLED_GENERIC,
    GLOBAL_SEPARABLE,
    NoUnknownEdgesError,
    Verdict,
    local_identifiability,
    decoupled_identifiability,
)
from .combinatorial import (
    TooLargeError,
    Monomial,
    Walk,
    RepetitionTable,
    monomial_degree,
    format_monomial,
    walk_nodes,
    enumerate_walks,
    repetition_table,
    exhaustive_degree_bound,
    verdict_from_table,
    combinatorial_verdict,
    necessary_condition_any_topology,
)
from .oracle import (
    Poly,
    symbolic_closed_loop,
    symbolic_det,
    coefficient,
    terms_sorted,
)
from .generate import GenerationError, random_network

__version__ = "0.1.0"
