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
    ValidationError,
    NotSeparableError,
    NotSquareError,
    NetworkFormatError,
    MAX_NODES,
    separate,
    is_separable,
    decouple,
    load_network,
    save_network,
)
from .numeric import AllSamplesSingularError
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
    format_monomial,
    repetition_table,
    combinatorial_verdict,
    necessary_condition_any_topology,
)
from .oracle import symbolic_det, coefficient
from .generate import GenerationError, random_network

__version__ = "0.1.0"
