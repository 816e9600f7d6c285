"""Reversal-bounded counter machines: simulation, decision procedures,
language operations, transducers, and a plain-text file format."""

from .errors import (
    AlphabetMismatch,
    InfiniteBudget,
    MachineError,
    NondeterministicInput,
    NotPrefixFree,
    ParseError,
    PreconditionViolated,
    UnknownEntry,
)
from .machine import (
    EOT,
    Configuration,
    CounterMachine,
    DivergenceCertificate,
    RunTrace,
    Transition,
    accepts,
    enforce_reversal_control,
    run_deterministic,
    validate_machine,
)
from .regular import Dfa, dfa_from_machine, machine_from_dfa
from .decide import (
    LinearSet,
    compare,
    enumerate_words,
    is_empty,
    is_infinite,
    linear_feasible,
    make_non_exiting,
    member,
    parikh_image,
    prefix_free_check_machine,
    semilinear_member,
    solve_diophantine,
    to_one_reversal,
)
from .constructions import (
    boolean_dcm,
    concat_dcm1_regular,
    concat_dcmne_regular,
    concat_ncm,
    concat_pf_dcmne_dcm,
    concat_pf_regular_dcm,
    end_marker_behavior,
    inverse_insertion_ncm,
    inverse_prefix_dcm1,
    left_quotient_word,
    product_intersection,
    strip_end_marker_one_counter,
)
from .transducer import (
    CounterTransducer,
    forward_image_ncm,
    inverse_apply,
    to_null_transducer,
    transduce_det,
    validate_transducer,
)
from .fileformat import parse_machine, serialize_machine
from .corpus import CATALOG, CorpusEntry, load_corpus

__version__ = "0.1.0"
