"""Accepting-state complexity of reversal on permutation automata.

Builds the k-subset witness family, runs the reverse subset construction,
reads accepting-state complexity and minimality off its subsets, and
machine-verifies the exact reversal spectrum at desk scale.
"""

from .dfa import (
    Dfa,
    Word,
    accepts,
    apply_word,
    is_permutation_automaton,
    reachable_states,
)
from .errors import CapacityError, NotInGroupError
from .minimize import are_equivalent, asc, minimize
from .perms import (
    KSubset,
    Perm,
    act_on_subset,
    colex_rank,
    colex_unrank,
    cycle_perm,
    identity_perm,
    ksubsets,
    orbit,
    perm_from_word,
    perm_inverse,
    synthesize_word,
    transposition_perm,
)
from .reversal import (
    ReversalCertificate,
    SubsetState,
    mask_states,
    reversal_certificate,
    reverse_dfa,
    reverse_step,
    reverse_subsets,
)
from .spectrum import (
    MagicProbeReport,
    SpectrumReport,
    SpectrumRow,
    asc_pair,
    magic_one_probe,
    random_pfa,
    spectrum_point,
    spectrum_table,
    trivial_rows,
)
from .textio import (
    ParseError,
    emit_dfa,
    emit_dot,
    parse_dfa,
    report_to_json,
    word_from_str,
)
from .witness import (
    Star,
    StarClassification,
    WitnessParams,
    WitnessReport,
    build_witness,
    classify_reverse_states,
    star_label,
    star_members,
    subset_label,
    verify_witness,
)

__version__ = "0.1.0"
