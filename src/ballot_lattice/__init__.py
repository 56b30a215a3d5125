"""Ranked-choice ballots as ordered structures.

Parse and classify ballots, compute joins, meets and the Hasse diagram,
verify structural claims exhaustively over small candidate sets, build
exact utility representations and concave spatial witnesses, and tabulate
instant-runoff elections including a ballot-length sensitivity experiment.
"""

from .checks import (
    CLAIM_DESCRIPTIONS,
    CLAIM_REGISTRY,
    INFORMATIONAL_CLAIMS,
    MUST_CLAIMS,
    ClaimReport,
    check_remark1,
    is_join_semilattice,
    is_modular,
    relation_claims,
)
from .election import (
    ElectionProfile,
    ProfileError,
    TabulationResult,
    TabulationRound,
    TruncationReport,
    find_truncation_sensitive_profile,
    fixture_path,
    load_profile,
    profile_report,
    tabulate_irv,
    truncate_ballot,
    truncation_experiment,
)
from .enumeration import (
    MAX_ENUMERATION_CANDIDATES,
    VerificationSummary,
    ballot_count,
    default_candidates,
    enumerate_ballots,
    exhaustive_verify,
)
from .order import (
    MAX_RELATION_CANDIDATES,
    CoverPair,
    GrammarError,
    OrderRelation,
    RankedBallot,
    atoms,
    coatoms,
    covers,
    format_ballot,
    greatest_element,
    is_complete,
    is_partial_order,
    is_top_truncated,
    is_total,
    is_weak_order,
    join,
    join_irreducibles,
    least_element,
    meet,
    meet_irreducibles,
    minimal_elements,
    parse_ballot,
    relation_of,
)
from .representation import (
    ALL_SUBSETS_CAP,
    ConcavityReport,
    DisjunctionVerdict,
    N_set,
    PairRecord,
    SpatialWitness,
    UtilityAssignment,
    Y_set,
    canonical_utility,
    concave_witness,
    extreme_points,
    is_representation,
    is_submodular,
    pair_record,
    rationalizability_class,
    subrecord_verdicts,
    theorem3_check,
    verify_concavity,
)

__version__ = "0.1.0"
