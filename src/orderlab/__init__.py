"""orderlab: approximation operators and induced topologies on posets.

Finite posets are bit-mask matrices; auxiliary relations induce lower and
upper approximation operators, a topology, and a body of checkable laws.
Symbolic infinite families cover the phenomena finite universes cannot
show, and a harness runs every law suite over enumerated scopes.
"""

from .auxrel import (
    AuxClass,
    AuxRelation,
    aux_closure,
    aux_intersection,
    aux_subset,
    aux_union,
    bottom_aux,
    classify,
    enumerate_aux,
    leq_aux,
    sample_aux,
    section_above,
    section_below,
    validate_aux,
    way_below,
)
from .approx import (
    check_adjunction,
    check_algebra,
    check_basic_laws,
    check_int_equivalences,
    check_partition,
    int_statements,
    lap,
    lap_upper_adjoint,
    uap,
    uap_lower_adjoint,
)
from .bitset import ElementSet
from .closures import (
    check_sec5_theorems,
    has_one_step_closure,
    is_meet_continuous,
    one_step,
)
from .errors import (
    AxiomViolation,
    BadParameters,
    BudgetExceeded,
    ForeignElement,
    IndexOutOfRange,
    NotApproximating,
    NotLower,
    NotPreApproximating,
    NotUpper,
    OrderlabError,
    PosetMismatch,
    SeedViolatesOrder,
    UnknownSet,
    WindowTooLarge,
)
from .families import (
    FamilyElement,
    Window,
    family_membership,
    family_order,
    family_way_below,
    get_family,
    verify_window_soundness,
    window,
)
from .harness import (
    RunReport,
    Scope,
    fingerprint,
    parse_fingerprint,
    replay,
    run_suite,
    search_counterexample,
    SUITES,
    VERSION,
)
from .poset import (
    Poset,
    antichain,
    boolean,
    bottom,
    canonical_form,
    chain,
    diamond,
    down_closure,
    dump_poset,
    enumerate_posets,
    export_dot,
    from_rows,
    hasse,
    infimum,
    is_directed,
    is_filtered,
    is_lower,
    is_upper,
    load_poset,
    poset_from_json,
    poset_to_json,
    random_poset,
    supremum,
    top,
    up_closure,
    validate_poset,
)
from .report import CheckReport, LawVerdict
from .topology import (
    SpecializationOrder,
    Topology,
    check_chain_of_containments,
    check_continuity_characterization,
    check_cspace_theorems,
    check_mu_inaccessibility,
    check_mu_laws,
    check_mu_way_below_is_scott,
    check_topology_invariants,
    closure,
    interior,
    is_c_space,
    is_continuous,
    is_scott_open,
    mu_topology,
    opens_completely_distributive,
    scott_topology,
    specialization_order,
)

__version__ = VERSION
