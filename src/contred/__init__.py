"""Reducibility degrees of maps between finite topological spaces.

Finite spaces are carried as preorders (point below point); continuity
is monotonicity.  The package decides composition reducibility (a
translation into the oracle's input), one-query reducibility
(translation, one oracle answer, then a continuous postprocessor), and
the capped truth-table variant over parallel copies; computes level and
basesize invariants; builds joins, meets, and their universal-property
certificates; and explores the induced degree posets.
"""

from .errors import (
    CapacityError,
    ContredError,
    CorpusError,
    InvalidWitnessError,
    SearchExhaustedError,
    SpaceMismatchError,
)
from .spaces import (
    PartialMap,
    Problem,
    Relation,
    Space,
    build_space,
    chain,
    choice_functions,
    compose,
    conflict_structure,
    constant_map,
    coproduct,
    delta,
    discrete,
    empty_map,
    identity_map,
    indiscrete,
    is_continuous,
    is_continuous_at,
    make_map,
    map_equal,
    partial_map,
    pi_pair,
    pi_power,
    problem,
    product,
    product_space,
    relation,
    restrict,
    sierpinski,
    singleton_problem,
    subspace,
    total_map,
)
from .kernel import DEFAULT_BUDGET, Budget
from .reducibility import (
    CompareResult,
    CtResult,
    Witness0,
    Witness2,
    compare,
    compose_witness0,
    compose_witness2,
    decide,
    enumerate_continuous_partial,
    enumerate_continuous_total,
    le0_fn,
    le0_map,
    le0_problem,
    le2_fn,
    le2_map,
    le2_problem,
    le_ct,
    replay0,
    replay2,
    verify_witness0,
    verify_witness2,
    witness0_to_witness2,
)
from .invariants import (
    UNBOUNDED,
    InvariantReport,
    LevelValue,
    basesize,
    basesize_partition,
    basesize_problem,
    conflict_graph,
    invariant_report,
    lev_point,
    level,
    level_problem,
    level_sets,
)
from .lattice import (
    BoundReport,
    TaggedFamily,
    distribute2,
    distribute2_relation,
    fibered_with_projections,
    inf0,
    inf0_greatest_witness,
    inf0_lower_witness,
    sup0,
    sup0_least_witness,
    sup0_problem,
    sup0_upper_witness,
    sup2,
    sup2_least_witness,
    sup2_problem,
    sup2_upper_witness,
    tagged,
    verify_glb,
    verify_lub,
)
from .explore import (
    DegreePoset,
    admissible,
    decompose_by_level,
    degree_poset,
    injective_indiscrete_map,
    is_surjective,
    mod_chain_map,
    random_continuous_map,
    random_map,
    random_partial_map,
    random_problem,
    random_space,
    search_antichain,
    search_lev_bas_witness,
    to_dot,
)
from .category import (
    CategoryModel,
    FinCategory,
    Morphism,
    ThinCategory,
    continuous_subcategory,
    coproduct_with_mediator,
    le0_cat,
    poset_to_category,
    pullback_with_mediator,
    space_category,
    thin_coproduct,
    thin_pullback,
)
from .corpus import Corpus, corpus_from_items, parse, serialize

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
