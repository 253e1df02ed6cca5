"""Finite-model library for modal and dynamic epistemic logic.

Relations form a dagger category with meets; Kripke frames and their
monotone and bounded maps are built on top of it via initial lifts; models
evaluate propositional, announcement, and event-update operators through
the relation/powerset-map duality; Kripke sheaves carry the first-order
layer, where updates pull the whole interpretation back along the event
projection.  Everything is checkable: law suites verify the algebra on
random structures, and reduction traces re-verify every rewrite step
against a model.

``import delmc`` loads the model checker only.  The law suites'
names (``DEFAULT_CASES``, ``SUITES``, ``Report``, ``SelfTestReport``,
``run_all``, ``run_suite``, ``self_test``) and the submodules ``laws``
and ``generators`` resolve on first use, which imports ``delmc.laws``
and, through it, ``delmc.generators``.
"""

from importlib import import_module as _import_module
from types import ModuleType as _ModuleType

from .errors import (
    AgentMismatch,
    ArityMismatch,
    CapExceeded,
    CarrierMismatch,
    CodomainMismatch,
    CyclicPrecondition,
    DelmcError,
    EmptyGroup,
    InvariantViolation,
    NotAFunction,
    NotAPullback,
    NotMonotone,
    NotReducible,
    OpenPrecondition,
    OutOfRange,
    ParseError,
    SchemaError,
    ShadowedVariable,
    UnknownAgent,
    UnknownAtom,
    UnknownEvent,
    UnknownSuite,
    UnknownSymbol,
    UnresolvedEventModel,
    VariableCapture,
)
from .rel import (
    FiniteSet,
    Rel,
    Tabulation,
    apply_function,
    check_modularity,
    closure_reflexive_transitive,
    compose,
    dagger,
    empty,
    function_from_mapping,
    identity,
    is_function,
    is_function_pointwise,
    is_injective,
    is_jointly_monic,
    is_reflexive,
    is_surjective,
    is_symmetric,
    is_transitive,
    join,
    leq,
    meet,
    tabulate,
    total,
)
from .powerset import (
    PowersetMap,
    Subset,
    all_subsets,
    apply,
    beck_chevalley_equation,
    check_adjunction,
    check_beck_chevalley,
    check_biduality_laws,
    compose_maps,
    empty_subset,
    exists_image,
    exists_map,
    forall_image,
    forall_map,
    full_subset,
    map_leq,
    maps_equal,
    preimage_map,
    relation_from_join_map,
    relation_from_meet_map,
    verify_preserves_all_joins,
    verify_preserves_all_meets,
)
from .frames import (
    AgentSet,
    FrameMap,
    KripkeFrame,
    common_knowledge_relation,
    frame_map,
    identity_map,
    initial_lift,
    is_bisimulation,
    is_bounded,
    is_monotone,
    largest_preserved_check,
    product,
    pullback,
    subframe,
)
from .formulas import (
    And,
    Atom,
    Bot,
    Box,
    DelBox,
    DelDia,
    Dia,
    Exists,
    Forall,
    Formula,
    FormulaInContext,
    Fun,
    Imp,
    Not,
    Or,
    PalBox,
    PalDia,
    Pred,
    Term,
    TermInContext,
    Top,
    Var,
    as_sentence,
    free_vars,
    substitute,
)
from .models import (
    EventModel,
    KripkeModel,
    LawCheck,
    LawReport,
    NoLearningReport,
    UpdateResult,
    check_update_routes,
    extension,
    no_learning_check,
    pal_update,
    product_update,
    static_precondition_modalities,
)
from .sheaves import (
    DiagonalCheck,
    FiberedPower,
    KripkeSheaf,
    SheafCheck,
    SheafModel,
    SheafUpdate,
    Signature,
    check_diagonal_characterization,
    check_pullback_update,
    check_substitution_box_commutation,
    check_substitution_functoriality,
    check_transition_commutation,
    fibered_power,
    interp_formula,
    interp_term,
    is_kripke_sheaf,
    pullback_update,
)
from .parser import parse_formula, parse_term, print_formula
from .reduction import (
    ReductionResult,
    ReductionStep,
    first_order_node,
    is_static,
    reduce_formula,
    verify_del_reductions,
    verify_pal_reductions,
    verify_quantifier_reduction,
)
from .modelio import dump_model, load_file, load_model, load_sheaf_frames

__version__ = "0.1.0"

_LAWS_NAMES = ("DEFAULT_CASES", "SUITES", "Report", "SelfTestReport", "run_all", "run_suite", "self_test")
_LAZY_MODULES = ("laws", "generators")

__all__ = sorted(
    [name for name, value in globals().items() if name[0] != "_" and not isinstance(value, _ModuleType)]
    + list(_LAWS_NAMES)
)


def __getattr__(name: str):
    """Import the law suites on first use and keep the name asked for (PEP 562)."""
    if name in _LAZY_MODULES:
        return _import_module(f".{name}", __name__)
    if name in _LAWS_NAMES:
        value = globals()[name] = getattr(_import_module(".laws", __name__), name)
        return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *_LAWS_NAMES, *_LAZY_MODULES})
