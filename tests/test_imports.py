"""What ``import delmc`` loads and what the package exports.

The model checker's modules load with the package.  The law suites and
the generators load on first use, so a command that runs no suite never
compiles them, and no exported name is lost on the way.
"""

import ast
import os
import pathlib
import subprocess
import sys
import types

import pytest

import delmc
from conftest import data_path

SRC = os.path.dirname(os.path.dirname(delmc.__file__))

CORE_MODULES = [
    "delmc",
    "delmc.errors",
    "delmc.formulas",
    "delmc.frames",
    "delmc.frozen",
    "delmc.modelio",
    "delmc.models",
    "delmc.parser",
    "delmc.powerset",
    "delmc.reduction",
    "delmc.rel",
    "delmc.sheaves",
]

LAWS_NAMES = ["DEFAULT_CASES", "SUITES", "Report", "SelfTestReport", "run_all", "run_suite", "self_test"]

PUBLIC_NAMES = """
AgentMismatch AgentSet And ArityMismatch Atom Bot Box CapExceeded CarrierMismatch
CodomainMismatch CyclicPrecondition DEFAULT_CASES DelBox DelDia DelmcError Dia DiagonalCheck EmptyGroup
EventModel Exists FiberedPower FiniteSet Forall Formula FormulaInContext FrameMap Fun Imp
InvariantViolation KripkeFrame KripkeModel KripkeSheaf LawCheck LawReport NoLearningReport
Not NotAFunction NotAPullback NotMonotone NotReducible OpenPrecondition Or OutOfRange PalBox
PalDia ParseError PowersetMap Pred ReductionResult ReductionStep Rel Report SUITES
SchemaError SelfTestReport ShadowedVariable SheafCheck SheafModel SheafUpdate Signature
Subset Tabulation Term TermInContext Top UnknownAgent UnknownAtom UnknownEvent UnknownSuite
UnknownSymbol UnresolvedEventModel UpdateResult Var VariableCapture all_subsets apply apply_function
as_sentence beck_chevalley_equation check_adjunction check_beck_chevalley
check_biduality_laws check_diagonal_characterization check_modularity
check_pullback_update check_substitution_box_commutation check_substitution_functoriality
check_transition_commutation check_update_routes closure_reflexive_transitive
common_knowledge_relation compose compose_maps dagger dump_model empty
empty_subset exists_image exists_map extension fibered_power first_order_node forall_image
forall_map frame_map free_vars full_subset function_from_mapping identity identity_map
initial_lift interp_formula interp_term is_bisimulation is_bounded is_function
is_function_pointwise is_injective is_jointly_monic is_kripke_sheaf is_monotone
is_reflexive is_static is_surjective is_symmetric is_transitive join
largest_preserved_check leq load_file load_model load_sheaf_frames map_leq maps_equal meet
no_learning_check pal_update parse_formula parse_term preimage_map print_formula product
product_update pullback pullback_update reduce_formula relation_from_join_map
relation_from_meet_map run_all run_suite self_test static_precondition_modalities
subframe substitute tabulate total verify_del_reductions verify_pal_reductions
verify_preserves_all_joins verify_preserves_all_meets verify_quantifier_reduction
""".split()


def _fresh(probe: str) -> str:
    """Run a probe in a fresh interpreter importing delmc from this source tree."""
    return subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, check=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=SRC),
    ).stdout


def test_import_loads_the_core_modules_only():
    probe = "import sys, delmc; print(*sorted(m for m in sys.modules if m.split('.')[0] == 'delmc'))"
    assert _fresh(probe).split() == CORE_MODULES


def test_eval_command_loads_no_law_suite():
    probe = (
        "import sys\n"
        "from delmc.cli import main\n"
        f"code = main(['eval', {data_path('two_worlds.json')!r}, '[a]p'])\n"
        "print(code, 'delmc.laws' in sys.modules, 'delmc.generators' in sys.modules)\n"
    )
    assert _fresh(probe).splitlines()[-1] == "0 False False"


def test_law_names_and_lazy_modules_load_on_first_use():
    probe = (
        "import sys, delmc\n"
        "print('delmc.laws' in sys.modules, 'delmc.generators' in sys.modules)\n"
        "print(delmc.generators is sys.modules['delmc.generators'], 'delmc.laws' in sys.modules)\n"
        f"from delmc import {', '.join(LAWS_NAMES)}\n"
        "laws = sys.modules['delmc.laws']\n"
        f"same = all(getattr(delmc, n) is getattr(laws, n) and n in vars(delmc) for n in {LAWS_NAMES!r})\n"
        "print(delmc.laws is laws, same)\n"
    )
    assert _fresh(probe).splitlines() == ["False False", "True False", "True True"]


def test_public_names_are_pinned():
    namespace = {}
    exec("from delmc import *", namespace)
    assert sorted(delmc.__all__) == sorted(PUBLIC_NAMES)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC_NAMES)
    listed = {n for n in dir(delmc) if not n.startswith("_")}
    assert {n for n in listed if not isinstance(getattr(delmc, n), types.ModuleType)} == set(PUBLIC_NAMES)
    assert {"laws", "generators", "rel"} <= listed


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="'delmc' has no attribute 'nosuch'"):
        delmc.nosuch


def test_rel_names_the_module():
    import delmc.rel as r

    assert r.FiniteSet is delmc.FiniteSet
    assert delmc.rel is sys.modules["delmc.rel"]


def _imported_at_load(tree: ast.AST):
    """The delmc modules a module imports when it loads: every import
    outside a function body, class bodies and conditionals included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = "delmc" + (f".{node.module}" if node.module else "") if node.level else node.module
            yield base
            yield from (f"{base}.{alias.name}" for alias in node.names)
        yield from _imported_at_load(node)


def test_load_time_import_scan_skips_function_bodies():
    assert "delmc.laws" in set(_imported_at_load(ast.parse("from . import laws")))
    assert "delmc.laws" in set(_imported_at_load(ast.parse("if True:\n    import delmc.laws")))
    assert "delmc.laws" not in set(_imported_at_load(ast.parse("def f():\n    from . import laws")))


def test_only_laws_imports_the_suites_or_generators_when_loading():
    package = pathlib.Path(delmc.__file__).parent
    importers = {
        path.stem: {"delmc.laws", "delmc.generators"} & set(_imported_at_load(ast.parse(path.read_text("utf-8"))))
        for path in package.glob("*.py")
    }
    assert {stem: found for stem, found in importers.items() if found} == {"laws": {"delmc.generators"}}
