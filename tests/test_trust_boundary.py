"""Where values are checked and where they are trusted.

Public constructors check every pair, member and value they are given:
``Rel(...)``, ``function_from_mapping`` and ``Subset(...)`` by
name, and ``Rel.from_rows`` and ``Subset.from_mask``, which the generators
use, row by row and mask by mask.  The kernel builds its own results through the private
``rel._rel``, ``powerset._subset`` and ``rel._unchecked``, which check nothing, so they must stay
out of the package's public names and out of the modules that read user input or plant defects
on purpose.
"""

import ast
import pathlib
import re

import pytest

import delmc
from delmc import (
    AgentSet,
    FiniteSet,
    FrameMap,
    InvariantViolation,
    KripkeFrame,
    NotAFunction,
    Rel,
    Subset,
    function_from_mapping,
    initial_lift,
)

X = FiniteSet("X", ("x1", "x2"))
Y = FiniteSet("Y", ("y1", "y2"))
A = AgentSet(("a",))


def frame(carrier):
    return KripkeFrame.make(carrier, A, {"a": Rel(carrier, carrier, [])})


def test_private_constructor_is_not_public():
    namespace = {}
    exec("from delmc import *", namespace)
    for name in ("_unchecked", "_rel", "_subset"):
        assert name not in getattr(delmc, "__all__", ())
        assert not hasattr(delmc, name)
        assert name not in namespace


@pytest.mark.parametrize("module", ["cli", "laws", "generators"])
def test_input_and_planting_modules_never_build_unchecked(module):
    source = pathlib.Path(delmc.__file__).with_name(f"{module}.py").read_text(encoding="utf-8")
    assert "_unchecked" not in source
    # nor the kernel's trusted constructors of relations and subsets
    assert not re.search(r"\b_(rel|subset)\(", source)


@pytest.mark.parametrize(
    "build",
    [
        lambda: Rel(X, Y, frozenset({("x1", "y1"), ("x2", "zz")})),
        lambda: Rel(X, Y, frozenset({("zz", "y1")})),
        lambda: Rel(X, Y, [("y1", "x1")]),
        lambda: Subset(X, frozenset({"x1", "y1"})),
        lambda: function_from_mapping(X, Y, {"x1": "y1", "x2": "zz"}),
    ],
    ids=["rel-codomain", "rel-domain", "rel-swapped", "subset", "mapping"],
)
def test_public_constructors_reject_stray_points(build):
    with pytest.raises(InvariantViolation):
        build()


@pytest.mark.parametrize(
    "build",
    [
        lambda: Rel.from_rows(X, Y, [1]),
        lambda: Rel.from_rows(X, Y, [1, 2, 1]),
        lambda: Rel.from_rows(X, Y, [1, 4]),
        lambda: Rel.from_rows(X, Y, [1, -1]),
        lambda: Rel.from_rows(X, Y, [True, 1]),
        lambda: Rel.from_rows(X, Y, [1, 2.0]),
        lambda: Rel.from_rows(X, Y, [1, "2"]),
        lambda: Subset.from_mask(X, 4),
        lambda: Subset.from_mask(X, -1),
        lambda: Subset.from_mask(X, True),
        lambda: Subset.from_mask(X, 1.0),
    ],
    ids=[
        "rows-too-few", "rows-too-many", "row-bit-past-codomain", "row-negative",
        "row-bool", "row-float", "row-str",
        "mask-past-carrier", "mask-negative", "mask-bool", "mask-float",
    ],
)
def test_row_and_mask_constructors_reject_what_lies_outside(build):
    with pytest.raises(InvariantViolation):
        build()


def test_row_and_mask_constructors_agree_with_the_named_ones():
    assert Rel.from_rows(X, Y, [3, 0]) == Rel(X, Y, {("x1", "y1"), ("x1", "y2")})
    assert Rel.from_rows(X, Y, (0, 2)).pairs == {("x2", "y2")}
    assert Subset.from_mask(X, 2) == Subset(X, {"x2"})
    assert Subset.from_mask(X, 0).members == frozenset()


@pytest.mark.parametrize(
    "pairs",
    [
        [("x1", "y1")],  # x2 has no value
        [("x1", "y1"), ("x1", "y2"), ("x2", "y1")],  # x1 has two
    ],
    ids=["partial", "multi-valued"],
)
def test_public_frame_maps_reject_non_functions(pairs):
    with pytest.raises(NotAFunction):
        FrameMap(frame(X), frame(Y), Rel(X, Y, pairs))
    with pytest.raises(NotAFunction):
        initial_lift([frame(Y)], [Rel(X, Y, pairs)])


def test_function_from_mapping_rejects_a_partial_mapping():
    with pytest.raises(NotAFunction):
        function_from_mapping(X, Y, {"x1": "y1"})


def test_public_rel_words_the_stray_pair():
    with pytest.raises(InvariantViolation, match="'zz' not in codomain 'Y'"):
        Rel(X, Y, frozenset({("x1", "y1"), ("x2", "zz")}))
    with pytest.raises(ValueError):
        Rel(X, Y, frozenset({("x1", "y1", "y2")}))


def test_benchmark_check_shares_no_kernel():
    # perfbench/checks.py is the benchmark's independent bitmask oracle: it
    # may read the formula syntax trees, but no relation, subset or
    # evaluator code, so it never shares the kernel it checks
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "checks.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    assert {name for name in imported if name.split(".")[0] == "delmc"} == {"delmc.formulas"}
