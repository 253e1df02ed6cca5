"""The frozen value base: what it keeps of the dataclasses it stands in for,
and that importing the package compiles no method from source text."""

import dataclasses
import importlib
import inspect
import pkgutil

import pytest

import delmc
from delmc import (
    AgentSet,
    And,
    Atom,
    Bot,
    Box,
    DelBox,
    DelDia,
    Dia,
    DiagonalCheck,
    Exists,
    FiniteSet,
    Forall,
    FormulaInContext,
    Fun,
    Imp,
    LawCheck,
    LawReport,
    NoLearningReport,
    Not,
    Or,
    PalBox,
    PalDia,
    Pred,
    ReductionResult,
    ReductionStep,
    Report,
    SelfTestReport,
    SheafCheck,
    Signature,
    TermInContext,
    Top,
    Var,
)
from delmc.frozen import Frozen
from delmc.powerset import BidualityReport

# The classes that keep a method compiled from source text: none, since the
# parser's scan builds no token objects.
KEPT = set()

P, Q, X = Atom("p"), Atom("q"), Var("x")

# one value per node class, and a sample of the records
SAMPLES = [
    (Top, ()),
    (Bot, ()),
    (Atom, ("p",)),
    (Not, (Q,)),
    (And, (P, Q)),
    (Or, (P, Q)),
    (Imp, (P, Q)),
    (Box, ("a", P)),
    (Dia, ("a", P)),
    (PalBox, (P, Q)),
    (PalDia, (P, Q)),
    (DelBox, ("E", "e", P)),
    (DelDia, ("E", "e", P)),
    (Var, ("x",)),
    (Fun, ("f", (X,))),
    (Pred, ("P", (X,))),
    (Forall, ("x", Pred("P", (X,)))),
    (Exists, ("x", Pred("P", (X,)))),
    (AgentSet, (("a", "b"),)),
    (FiniteSet, ("w", ("w1", "w2"))),
    (LawCheck, ("law", False, "at w1")),
    (LawReport, ((LawCheck("law", True),),)),
    (NoLearningReport, (True, True, None, 3)),
    (BidualityReport, ((("law", True),),)),
    (Signature, ((("f", 1),), (("P", 1),))),
    (SheafCheck, (True, None, True, True, True)),
    (DiagonalCheck, (True, True)),
    (ReductionStep, ("rule", PalBox(P, Q), Imp(P, Q), Imp(P, Q))),
    (ReductionResult, (PalBox(P, Q), Imp(P, Q), (), ("x",))),
    (Report, ("duality", 3, (), 0.5)),
    (SelfTestReport, (True, 4, "triple")),
    (TermInContext, (("x",), X)),
    (FormulaInContext, (("x",), Pred("P", (X,)))),
]
IDS = [cls.__name__ for cls, _ in SAMPLES]


def _package_modules():
    for info in pkgutil.iter_modules(delmc.__path__):
        yield importlib.import_module(f"delmc.{info.name}")


def _package_classes():
    for module in _package_modules():
        for obj in vars(module).values():
            if inspect.isclass(obj) and obj.__module__ == module.__name__:
                yield obj


def _field_values(obj):
    return tuple(getattr(obj, f.name) for f in dataclasses.fields(obj))


def test_no_method_is_compiled_from_source_text():
    # @dataclass compiles each method it writes from a string: its code
    # object's file name is "<string>"; 193 of them at import, before the base
    compiled = []
    for cls in _package_classes():
        if f"{cls.__module__}.{cls.__qualname__}" in KEPT:
            continue
        for name, attr in vars(cls).items():
            code = getattr(getattr(attr, "__func__", attr), "__code__", None)
            if code is not None and code.co_filename == "<string>":
                compiled.append(f"{cls.__qualname__}.{name}")
    assert compiled == []


def test_every_value_class_reads_its_fields_off_the_dataclass():
    values = [c for c in _package_classes() if issubclass(c, Frozen) and dataclasses.is_dataclass(c)]
    assert len(values) == 44
    for cls in values:
        assert cls._fields == tuple(f.name for f in dataclasses.fields(cls)), cls.__name__
        assert "__doc__" in vars(cls) and cls.__doc__, cls.__name__


def test_repr_is_the_dataclass_one():
    assert repr(And(P, Not(Q))) == "And(left=Atom(name='p'), right=Not(body=Atom(name='q')))"
    assert repr(Top()) == "Top()"
    assert repr(LawCheck("law", True)) == "LawCheck(name='law', ok=True, witness=None)"


def test_equality_needs_the_same_class():
    assert And(P, Q) == And(Atom("p"), Atom("q"))
    assert And(P, Q) != Or(P, Q)
    assert Top() == Top() and Top() != Bot()
    assert And(P, Q) != (P, Q)


def test_node_arguments_are_stored_as_tuples():
    assert Pred("P", [X]).args == (X,)
    assert type(Pred("P", [X]).args) is tuple
    assert Fun("f", [X]) == Fun("f", (X,))
    assert Pred(name="P", args=[X]) == Pred("P", (X,))


@pytest.mark.parametrize("cls, args", SAMPLES, ids=IDS)
def test_values_keep_what_the_frozen_dataclass_gave(cls, args):
    obj = cls(*args)
    fields = dataclasses.fields(obj)
    names = [f.name for f in fields]
    assert dataclasses.is_dataclass(obj)
    # repr: Name(field=value, ...), unless the class writes its own
    if "__repr__" not in vars(cls):
        shown = ", ".join(f"{n}={getattr(obj, n)!r}" for n in names)
        assert repr(obj) == f"{cls.__qualname__}({shown})"
    # equality and the hash read the field tuple
    assert obj == cls(*args) and hash(obj) == hash(cls(*args))
    assert hash(obj) == hash(_field_values(obj))
    # keyword and positional construction agree
    assert cls(**dict(zip(names, args))) == obj
    # a wrong number of fields is a TypeError
    with pytest.raises(TypeError):
        cls(*args, None)
    required = sum(f.default is dataclasses.MISSING for f in fields)
    if required:
        with pytest.raises(TypeError):
            cls(*args[:required - 1])
    # frozen: no assignment or deletion, of a field or anything else
    for name in (names[:1] or ["extra"]) + ["extra"]:
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(obj, name, None)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(obj, name)
    # replace builds through the constructor
    assert dataclasses.replace(obj) == obj
    assert _field_values(dataclasses.replace(obj)) == _field_values(obj)


def test_defaults_fill_trailing_fields():
    assert LawCheck("law", True) == LawCheck("law", True, None) == LawCheck(name="law", ok=True)
    assert ReductionResult(P, P, ()).context is None
    with pytest.raises(TypeError, match="multiple values"):
        LawCheck("law", True, ok=False)
    with pytest.raises(TypeError, match="unexpected keyword"):
        LawCheck("law", True, wittness="w")
    with pytest.raises(TypeError, match="missing"):
        LawCheck(name="law")


def test_a_field_without_a_default_may_not_follow_one_with():
    with pytest.raises(TypeError, match="follows one with a default"):
        class Bad(Frozen):
            """Out of order."""

            first: int = 0
            second: int
