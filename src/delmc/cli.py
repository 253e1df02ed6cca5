"""Command-line front end: evaluate, update, reduce, check laws, check sheaves.

Exit codes: 0 success, 1 a requested check failed (law suites, self test,
sheaf verdict), 2 bad input (files, schemas, formulas, names), 3 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from . import laws as laws_mod
from .errors import (
    ArityMismatch,
    CapExceeded,
    CyclicPrecondition,
    DelmcError,
    EmptyGroup,
    NotReducible,
    OpenPrecondition,
    ParseError,
    SchemaError,
    ShadowedVariable,
    UnknownAgent,
    UnknownAtom,
    UnknownEvent,
    UnknownSymbol,
    UnresolvedEventModel,
)
from .formulas import Formula, FormulaInContext, as_sentence
from .frames import KripkeFrame
from .modelio import dump_model, load_file, load_sheaf_frames
from .models import EventModel, KripkeModel, extension, product_update
from .parser import parse_formula, print_formula
from .reduction import reduce_formula
from .sheaves import SheafModel, interp_formula, is_kripke_sheaf, pullback_update

_USER_ERRORS = (
    ParseError,
    SchemaError,
    UnknownAtom,
    UnknownAgent,
    UnknownEvent,
    UnknownSymbol,
    UnresolvedEventModel,
    OpenPrecondition,
    CyclicPrecondition,
    ShadowedVariable,
    ArityMismatch,
    EmptyGroup,
    CapExceeded,
    NotReducible,
)


class _CliUserError(Exception):
    """Input-phase failure; always maps to exit code 2."""


def _load(path: str):
    """Load one model file; every load-time failure is the user's to fix."""
    try:
        return load_file(path)
    except DelmcError as exc:
        raise _CliUserError(f"{path}: {exc}") from None
    except OSError as exc:
        raise _CliUserError(str(exc)) from None


def _load_registry(specs: Sequence[str]) -> Dict[str, EventModel]:
    """Event models from NAME=PATH specs (or PATH with a declared name)."""
    registry: Dict[str, EventModel] = {}
    for spec in specs or ():
        if "=" in spec:
            name, path = spec.split("=", 1)
        else:
            name, path = None, spec
        declared, model = _load(path)
        if not isinstance(model, EventModel):
            raise _CliUserError(f"{path}: expected an event-model document")
        key = name or declared
        if not key:
            raise _CliUserError(
                f"{path}: document has no name; register it as NAME={path}"
            )
        if key in registry:
            raise _CliUserError(f"event model name {key!r} given twice")
        registry[key] = model
    return registry


def _parse(text: str, registry: Dict[str, EventModel]):
    try:
        return parse_formula(text, event_models=registry)
    except DelmcError as exc:
        raise _CliUserError(f"formula: {exc}") from None


def _in_context(phi: Union[Formula, FormulaInContext], model) -> FormulaInContext:
    """Adapt a parsed formula to a sheaf model's first-order layer."""
    if isinstance(phi, FormulaInContext):
        return phi
    try:
        return as_sentence(phi)
    except DelmcError as exc:
        raise _CliUserError(f"formula: {exc}") from None


def _emit(args, payload: Dict[str, object], text_lines: List[str]) -> None:
    if getattr(args, "format", "text") == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in text_lines:
            print(line)


# ---------------------------------------------------------------------------
# eval


def _cmd_eval(args) -> int:
    registry = _load_registry(args.events)
    _, model = _load(args.model)
    if isinstance(model, EventModel):
        raise _CliUserError(f"{args.model}: cannot evaluate on an event model")
    phi = _parse(args.formula, registry)

    if isinstance(model, KripkeModel):
        if isinstance(phi, FormulaInContext):
            raise _CliUserError(
                "formula: a context header needs a sheaf model, not a relational one"
            )
        ext = extension(model, phi, registry)
        shown = print_formula(phi)
        context: Tuple[str, ...] = ()
    else:
        assert isinstance(model, SheafModel)
        fic = _in_context(phi, model)
        ext = interp_formula(model, fic, registry)
        shown = print_formula(fic)
        context = fic.context

    carrier = ext.carrier
    members = ext.members_in_order()
    payload: Dict[str, object] = {
        "formula": shown,
        "carrier": list(carrier.elements),
        "extension": members,
    }
    lines = [f"formula: {shown}"]
    if context:
        lines.append(f"context: {', '.join(context)}")
    if args.world is not None:
        if args.world not in carrier.as_set:
            raise _CliUserError(
                f"point {args.world!r} is not in the carrier "
                f"({', '.join(carrier.elements)})"
            )
        value = args.world in ext.members
        payload["world"] = args.world
        payload["value"] = value
        lines.append(f"{args.world}: {'true' if value else 'false'}")
    else:
        lines.append(
            f"extension ({len(members)} of {len(carrier.elements)}): "
            + (" ".join(members) if members else "(empty)")
        )
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# update


def _dot_frame(frame: KripkeFrame, fibers: Optional[Mapping[str, Sequence[str]]] = None) -> str:
    out = ["digraph {", "  rankdir=LR;", '  node [shape=ellipse, fontname="Helvetica"];']
    for w in frame.carrier:
        if fibers:
            members = ", ".join(fibers.get(w, []))
            out.append(f'  "{w}" [label="{w}\\n{{{members}}}"];')
        else:
            out.append(f'  "{w}";')
    edges: Dict[Tuple[str, str], List[str]] = {}
    for a in frame.agents:
        for w, v in sorted(frame.rel(a).pairs):
            edges.setdefault((w, v), []).append(a)
    for (w, v), agents in sorted(edges.items()):
        out.append(f'  "{w}" -> "{v}" [label="{",".join(agents)}"];')
    out.append("}")
    return "\n".join(out) + "\n"


def _cmd_update(args) -> int:
    registry = _load_registry(args.events)
    model_name, model = _load(args.model)
    ev_name, ev_model = _load(args.event_model)
    if not isinstance(ev_model, EventModel):
        raise _CliUserError(f"{args.event_model}: expected an event-model document")
    if isinstance(model, EventModel):
        raise _CliUserError(f"{args.model}: cannot update an event model")
    if ev_name and ev_name not in registry:
        registry[ev_name] = ev_model

    # the world report reads the projections p_x, p_e, which both layers carry
    sizes, individuals, fibers = ("", ""), {}, None
    if isinstance(model, KripkeModel):
        upd = product_update(model, ev_model, registry)
        worlds, new_worlds, extents = model.frame, upd.updated.frame, dict(upd.pre_extents)
    else:
        upd = pullback_update(model, ev_model, registry)
        worlds, new_worlds, extents = model.sheaf.base, upd.updated.sheaf.base, upd.extents
        inds, new_inds = model.sheaf.total.carrier, upd.updated.sheaf.total.carrier
        sizes = (f", individuals: {len(inds)}", f", individuals: {len(new_inds)}")
        individuals = {"updated_individuals": [
            {"individual": d, "source": inds.elements[a], "event": ev_model.events[k]}
            for d, a, k in zip(new_inds, *upd.parts(1))
        ]}
        fibers = upd.updated.sheaf.fibers
    events = ev_model.events
    extents = {e: extents[e].members_in_order() for e in events}
    origins = [(w, upd.p_x(w), upd.p_e(w)) for w in new_worlds.carrier]
    lines = [f"source worlds: {len(worlds.carrier)}{sizes[0]}", f"events: {', '.join(events)}"]
    lines += [f"  precondition extent of {e}: {' '.join(extents[e]) or '(empty)'}" for e in events]
    lines.append(f"updated worlds: {len(new_worlds.carrier)}{sizes[1]}")
    lines += [f"  {w} <- {old} via {e}" for w, old, e in origins]
    payload: Dict[str, object] = {
        "source_worlds": list(worlds.carrier.elements),
        "events": list(events),
        "precondition_extents": extents,
        "updated_worlds": [{"world": w, "source": old, "event": e} for w, old, e in origins],
        **individuals,
    }
    if args.out:
        doc = dump_model(upd.updated, name=model_name and f"{model_name}-updated")
        with open(args.out, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2)
            handle.write("\n")
        lines.append(f"updated model written to {args.out}")
        payload["out"] = args.out
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(_dot_frame(new_worlds, fibers))
        lines.append(f"dot graph written to {args.dot}")
        payload["dot"] = args.dot
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# reduce


def _cmd_reduce(args) -> int:
    registry = _load_registry(args.events)
    model = None
    if args.model:
        _, model = _load(args.model)
        if isinstance(model, EventModel):
            raise _CliUserError(f"{args.model}: cannot evaluate on an event model")
    phi = _parse(args.formula, registry)
    if isinstance(phi, FormulaInContext) and model is not None and not isinstance(model, SheafModel):
        raise _CliUserError(
            "formula: a context header needs a sheaf model, not a relational one"
        )
    result = reduce_formula(phi, model=model, registry=registry)

    def shown(f: Formula) -> str:
        if result.context is not None:
            return print_formula(FormulaInContext(result.context, f))
        return print_formula(f)

    lines = [f"input: {shown(result.start)}"]
    if args.trace:
        for i, step in enumerate(result.steps, start=1):
            lines.append(f"  {i}. {step.rule}: {shown(step.result)}")
    lines.append(f"result: {shown(result.result)}")
    lines.append(f"steps: {result.step_count}")
    verified = model is not None
    lines.append(
        "verified: every step preserved the extension"
        if verified
        else "verified: no (no model given)"
    )
    payload = {
        "input": shown(result.start),
        "result": shown(result.result),
        "steps": [
            {"rule": s.rule, "result": shown(s.result)} for s in result.steps
        ],
        "verified": verified,
    }
    _emit(args, payload, lines)
    return 0


# ---------------------------------------------------------------------------
# laws


def _cmd_laws(args) -> int:
    if args.self_test:
        report = laws_mod.self_test(seed=args.seed)
        if args.format == "json":
            print(
                json.dumps(
                    {"caught": report.caught, "tried": report.tried, "witness": report.witness},
                    indent=2,
                )
            )
        else:
            verdict = "caught" if report.caught else "MISSED"
            print(f"self-test: planted wrong law {verdict} after {report.tried} cases")
            if report.witness:
                print(f"  refuting triple: {report.witness}")
        return 0 if report.caught else 1

    names = args.suite or list(laws_mod.SUITES)
    for name in names:
        if name not in laws_mod.SUITES:
            raise _CliUserError(
                f"unknown suite {name!r}; known: {', '.join(laws_mod.SUITES)}"
            )
    reports = [
        laws_mod.run_suite(name, seed=args.seed + i, cases=args.cases, max_size=args.max_size)
        for i, name in enumerate(names)
    ]
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "suite": r.suite,
                        "cases": r.cases,
                        "seconds": round(r.seconds, 3),
                        "ok": r.ok,
                        "failures": [list(f) for f in r.failures],
                    }
                    for r in reports
                ],
                indent=2,
            )
        )
    else:
        for r in reports:
            print(r.summary())
            for case, witness in r.failures[:args.max_failures]:
                print(f"  FAIL {case}: {witness}")
            extra = len(r.failures) - args.max_failures
            if extra > 0:
                print(f"  ... and {extra} more")
        total_failures = sum(len(r.failures) for r in reports)
        print(
            "all suites ok"
            if total_failures == 0
            else f"FAILED: {total_failures} failure(s) across {sum(1 for r in reports if not r.ok)} suite(s)"
        )
    return 0 if all(r.ok for r in reports) else 1


# ---------------------------------------------------------------------------
# sheaf-check


def _cmd_sheaf_check(args) -> int:
    try:
        with open(args.model, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except OSError as exc:
        raise _CliUserError(str(exc)) from None
    except json.JSONDecodeError as exc:
        raise _CliUserError(f"{args.model}: not valid JSON ({exc})") from None
    try:
        total, base, proj = load_sheaf_frames(doc)
    except DelmcError as exc:
        raise _CliUserError(f"{args.model}: {exc}") from None
    chk = is_kripke_sheaf(total, base, proj)

    def yn(flag: bool) -> str:
        return "yes" if flag else "no"

    lines = [
        f"projection surjective: {yn(chk.surjective)}",
        f"projection bounded: {yn(chk.bounded)}",
        f"unique lifts: {yn(chk.unique_lift)}",
        f"diagonal bounded into the fibered square: {yn(chk.delta_bounded)}",
        f"characterization agrees: {yn(chk.characterization_agrees)}",
    ]
    if chk.is_sheaf:
        lines.append("verdict: this is a Kripke sheaf")
    else:
        lines.append(f"verdict: not a Kripke sheaf ({chk.failure})")
    payload = {
        "surjective": chk.surjective,
        "bounded": chk.bounded,
        "unique_lift": chk.unique_lift,
        "delta_bounded": chk.delta_bounded,
        "characterization_agrees": chk.characterization_agrees,
        "is_sheaf": chk.is_sheaf,
        "failure": chk.failure,
    }
    _emit(args, payload, lines)
    return 0 if chk.is_sheaf else 1


# ---------------------------------------------------------------------------
# wiring


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delmc",
        description=(
            "Finite-model checking for modal and dynamic epistemic logic: "
            "evaluate formulas, run product and pullback updates, rewrite "
            "dynamic operators away, and batch-verify the algebraic laws."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("text", "json"), default="text",
            help="output format (default text)",
        )

    def add_events(p):
        p.add_argument(
            "--events", action="append", metavar="NAME=PATH", default=[],
            help="register an event model for [NAME,e] operators (repeatable; "
            "bare PATH uses the document's declared name)",
        )

    p_eval = sub.add_parser("eval", help="evaluate a formula on a model")
    p_eval.add_argument("model", help="path to a kripke-model or sheaf-model JSON file")
    p_eval.add_argument("formula", help="formula text; use a 'ctx x, y |' header for first-order formulas")
    p_eval.add_argument("--world", help="report the truth value at one point instead of the extension")
    add_events(p_eval)
    add_format(p_eval)
    p_eval.set_defaults(fn=_cmd_eval)

    p_upd = sub.add_parser("update", help="update a model by an event model")
    p_upd.add_argument("model", help="path to a kripke-model or sheaf-model JSON file")
    p_upd.add_argument("event_model", help="path to an event-model JSON file")
    p_upd.add_argument("--out", help="write the updated model to this JSON file")
    p_upd.add_argument("--dot", help="write the updated frame as a Graphviz dot file")
    add_events(p_upd)
    add_format(p_upd)
    p_upd.set_defaults(fn=_cmd_update)

    p_red = sub.add_parser("reduce", help="rewrite dynamic operators away via the reduction laws")
    p_red.add_argument("formula", help="formula text")
    p_red.add_argument("--model", help="model file; every rewrite step is then verified on it")
    p_red.add_argument("--trace", action="store_true", help="print each rewrite step")
    add_events(p_red)
    add_format(p_red)
    p_red.set_defaults(fn=_cmd_reduce)

    p_laws = sub.add_parser("laws", help="run randomized law suites")
    p_laws.add_argument(
        "--suite", action="append", choices=tuple(laws_mod.SUITES), default=None,
        help="suite to run (repeatable; default: all)",
    )
    p_laws.add_argument("--seed", type=int, default=0, help="base random seed (default 0)")
    p_laws.add_argument("--cases", type=int, default=None, help="cases per suite (default: suite-specific)")
    p_laws.add_argument("--max-size", type=int, default=None, help="largest carrier size to generate")
    p_laws.add_argument(
        "--max-failures", type=int, default=5,
        help="failures to print per suite in text mode (default 5)",
    )
    p_laws.add_argument(
        "--self-test", action="store_true",
        help="check the harness catches a deliberately wrong law; exits 0 only if caught",
    )
    add_format(p_laws)
    p_laws.set_defaults(fn=_cmd_laws)

    p_shf = sub.add_parser("sheaf-check", help="diagnose the sheaf conditions of a sheaf-model file")
    p_shf.add_argument("model", help="path to a sheaf-model JSON file")
    add_format(p_shf)
    p_shf.set_defaults(fn=_cmd_sheaf_check)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except _CliUserError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DelmcError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
