"""Command line interface.

Four subcommands cover the whole pipeline:

  eval       value of a state on an expression in the generators
  check      positivity / decreasing / essential / singular verdicts
  extend     build a measure extension of a sequence's product state
  decompose  split a state into essential and singular parts

Exit codes: 0 the requested property holds or the command succeeded,
1 the property fails, 2 malformed input, 3 the stored truncation depth
is too small, 4 the truncation window cannot settle the question,
5 internal error: an unexpected exception, such as a failed eigensolver
or exhausted memory, with its traceback and message on stderr.
All output is deterministic: rerunning a command on the same inputs
produces byte-identical files and stdout.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import traceback

import numpy as np

from .density import (
    EQUALITY_TOL,
    PSD_TOL_SCALE,
    StateHandle,
    classify,
    decompose,
    state_eval,
    trace_profile_csv,
)
from .errors import CoefficientRangeError, HorizonError, SchemaError, UndeterminedError
from .measures import CircleMeasure
from .product_states import (
    UnitVectorSequence,
    extend,
    period,
    rephase,
)
from .word_algebra import parse_expression

_OVERFLOW = "the state's entries overflow: a result is not a finite number"


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SchemaError(f"cannot read {path}: {exc.strerror or exc}") from None
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from None


def _json_text(payload) -> str:
    """Indented JSON with sorted keys.  A NaN or an infinity can only come
    from entries whose arithmetic overflows, so it is an input error."""
    try:
        return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False)
    except ValueError:
        raise CoefficientRangeError(_OVERFLOW) from None


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")


def _format_real(x: float) -> str:
    return f"{float(x) + 0.0:.15g}"


def _cmd_eval(args) -> int:
    handle = StateHandle.from_payload(_load_json(args.state))
    element = parse_expression(args.expression, handle.matrix.ctx.n)
    value = state_eval(handle.matrix, element)
    print(f"{_format_real(value.real)} {_format_real(value.imag)}")
    return 0


def _cmd_check(args) -> int:
    handle = StateHandle.from_payload(_load_json(args.state))
    matrix = handle.matrix
    tol = args.tolerance
    if args.what in ("positivity", "decreasing"):
        check = matrix.is_positive if args.what == "positivity" else matrix.is_decreasing
        result = check(tol if tol is not None else PSD_TOL_SCALE)
        verdict = "pass" if result.ok else "fail"
        certificate = {
            "check": args.what,
            "ok": result.ok,
            "min_eigenvalues": list(result.min_eigenvalues),
            "tolerances": list(result.tolerances),
        }
    else:
        outcome = classify(matrix, tol if tol is not None else EQUALITY_TOL)
        if outcome.label == "undetermined":
            verdict = "undetermined"
        else:
            verdict = "pass" if outcome.label == args.what else "fail"
        certificate = {
            "check": args.what,
            "ok": verdict == "pass",
            "classification": outcome.label,
            "trace_profile": [float(x) for x in outcome.trace_profile],
        }
    text = _json_text(certificate)
    print(f"{args.what}: {verdict}")
    print(text)
    return {"pass": 0, "fail": 1, "undetermined": 4}[verdict]


def _cmd_extend(args) -> int:
    seq = UnitVectorSequence.from_payload(_load_json(args.sequence))
    measure = CircleMeasure.from_payload(_load_json(args.measure))
    warnings = [
        f"entries are exact only for word pairs up to level {args.depth}"
    ]
    p = period(seq)
    handle = extend(rephase(seq, p), measure, args.depth)
    _write(args.out, _json_text(handle.to_payload()))
    print(_json_text(
        {
            "classification": handle.classification,
            "depth": args.depth,
            "out": args.out,
            "period": p,
            "unique_extension": False,
            "warnings": warnings,
        }
    ))
    return 0


def _cmd_decompose(args) -> int:
    handle = StateHandle.from_payload(_load_json(args.state))
    tol = args.tolerance if args.tolerance is not None else EQUALITY_TOL
    result = decompose(handle.matrix, tol)
    if not np.isfinite(handle.matrix.trace_profile()).all():  # the CSV is not JSON
        raise CoefficientRangeError(_OVERFLOW)
    paths = {
        "essential": f"{args.out_prefix}.essential.json",
        "singular": f"{args.out_prefix}.singular.json",
        "profile": f"{args.out_prefix}.profile.csv",
    }
    texts = {
        "essential": _json_text(StateHandle(result.essential, "essential").to_payload()),
        "singular": _json_text(StateHandle(result.singular, "singular").to_payload()),
        "profile": trace_profile_csv(handle.matrix),
    }
    report = _json_text(
        {
            "essential_mass": result.essential.trace(),
            "out": paths,
            "singular_mass": result.singular.trace(),
            "stabilization_step": result.stabilization_step,
        }
    )
    for part, text in texts.items():
        _write(paths[part], text)
    print(report)
    return 0


def _at_least(low, convert=int):
    """argparse type: a finite number of at least ``low``, read by ``convert``."""
    def parse(text: str):
        value = convert(text)
        if not (math.isfinite(value) and value >= low):
            raise argparse.ArgumentTypeError(f"must be a finite number >= {low}")
        return value
    parse.__name__ = convert.__name__
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fockstate",
        description="States on the truncated full Fock space: evaluate, "
        "check, extend, decompose.",
    )
    parser.add_argument(
        "--threads",
        type=_at_least(1),
        default=1,
        help="accepted for pipeline compatibility; evaluation is "
        "single-threaded",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a state on an expression")
    p_eval.add_argument("state", help="state JSON file")
    p_eval.add_argument("expression", help="expression in the generators, "
                        "e.g. 'v1 v2*' or '(0.5+0.5i) v[1,2]'")
    p_eval.set_defaults(func=_cmd_eval)

    p_check = sub.add_parser("check", help="check a property of a state")
    p_check.add_argument("state", help="state JSON file")
    p_check.add_argument(
        "--what",
        required=True,
        choices=["positivity", "decreasing", "essential", "singular"],
        help="property to check",
    )
    p_check.add_argument(
        "--tolerance",
        type=_at_least(0.0, float),
        default=None,
        help="override the default numeric tolerance of the check",
    )
    p_check.set_defaults(func=_cmd_check)

    p_extend = sub.add_parser(
        "extend", help="extend a sequence's product state by a measure"
    )
    p_extend.add_argument("sequence", help="unit-vector sequence JSON file")
    p_extend.add_argument("measure", help="circle measure JSON file")
    p_extend.add_argument(
        "--depth", type=_at_least(0), required=True,
        help="truncation depth of the built state",
    )
    p_extend.add_argument(
        "--out", required=True, help="path for the state JSON output"
    )
    p_extend.set_defaults(func=_cmd_extend)

    p_dec = sub.add_parser(
        "decompose", help="split a state into essential and singular parts"
    )
    p_dec.add_argument("state", help="state JSON file")
    p_dec.add_argument(
        "--out-prefix",
        required=True,
        help="prefix for the .essential.json, .singular.json and "
        ".profile.csv outputs",
    )
    p_dec.add_argument(
        "--tolerance",
        type=_at_least(0.0, float),
        default=None,
        help="override the stabilization tolerance",
    )
    p_dec.set_defaults(func=_cmd_decompose)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # The checks report overflow as input errors; numpy's warnings are noise.
        with np.errstate(all="ignore"):
            return args.func(args)
    except HorizonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except UndeterminedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"observed trace profile: {exc.trace_profile}", file=sys.stderr)
        return 4
    except np.linalg.LinAlgError as exc:
        # A ValueError subclass, but a failed solver, not malformed input.
        return _internal_error(exc)
    except (ValueError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        return _internal_error(exc)


def _internal_error(exc: Exception) -> int:
    """Report an unexpected exception; exit 1 would read as "the property
    fails", so it gets its own code."""
    traceback.print_exc(file=sys.stderr)
    print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
    return 5


if __name__ == "__main__":
    sys.exit(main())
