"""Command line interface.

Exit codes: 0 success, 2 argument or input error, 3 cap exceeded, 4 internal
structural violation. Output format and caps can also be set through the
GOLDENL_FORMAT and GOLDENL_CAP environment variables; explicit flags win.

Every subcommand needs words, classify and surface, loaded here. The flow,
render and stats layers are imported inside the subcommands that run them,
each by `from .x import ...`: a `from . import x` would read x off the lazy
package and load the whole library.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from .classify import classify_all
from .errors import CapExceededError, StructuralViolationError, VerticalDirectionError
from .field import GoldenVector
from .surface import (
    DEFAULT_SIZE, DEFAULT_STROKE, FRAMES, GOLDEN_L_FRAME, WEIERSTRASS_LABELS, surface_description
)
from .words import (
    DEFAULT_INVERSION_CAP,
    format_word,
    is_base_word,
    parse_word,
    reduce_word,
    vector_to_word,
    word_to_vector,
)

FORMATS = ("json", "text", "csv")

SCHEMA_CLASSIFICATION = "goldenl.classification-report.v1"
SCHEMA_VECTOR = "goldenl.vector.v1"
SCHEMA_REDUCTION = "goldenl.word-reduction.v1"
SCHEMA_TRAJECTORY = "goldenl.trajectory.v1"
SCHEMA_STATS = "goldenl.stats.v1"
SCHEMA_SURFACE = "goldenl.surface.v1"
SCHEMA_RENDER = "goldenl.render-result.v1"


def _env_format() -> str:
    value = os.environ.get("GOLDENL_FORMAT", "text")
    if value not in FORMATS:
        raise ValueError(f"GOLDENL_FORMAT must be one of {FORMATS}, got {value!r}")
    return value


def _cap_or(args: argparse.Namespace, default: int | None) -> int | None:
    """The --cap flag, else GOLDENL_CAP, else default; a negative cap is an input error."""
    cap = args.cap
    if cap is None:
        value = os.environ.get("GOLDENL_CAP")
        if value is None:
            return default
        try:
            cap = int(value)
        except ValueError:
            raise ValueError(f"GOLDENL_CAP must be a nonnegative integer, got {value!r}") from None
    if cap < 0:
        raise ValueError(f"cap must be nonnegative, got {cap}")
    return cap


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default=None, help="output format")
    capped = argparse.ArgumentParser(add_help=False, parents=[common])
    capped.add_argument("--cap", type=int, default=None, help="iteration/step cap override")

    parser = argparse.ArgumentParser(
        prog="goldenl",
        description="Classify and simulate golden L directions named by words over 0-3.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", parents=[common], help="verdicts for the five midpoints")
    p.add_argument("word")
    p.add_argument("midpoint", nargs="?", type=int, default=None)

    p = sub.add_parser("word2vec", parents=[common], help="direction vector of a word")
    p.add_argument("word")

    p = sub.add_parser("vec2word", parents=[capped], help="word of an exact direction vector")
    p.add_argument("xa", help="rational part of x")
    p.add_argument("xb", help="phi coefficient of x")
    p.add_argument("ya", help="rational part of y")
    p.add_argument("yb", help="phi coefficient of y")

    p = sub.add_parser("reduce", parents=[common], help="base word of a word")
    p.add_argument("word")

    p = sub.add_parser("simulate", parents=[capped], help="exact flow from a midpoint")
    p.add_argument("word")
    p.add_argument("midpoint", nargs="?", type=int, default=None)
    p.add_argument(
        "--classify",
        action="store_true",
        help="flow all five midpoints and report verdicts instead of one trajectory",
    )

    p = sub.add_parser("render", parents=[capped], help="write an SVG of a trajectory")
    p.add_argument("word")
    p.add_argument("midpoint", type=int)
    p.add_argument("--frame", choices=FRAMES, default=GOLDEN_L_FRAME)
    p.add_argument("--out", required=True, help="output SVG path")
    p.add_argument("--size", type=int, default=DEFAULT_SIZE)
    p.add_argument("--stroke", type=float, default=DEFAULT_STROKE)

    p = sub.add_parser("stats", parents=[capped], help="base-word reduction statistics")
    p.add_argument("--max-n", type=int, required=True, help="table covers lengths m = 0, 2, ..., 2n")
    p.add_argument("--mode", choices=("exact", "brute", "mc"), default="exact")
    p.add_argument("--samples", type=int, default=100_000, help="Monte Carlo sample count per row")
    p.add_argument("--seed", type=int, default=0, help="Monte Carlo RNG seed")

    sub.add_parser("surface", parents=[common], help="JSON description of the golden L")

    return parser


def _emit(text: str) -> None:
    sys.stdout.write(text)
    if not text.endswith("\n"):
        sys.stdout.write("\n")


def _emit_json(obj: dict) -> None:
    _emit(json.dumps(obj, indent=2))


def _check_midpoint(label: int) -> int:
    if label not in WEIERSTRASS_LABELS:
        raise ValueError(f"midpoint label must be 1..5, got {label}")
    return label


def _vector_json(v: GoldenVector) -> dict:
    return {"x": v.x.to_json_dict(), "y": v.y.to_json_dict()}


def _classification_payload(word, verdicts, tau, method, midpoint=None) -> dict:
    payload: dict = {
        "schema": SCHEMA_CLASSIFICATION,
        "word": format_word(word),
        "tau": None if tau is None else list(tau.images),
        "method": method,
    }
    if midpoint is None:
        payload["verdicts"] = {str(l): verdicts[l].value for l in WEIERSTRASS_LABELS}
    else:
        payload["midpoint"] = midpoint
        payload["verdicts"] = {str(midpoint): verdicts[midpoint].value}
    return payload


def _print_classification(payload: dict, fmt: str, tau_string: str | None) -> None:
    if fmt == "json":
        _emit_json(payload)
    elif fmt == "csv":
        lines = ["midpoint,verdict"]
        lines += [f"{label},{verdict}" for label, verdict in sorted(payload["verdicts"].items())]
        _emit("\n".join(lines))
    else:
        lines = [f"word: {payload['word']}"]
        if tau_string is not None:
            lines.append(f"tau: {tau_string}")
        for label, verdict in sorted(payload["verdicts"].items()):
            lines.append(f"midpoint {label}: {verdict}")
        _emit("\n".join(lines))


def _cmd_classify(args: argparse.Namespace, fmt: str) -> int:
    word = parse_word(args.word)
    midpoint = None if args.midpoint is None else _check_midpoint(args.midpoint)
    report = classify_all(word)
    payload = _classification_payload(word, report.verdicts, report.tau, "algorithm", midpoint)
    _print_classification(payload, fmt, report.tau.cycle_string())
    return 0


def _cmd_word2vec(args: argparse.Namespace, fmt: str) -> int:
    word = parse_word(args.word)
    v = word_to_vector(word)
    if fmt == "json":
        _emit_json({"schema": SCHEMA_VECTOR, "word": format_word(word), "vector": _vector_json(v)})
    elif fmt == "csv":
        _emit(",".join(v.quadruple()))
    else:
        _emit(f"{v.x}, {v.y}")
    return 0


def _cmd_vec2word(args: argparse.Namespace, fmt: str) -> int:
    try:
        v = GoldenVector.from_rationals(
            Fraction(args.xa), Fraction(args.xb), Fraction(args.ya), Fraction(args.yb)
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"coefficients must be rationals like 3, -2, or 1/2: {exc}") from exc
    word = vector_to_word(v, cap=_cap_or(args, DEFAULT_INVERSION_CAP))
    if fmt == "json":
        _emit_json({"schema": SCHEMA_VECTOR, "word": format_word(word), "vector": _vector_json(v)})
    else:
        _emit(format_word(word))
    return 0


def _cmd_reduce(args: argparse.Namespace, fmt: str) -> int:
    word = parse_word(args.word)
    base = reduce_word(word)
    if fmt == "json":
        _emit_json(
            {
                "schema": SCHEMA_REDUCTION,
                "word": format_word(word),
                "base_word": format_word(base),
                "is_base_word": is_base_word(word),
            }
        )
    else:
        _emit(format_word(base))
    return 0


def _cmd_simulate(args: argparse.Namespace, fmt: str) -> int:
    from .flow import DEFAULT_STEP_CAP, oracle_classify, trace

    word = parse_word(args.word)
    label = None if args.midpoint is None else _check_midpoint(args.midpoint)
    cap = _cap_or(args, DEFAULT_STEP_CAP)
    if args.classify:
        verdicts = oracle_classify(word, cap=cap)
        payload = _classification_payload(word, verdicts, None, "flow-oracle", label)
        _print_classification(payload, fmt, None)
        return 0
    if label is None:
        raise ValueError("simulate needs a midpoint label unless --classify is given")
    trajectory = trace(label, word, cap=cap)
    if fmt == "json":
        payload = trajectory.to_json_dict(word)
        payload["schema"] = SCHEMA_TRAJECTORY
        _emit_json(payload)
    else:
        lines = [
            f"word: {format_word(word)}",
            f"midpoint: {label}",
            f"direction: {trajectory.direction}",
            f"outcome: {trajectory.outcome.value}",
            f"segments: {trajectory.segment_count}",
            f"holonomy: {trajectory.holonomy}",
        ]
        if trajectory.cone_point is not None:
            lines.append(f"cone point: {trajectory.cone_point}")
        _emit("\n".join(lines))
    return 0


def _cmd_render(args: argparse.Namespace, fmt: str) -> int:
    from .flow import DEFAULT_STEP_CAP
    from .render import render_trajectory

    word = parse_word(args.word)
    label = _check_midpoint(args.midpoint)
    cap = _cap_or(args, DEFAULT_STEP_CAP)
    svg = render_trajectory(word, label, args.frame, args.size, args.stroke, cap)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(svg)
    segments = svg.count('<line class="trajectory"')
    if fmt == "json":
        _emit_json(
            {
                "schema": SCHEMA_RENDER,
                "word": format_word(word),
                "midpoint": label,
                "frame": args.frame,
                "out": args.out,
                "segments": segments,
            }
        )
    else:
        _emit(f"wrote {args.out} ({args.frame} frame, {segments} segments)")
    return 0


def _cmd_stats(args: argparse.Namespace, fmt: str) -> int:
    from .stats import DEFAULT_ENUMERATION_LIMIT, brute_force_profile, exact_profile, monte_carlo_empty_rate

    if args.max_n < 0:
        raise ValueError(f"--max-n must be nonnegative, got {args.max_n}")
    if args.cap is not None and args.mode != "brute":
        raise ValueError(f"--cap applies only to --mode brute, not --mode {args.mode}")
    limit = _cap_or(args, DEFAULT_ENUMERATION_LIMIT) if args.mode == "brute" else None
    lengths = [2 * n for n in range(args.max_n + 1)]
    rows: list[dict] = []
    if args.mode == "mc":
        for m in lengths:
            est = monte_carlo_empty_rate(m, samples=args.samples, seed=args.seed)
            rows.append(
                {
                    "m": m,
                    "samples": est.samples,
                    "estimate": est.estimate,
                    "stderr": est.stderr,
                    "seed": est.seed,
                }
            )
        header = "m,samples,estimate,stderr,seed"
        to_csv = lambda r: f"{r['m']},{r['samples']},{r['estimate']:.8f},{r['stderr']:.8f},{r['seed']}"
        to_text = lambda r: f"m={r['m']:>3}  estimate={r['estimate']:.6f}  stderr={r['stderr']:.6f}"
    else:
        for m in lengths:
            profile = (
                exact_profile(m)
                if args.mode == "exact"
                else brute_force_profile(m, limit=limit)
            )
            count = profile.counts.get(0, 0)
            probability = profile.probability(0)
            rows.append(
                {
                    "m": m,
                    "count": str(count),
                    "probability": f"{probability.numerator}/{probability.denominator}",
                    "probability_decimal": float(probability),
                }
            )
        header = "m,count,probability,probability_decimal"
        to_csv = lambda r: f"{r['m']},{r['count']},{r['probability']},{r['probability_decimal']!r}"
        to_text = (
            lambda r: f"m={r['m']:>3}  count={r['count']:>12}  "
            f"probability={r['probability']}  ({r['probability_decimal']:.6g})"
        )
    if fmt == "json":
        _emit_json({"schema": SCHEMA_STATS, "mode": args.mode, "rows": rows})
    elif fmt == "csv":
        _emit("\n".join([header] + [to_csv(r) for r in rows]))
    else:
        _emit("\n".join(to_text(r) for r in rows))
    return 0


def _cmd_surface(args: argparse.Namespace, fmt: str) -> int:
    description = surface_description()
    if fmt == "json":
        description = {"schema": SCHEMA_SURFACE, **description}
        _emit_json(description)
    else:
        lines = [
            f"vertices: {len(description['vertices'])}",
            f"identifications: {', '.join(i['name'] for i in description['identifications'])}",
            f"weierstrass points: {', '.join(sorted(description['weierstrass_points']))}",
        ]
        _emit("\n".join(lines))
    return 0


_COMMANDS = {
    "classify": _cmd_classify,
    "word2vec": _cmd_word2vec,
    "vec2word": _cmd_vec2word,
    "reduce": _cmd_reduce,
    "simulate": _cmd_simulate,
    "render": _cmd_render,
    "stats": _cmd_stats,
    "surface": _cmd_surface,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        fmt = args.format if args.format is not None else _env_format()
        return _COMMANDS[args.command](args, fmt)
    except (ValueError, VerticalDirectionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"error: {_word_of(args)}{exc}", file=sys.stderr)
        return 3
    except StructuralViolationError as exc:
        print(f"internal error: {_word_of(args)}{exc}", file=sys.stderr)
        return 4


def _word_of(args: argparse.Namespace) -> str:
    """Names the word a flow error came from; the flow itself sees only a direction."""
    return f"word {args.word}: " if hasattr(args, "word") else ""


def run() -> None:
    sys.exit(main())
