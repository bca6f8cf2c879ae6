"""Command line interface.

Exit codes: 0 success, 2 argument or input error, 3 cap exceeded, 4 internal
structural violation. Output format and caps can also be set through the
GOLDENL_FORMAT and GOLDENL_CAP environment variables; explicit flags win.

Each subcommand returns (payload, text, csv): a function that builds the JSON
object, the text form, and the CSV form or None; main writes it once.

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
    DEFAULT_SIZE, DEFAULT_STROKE, FRAMES, GOLDEN_L_FRAME, WEIERSTRASS_LABELS, surface_description, weierstrass_point,
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


def _write(fmt: str, payload, text: str, csv: str | None) -> None:
    """Print a subcommand's result once, in `fmt`; one without a CSV form prints its text."""
    if fmt == "json":
        text = json.dumps(payload(), indent=2)
    elif fmt == "csv" and csv is not None:
        text = csv
    print(text)


def _check_midpoint(label: int) -> int:
    weierstrass_point(label)  # raises ValueError for a bad label
    return label


def _vector_payload(word, v: GoldenVector):
    return lambda: {
        "schema": SCHEMA_VECTOR,
        "word": format_word(word),
        "vector": {"x": v.x.to_json_dict(), "y": v.y.to_json_dict()},
    }


def _classification_payload(word, verdicts, tau, method, midpoint=None) -> tuple:
    """A classification's JSON payload, text and CSV; the text names tau when there is one."""
    labels = WEIERSTRASS_LABELS if midpoint is None else (midpoint,)
    rows = [(label, verdicts[label].value) for label in labels]
    payload: dict = {
        "schema": SCHEMA_CLASSIFICATION,
        "word": format_word(word),
        "tau": None if tau is None else list(tau.images),
        "method": method,
    }
    if midpoint is not None:
        payload["midpoint"] = midpoint
    payload["verdicts"] = {str(label): verdict for label, verdict in rows}
    text = [f"word: {payload['word']}"]
    if tau is not None:
        text.append(f"tau: {tau.cycle_string()}")
    text += [f"midpoint {label}: {verdict}" for label, verdict in rows]
    csv = ["midpoint,verdict"] + [f"{label},{verdict}" for label, verdict in rows]
    return lambda: payload, "\n".join(text), "\n".join(csv)


def _cmd_classify(args: argparse.Namespace) -> tuple:
    word = parse_word(args.word)
    midpoint = None if args.midpoint is None else _check_midpoint(args.midpoint)
    report = classify_all(word)
    return _classification_payload(word, report.verdicts, report.tau, "algorithm", midpoint)


def _cmd_word2vec(args: argparse.Namespace) -> tuple:
    word = parse_word(args.word)
    v = word_to_vector(word)
    return _vector_payload(word, v), f"{v.x}, {v.y}", ",".join(v.quadruple())


def _cmd_vec2word(args: argparse.Namespace) -> tuple:
    try:
        v = GoldenVector.from_rationals(
            Fraction(args.xa), Fraction(args.xb), Fraction(args.ya), Fraction(args.yb)
        )
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"coefficients must be rationals like 3, -2, or 1/2: {exc}") from exc
    word = vector_to_word(v, cap=_cap_or(args, DEFAULT_INVERSION_CAP))
    return _vector_payload(word, v), format_word(word), None


def _cmd_reduce(args: argparse.Namespace) -> tuple:
    word = parse_word(args.word)
    base = reduce_word(word)
    payload = lambda: {
        "schema": SCHEMA_REDUCTION,
        "word": format_word(word),
        "base_word": format_word(base),
        "is_base_word": is_base_word(word),
    }
    return payload, format_word(base), None


def _cmd_simulate(args: argparse.Namespace) -> tuple:
    from .flow import DEFAULT_STEP_CAP, oracle_classify, trace

    word = parse_word(args.word)
    label = None if args.midpoint is None else _check_midpoint(args.midpoint)
    cap = _cap_or(args, DEFAULT_STEP_CAP)
    if args.classify:
        return _classification_payload(word, oracle_classify(word, cap=cap), None, "flow-oracle", label)
    if label is None:
        raise ValueError("simulate needs a midpoint label unless --classify is given")
    trajectory = trace(label, word, cap=cap)
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
    # The JSON form alone replays the trajectory's points.
    payload = lambda: {**trajectory.to_json_dict(word), "schema": SCHEMA_TRAJECTORY}
    return payload, "\n".join(lines), None


def _cmd_render(args: argparse.Namespace) -> tuple:
    from .flow import DEFAULT_STEP_CAP
    from .render import render_trajectory

    word = parse_word(args.word)
    label = _check_midpoint(args.midpoint)
    cap = _cap_or(args, DEFAULT_STEP_CAP)
    svg = render_trajectory(word, label, args.frame, args.size, args.stroke, cap)
    with open(args.out, "w", encoding="utf-8") as handle:
        handle.write(svg)
    segments = svg.count('<line class="trajectory"')
    payload = lambda: {
        "schema": SCHEMA_RENDER,
        "word": format_word(word),
        "midpoint": label,
        "frame": args.frame,
        "out": args.out,
        "segments": segments,
    }
    return payload, f"wrote {args.out} ({args.frame} frame, {segments} segments)", None


def _cmd_stats(args: argparse.Namespace) -> tuple:
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
    payload = lambda: {"schema": SCHEMA_STATS, "mode": args.mode, "rows": rows}
    return payload, "\n".join(map(to_text, rows)), "\n".join([header, *map(to_csv, rows)])


def _cmd_surface(args: argparse.Namespace) -> tuple:
    description = surface_description()
    lines = [
        f"vertices: {len(description['vertices'])}",
        f"identifications: {', '.join(i['name'] for i in description['identifications'])}",
        f"weierstrass points: {', '.join(sorted(description['weierstrass_points']))}",
    ]
    return lambda: {"schema": SCHEMA_SURFACE, **description}, "\n".join(lines), None


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
        # Resolved first, so a bad GOLDENL_FORMAT exits 2 before render writes a file.
        fmt = args.format if args.format is not None else _env_format()
        _write(fmt, *_COMMANDS[args.command](args))
        return 0
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
