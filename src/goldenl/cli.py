"""Command line interface.

Exit codes: 0 success, 2 argument or input error, 3 cap exceeded, 4 internal
structural violation. Output format and caps can also be set through the
GOLDENL_FORMAT and GOLDENL_CAP environment variables; explicit flags win.

Each subcommand returns (payload, text, csv): a function that builds the JSON
object, the text form, and the CSV form or None; main writes it once.

A launch builds the parser of the subcommand it names alone. words and field
load here; classify, surface, flow, render and stats load where they run, each
by `from .x import ...` (a `from . import x` would read x off the lazy package
and load the whole library), so word2vec, vec2word, reduce and stats load
neither classify nor surface, and simulate and render load surface but not
classify. `json` is imported where it is used, by a
`--format json` run alone, and `fractions` by vec2word and stats alone.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from .errors import CapExceededError, StructuralViolationError
from .field import GoldenVector
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


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Given a subcommand's name, its parser alone, whose metavar names all eight
    so the usage line reads as the full parser's; otherwise all eight."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default=None, help="output format")
    capped = argparse.ArgumentParser(add_help=False, parents=[common])
    capped.add_argument("--cap", type=int, default=None, help="iteration/step cap override")

    parser = argparse.ArgumentParser(
        prog="goldenl",
        description="Classify and simulate golden L directions named by words over 0-3.",
    )
    single = command in _COMMANDS
    sub = parser.add_subparsers(dest="command", required=True, metavar=f"{{{','.join(_COMMANDS)}}}" if single else None)

    def add(name: str, parent: argparse.ArgumentParser, summary: str) -> argparse.ArgumentParser | None:
        return sub.add_parser(name, parents=[parent], help=summary) if not single or name == command else None

    if p := add("classify", common, "verdicts for the five midpoints"):
        p.add_argument("word")
        p.add_argument("midpoint", nargs="?", type=int, default=None)

    if p := add("word2vec", common, "direction vector of a word"):
        p.add_argument("word")

    if p := add("vec2word", capped, "word of an exact direction vector"):
        for axis in "xy":
            p.add_argument(f"{axis}a", help=f"rational part of {axis}")
            p.add_argument(f"{axis}b", help=f"phi coefficient of {axis}")

    if p := add("reduce", common, "base word of a word"):
        p.add_argument("word")

    if p := add("simulate", capped, "exact flow from a midpoint"):
        p.add_argument("word")
        p.add_argument("midpoint", nargs="?", type=int, default=None)
        p.add_argument(
            "--classify",
            action="store_true",
            help="flow all five midpoints and report verdicts instead of one trajectory",
        )

    if p := add("render", capped, "write an SVG of a trajectory"):
        from .surface import DEFAULT_SIZE, DEFAULT_STROKE, FRAMES, GOLDEN_L_FRAME

        p.add_argument("word")
        p.add_argument("midpoint", type=int)
        p.add_argument("--frame", choices=FRAMES, default=GOLDEN_L_FRAME)
        p.add_argument("--out", required=True, help="output SVG path")
        p.add_argument("--size", type=int, default=DEFAULT_SIZE)
        p.add_argument("--stroke", type=float, default=DEFAULT_STROKE)

    if p := add("stats", capped, "base-word reduction statistics"):
        p.add_argument("--max-n", type=int, required=True, help="table covers lengths m = 0, 2, ..., 2n")
        p.add_argument("--mode", choices=("exact", "brute", "mc"), default="exact")
        p.add_argument("--samples", type=int, default=None, help="Monte Carlo sample count per row (default 100000)")
        p.add_argument("--seed", type=int, default=None, help="Monte Carlo RNG seed (default 0)")

    add("surface", common, "JSON description of the golden L")

    return parser


def _write(fmt: str, payload, text: str, csv: str | None) -> None:
    """Print a subcommand's result once, in `fmt`; one without a CSV form prints its text."""
    if fmt == "json":
        import json

        text = json.dumps(payload(), indent=2)
    elif fmt == "csv" and csv is not None:
        text = csv
    print(text)


def _check_midpoint(label: int) -> int:
    from .surface import weierstrass_point

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
    from .surface import WEIERSTRASS_LABELS

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
    from .classify import classify_all

    word = parse_word(args.word)
    midpoint = None if args.midpoint is None else _check_midpoint(args.midpoint)
    report = classify_all(word)
    return _classification_payload(word, report.verdicts, report.tau, "algorithm", midpoint)


def _cmd_word2vec(args: argparse.Namespace) -> tuple:
    word = parse_word(args.word)
    v = word_to_vector(word)
    return _vector_payload(word, v), f"{v.x}, {v.y}", ",".join(v.quadruple())


def _cmd_vec2word(args: argparse.Namespace) -> tuple:
    from fractions import Fraction

    try:
        v = GoldenVector.from_rationals(*map(Fraction, (args.xa, args.xb, args.ya, args.yb)))
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
    from .stats import DEFAULT_ENUMERATION_LIMIT, _exact_profiles, brute_force_profile, monte_carlo_empty_rate

    if args.max_n < 0:
        raise ValueError(f"--max-n must be nonnegative, got {args.max_n}")
    for option, value, mode in (("--cap", args.cap, "brute"), ("--samples", args.samples, "mc"),
                                ("--seed", args.seed, "mc")):
        if value is not None and args.mode != mode:
            raise ValueError(f"{option} applies only to --mode {mode}, not --mode {args.mode}")
    lengths = range(0, 2 * args.max_n + 1, 2)
    if args.mode == "mc":
        samples = 100_000 if args.samples is None else args.samples
        estimates = (monte_carlo_empty_rate(m, samples=samples, seed=args.seed or 0) for m in lengths)
        rows = [
            {"m": e.word_length, "samples": e.samples, "estimate": e.estimate, "stderr": e.stderr, "seed": e.seed}
            for e in estimates
        ]
        header = "m,samples,estimate,stderr,seed"
        to_csv = lambda r: f"{r['m']},{r['samples']},{r['estimate']:.8f},{r['stderr']:.8f},{r['seed']}"
        to_text = lambda r: f"m={r['m']:>3}  estimate={r['estimate']:.6f}  stderr={r['stderr']:.6f}"
    else:
        if args.mode == "exact":
            profiles = itertools.islice(_exact_profiles(), 0, None, 2)
        else:
            limit = _cap_or(args, DEFAULT_ENUMERATION_LIMIT)
            over = next((m for m in lengths if m > limit), None)
            if over is not None:  # raise its cap error before enumerating any row
                brute_force_profile(over, limit=limit)
            profiles = (brute_force_profile(m, limit=limit) for m in lengths)
        rows = []
        for m, profile in zip(lengths, profiles):
            p = profile.probability(0)
            rows.append({"m": m, "count": str(profile.counts.get(0, 0)),
                         "probability": f"{p.numerator}/{p.denominator}", "probability_decimal": float(p)})
        header = "m,count,probability,probability_decimal"
        to_csv = lambda r: f"{r['m']},{r['count']},{r['probability']},{r['probability_decimal']!r}"
        to_text = (
            lambda r: f"m={r['m']:>3}  count={r['count']:>12}  "
            f"probability={r['probability']}  ({r['probability_decimal']:.6g})"
        )
    payload = lambda: {"schema": SCHEMA_STATS, "mode": args.mode, "rows": rows}
    return payload, "\n".join(map(to_text, rows)), "\n".join([header, *map(to_csv, rows)])


def _cmd_surface(args: argparse.Namespace) -> tuple:
    from .surface import surface_description

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
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    # A long word's coefficients pass the 4,300 digits Python converts between
    # int and str by default. Lift that for this call and give the caller's
    # setting back; a Python without the setter has no limit.
    set_limit = getattr(sys, "set_int_max_str_digits", None)
    limit = sys.get_int_max_str_digits() if set_limit else 0
    try:
        if set_limit:
            set_limit(0)
        # Resolved first, so a bad GOLDENL_FORMAT exits 2 before render writes a file.
        fmt = args.format if args.format is not None else _env_format()
        _write(fmt, *_COMMANDS[args.command](args))
        return 0
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CapExceededError as exc:
        print(f"error: {_word_of(args)}{exc}", file=sys.stderr)
        return 3
    except StructuralViolationError as exc:
        print(f"internal error: {_word_of(args)}{exc}", file=sys.stderr)
        return 4
    finally:
        if set_limit:
            set_limit(limit)


def _word_of(args: argparse.Namespace) -> str:
    """Names the word a flow error came from; the flow itself sees only a direction."""
    return f"word {args.word}: " if hasattr(args, "word") else ""


def run() -> None:
    sys.exit(main())
