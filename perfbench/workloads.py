"""The four workloads: seeded inputs, the timed work per item, and its checks.

Each workload builds its whole item list up front from the seed, in rounds
of fixed composition, and the timed loop runs every item once (fixed work,
so two commits run identical inputs). The number of rounds scales with
``--seconds`` by a rate measured on the reference machine (README.md).

Words are drawn in letter-shift quads: a random word w and the three words
(w + s) mod 4 letterwise. The flow's work on a word is proportional to the
L1 size of its direction vector, which depends mostly on which letter sits
at which position; a quad puts every letter at every position once, which
cuts the spread of a quad's cost to about a fifth of a single word's
(coefficient of variation 0.13 against 0.64 over all length-5 words).
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
from dataclasses import dataclass
from typing import Callable

import goldenl
from speed import BARE_LAUNCH_S, KERNEL_S, bare_launch, reference_kernel

SADDLE, SHORT, LONG = "saddle", "short", "long"
PATTERN = {SHORT: 2, LONG: 2, SADDLE: 1}


def word_text(word: tuple[int, ...]) -> str:
    return "".join(map(str, word))


def as_word(text: str) -> tuple[int, ...]:
    return tuple(int(ch) for ch in text)


def quad(rng: random.Random, length: int) -> list[str]:
    base = [rng.randrange(4) for _ in range(length)]
    return ["".join(str((k + s) % 4) for k in base) for s in range(4)]


def verdict_string(verdicts) -> str:
    return "".join({SHORT: "S", LONG: "L", SADDLE: "X"}[verdicts[label].value] for label in range(1, 6))


def has_pattern(verdicts) -> bool:
    values = [v.value for v in verdicts.values()]
    return sorted(verdicts) == [1, 2, 3, 4, 5] and all(values.count(k) == n for k, n in PATTERN.items())


@dataclass(frozen=True)
class Workload:
    """One workload: how to build its items and run and check one item.

    ``run`` does the timed work and returns its raw outputs; ``check`` gets the
    item and those outputs, untimed, and returns (ok, result token). Result
    tokens feed the results digest. ``speed`` is the host-speed reference
    timed between items and its nominal time (speed.py).
    """

    name: str
    rounds_per_second: float
    min_rounds: int
    make_items: Callable[[random.Random, int], list]
    warmup: object
    run: Callable
    check: Callable
    speed: tuple[Callable, float] = (reference_kernel, KERNEL_S)

    def rounds(self, seconds: float) -> int:
        return max(self.min_rounds, round(seconds * self.rounds_per_second))


# oracle-sweep: the paper's cross-check, flow oracle against the tau permutation.

SHORT_WORDS = [
    word_text(w) for n in range(5) for w in itertools.product(range(4), repeat=n)
]


def _oracle_items(rng: random.Random, rounds: int) -> list:
    items = list(SHORT_WORDS)
    for _ in range(rounds):
        for length in (5, 6, 7):
            items += quad(rng, length)
    rng.shuffle(items)
    return items


def _oracle_run(ctx, item):
    word = as_word(item)
    return goldenl.oracle_report(word).verdicts, goldenl.classify_all(word).verdicts


def _oracle_check(ctx, item, out):
    oracle, algebra = out
    return oracle == algebra and has_pattern(algebra), verdict_string(oracle)


# long-words: word <-> vector and classify on long words; never touches flow.

# Round r draws one quad from each of the bins 16-31, 32-47, ..., 112-127, at
# an offset into the bin that runs through a seeded order of 0..15, so every
# seed spreads its words over the same lengths.
LONG_BINS = range(16, 128, 16)


def _long_items(rng: random.Random, rounds: int) -> list:
    offsets = list(range(16))
    rng.shuffle(offsets)
    items = []
    for r in range(rounds):
        for lo in LONG_BINS:
            items += quad(rng, lo + offsets[r % 16])
    rng.shuffle(items)
    return items


def _long_run(ctx, item):
    word = as_word(item)
    parsed = goldenl.parse_word(goldenl.format_word(word))
    back = goldenl.vector_to_word(goldenl.word_to_vector(parsed))
    base = goldenl.reduce_word(word)
    return parsed, back, base, goldenl.classify_all(word).verdicts, goldenl.classify_all(base).verdicts


def _long_check(ctx, item, out):
    parsed, back, base, verdicts, base_verdicts = out
    ok = (
        parsed == as_word(item)
        and word_text(back) == item.lstrip("0")
        and all(a != b for a, b in zip(base, base[1:]))
        and verdicts == base_verdicts
        and has_pattern(verdicts)
    )
    return ok, f"{word_text(base)}:{verdict_string(verdicts)}"


# render-orbits: one exact trajectory per item, materialised and drawn.

RENDER_LENGTHS = (3, 4)


def _render_items(rng: random.Random, rounds: int) -> list:
    items = []
    for _ in range(rounds):
        for length in RENDER_LENGTHS:
            items += [[w, label] for w in quad(rng, length) for label in range(1, 6)]
    rng.shuffle(items)
    return items


def _render_run(ctx, item):
    word, label = as_word(item[0]), item[1]
    t = goldenl.flow.trace(label, word)
    goldenl.flow.validate_trajectory_structure(t)
    text = json.dumps(t.to_json_dict(word))
    l_svg = goldenl.render.golden_l_svg(t)
    p_svg = goldenl.render.pentagon_svg(word, label)
    closed = t.outcome is goldenl.Outcome.CLOSED
    events = goldenl.render.transported_side_events(t) if closed else None
    return t.outcome.value, t.segment_count, text, l_svg, p_svg, events


def _render_check(ctx, item, out):
    outcome, count, text, l_svg, p_svg, events = out
    verdict = goldenl.classify_all(as_word(item[0])).verdicts[item[1]].value
    payload = json.loads(text)
    ok = (
        (outcome == "cone_point") == (verdict == SADDLE)
        and payload["segment_count"] == count == len(payload["segments"])
        and all(svg.startswith("<?xml") and svg.endswith("</svg>\n") for svg in (l_svg, p_svg))
        and l_svg.count('<line class="trajectory"') == count
        and (events is None or events > 0)
    )
    return ok, f"{outcome}:{count}:{events}"


# cli-mix: `python -m goldenl`, one call at a time, over every subcommand and format.

VERDICTS_21 = "midpoint 1: saddle\nmidpoint 2: long\nmidpoint 3: long\nmidpoint 4: short\nmidpoint 5: short\n"
CSV_21 = "midpoint,verdict\n1,saddle\n2,long\n3,long\n4,short\n5,short\n"
VERDICT_MAP_21 = {"1": SADDLE, "2": LONG, "3": LONG, "4": SHORT, "5": SHORT}


def empty_reduction_counts(max_m: int) -> list[int]:
    """Words of each length m that reduce to the empty word, by stack-depth walk."""
    counts, ways = [], {0: 1}
    for m in range(max_m + 1):
        counts.append(ways.get(0, 0))
        step: dict[int, int] = {}
        for depth, n in ways.items():
            if depth == 0:
                step[1] = step.get(1, 0) + 4 * n
            else:
                step[depth - 1] = step.get(depth - 1, 0) + n
                step[depth + 1] = step.get(depth + 1, 0) + 3 * n
        ways = step
    return counts


STATS_COUNTS = {m: c for m, c in enumerate(empty_reduction_counts(16)) if m % 2 == 0}


def _stats_rows(rows) -> bool:
    return [(int(r["m"]), int(r["count"])) for r in rows] == sorted(STATS_COUNTS.items())


def _json_check(expect: Callable[[dict], bool]):
    def check(ctx, out_path, stdout):
        payload = json.loads(stdout)
        ctx.validate(payload)
        return expect(payload)

    return check


def _text_check(expected: str):
    return lambda ctx, out_path, stdout: stdout == expected.format(out=out_path)


def _csv_stats(ctx, out_path, stdout):
    lines = stdout.splitlines()
    rows = [dict(zip(lines[0].split(","), line.split(","))) for line in lines[1:]]
    return lines[0] == "m,count,probability,probability_decimal" and _stats_rows(rows)


def _text_stats(ctx, out_path, stdout):
    counts = [int(line.split("count=")[1].split()[0]) for line in stdout.splitlines()]
    return counts == list(STATS_COUNTS.values())


def _svg_written(expect_stdout: Callable):
    def check(ctx, out_path, stdout):
        with open(out_path, encoding="utf-8") as handle:
            svg = handle.read()
        return svg.startswith("<?xml") and svg.endswith("</svg>\n") and expect_stdout(ctx, out_path, stdout)

    return check


# (argv, check). "{out}" in argv is replaced by a fresh SVG path in the
# benchmark's scratch directory. Expected outputs are the ones the goldenl
# README documents and, for formats it does not show, those of the commit
# that defined this benchmark, byte for byte.
CLI_POOL = (
    (["classify", "21"], _text_check("word: 21\ntau: (1 5 2 3 4)\n" + VERDICTS_21)),
    (["classify", "21", "4"], _text_check("word: 21\ntau: (1 5 2 3 4)\nmidpoint 4: short\n")),
    (["classify", "21", "--format", "csv"], _text_check(CSV_21)),
    (["classify", "21", "--format", "json"],
     _json_check(lambda p: p["verdicts"] == VERDICT_MAP_21 and p["tau"] == [5, 3, 4, 1, 2])),
    (["word2vec", "132"], _text_check("3 + 2*phi, 2 + 4*phi\n")),
    (["word2vec", "132", "--format", "csv"], _text_check("3/1,2/1,2/1,4/1\n")),
    (["word2vec", "132", "--format", "json"],
     _json_check(lambda p: p["vector"] == {"x": {"a": "3/1", "b": "2/1"}, "y": {"a": "2/1", "b": "4/1"}})),
    (["vec2word", "3", "2", "2", "4"], _text_check("132\n")),
    (["vec2word", "3", "2", "2", "4", "--format", "json"], _json_check(lambda p: p["word"] == "132")),
    (["reduce", "231221"], _text_check("23\n")),
    (["reduce", "231221", "--format", "json"],
     _json_check(lambda p: p["base_word"] == "23" and p["is_base_word"] is False)),
    (["simulate", "21", "4"], _text_check(
        "word: 21\nmidpoint: 4\ndirection: (2 + 2*phi, 1 + 2*phi)\noutcome: closed\n"
        "segments: 8\nholonomy: (2 + 4*phi, 2 + 3*phi)\n")),
    (["simulate", "21", "4", "--format", "json"],
     _json_check(lambda p: p["segment_count"] == 8 and p["holonomy"] == ["2/1", "4/1", "2/1", "3/1"])),
    (["simulate", "21", "--classify"], _text_check("word: 21\n" + VERDICTS_21)),
    (["simulate", "21", "--classify", "--format", "csv"], _text_check(CSV_21)),
    (["simulate", "21", "--classify", "--format", "json"],
     _json_check(lambda p: p["verdicts"] == VERDICT_MAP_21 and p["method"] == "flow-oracle")),
    (["render", "21", "4", "--out", "{out}"],
     _svg_written(_text_check("wrote {out} (goldenl frame, 8 segments)\n"))),
    (["render", "21", "4", "--frame", "pentagon", "--out", "{out}", "--format", "json"],
     _svg_written(_json_check(lambda p: p["frame"] == "pentagon" and p["segments"] > 0))),
    (["stats", "--max-n", "8"], _text_stats),
    (["stats", "--max-n", "8", "--format", "csv"], _csv_stats),
    (["stats", "--max-n", "8", "--format", "json"], _json_check(lambda p: _stats_rows(p["rows"]))),
    (["surface"], _text_check("vertices: 8\nidentifications: a, b, c, d\nweierstrass points: 1, 2, 3, 4, 5\n")),
    (["surface", "--format", "json"],
     _json_check(lambda p: len(p["vertices"]) == 8 and sorted(p["weierstrass_points"]) == list("12345"))),
)


def _cli_items(rng: random.Random, rounds: int) -> list:
    items = []
    for _ in range(rounds):
        order = list(range(len(CLI_POOL)))
        rng.shuffle(order)
        items += order
    return items


def _cli_run(ctx, item):
    out_path = ctx.scratch_svg()
    argv = [a.replace("{out}", out_path) for a in CLI_POOL[item][0]]
    proc = subprocess.run(ctx.cli_command(argv), env=ctx.env, capture_output=True, text=True, timeout=60)
    return out_path, proc.returncode, proc.stdout


def _cli_check(ctx, item, out):
    out_path, code, stdout = out
    ok = code == 0 and CLI_POOL[item][1](ctx, out_path, stdout)
    return ok, f"{code}:{stdout.replace(out_path, '{out}')}"


WORKLOADS = {
    w.name: w
    for w in (
        Workload("oracle-sweep", 2.0, 1, _oracle_items, "21", _oracle_run, _oracle_check),
        Workload("long-words", 1.5, 4, _long_items, "2" * 16, _long_run, _long_check),
        Workload("render-orbits", 1.0, 3, _render_items, ["21", 4], _render_run, _render_check),
        Workload("cli-mix", 0.26, 5, _cli_items, 0, _cli_run, _cli_check, (bare_launch, BARE_LAUNCH_S)),
    )
}
