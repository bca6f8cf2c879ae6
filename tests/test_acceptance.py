"""Acceptance gate: the nine end-to-end checks, one summary line each.

Every test logs `criterion N: PASS/FAIL - detail` into the terminal summary
(see conftest) before asserting, so a full run always shows the scoreboard.
"""

import json
import random
import time
from itertools import product

import pytest

import pentagon_reference as reference
from goldenl import (
    Classification,
    GoldenNumber,
    GoldenVector,
    classify_all,
    cli,
    count_empty_reductions,
    brute_force_profile,
    exact_profile,
    oracle_report,
    reduce_word,
    trace,
    vector_to_word,
    word_to_vector,
)
from goldenl.field import PHI
from goldenl.render import transported_side_events

SHORT = Classification.SHORT
LONG = Classification.LONG
SADDLE = Classification.SADDLE_CONNECTION


def _record(criterion_log, number: int, problems: list[str], detail: str) -> None:
    status = "PASS" if not problems else "FAIL"
    summary = detail if not problems else "; ".join(problems)
    criterion_log(f"criterion {number}: {status} - {summary}")
    assert not problems, f"criterion {number}: {summary}"


@pytest.fixture(scope="session")
def word_sweep():
    """Oracle and algorithm verdicts for every word of length <= 5."""
    words = [w for n in range(6) for w in product((0, 1, 2, 3), repeat=n)]
    started = time.perf_counter()
    results = {w: (classify_all(w).verdicts, oracle_report(w)) for w in words}
    elapsed = time.perf_counter() - started
    return words, results, elapsed


def test_criterion_1_word_vector_round_trip(criterion_log, capsys):
    problems = []
    started = time.perf_counter()
    v = word_to_vector((1, 3, 2))
    expected = GoldenVector(GoldenNumber(3, 2), GoldenNumber(2, 4))
    if v != expected:
        problems.append(f"word 132 maps to {v}, expected {expected}")
    if vector_to_word(v) != (1, 3, 2):
        problems.append(f"inversion of {v} does not return 132")
    code = cli.main(["word2vec", "132", "--format", "csv"])
    out = capsys.readouterr().out.strip()
    if (code, out) != (0, "3/1,2/1,2/1,4/1"):
        problems.append(f"CLI word2vec gave exit {code}, output {out!r}")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _record(criterion_log, 1, problems, f"132 <-> ({v.x}, {v.y}) in {elapsed:.3f}s")


def test_criterion_2_word_21_classification(criterion_log):
    problems = []
    started = time.perf_counter()
    report = classify_all((2, 1))
    if report.tau.images != (5, 3, 4, 1, 2):
        problems.append(f"tau images {report.tau.images}")
    if report.tau.cycle_string() != "(1 5 2 3 4)":
        problems.append(f"tau cycle {report.tau.cycle_string()}")
    expected = {1: SADDLE, 2: LONG, 3: LONG, 4: SHORT, 5: SHORT}
    if report.verdicts != expected:
        problems.append(f"verdicts {report.verdicts}")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _record(
        criterion_log, 2, problems,
        f"tau = {report.tau.cycle_string()}, 4/5 short, 2/3 long, 1 saddle",
    )


def test_criterion_3_horizontal_baseline(criterion_log):
    problems = []
    started = time.perf_counter()
    expected = {1: SHORT, 2: SHORT, 3: LONG, 4: LONG, 5: SADDLE}
    verdicts = classify_all(()).verdicts
    if verdicts != expected:
        problems.append(f"verdicts {verdicts}")
    elapsed = time.perf_counter() - started
    if elapsed >= 1.0:
        problems.append(f"took {elapsed:.2f}s, budget 1s")
    _record(criterion_log, 3, problems, "horizontal pattern 1/2 short, 3/4 long, 5 saddle")


def test_criterion_4_oracle_equivalence(criterion_log, word_sweep):
    words, results, elapsed = word_sweep
    problems = []
    mismatches = sum(
        1
        for verdicts, report in results.values()
        for label in range(1, 6)
        if verdicts[label] != report.verdicts[label]
    )
    if len(words) != 1365:
        problems.append(f"swept {len(words)} words, expected 1365")
    if mismatches:
        problems.append(f"{mismatches} of {5 * len(words)} verdicts disagree")
    if elapsed >= 300.0:
        problems.append(f"sweep took {elapsed:.1f}s, budget 300s")
    _record(
        criterion_log, 4, problems,
        f"flow oracle agrees on all {5 * len(words)} verdicts in {elapsed:.1f}s",
    )


def test_criterion_5_cylinder_ratio(criterion_log, word_sweep):
    # H_short and H_long come from whole traces of a short and a long
    # midpoint, chosen by the permutation's verdicts: the oracle's report
    # holds holonomies its own cylinder checks have already put in ratio phi.
    words, results, _ = word_sweep
    problems = []
    off, unequal = [], []
    for w, (verdicts, report) in results.items():
        short, long = (trace(min(l for l, c in verdicts.items() if c is kind), w).holonomy for kind in (SHORT, LONG))
        if long != short.scaled(PHI):
            off.append(w)
        if (short, long) != (report.short_holonomy, report.long_holonomy):
            unequal.append(w)
    if off:
        problems.append(f"{len(off)} words break H_long = phi * H_short, first {off[0]}")
    if unequal:
        problems.append(f"{len(unequal)} words differ from the oracle's holonomies, first {unequal[0]}")
    _record(
        criterion_log, 5, problems,
        f"traced H_long = phi * H_short exactly, as the oracle reports, in all {len(words)} directions",
    )


def test_criterion_6_base_word_invariance(criterion_log):
    problems = []
    if reduce_word((2, 3, 1, 2, 2, 1)) != (2, 3):
        problems.append(f"mu(231221) = {reduce_word((2, 3, 1, 2, 2, 1))}")
    rng = random.Random(2024)
    disagreements = 0
    for _ in range(1000):
        word = tuple(rng.randrange(4) for _ in range(rng.randint(0, 12)))
        if classify_all(word).verdicts != classify_all(reduce_word(word)).verdicts:
            disagreements += 1
    if disagreements:
        problems.append(f"{disagreements}/1000 words change verdicts under mu")
    _record(
        criterion_log, 6, problems,
        "verdicts invariant under base-word reduction on 1000 random words",
    )


def test_criterion_7_round_trip_uniqueness(criterion_log):
    problems = []
    started = time.perf_counter()
    exact = same_base = 0
    for n in range(1, 6):
        for word in product((0, 1, 2, 3), repeat=n):
            recovered = vector_to_word(word_to_vector(word))
            if word[0] != 0:
                if recovered != word:
                    problems.append(f"round trip of {word} gave {recovered}")
                    break
                exact += 1
            else:
                stripped = word
                while stripped and stripped[0] == 0:
                    stripped = stripped[1:]
                if recovered != stripped:
                    problems.append(f"round trip of {word} gave {recovered}")
                    break
                same_base += 1
    elapsed = time.perf_counter() - started
    if exact + same_base != 1364 and not problems:
        problems.append(f"covered {exact + same_base} words, expected 1364")
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    _record(
        criterion_log, 7, problems,
        f"{exact} words invert exactly, {same_base} leading-zero words invert "
        f"to their stripped form, in {elapsed:.1f}s",
    )


def test_criterion_8_statistics_oracle(criterion_log):
    problems = []
    started = time.perf_counter()
    if count_empty_reductions(2) != 4:
        problems.append(f"m=2 count {count_empty_reductions(2)}")
    if count_empty_reductions(4) != 28:
        problems.append(f"m=4 count {count_empty_reductions(4)}")
    for m in range(0, 11, 2):
        if exact_profile(m).counts != brute_force_profile(m).counts:
            problems.append(f"exact and brute-force profiles differ at m={m}")
    elapsed = time.perf_counter() - started
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s, budget 60s")
    _record(
        criterion_log, 8, problems,
        f"walk recurrence matches enumeration for even m <= 10 in {elapsed:.1f}s",
    )


def test_criterion_9_figure_reproduction(criterion_log, capsys, tmp_path):
    # The CLI's picture is folded from the exact trajectory; its bounce counts
    # must match the float reference billiard's period multiples, and the
    # reference's lengths must order the cylinders with ratio phi.
    problems = []
    direction = reference.pentagon_direction((2, 1))
    lengths = {}
    for label in (4, 2):
        exact = trace(label, (2, 1))
        code = cli.main(
            [
                "render", "21", str(label),
                "--frame", "pentagon",
                "--out", str(tmp_path / f"billiard-{label}.svg"),
                "--format", "json",
            ]
        )
        payload = json.loads(capsys.readouterr().out)
        if code != 0:
            problems.append(f"render exit code {code} for midpoint {label}")
            continue
        rendered_bounces = payload["segments"]
        path = reference.billiard_path(label, direction)
        lengths[label] = path.length
        if path.outcome != "closed":
            problems.append(f"midpoint {label} billiard outcome {path.outcome}")
            continue
        period = reference.pentagon_length(exact.holonomy)
        multiplicity = round(path.length / period)
        if abs(path.length / period - multiplicity) >= 1e-6:
            problems.append(
                f"midpoint {label} length {path.length:.6f} is not a multiple "
                f"of the transported period {period:.6f}"
            )
        predicted = transported_side_events(exact) * multiplicity
        if rendered_bounces != predicted:
            problems.append(
                f"midpoint {label} rendered {rendered_bounces} bounces, "
                f"unfolding predicts {predicted}"
            )
    if len(lengths) == 2:
        ratio = lengths[2] / lengths[4]
        if not lengths[2] > lengths[4]:
            problems.append("midpoint 2 path is not the longer one")
        if abs(ratio - PHI.to_float()) >= 1e-6:
            problems.append(f"length ratio {ratio:.8f} is not phi")
    saddle = reference.billiard_path(1, direction)
    if saddle.outcome != "corner":
        problems.append(f"midpoint 1 billiard outcome {saddle.outcome}, expected corner")
    _record(
        criterion_log, 9, problems,
        "rendered bounce counts match the transported segment structure, "
        "lengths order the cylinders with ratio phi",
    )
