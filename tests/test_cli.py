"""CLI behavior: commands, formats, env overrides, exit codes, schemas."""

import json
import re
import shlex
import subprocess
import sys
from importlib import resources
from pathlib import Path

import jsonschema
import pytest

import goldenl
from flow_reference import corners_above_every_chord
from goldenl import cli
from goldenl import flow as flow_module
from goldenl.classify import Classification
from goldenl.flow import Trajectory

README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("GOLDENL_FORMAT", raising=False)
    monkeypatch.delenv("GOLDENL_CAP", raising=False)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    payload = json.loads(out)
    validate_payload(payload)
    return payload


def validate_payload(payload):
    name = payload["schema"].removeprefix("goldenl.")
    text = resources.files("goldenl.schemas").joinpath(f"{name}.json").read_text()
    jsonschema.validate(payload, json.loads(text))


def test_classify_json(capsys):
    payload = run_json(capsys, "classify", "21", "--format", "json")
    assert payload["word"] == "21"
    assert payload["tau"] == [5, 3, 4, 1, 2]
    assert payload["method"] == "algorithm"
    assert payload["verdicts"] == {
        "1": "saddle",
        "2": "long",
        "3": "long",
        "4": "short",
        "5": "short",
    }


def test_classify_single_midpoint(capsys):
    payload = run_json(capsys, "classify", "21", "3", "--format", "json")
    assert payload["midpoint"] == 3
    assert payload["verdicts"] == {"3": "long"}


def test_classify_text_and_csv(capsys):
    code, out, _ = run_cli(capsys, "classify", "21")
    assert code == 0
    assert "word: 21" in out
    assert "tau: (1 5 2 3 4)" in out
    assert "midpoint 1: saddle" in out
    code, out, _ = run_cli(capsys, "classify", "21", "--format", "csv")
    assert code == 0
    assert out.splitlines()[0] == "midpoint,verdict"
    assert "1,saddle" in out.splitlines()


def test_word2vec_formats(capsys):
    payload = run_json(capsys, "word2vec", "132", "--format", "json")
    assert payload["vector"] == {
        "x": {"a": "3/1", "b": "2/1"},
        "y": {"a": "2/1", "b": "4/1"},
    }
    code, out, _ = run_cli(capsys, "word2vec", "132")
    assert (code, out.strip()) == (0, "3 + 2*phi, 2 + 4*phi")
    code, out, _ = run_cli(capsys, "word2vec", "132", "--format", "csv")
    assert (code, out.strip()) == (0, "3/1,2/1,2/1,4/1")


def test_vec2word(capsys):
    code, out, _ = run_cli(capsys, "vec2word", "3", "2", "2", "4")
    assert (code, out.strip()) == (0, "132")
    code, out, _ = run_cli(capsys, "vec2word", "1", "0", "0", "0")
    assert (code, out.strip()) == (0, "e")
    payload = run_json(capsys, "vec2word", "3", "2", "2", "4", "--format", "json")
    assert payload["word"] == "132"
    # The cap is the largest number of letters allowed.
    code, out, _ = run_cli(capsys, "vec2word", "3", "2", "2", "4", "--cap", "3")
    assert (code, out.strip()) == (0, "132")
    code, _, err = run_cli(capsys, "vec2word", "3", "2", "2", "4", "--cap", "2")
    assert code == 3 and "2 letters" in err
    code, out, _ = run_cli(capsys, "vec2word", "1", "0", "0", "0", "--cap", "0")
    assert (code, out.strip()) == (0, "e")


def test_vec2word_errors(capsys):
    code, _, err = run_cli(capsys, "vec2word", "0", "0", "1", "0")
    assert code == 2 and "vertical" in err
    code, _, err = run_cli(capsys, "vec2word", "x", "0", "1", "0")
    assert code == 2 and "rational" in err


def test_vec2word_rational_grammar(capsys):
    # vec2word parses each coefficient as Fraction(text) does: an integer, a
    # ratio, a decimal or an exponent, blanks around it allowed. Words and
    # messages as recorded before the parse moved into the subcommand.
    for argv, word in [
        (("3", "1", "0", "1"), "210"),
        (("-2", "2", "1", "0"), "21"),
        (("1/2", "1", "0", "1"), "11"),
        (("0.5", "1", "0", "1"), "11"),
        (("1e2", "1", "0", "1"), "2001303333330100000000000000000000000000000000000000"),
        ((" 7 ", "1", "0", "1"), "2303000"),
        (("1", "0", "1e2", "1"), "20102333332233333333333333333333333333333333333333333333333333333333333333"),
    ]:
        assert run_cli(capsys, "vec2word", *argv) == (0, word + "\n", ""), argv
    for text, reason in [
        ("1/0", "Fraction(1, 0)"),
        ("nan", "Invalid literal for Fraction: 'nan'"),
        ("inf", "Invalid literal for Fraction: 'inf'"),
        ("x", "Invalid literal for Fraction: 'x'"),
    ]:
        message = f"error: coefficients must be rationals like 3, -2, or 1/2: {reason}\n"
        assert run_cli(capsys, "vec2word", text, "1", "0", "1") == (2, "", message), text
        assert run_cli(capsys, "vec2word", "1", "0", "1", text) == (2, "", message), text


# Python converts at most 4,300 digits between int and str by default, where it
# has the limit at all; the CLI lifts it for its call and gives it back.
_int_digits_limit = getattr(sys, "get_int_max_str_digits", lambda: None)


def test_cap_exit_past_the_int_digits_limit(capsys):
    # A 10,000-letter word's coefficients run past 4,300 digits; the cap
    # error prints its direction and still exits 3, not 2, from one trace
    # and from the oracle alike.
    for args in (["4"], ["--classify"]):
        limit = _int_digits_limit()
        code, _, err = run_cli(capsys, "simulate", "1302" * 2500, *args, "--cap", "5")
        assert code == 3, (args, err[:200])
        assert "trajectory did not terminate" in err and "after 5 steps" in err
        assert _int_digits_limit() == limit


def test_word_round_trip_past_the_int_digits_limit(capsys):
    word = "1302" * 3000
    limit = _int_digits_limit()
    code, out, err = run_cli(capsys, "word2vec", word, "--format", "csv")
    assert code == 0, err[:200]
    coefficients = out.strip().split(",")
    assert max(map(len, coefficients)) > 4300
    code, out, err = run_cli(capsys, "vec2word", *coefficients, "--cap", "12000")
    assert (code, out.strip()) == (0, word), err[:200]
    assert _int_digits_limit() == limit


def test_reduce(capsys):
    code, out, _ = run_cli(capsys, "reduce", "231221")
    assert (code, out.strip()) == (0, "23")
    code, out, _ = run_cli(capsys, "reduce", "e")
    assert (code, out.strip()) == (0, "e")
    payload = run_json(capsys, "reduce", "231221", "--format", "json")
    assert payload == {
        "schema": "goldenl.word-reduction.v1",
        "word": "231221",
        "base_word": "23",
        "is_base_word": False,
    }


def test_simulate_trajectory_json(capsys):
    payload = run_json(capsys, "simulate", "e", "5", "--format", "json")
    assert payload["outcome"] == "cone_point"
    assert payload["holonomy"] == ["1/2", "0/1", "0/1", "0/1"]
    assert payload["segment_count"] == len(payload["segments"])


def test_simulate_builds_json_only_for_json(capsys, monkeypatch):
    # Text and CSV never replay the trajectory's points; JSON builds its payload once.
    to_json_dict, calls = Trajectory.to_json_dict, []

    def refuse(self, word=None):
        raise AssertionError("to_json_dict called outside --format json")

    monkeypatch.setattr(Trajectory, "to_json_dict", refuse)
    for fmt in ("text", "csv"):
        code, out, err = run_cli(capsys, "simulate", "21", "4", "--format", fmt)
        assert code == 0 and out.startswith("word: 21\nmidpoint: 4\n"), (fmt, err)

    def counted(self, word=None):
        calls.append(word)
        return to_json_dict(self, word)

    monkeypatch.setattr(Trajectory, "to_json_dict", counted)
    assert run_json(capsys, "simulate", "21", "4", "--format", "json")["segment_count"] == 8
    assert calls == [(2, 1)]


def test_simulate_classify_matches_algorithm(capsys):
    flowed = run_json(capsys, "simulate", "21", "--classify", "--format", "json")
    computed = run_json(capsys, "classify", "21", "--format", "json")
    assert flowed["verdicts"] == computed["verdicts"]
    assert flowed["method"] == "flow-oracle"
    assert flowed["tau"] is None


def test_simulate_classify_one_midpoint(capsys):
    code, _, err = run_cli(capsys, "simulate", "21", "9", "--classify")
    assert code == 2 and "midpoint" in err
    payload = run_json(capsys, "simulate", "21", "4", "--classify", "--format", "json")
    assert payload["midpoint"] == 4
    assert payload["verdicts"] == {"4": "short"}


def test_simulate_needs_midpoint_or_classify(capsys):
    code, _, err = run_cli(capsys, "simulate", "21")
    assert code == 2 and "midpoint" in err


def test_render(capsys, tmp_path):
    for frame in ("goldenl", "pentagon"):
        out_path = tmp_path / f"{frame}.svg"
        payload = run_json(
            capsys,
            "render", "21", "4",
            "--frame", frame,
            "--out", str(out_path),
            "--format", "json",
        )
        svg = out_path.read_text()
        assert payload["segments"] == svg.count('<line class="trajectory"')
        assert payload["frame"] == frame


def test_render_pentagon_capped(capsys, tmp_path):
    # The exact orbit closes after 2,356 segments, and its picture closes
    # after five turned periods of two bounces per segment. The cap counts
    # flow steps, as in the golden L frame.
    out_path = tmp_path / "long.svg"
    code, _, _ = run_cli(
        capsys, "render", "02211112", "1", "--frame", "pentagon", "--out", str(out_path)
    )
    assert code == 0
    assert out_path.read_text().count('<line class="trajectory"') == 23_560 == 2 * 2_356 * 5
    out_path = tmp_path / "capped.svg"
    code, _, err = run_cli(
        capsys, "render", "02211112", "1", "--frame", "pentagon", "--cap", "100", "--out", str(out_path)
    )
    assert code == 3
    assert "word 02211112" in err and "midpoint 1" in err and "100 steps" in err
    assert not out_path.exists()


def test_flow_errors_name_the_word(capsys, tmp_path):
    out_path = tmp_path / "capped.svg"
    for argv in (
        ("simulate", "21", "4"),
        ("render", "21", "4", "--frame", "goldenl", "--out", str(out_path)),
        ("render", "21", "4", "--frame", "pentagon", "--out", str(out_path)),
    ):
        code, _, err = run_cli(capsys, *argv, "--cap", "1")
        assert code == 3, argv
        assert err.startswith("error: word 21: trajectory did not terminate: midpoint 4"), argv
        assert "1 steps" in err, argv
    assert not out_path.exists()


def test_simulate_classify_cap_names_the_first_overrun(capsys):
    # Midpoint 1 runs into the cone point within two steps; midpoint 2, the
    # next in order, is the first orbit the cap cuts short.
    code, out, err = run_cli(capsys, "simulate", "21", "--classify", "--cap", "2")
    assert (code, out) == (3, "")
    assert err == (
        "error: word 21: trajectory did not terminate: midpoint 2, direction (2 + 2*phi, 1 + 2*phi), "
        "after 2 steps at (0, -1/4 + 3/4*phi)\n"
    )
    # In the horizontal, midpoint 2 closes in two segments on the chord of midpoint 1.
    code, out, err = run_cli(capsys, "simulate", "e", "--classify", "--cap", "1")
    assert (code, out) == (3, "")
    assert err == "error: word e: trajectory did not terminate: midpoint 2, direction (1, 0), after 1 steps at (0, 1/2 + phi)\n"
    code, out, err = run_cli(capsys, "simulate", "e", "--classify", "--cap", "2")
    assert (code, err) == (0, "")
    assert out == "word: e\nmidpoint 1: short\nmidpoint 2: short\nmidpoint 3: long\nmidpoint 4: long\nmidpoint 5: saddle\n"


def test_flow_that_leaves_the_l_exits_4(capsys, monkeypatch):
    # Corners moved far above every chord send each one out through wall b,
    # so the walk from midpoint 1 leaves the L: a structural violation, exit
    # 4, through the oracle and through one trace alike.
    monkeypatch.setattr(flow_module, "_direction_table", corners_above_every_chord)
    for argv in (("simulate", "1", "--classify"), ("simulate", "1", "1")):
        code, out, err = run_cli(capsys, *argv, "--cap", "1000")
        assert (code, out) == (4, ""), argv
        assert err == (
            "internal error: word 1: trajectory left the golden L: midpoint 1, direction (phi, 1), "
            "after 1000 steps at (0, 1/2 + 1001*phi)\n"
        ), argv


def test_cap_zero_stops_at_the_start(capsys, tmp_path):
    out_path = tmp_path / "capped.svg"
    for argv in (
        ("simulate", "21", "4"),
        ("render", "21", "4", "--frame", "goldenl", "--out", str(out_path)),
        ("render", "21", "4", "--frame", "pentagon", "--out", str(out_path)),
    ):
        code, _, err = run_cli(capsys, *argv, "--cap", "0")
        assert code == 3, argv
        assert err == (
            "error: word 21: trajectory did not terminate: midpoint 4, direction (2 + 2*phi, 1 + 2*phi), "
            "after 0 steps at (1/2 + phi, 1/2*phi)\n"
        ), argv
    assert not out_path.exists()


def test_render_rejects_bad_size_and_stroke(capsys, tmp_path):
    out_path = tmp_path / "bad.svg"
    # A size of 10**400 would overflow a float, and a stroke of 1e308 would print a radius of inf.
    bad = [("--size", "-5"), ("--size", "0"), ("--size", "1" + "0" * 400)]
    bad += [("--stroke", s) for s in ("0", "-1", "nan", "inf", "1e308")]
    for frame in ("goldenl", "pentagon"):
        for option, value in bad:
            code, _, err = run_cli(
                capsys, "render", "21", "4", "--frame", frame, option, value, "--out", str(out_path)
            )
            assert code == 2, (frame, option, value)
            assert err.startswith("error: ") and "size" in err, err
            assert not out_path.exists()


def test_render_bad_path(capsys, tmp_path):
    code, _, err = run_cli(
        capsys, "render", "21", "4", "--out", str(tmp_path / "no" / "dir.svg")
    )
    assert code == 2


def test_stats_exact_csv(capsys):
    code, out, _ = run_cli(capsys, "stats", "--max-n", "3", "--format", "csv")
    assert code == 0
    assert out.splitlines() == [
        "m,count,probability,probability_decimal",
        "0,1,1/1,1.0",
        "2,4,1/4,0.25",
        "4,28,7/64,0.109375",
        "6,232,29/512,0.056640625",
    ]


def test_stats_json_schema(capsys):
    payload = run_json(capsys, "stats", "--max-n", "2", "--format", "json")
    assert payload["mode"] == "exact"
    assert [row["m"] for row in payload["rows"]] == [0, 2, 4]


def test_stats_brute_matches_exact(capsys):
    _, exact, _ = run_cli(capsys, "stats", "--max-n", "2", "--format", "csv")
    _, brute, _ = run_cli(capsys, "stats", "--max-n", "2", "--mode", "brute", "--format", "csv")
    assert exact == brute


def test_stats_brute_cap(capsys):
    # Checked before any enumeration; the message names the first length over the limit.
    code, out, err = run_cli(
        capsys, "stats", "--max-n", "6", "--mode", "brute", "--cap", "10"
    )
    assert (code, out) == (3, "")
    assert err == "error: enumeration of 4**12 words exceeds the limit 10\n"
    code, out, err = run_cli(capsys, "stats", "--max-n", "6", "--mode", "brute", "--cap", "7")
    assert (code, out, err) == (3, "", "error: enumeration of 4**8 words exceeds the limit 7\n")


def test_stats_negative_max_n_is_an_input_error(capsys):
    assert run_cli(capsys, "stats", "--max-n", "-1") == (2, "", "error: --max-n must be nonnegative, got -1\n")


def test_stats_mc_deterministic(capsys):
    args = ("stats", "--max-n", "2", "--mode", "mc", "--samples", "2000", "--seed", "5")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second
    payload = run_json(capsys, *args, "--format", "json")
    assert payload["rows"][0]["estimate"] == 1.0


def test_surface_json(capsys):
    payload = run_json(capsys, "surface", "--format", "json")
    assert len(payload["vertices"]) == 8
    assert sorted(i["name"] for i in payload["identifications"]) == ["a", "b", "c", "d"]
    assert len(payload["weierstrass_points"]) == 5


def test_env_format(capsys, monkeypatch):
    monkeypatch.setenv("GOLDENL_FORMAT", "json")
    code, out, _ = run_cli(capsys, "reduce", "11")
    assert code == 0
    assert json.loads(out)["base_word"] == "e"
    monkeypatch.setenv("GOLDENL_FORMAT", "bogus")
    code, _, err = run_cli(capsys, "reduce", "11")
    assert code == 2 and "GOLDENL_FORMAT" in err


def test_env_cap_and_flag_precedence(capsys, monkeypatch):
    monkeypatch.setenv("GOLDENL_CAP", "1")
    code, _, err = run_cli(capsys, "vec2word", "2", "2", "1", "2")
    assert code == 3
    code, out, _ = run_cli(capsys, "vec2word", "2", "2", "1", "2", "--cap", "10")
    assert (code, out.strip()) == (0, "21")


def test_negative_cap_is_an_input_error(capsys, monkeypatch, tmp_path):
    out_path = tmp_path / "neg.svg"
    for argv in (
        ("vec2word", "1", "0", "0", "0"),
        ("simulate", "21", "4"),
        ("render", "21", "4", "--out", str(out_path)),
        ("stats", "--max-n", "2", "--mode", "brute"),
    ):
        code, _, err = run_cli(capsys, *argv, "--cap", "-1")
        assert code == 2 and "nonnegative" in err, argv
    assert not out_path.exists()
    monkeypatch.setenv("GOLDENL_CAP", "-1")
    code, _, err = run_cli(capsys, "simulate", "21", "4")
    assert code == 2 and "nonnegative" in err
    monkeypatch.setenv("GOLDENL_CAP", "abc")
    code, _, err = run_cli(capsys, "simulate", "21", "4")
    assert code == 2 and "GOLDENL_CAP must be a nonnegative integer, got 'abc'" in err


def test_stats_cap_only_in_brute_mode(capsys, monkeypatch):
    for mode in ("exact", "mc"):
        code, out, err = run_cli(capsys, "stats", "--max-n", "2", "--mode", mode, "--cap", "0")
        assert code == 2 and out == "", mode
        assert "--cap" in err and "--mode brute" in err, mode
    # Likewise --seed and --samples belong to --mode mc alone.
    for mode in ((), ("--mode", "exact"), ("--mode", "brute")):
        for option, value in (("--seed", "3"), ("--samples", "5")):
            code, out, err = run_cli(capsys, "stats", "--max-n", "2", *mode, option, value)
            assert code == 2 and out == "", (mode, option)
            assert option in err and "--mode mc" in err, (mode, option)
    code, _, err = run_cli(capsys, "stats", "--max-n", "2", "--mode", "brute", "--cap", "0")
    assert code == 3 and "limit" in err
    monkeypatch.setenv("GOLDENL_CAP", "5")
    code, out, _ = run_cli(capsys, "stats", "--max-n", "2")
    assert code == 0 and out.count("m=") == 3


def test_cap_and_seed_only_where_used():
    for argv in (
        ("classify", "21", "--seed", "3"),
        ("classify", "21", "--cap", "3"),
        ("word2vec", "21", "--cap", "3"),
        ("reduce", "21", "--seed", "3"),
        ("surface", "--cap", "3"),
        ("simulate", "21", "4", "--seed", "3"),
    ):
        with pytest.raises(SystemExit) as exc:
            cli.main(list(argv))
        assert exc.value.code == 2, argv


def test_invalid_inputs(capsys):
    code, _, err = run_cli(capsys, "classify", "47")
    assert code == 2
    code, _, err = run_cli(capsys, "classify", "21", "9")
    assert code == 2 and "1..5" in err


# Each subcommand's argv that parses: every positional, and the options its parser requires.
_PARSES = {
    "classify": ["21", "3"],
    "word2vec": ["21"],
    "vec2word": ["3", "2", "2", "4"],
    "reduce": ["21"],
    "simulate": ["21", "4"],
    "render": ["21", "4", "--out", "f"],
    "stats": ["--max-n", "2"],
    "surface": [],
}
_CAPPED = ("vec2word", "simulate", "render", "stats")


class _Parsed(Exception):
    """Raised in place of running a subcommand, with the Namespace main parsed."""


def _parse_outcome(capsys, parse, argv):
    """(exit code, stdout, stderr, Namespace) of one parse; the code is None when it parses."""
    try:
        code, namespace = None, parse(list(argv))
    except SystemExit as exc:
        code, namespace = exc.code, None
    except _Parsed as exc:
        code, namespace = None, exc.args[0]
    captured = capsys.readouterr()
    return code, captured.out, captured.err, namespace


def test_one_parser_behaves_as_all_eight(capsys, monkeypatch):
    # main builds the parser of the subcommand argv names alone. Its help,
    # usage and error texts, exit codes and parsed arguments are those of the
    # full parser, which builds all eight for any other argv.
    from test_cli_golden import CASES

    def parsed(args):
        raise _Parsed(args)

    for name in cli._COMMANDS:
        monkeypatch.setitem(cli._COMMANDS, name, parsed)
    argvs = [[], ["-h"], ["bogus"], ["--format", "json", "classify", "21"], *map(list, CASES)]
    for name, args in _PARSES.items():
        argvs += [
            [name, "-h"],
            [name, "--bogus"] if name == "surface" else [name],
            [name, *args, "--format", "xml"],
            [name, *args, "extra"],
            *([[name, *args, "--cap", "x"]] if name in _CAPPED else []),
        ]
    argvs.append(["render", "21", "4", "--out", "f", "--frame", "x"])
    for argv in argvs:
        assert _parse_outcome(capsys, cli.main, argv) == _parse_outcome(capsys, cli.build_parser().parse_args, argv), argv
    # The full parser names the command's argument as it always has, in the errors a single one never prints.
    assert "error: the following arguments are required: command\n" in _parse_outcome(capsys, cli.main, [])[2]
    assert "error: argument command: invalid choice: 'bogus'" in _parse_outcome(capsys, cli.main, ["bogus"])[2]
    usage = "usage: goldenl [-h] {classify,word2vec,vec2word,reduce,simulate,render,stats,surface} ..."
    assert " ".join(_parse_outcome(capsys, cli.main, ["reduce", "21", "extra"])[2].split()).startswith(usage)
    for name in cli._COMMANDS:
        (commands,) = [a.choices for a in cli.build_parser(name)._actions if a.dest == "command"]
        assert list(commands) == [name]


def test_readme_cli_examples(capsys, monkeypatch, tmp_path):
    # Every `goldenl ...` line of the README's CLI block runs, and the outputs it states hold.
    readme = README.read_text(encoding="utf-8")
    block = readme.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    examples = [shlex.split(line, comments=True)[1:] for line in block.splitlines() if line.startswith("goldenl ")]
    assert len(examples) == 11
    monkeypatch.chdir(tmp_path)
    for argv in examples:
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)
    assert (tmp_path / "orbit.svg").exists()
    prose = " ".join(readme.split())
    assert "`word2vec 132` returns `3 + 2*phi, 2 + 4*phi`" in prose
    assert run_cli(capsys, "word2vec", "132")[1] == "3 + 2*phi, 2 + 4*phi\n"
    assert "`vec2word 3 2 2 4 --cap 3` prints `132`" in prose
    assert run_cli(capsys, "vec2word", "3", "2", "2", "4", "--cap", "3")[1] == "132\n"
    assert "`classify 21` reports midpoints 4 and 5 short, 2 and 3 long, and 1 as the saddle connection" in prose
    _, out, _ = run_cli(capsys, "classify", "21", "--format", "csv")
    assert out.splitlines()[1:] == ["1,saddle", "2,long", "3,long", "4,short", "5,short"]


def test_readme_library_example():
    # The README's Python block runs, and the results its comments state hold.
    readme = README.read_text(encoding="utf-8")
    block = readme.split("```python\n", 1)[1].split("```", 1)[0]
    assert "report.verdicts[4]            # Classification.SHORT" in block
    assert "t.segment_count, t.holonomy   # 8, (2 + 4*phi, 2 + 3*phi)" in block
    namespace = {}
    exec(block, namespace)
    report, t = namespace["report"], namespace["t"]
    assert report.verdicts[4] is Classification.SHORT
    assert namespace["oracle_classify"]((2, 1)) == report.verdicts
    assert t.segment_count == 8
    assert str(t.holonomy) == "(2 + 4*phi, 2 + 3*phi)"


def test_readme_library_rows_name_every_public_name():
    # Each public name is named, in backticks, in the Library row of its module.
    readme = README.read_text(encoding="utf-8")
    rows = dict(re.findall(r"^\| `goldenl\.(\w+)` \| (.*) \|$", readme, re.M))
    missing = {module: [name for name in names if f"`{name}`" not in rows.get(module, "")]
               for module, names in goldenl._EXPORTS.items()}
    assert missing == dict.fromkeys(goldenl._EXPORTS, [])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "goldenl", "classify", "21"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "midpoint 1: saddle" in proc.stdout
