import argparse
import json
import sys
import time

import pytest

from flipdist import cli, oracle, parse_instance
from flipdist.cli import main

SQUARE_TEXT = """\
flipdist v1
points 4
0 0
1 0
1 1
0 1
initial 2
0 1 2
0 2 3
final 2
0 1 3
1 2 3
k 1
"""

# two pentagon fans: every geodesic between them has two flips
PENTAGON_TEXT = """\
flipdist v1
points 5
0 0
4 0
5 3
2 6
-1 3
initial 3
0 1 2
0 2 3
0 3 4
final 3
0 1 4
1 2 3
1 3 4
"""


COMMAND_HELP = {
    "validate": "parse and validate an instance file",
    "gen": "generate a random instance on stdout",
    "distance": "compute/decide flip distance, JSON record on stdout",
    "dag": "dependency DAG of a flip sequence on the initial triangulation",
    "bench": "random instances: oracle vs decision procedure",
}

COMMAND_OPTIONS = {
    "validate": ["file"],
    "gen": ["--n", "--hull", "--scramble", "--seed"],
    "distance": ["file", "--engine", "--cap", "--k"],
    "dag": ["file", "--flips"],
    "bench": ["--n", "--scramble", "--trials", "--seed", "--cap"],
}


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.txt"
    path.write_text(SQUARE_TEXT)
    return str(path)


@pytest.fixture
def pentagon_file(tmp_path):
    path = tmp_path / "pentagon.txt"
    path.write_text(PENTAGON_TEXT)
    return str(path)


def test_help_lists_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    text = " ".join(capsys.readouterr().out.split())  # undo the help's line wrapping
    assert "{validate,gen,distance,dag,bench}" in text
    for command, help_text in COMMAND_HELP.items():
        assert f"{command} {help_text}" in text


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
def test_command_help_lists_its_options(command, capsys):
    with pytest.raises(SystemExit) as exc:
        main([command, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: flipdist {command} [-h]")
    for option in COMMAND_OPTIONS[command]:
        assert f" {option}" in out


def test_only_the_invoked_command_gets_options(square_file, monkeypatch, capsys):
    added = []
    built = []
    real_add = argparse.ArgumentParser.add_argument
    real_init = argparse.ArgumentParser.__init__

    def counting_add(self, *flags, **kwargs):
        added.append(flags[0])
        return real_add(self, *flags, **kwargs)

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_argument", counting_add)
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(["validate", square_file]) == 0
    # validate's own parser, with its -h and file, and no top-level parser
    assert added == ["-h", "file"]
    assert built == ["flipdist validate"]
    built.clear()
    with pytest.raises(SystemExit):
        main(["--help"])
    # the top-level help lists all five, so it builds them all
    assert len(built) == 6
    built.clear()
    with pytest.raises(SystemExit):
        main(["validate", square_file, "extra"])
    # the leftover is reported by the top-level parser, built after validate's
    assert built == ["flipdist validate", "flipdist"] + [f"flipdist {c}" for c in COMMAND_HELP]


def _reference_parser(command):
    """The parser main used before it built the invoked command's parser
    alone: all five commands listed, and the one argv opens with given its
    -h, options and handler.  (With every command's options registered,
    `-x distance` would report distance's missing file before the `-x`.)"""
    parser = argparse.ArgumentParser(
        prog="flipdist",
        description="Flip distance between triangulations of a planar point set.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text, options, handler in cli.COMMANDS:
        p = sub.add_parser(name, help=text, add_help=name == command)
        if name == command:
            for flag, kwargs in options:
                p.add_argument(flag, **kwargs)
            p.set_defaults(func=handler)
    return parser


def _reference_main(argv):
    args = _reference_parser(argv[0] if argv else None).parse_args(argv)
    return args.func(args)


def _outcome(run, argv, capsys):
    """(exit or SystemExit code, stdout, stderr), a distance record's
    millis set aside."""
    try:
        code = run(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    if argv[:1] == ["distance"] and out.startswith("{"):
        out = {**json.loads(out), "millis": None}
    return code, out, err


@pytest.mark.parametrize("argv", [
    [], ["-h"], ["nope"], ["-x", "distance"],
    *([command, "-h"] for command in COMMAND_HELP),
    ["validate"], ["distance", "FILE", "--engine", "x"], ["distance", "FILE", "--k", "x"],
    ["distance", "FILE", "--en", "fpt"], ["distance", "FILE", "--k=1"], ["distance", "--", "FILE"],
    ["distance", "FILE", "--bogus"], ["validate", "FILE", "a", "b"], ["validate", "-h", "--bogus"],
    ["validate", "FILE"], ["dag", "FILE", "--flips", "0-2"],
], ids=lambda argv: "_".join(argv) or "no-args")
def test_main_matches_the_reference_parser(argv, square_file, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    argv = [square_file if a == "FILE" else a for a in argv]
    assert _outcome(main, argv, capsys) == _outcome(_reference_main, argv, capsys)


@pytest.mark.parametrize("argv", [[], ["validate", "FILE"], ["dag", "FILE", "--flips", "0-2"]],
                         ids=lambda argv: "_".join(argv) or "no-args")
def test_a_leading_double_dash_is_dropped(argv, square_file, capsys):
    # argparse hands a `--` before the command to the command lookup as its name
    argv = [square_file if a == "FILE" else a for a in argv]
    outcome = _outcome(main, argv, capsys)
    assert _outcome(main, ["--", *argv], capsys) == outcome
    assert outcome[0] == (0 if argv else 2)


@pytest.mark.parametrize("argv, extra", [
    (["distance", "f", "--bogus"], "--bogus"),
    (["validate", "f", "extra"], "extra"),
    (["-x", "distance"], "-x"),
], ids=["distance", "validate", "before-command"])
def test_unrecognized_arguments_show_the_top_level_usage(argv, extra, capsys):
    # the top-level parser reports them, so its usage names all five commands
    # even when only the invoked one was built
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "usage: flipdist [-h] {validate,gen,distance,dag,bench} ...\n"
        f"flipdist: error: unrecognized arguments: {extra}\n"
    )


@pytest.mark.parametrize("argv", [
    ["validate"],
    ["gen", "--n", "x"],
    ["distance", "f", "--engine", "x"],
    ["dag", "f", "--flips"],
    ["bench", "--trials", "x"],
], ids=lambda argv: argv[0])
def test_bad_option_shows_the_command_usage(argv, capsys):
    # the invoked command keeps its -h, so its usage line still shows it
    command = argv[0]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"usage: flipdist {command} [-h]")
    assert f"flipdist {command}: error: " in err


def test_console_script_reads_sys_argv(square_file, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["flipdist", "validate", square_file])
    assert main() == 0
    assert capsys.readouterr().out == "ok: n=4 h=4 triangles=2 k=1\n"


def test_validate_ok(square_file, capsys):
    assert main(["validate", square_file]) == 0
    assert capsys.readouterr().out == "ok: n=4 h=4 triangles=2 k=1\n"


def test_validate_reports_missing_k(pentagon_file, capsys):
    assert main(["validate", pentagon_file]) == 0
    assert capsys.readouterr().out == "ok: n=5 h=5 triangles=3 k=-\n"


def test_validate_corrupt_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text(SQUARE_TEXT.replace("0 2 3", "0 1 3"))
    assert main(["validate", str(path)]) == 2
    assert "flipdist:" in capsys.readouterr().err


def test_validate_missing_file(tmp_path, capsys):
    assert main(["validate", str(tmp_path / "nope.txt")]) == 2
    assert "flipdist:" in capsys.readouterr().err


def test_gen_deterministic_and_parses(capsys):
    assert main(["gen", "--n", "6", "--scramble", "2", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "--n", "6", "--scramble", "2", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first
    inst = parse_instance(first)
    inst.triangulations()
    assert len(inst.points) == 6


def test_gen_rejects_tiny_n(capsys):
    assert main(["gen", "--n", "2", "--seed", "1"]) == 2
    assert "flipdist:" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["gen", "--seed", "1"], ["bench", "--trials", "1"]])
def test_impossible_size_fails_fast(argv, capsys):
    # the default span holds at most 2002 points in general position
    started = time.perf_counter()
    assert main(argv + ["--n", "3000"]) == 2
    assert time.perf_counter() - started < 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("flipdist: cannot place 3000 points")
    assert "at most 2002 fit" in captured.err


def test_distance_fpt_budget_exits_3(pentagon_file, capsys, monkeypatch):
    # the CLI has no budget flag; a tiny budget stands in for a runaway search
    monkeypatch.setattr(oracle, "NODE_BUDGET", 1)
    assert main(["distance", pentagon_file, "--engine", "fpt", "--k", "2"]) == 3
    assert "FPT search exceeded its node budget" in capsys.readouterr().err


# the `distance` record, exit code and stderr for every engine, k source
# and cap: k comes from the instance's `k` line (the distance), from --k
# (the distance + 1, overriding that line) or from neither, and --cap is
# the default ("within") or the distance - 1 ("over"); (instance, engine,
# k source, cap): (exit code, record k, record result, states_explored)
DISTANCE_MATRIX = {
    ("square", "oracle", "file", "within"): (0, 1, 1, 2),
    ("square", "oracle", "file", "over"): (3, 1, None, 1),
    ("square", "oracle", "flag", "within"): (0, 2, 1, 2),
    ("square", "oracle", "flag", "over"): (3, 2, None, 1),
    ("square", "oracle", "absent", "within"): (0, None, 1, 2),
    ("square", "oracle", "absent", "over"): (3, None, None, 1),
    ("square", "fpt", "file", "within"): (0, 1, True, 1),
    ("square", "fpt", "file", "over"): (0, 1, True, 1),
    ("square", "fpt", "flag", "within"): (1, 2, False, 1),
    ("square", "fpt", "flag", "over"): (1, 2, False, 1),
    ("square", "fpt", "absent", "within"): (2, None, None, None),
    ("square", "fpt", "absent", "over"): (2, None, None, None),
    ("square", "both", "file", "within"): (0, 1, {"oracle": 1, "fpt": True, "agree": True}, 3),
    ("square", "both", "file", "over"): (3, 1, None, 1),
    ("square", "both", "flag", "within"): (1, 2, {"oracle": 1, "fpt": False, "agree": True}, 3),
    ("square", "both", "flag", "over"): (3, 2, None, 1),
    ("square", "both", "absent", "within"): (0, 1, {"oracle": 1, "fpt": True, "agree": True}, 3),
    ("square", "both", "absent", "over"): (3, None, None, 1),
    ("pentagon", "oracle", "file", "within"): (0, 2, 2, 4),
    ("pentagon", "oracle", "file", "over"): (3, 2, None, 1),
    ("pentagon", "oracle", "flag", "within"): (0, 3, 2, 4),
    ("pentagon", "oracle", "flag", "over"): (3, 3, None, 1),
    ("pentagon", "oracle", "absent", "within"): (0, None, 2, 4),
    ("pentagon", "oracle", "absent", "over"): (3, None, None, 1),
    ("pentagon", "fpt", "file", "within"): (0, 2, True, 2),
    ("pentagon", "fpt", "file", "over"): (0, 2, True, 2),
    ("pentagon", "fpt", "flag", "within"): (1, 3, False, 2),
    ("pentagon", "fpt", "flag", "over"): (1, 3, False, 2),
    ("pentagon", "fpt", "absent", "within"): (2, None, None, None),
    ("pentagon", "fpt", "absent", "over"): (2, None, None, None),
    ("pentagon", "both", "file", "within"): (0, 2, {"oracle": 2, "fpt": True, "agree": True}, 6),
    ("pentagon", "both", "file", "over"): (3, 2, None, 1),
    ("pentagon", "both", "flag", "within"): (1, 3, {"oracle": 2, "fpt": False, "agree": True}, 6),
    ("pentagon", "both", "flag", "over"): (3, 3, None, 1),
    ("pentagon", "both", "absent", "within"): (0, 2, {"oracle": 2, "fpt": True, "agree": True}, 6),
    ("pentagon", "both", "absent", "over"): (3, None, None, 1),
}

# instance text without a `k` line, its point count (all on the hull) and its flip distance
DISTANCE_INSTANCES = {
    "square": (SQUARE_TEXT.removesuffix("k 1\n"), 4, 1),
    "pentagon": (PENTAGON_TEXT, 5, 2),
}


def _run_distance(tmp_path, capsys, instance, engine, k_from, cap):
    text, _, d = DISTANCE_INSTANCES[instance]
    path = tmp_path / f"{instance}.txt"
    path.write_text(text + (f"k {d}\n" if k_from != "absent" else ""))
    argv = ["distance", str(path), "--engine", engine]
    argv += ["--k", str(d + 1)] if k_from == "flag" else []
    argv += ["--cap", str(d - 1)] if cap == "over" else []
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _distance_line(instance, engine, k, result, states, out):
    # the record's bytes with the measured millis put back in
    n = DISTANCE_INSTANCES[instance][1]
    millis = json.loads(out)["millis"]
    record = {"n": n, "h": n, "k": k, "engine": engine, "result": result}
    return json.dumps({**record, "states_explored": states, "millis": millis}) + "\n"


@pytest.mark.parametrize("case", list(DISTANCE_MATRIX), ids="-".join)
def test_distance_record_matrix(tmp_path, capsys, case):
    instance, engine, k_from, _ = case
    code, k, result, states = DISTANCE_MATRIX[case]
    exit_code, out, err = _run_distance(tmp_path, capsys, *case)
    assert exit_code == code
    if code == 2:
        assert (out, err) == ("", "distance: engine fpt needs k (instance 'k' line or --k)\n")
        return
    assert out == _distance_line(instance, engine, k, result, states, out)
    over = DISTANCE_INSTANCES[instance][2] - 1
    assert err == (f"oracle: distance exceeds cap {over}\n" if code == 3 else "")


@pytest.mark.parametrize("instance", list(DISTANCE_INSTANCES))
@pytest.mark.parametrize("k_from", ["file", "flag"])
def test_distance_both_reports_disagreeing_engines(tmp_path, capsys, monkeypatch, instance, k_from):
    # an FPT decision that contradicts the oracle is a bug, reported and exit 1
    monkeypatch.setattr(cli, "decide_flip_distance_eq", lambda start, goal, k, stats: k != d)
    d = DISTANCE_INSTANCES[instance][2]
    code, out, err = _run_distance(tmp_path, capsys, instance, "both", k_from, "within")
    assert code == 1
    k = d if k_from == "file" else d + 1
    result = {"oracle": d, "fpt": k != d, "agree": False}
    # the stand-in decision expands no state, so only the oracle's count
    states = DISTANCE_MATRIX[(instance, "oracle", k_from, "within")][3]
    assert out == _distance_line(instance, "both", k, result, states, out)
    assert err == "distance: engines disagree (this is a bug)\n"


@pytest.mark.parametrize("argv", [["validate"], ["distance"], ["dag", "--flips", "0-2"]])
def test_non_utf8_instance_is_an_input_error(tmp_path, argv, capsys):
    path = tmp_path / "latin1.txt"
    path.write_bytes(SQUARE_TEXT.encode() + b"# \xff\n")
    assert main([argv[0], str(path), *argv[1:]]) == 2
    # the position counts bytes of the whole file: "# " precedes 0xff
    position = len(SQUARE_TEXT.encode()) + 2
    assert capsys.readouterr() == (
        "",
        f"flipdist: 'utf-8' codec can't decode byte 0xff in position {position}: invalid start byte\n",
    )


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_crlf_and_cr_instances_read_as_lf(tmp_path, newline, capsys):
    # the file is read as bytes and decoded once; parse_instance splits
    # every line ending a text-mode read would have translated
    outputs = []
    for name, ending in (("lf", "\n"), ("other", newline)):
        path = tmp_path / f"{name}.txt"
        path.write_bytes(PENTAGON_TEXT.replace("\n", ending).encode())
        assert main(["validate", str(path)]) == 0
        assert main(["distance", str(path)]) == 0
        validated, record = capsys.readouterr().out.splitlines()
        record = json.loads(record)
        del record["millis"]
        outputs.append((validated, record))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == "ok: n=5 h=5 triangles=3 k=-"
    assert outputs[0][1]["result"] == {"oracle": 2, "fpt": True, "agree": True}


@pytest.mark.parametrize("engine", ["fpt", "both"])
def test_distance_rejects_negative_k(square_file, engine, capsys):
    assert main(["distance", square_file, "--engine", engine, "--k", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--k must be nonnegative" in captured.err


@pytest.mark.parametrize("engine", ["oracle", "fpt", "both"])
def test_distance_rejects_negative_cap(square_file, engine, capsys):
    assert main(["distance", square_file, "--engine", engine, "--cap", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--cap must be nonnegative" in captured.err


@pytest.mark.parametrize("command", ["distance", "bench"])
def test_pruning_flag_removed(square_file, command, capsys):
    # the library has one FPT search, always pruned, so there is nothing to switch
    argv = [command, square_file] if command == "distance" else [command]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--pruning", "off"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --pruning off" in capsys.readouterr().err


def test_dag_output(square_file, capsys):
    assert main(["dag", square_file, "--flips", "0-2,1-3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "nodes 2",
        "1 removed=0-2 created=1-3",
        "2 removed=1-3 created=0-2",
        "arcs 1",
        "1 -> 2",
        "components 1",
        "1: 1 2 nonessential",
    ]


def test_dag_single_flip_essential(square_file, capsys):
    assert main(["dag", square_file, "--flips", "0-2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "nodes 1"
    assert lines[-1] == "1: 1 essential"


def test_dag_empty_sequence(square_file, capsys):
    assert main(["dag", square_file]) == 0
    assert capsys.readouterr().out.splitlines() == ["nodes 0", "arcs 0", "components 0"]


def test_dag_bad_flip_spec(square_file, capsys):
    assert main(["dag", square_file, "--flips", "02"]) == 2
    assert "dag:" in capsys.readouterr().err


def test_dag_inadmissible_sequence(square_file, capsys):
    assert main(["dag", square_file, "--flips", "1-3"]) == 2
    assert "flip 1 is inadmissible" in capsys.readouterr().err


def test_bench_rows_and_aggregate(capsys):
    assert main(["bench", "--n", "5", "--trials", "3", "--seed", "9"]) == 0
    captured = capsys.readouterr()
    rows = [json.loads(line) for line in captured.out.splitlines()]
    assert len(rows) == 3
    for row in rows:
        assert row["n"] == 5
        assert row["agree"] is True and row["skipped"] is False
        assert row["distance"] <= 3
    assert "bench: rows=3 agreed=3 disagreed=0 skipped=0" in captured.err


def test_bench_bad_size_list(capsys):
    assert main(["bench", "--n", "five"]) == 2
    assert "bad --n list" in capsys.readouterr().err


def test_bench_empty_size_list(capsys):
    assert main(["bench", "--n", ","]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "bench: empty --n list" in captured.err


def test_bench_cap_below_every_distance_skips_every_row(capsys):
    assert main(["bench", "--cap", "0", "--scramble", "3"]) == 0
    captured = capsys.readouterr()
    rows = [json.loads(line) for line in captured.out.splitlines()]
    assert len(rows) == 15
    for row in rows:
        assert row["skipped"] is True and row["distance"] is None and row["agree"] is None
    assert "bench: rows=15 agreed=0 disagreed=0 skipped=15" in captured.err


def test_bench_skipped_and_answered_rows_share_one_key_order(capsys):
    rows = []
    for cap in ("0", "20"):
        assert main(["bench", "--n", "4", "--trials", "1", "--cap", cap]) == 0
        rows.append(json.loads(capsys.readouterr().out))
    skipped, answered = rows
    assert skipped["skipped"] is True and answered["skipped"] is False
    assert list(skipped) == list(answered)


@pytest.mark.parametrize("flag", ["--cap", "--trials"])
def test_bench_rejects_negative_counts(flag, capsys):
    assert main(["bench", "--n", "5", flag, "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{flag} must be nonnegative" in captured.err
