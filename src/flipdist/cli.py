"""Command line front end: validate, gen, distance, dag, bench."""

from __future__ import annotations

import argparse
import json
import sys
import time

from .flip_dag import (
    InvalidFlipSequence,
    apply_sequence,
    build_dag,
    classify_essential,
)
from .fpt_solver import SolverStats, decide_flip_distance_eq
from .instances import (
    GenerationError,
    Instance,
    InstanceFormatError,
    generate_instance,
    parse_instance,
    render_instance,
)
from .oracle import DEFAULT_CAP, OracleStats, SearchBudgetExceeded, astar_distance

# not called here: bench/tracing.py patches cli.bfs_distance by name and
# fails without it; its oracle span reads 0 until it wraps astar_distance
from .oracle import bfs_distance  # noqa: F401
from .triangulation import InvalidTriangulation, make_edge

EXIT_OK = 0
EXIT_REJECT = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _read_instance(path: str) -> Instance:
    # decoded once, no TextIOWrapper: parse_instance splits \r\n and \r itself
    with open(path, "rb") as fh:
        return parse_instance(fh.read().decode("utf-8"))


def _emit(record: dict) -> None:
    sys.stdout.write(json.dumps(record) + "\n")


def cmd_validate(args: argparse.Namespace) -> int:
    inst = _read_instance(args.file)
    initial, _ = inst.triangulations()
    print(
        f"ok: n={len(initial.ps)} h={initial.ps.hull_size} "
        f"triangles={initial.ps.expected_triangles} k={inst.k if inst.k is not None else '-'}"
    )
    return EXIT_OK


def cmd_gen(args: argparse.Namespace) -> int:
    inst = generate_instance(args.n, args.hull, args.scramble, args.seed)
    sys.stdout.write(render_instance(inst))
    return EXIT_OK


def cmd_distance(args: argparse.Namespace) -> int:
    for flag, value in (("--k", args.k), ("--cap", args.cap)):
        if value is not None and value < 0:
            print(f"distance: {flag} must be nonnegative, got {value}", file=sys.stderr)
            return EXIT_INPUT
    inst = _read_instance(args.file)
    initial, final = inst.triangulations()
    k = args.k if args.k is not None else inst.k
    if args.engine == "fpt" and k is None:
        print("distance: engine fpt needs k (instance 'k' line or --k)", file=sys.stderr)
        return EXIT_INPUT
    record = {
        "n": len(initial.ps),
        "h": initial.ps.hull_size,
        "k": k,
        "engine": args.engine,
        "result": None,
        "states_explored": 0,
        "millis": 0,
    }
    started = time.perf_counter()
    distance = decision = None
    if args.engine != "fpt":
        ostats = OracleStats()
        distance = record["result"] = astar_distance(initial, final, cap=args.cap, stats=ostats)
        record["states_explored"] = ostats.nodes_visited
        if distance is None:
            record["millis"] = round((time.perf_counter() - started) * 1000)
            _emit(record)
            print(f"oracle: distance exceeds cap {args.cap}", file=sys.stderr)
            return EXIT_BUDGET
    if args.engine != "oracle":
        if k is None:
            k = record["k"] = distance
        fstats = SolverStats()
        decision = record["result"] = decide_flip_distance_eq(initial, final, k, stats=fstats)
        record["states_explored"] += fstats.states_expanded
    if args.engine == "both":
        record["result"] = {"oracle": distance, "fpt": decision, "agree": decision == (k == distance)}
    record["millis"] = round((time.perf_counter() - started) * 1000)
    _emit(record)
    if args.engine == "both" and not record["result"]["agree"]:
        print("distance: engines disagree (this is a bug)", file=sys.stderr)
        return EXIT_REJECT
    return EXIT_REJECT if decision is False else EXIT_OK


def _parse_flips(spec: str) -> list[tuple[int, int]]:
    if not spec.strip():
        return []
    out = []
    for part in spec.split(","):
        bits = part.strip().split("-")
        if len(bits) != 2:
            raise ValueError(f"bad flip {part!r}, expected 'u-v'")
        out.append(make_edge(int(bits[0]), int(bits[1])))
    return out


def cmd_dag(args: argparse.Namespace) -> int:
    inst = _read_instance(args.file)
    initial, _ = inst.triangulations()
    try:
        flips = _parse_flips(args.flips)
    except ValueError as exc:
        print(f"dag: {exc}", file=sys.stderr)
        return EXIT_INPUT
    seq = apply_sequence(initial, flips)
    dag = build_dag(seq)
    print(f"nodes {dag.node_count}")
    for pos, ((a, b), (c, d)) in enumerate(seq.records, start=1):
        print(f"{pos} removed={a}-{b} created={c}-{d}")
    print(f"arcs {len(dag.arcs)}")
    for i, j in dag.arcs:
        print(f"{i} -> {j}")
    labelled = classify_essential(dag, seq)
    print(f"components {len(labelled)}")
    for idx, (comp, essential) in enumerate(labelled, start=1):
        kind = "essential" if essential else "nonessential"
        print(f"{idx}: {' '.join(map(str, comp))} {kind}")
    return EXIT_OK


def _bench_row(n: int, scramble: int, seed: int, cap: int) -> dict:
    inst = generate_instance(n, "random", scramble, seed)
    initial, final = inst.triangulations()
    row = {"n": n, "h": initial.ps.hull_size, "seed": seed, "scramble": scramble}

    started = time.perf_counter()
    ostats = OracleStats()
    distance = astar_distance(initial, final, cap=cap, stats=ostats)
    row["millis_oracle"] = round((time.perf_counter() - started) * 1000)
    row["states_oracle"] = ostats.nodes_visited
    row["distance"] = distance
    if distance is None:
        row.update(millis_fpt=0, states_fpt=0, decision=None, agree=None, skipped=True)
        return row

    started = time.perf_counter()
    fstats = SolverStats()
    decision = decide_flip_distance_eq(initial, final, distance, stats=fstats)
    row["millis_fpt"] = round((time.perf_counter() - started) * 1000)
    row["states_fpt"] = fstats.states_expanded
    row["decision"] = decision
    row["agree"] = decision is True
    row["skipped"] = False
    return row


def cmd_bench(args: argparse.Namespace) -> int:
    for flag, value in (("--trials", args.trials), ("--cap", args.cap)):
        if value < 0:
            print(f"bench: {flag} must be nonnegative, got {value}", file=sys.stderr)
            return EXIT_INPUT
    try:
        sizes = [int(s) for s in args.n.split(",") if s.strip()]
    except ValueError:
        print(f"bench: bad --n list {args.n!r}", file=sys.stderr)
        return EXIT_INPUT
    if not sizes:
        print("bench: empty --n list", file=sys.stderr)
        return EXIT_INPUT

    started = time.perf_counter()
    rows = [
        _bench_row(n, args.scramble, args.seed + 1000 * i + trial, args.cap)
        for i, n in enumerate(sizes)
        for trial in range(args.trials)
    ]
    for row in rows:
        _emit(row)

    agreed = sum(1 for r in rows if r["agree"] is True)
    skipped = sum(1 for r in rows if r["skipped"])
    disagreed = len(rows) - agreed - skipped
    print(
        f"bench: rows={len(rows)} agreed={agreed} disagreed={disagreed} "
        f"skipped={skipped} seconds={time.perf_counter() - started:.2f}",
        file=sys.stderr,
    )
    return EXIT_OK if disagreed == 0 else EXIT_REJECT


# (name, help, options, handler): each option is (flag, add_argument keywords).
# main builds one command's parser, from its row, when argv opens with its
# name; build_parser lists every row's name and help, bare, for the rest.
COMMANDS = (
    ("validate", "parse and validate an instance file", (("file", {}),), cmd_validate),
    ("gen", "generate a random instance on stdout", (
        ("--n", dict(type=int, required=True, help="number of points")),
        ("--hull", dict(choices=("random", "convex"), default="random")),
        ("--scramble", dict(type=int, default=0, help="random flips applied to the final copy")),
        ("--seed", dict(type=int, default=None)),
    ), cmd_gen),
    ("distance", "compute/decide flip distance, JSON record on stdout", (
        ("file", {}),
        ("--engine", dict(choices=("oracle", "fpt", "both"), default="both")),
        ("--cap", dict(type=int, default=DEFAULT_CAP, help="oracle depth cap")),
        ("--k", dict(type=int, default=None, help="override the instance k")),
    ), cmd_distance),
    ("dag", "dependency DAG of a flip sequence on the initial triangulation", (
        ("file", {}),
        ("--flips", dict(default="", help="comma list of edges, e.g. 0-2,1-3")),
    ), cmd_dag),
    ("bench", "random instances: oracle vs decision procedure", (
        ("--n", dict(default="5,6,7", help="comma list of point counts")),
        ("--scramble", dict(type=int, default=3)),
        ("--trials", dict(type=int, default=5, help="instances per point count")),
        ("--seed", dict(type=int, default=0)),
        ("--cap", dict(type=int, default=DEFAULT_CAP)),
    ), cmd_bench),
)


def build_parser() -> argparse.ArgumentParser:
    """The top-level parser: every subcommand bare, so that its usage and
    help name all five.  main builds it only when argv does not open with a
    command name (no argument, -h, an unknown word), and to report what the
    invoked command's parser left unrecognized."""
    parser = argparse.ArgumentParser(
        prog="flipdist",
        description="Flip distance between triangulations of a planar point set.",
    )
    # prog given, argparse formats no usage to derive it
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog)
    for name, text, *_ in COMMANDS:
        sub.add_parser(name, help=text, add_help=False)
    return parser


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["--"]:  # argparse would take it for the command's name
        argv = argv[1:]
    row = next((c for c in COMMANDS if argv and c[0] == argv[0]), None)
    if row is None:
        args = build_parser().parse_args(argv)
    else:
        name, _, options, handler = row
        parser = argparse.ArgumentParser(prog=f"flipdist {name}")
        for flag, kwargs in options:
            parser.add_argument(flag, **kwargs)
        parser.set_defaults(func=handler)
        args, extras = parser.parse_known_args(argv[1:])
        if extras:  # argparse's own message, under the top-level usage
            build_parser().error(f"unrecognized arguments: {' '.join(extras)}")
    try:
        return args.func(args)
    except (
        InstanceFormatError, InvalidTriangulation, InvalidFlipSequence, GenerationError,
        OSError, UnicodeDecodeError,
    ) as exc:
        print(f"flipdist: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except SearchBudgetExceeded as exc:
        print(f"flipdist: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
