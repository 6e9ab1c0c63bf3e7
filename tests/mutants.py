"""Hand mutants, rerun against the tier-1 suite: three FPT search rules
that no answer test catches, only pinned state counts (M4, M5) and the
independent statement of the machine's steps (M11); the zero-slack root
cut stretched to k = |changed edges| + 1, where it is unsound, or
satisfied by any admissible changed edge, not only a happy one; a start
order that keeps only the changed edges admissible in the start, which
answered every random pair tried and which only pinned state counts
catch; A* without its late pop, which never flips a goal edge and which
only the n = 50 gadget's state count (228 against 2,029) catches; two
faults in the `distance` command's record and exit code; the invoked
command's parser reporting leftover arguments under its own usage, not
the top-level one, and named without its `flipdist ` prefix;
`Triangulation.build` without its shared edge and apex tuples, which
changes no answer and only the test that checks object identity
catches; `build` filing the side of an ac apex with the wrong sign;
`build` without its triangle count, hull boundary or edge incidence
check, the three checks that carry its tiling argument; `flip_preview`
admitting a quadrilateral with three collinear corners; and
the flip builder `_flipped` swapping one side's old and new apex.

Run from the root of a checkout:

    python tests/mutants.py

For each mutant, src/ is copied to a temporary directory, one text
substitution is applied to the copy, and the tier-1 suite runs against it
(pytest's `pythonpath` pointed at the copy).  The script prints the tests
each mutant fails and exits 1 if some mutant fails none (it survives), 2
if the unmutated suite fails or a mutant's text is no longer in the
source, and 0 when every mutant is killed.  pytest does not collect this file (no `test_` prefix), so the
tier-1 command does not run it; it takes one suite run per mutant.
"""

from __future__ import annotations

import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# (name, what it breaks, file under src/flipdist, original text, mutant text)
MUTANTS = [
    (
        "M4",
        "the dedup key holds the stack's length, not the stack",
        "fpt_solver.py",
        "seen.add((m, e, stk, f))",
        "seen.add((m, e, len(stk), f))",
    ),
    (
        "M5",
        "the failure memo key drops the cursor",
        "fpt_solver.py",
        "key = (rest, cursor, tri.edge_mask)",
        "key = (rest, tri.edge_mask)",
    ),
    (
        "M11",
        "_steps drops the jump when the stack top is the diagonal just created",
        "fpt_solver.py",
        "if top == created or (top != at and top in tri):",
        "if top != at and top in tri:",
    ),
    (
        "zero-slack+1",
        "the zero-slack cut also fires at k = |changed edges| + 1, where it is unsound",
        "fpt_solver.py",
        "0 < k == len(order) and not any(",
        "0 < k <= len(order) + 1 and not any(",
    ),
    (
        "zero-slack-admissible",
        "the zero-slack cut lets k = |changed edges| through on an admissible changed edge, happy or not",
        "fpt_solver.py",
        "not any(c in goal for c in created.values())",
        "not any(c is not None for c in created.values())",
    ),
    (
        "admissible-only",
        "the composition tree starts iterations only at changed edges admissible in the start",
        "fpt_solver.py",
        "order.sort(key=lambda e: (created[e] is None, k != k0 or created[e] not in goal))",
        "order = [e for e in order if created[e] is not None]",
    ),
    (
        "no-late-pop",
        "A* never queues its late pop, so no state flips a goal edge",
        "oracle.py",
        "buckets[i + 2].append((g, m, parent, e, True))",
        "pass",
    ),
    (
        "oracle-k",
        "under --engine oracle, distance writes the oracle distance into the record's k",
        "cli.py",
        '        record["states_explored"] = ostats.nodes_visited\n',
        '        record["states_explored"] = ostats.nodes_visited\n'
        "        if k is None:\n"
        '            k = record["k"] = distance\n',
    ),
    (
        "disagree-exit-0",
        "under --engine both, distance exits 0 when the engines disagree",
        "cli.py",
        'print("distance: engines disagree (this is a bug)", file=sys.stderr)\n        return EXIT_REJECT',
        'print("distance: engines disagree (this is a bug)", file=sys.stderr)\n        return EXIT_OK',
    ),
    (
        "own-leftovers",
        "the invoked command's parser reports leftover arguments under its own usage",
        "cli.py",
        "args, extras = parser.parse_known_args(argv[1:])",
        "args, extras = parser.parse_args(argv[1:]), []",
    ),
    (
        "bare-prog",
        "the invoked command's parser is named without the flipdist prefix",
        "cli.py",
        'parser = argparse.ArgumentParser(prog=f"flipdist {name}")',
        "parser = argparse.ArgumentParser(prog=name)",
    ),
    (
        "no-shared-tuples",
        "Triangulation.build stores fresh edge and apex tuples instead of the shared ones",
        "triangulation.py",
        "opp_sorted[_SHARED.setdefault(e, e)] = _SHARED.setdefault(ws, ws)",
        "opp_sorted[e] = ws",
    ),
    (
        "ac-side",
        "Triangulation.build records the side of the apex of ac with the wrong sign",
        "triangulation.py",
        "opp.setdefault((a, c), []).append(b + b + 1 - s)",
        "opp.setdefault((a, c), []).append(b + b + s)",
    ),
    (
        "no-count",
        "Triangulation.build skips the triangle count check",
        "triangulation.py",
        "if len(tri_seen) != ps.expected_triangles:",
        "if False:",
    ),
    (
        "no-boundary",
        "Triangulation.build skips the check that its boundary edges are the hull chain's",
        "triangulation.py",
        "if boundary != ps.boundary_mask:",
        "if False:",
    ),
    (
        "no-incidence",
        "Triangulation.build skips the check that no edge is in three or more triangles",
        "triangulation.py",
        "if len(ws) > 2:",
        "if False:",
    ),
    (
        "preview-collinear",
        "flip_preview admits a quadrilateral with three collinear corners (> 0 for >= 0)",
        "triangulation.py",
        "(dx * (vy - cy) - dy * (vx - cx)) >= 0:",
        "(dx * (vy - cy) - dy * (vx - cx)) > 0:",
    ),
    (
        "flip-old-new",
        "the flip builder _flipped swaps the old and new apex of the side ac",
        "triangulation.py",
        "for x, y, old, new in ((a, c, b, d),",
        "for x, y, old, new in ((a, c, d, b),",
    ),
]


def failing_tests(src: Path) -> list[str]:
    """The tier-1 tests that fail with flipdist imported from `src`."""
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
            "--continue-on-collection-errors", "-o", f"pythonpath={src}",
        ],
        cwd=ROOT,
        capture_output=True,
        text=True,
    )
    return re.findall(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.MULTILINE)


def main() -> int:
    # a failing suite would count every mutant as killed
    broken = failing_tests(ROOT / "src")
    if broken:
        print(f"the unmutated suite fails {len(broken)} tests: {', '.join(broken)}")
        return 2
    survivors = []
    for name, what, module, original, mutant in MUTANTS:
        with tempfile.TemporaryDirectory() as tmp:
            src = Path(tmp) / "src"
            shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
            path = src / "flipdist" / module
            text = path.read_text()
            if text.count(original) != 1:
                print(f"{name}: {original!r} is not once in {module}; update the mutant")
                return 2
            path.write_text(text.replace(original, mutant))
            failed = failing_tests(src)
        print(f"{name} ({what}): {len(failed)} failing")
        for test in failed:
            print(f"    {test}")
        if not failed:
            survivors.append(name)
    if survivors:
        print(f"survived: {', '.join(survivors)}")
        return 1
    print(f"all {len(MUTANTS)} mutants killed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
