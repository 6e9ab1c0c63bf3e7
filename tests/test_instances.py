import itertools
import random
import time

import pytest

from flipdist import (
    InstanceFormatError,
    InvalidTriangulation,
    PointSet,
    Triangulation,
    bfs_distance,
    generate_instance,
    parse_instance,
    render_instance,
    scan_triangulation,
)
from flipdist.geometry import convex_hull, cross
from flipdist.instances import GenerationError, Instance

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


def test_parse_square():
    inst = parse_instance(SQUARE_TEXT)
    assert inst.points == [(0, 0), (1, 0), (1, 1), (0, 1)]
    assert inst.initial == [(0, 1, 2), (0, 2, 3)]
    assert inst.final == [(0, 1, 3), (1, 2, 3)]
    assert inst.k == 1
    a, b = inst.triangulations()
    assert bfs_distance(a, b) == 1


def test_parse_ignores_blank_lines():
    spaced = SQUARE_TEXT.replace("initial 2", "\ninitial 2\n")
    assert parse_instance(spaced) == parse_instance(SQUARE_TEXT)


def test_render_round_trip():
    inst = parse_instance(SQUARE_TEXT)
    assert parse_instance(render_instance(inst)) == inst
    # k is optional
    inst.k = None
    again = parse_instance(render_instance(inst))
    assert again.k is None and again.points == inst.points


def test_parse_errors_carry_line_numbers():
    cases = [
        ("flipdist v2\npoints 1\n0 0\n", 1, "header"),
        ("flipdist v1\npoints x\n", 2, "non-integer"),
        ("flipdist v1\npoints 2\n0 0\n1 z\n", 4, "non-integer"),
        ("flipdist v1\npoints 1\n0 0\ninitial 1\n0 1\n", 5, "expected 3 fields"),
        ("flipdist v1\npoints 1\n0 0\n", 4, "end of file"),
        (SQUARE_TEXT.replace("k 1", "q 1"), 13, "expected 'k K'"),
        (SQUARE_TEXT + "extra 1\n", 14, "trailing"),
        (SQUARE_TEXT.replace("k 1", "k -2"), 13, "nonnegative"),
    ]
    for text, line, fragment in cases:
        with pytest.raises(InstanceFormatError, match=fragment) as err:
            parse_instance(text)
        assert err.value.line == line, text


@pytest.mark.parametrize(
    "text, line, message",
    [
        ("flipdist v1\npoints 1\n0 0\nfinal 1\n", 4, "expected 'initial N', got 'final 1'"),
        ("flipdist v1\npoints -1\n", 2, "negative count in 'points -1'"),
        (SQUARE_TEXT.replace("k 1", "k x"), 13, "non-integer k in 'k x'"),
    ],
)
def test_parse_errors_on_count_and_k_lines(text, line, message):
    with pytest.raises(InstanceFormatError) as err:
        parse_instance(text)
    assert str(err.value) == f"line {line}: {message}"
    assert err.value.line == line


def test_parse_then_build_reports_validation_error():
    broken = SQUARE_TEXT.replace("0 2 3\n", "")
    broken = broken.replace("initial 2", "initial 1")
    inst = parse_instance(broken)
    with pytest.raises(InvalidTriangulation, match="expected 2 triangles, got 1"):
        inst.triangulations()


def test_scan_triangulation_square():
    tris = scan_triangulation([(0, 0), (1, 0), (1, 1), (0, 1)])
    Triangulation.build([(0, 0), (1, 0), (1, 1), (0, 1)], tris)


def test_scan_triangulation_handles_collinear_runs():
    pts = [(0, 0), (1, 0), (2, 0), (0, 1), (2, 1)]
    Triangulation.build(pts, scan_triangulation(pts))
    on_a_line_first = [(0, 0), (0, 1), (0, 2), (1, 1)]
    Triangulation.build(on_a_line_first, scan_triangulation(on_a_line_first))


def test_scan_triangulation_random_sets_always_valid():
    rng = random.Random(41)
    for _ in range(25):
        n = rng.randrange(4, 11)
        inst = generate_instance(n, "random", 0, rng.randrange(10**6))
        assert len(inst.initial) == 2 * n - PointSet(inst.points).hull_size - 2


def test_generate_deterministic():
    a = generate_instance(7, "random", 3, 99)
    b = generate_instance(7, "random", 3, 99)
    assert a == b


def test_generate_valid_and_within_scramble_distance():
    for seed in range(12):
        scramble = seed % 4
        inst = generate_instance(6, "random", scramble, 4000 + seed)
        t0, t1 = inst.triangulations()
        assert bfs_distance(t0, t1) <= scramble


def test_generate_scramble_zero_is_identity():
    inst = generate_instance(6, "random", 0, 77)
    assert inst.initial == inst.final


@pytest.mark.parametrize("hull", ["random", "convex"])
def test_generate_stops_scrambling_when_no_flip_is_admissible(hull):
    # a triangle has no interior edge, so its one triangulation is both ends
    inst = generate_instance(3, hull, 2, 5)
    assert inst.final == inst.initial == [(0, 1, 2)]


def test_generate_convex_positions():
    for seed in range(6):
        inst = generate_instance(7, "convex", 2, 4100 + seed)
        ps = PointSet(inst.points)
        assert ps.hull_size == 7
        inst.triangulations()


def test_generate_convex_positions_at_large_n():
    # the radius grows as n**3, so rounding to the integer grid keeps
    # every point a hull corner at the default span
    inst = generate_instance(200, "convex", 0, 1)
    assert len(convex_hull(inst.points)) == 200


def test_generate_general_position():
    for n, seed in [(8, 4200), (8, 4201), (12, 4202), (20, 4203), (40, 4204), (40, 4205)]:
        inst = generate_instance(n, "random", 0, seed)
        assert len(set(inst.points)) == n
        for p, q, r in itertools.combinations(inst.points, 3):
            assert cross(p, q, r) != 0


def test_generate_more_than_500_points():
    # each point gets its own 500 tries, so more than 500 points can be placed
    inst = generate_instance(501, "random", 3, seed=1, span=10**6)
    t0, t1 = inst.triangulations()
    assert len(t0.ps) == 501 and t0.ps.hull_size >= 3


def test_generate_random_size_limit_is_two_per_grid_column():
    # span 1 is a 2x2 grid: its four corners are in general position, a fifth
    # point would be collinear with two, so it is refused before any draw
    inst = generate_instance(4, "random", 0, 1, span=1)
    assert sorted(inst.points) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    with pytest.raises(GenerationError, match=r"\(span 1\): at most 4 fit"):
        generate_instance(5, "random", 0, 1, span=1)


def test_generate_random_gives_up_after_ten_passes():
    # at span 20 a pass places about 30 points in general position, far
    # below the 42 the size limit allows, so every pass fails
    started = time.perf_counter()
    with pytest.raises(GenerationError, match=r"could not place 40 points in general position \(span 20\)"):
        generate_instance(40, "random", 0, 1, span=20)
    assert time.perf_counter() - started < 1


def test_generate_rejects_bad_parameters():
    with pytest.raises(GenerationError):
        generate_instance(2, "random", 0, 1)
    with pytest.raises(GenerationError):
        generate_instance(5, "pentagonal", 0, 1)
    with pytest.raises(GenerationError):
        generate_instance(5, "random", -1, 1)


def test_instance_round_trip_via_text():
    inst = generate_instance(7, "random", 3, 11)
    inst.k = 3
    assert parse_instance(render_instance(inst)) == inst
