import hashlib
import math
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from kmsteiner import _native, xcc
from kmsteiner.km import build_km
from kmsteiner.orbitgen import good_k_orbit_reps, t_orbit_reps
from kmsteiner.perm import PermutationGroup, cyclic_group, normalizer_of_cyclic
from kmsteiner.symbreak import encode, normalizer_classes
from kmsteiner.xcc import (
    XCCProblem,
    export_text,
    import_text,
    solve,
    solve_all,
    verify_solution,
)

import oracles
from oracles import export_text_from_options, numpy_solve, xcc_solutions_bruteforce

KERNEL_SOURCE = Path(xcc.__file__).with_name("_xcc.c")


def assert_same_search(p, **caps):
    """The kernel and the numpy oracle visit the same tree: equal stats
    and the same solutions in the same order."""
    got, want = [], []
    stats = solve(p, on_solution=got.append, **caps)
    ref = numpy_solve(p, on_solution=want.append, **caps)
    assert (stats.nodes, stats.solutions, stats.limit_hit) == (ref.nodes, ref.solutions, ref.limit_hit)
    assert got == want
    return got, stats


def toy_problem():
    return XCCProblem(
        ["A", "B"],
        ["X"],
        [((0,), ((0, 1),)), ((1,), ((0, 1),)), ((0, 1), ())],
    )


def test_basic_semantics():
    sols, stats = solve_all(toy_problem())
    assert sorted(s.option_ids for s in sols) == [(0, 1), (2,)]
    assert stats.solutions == 2
    assert stats.nodes >= stats.solutions


def test_color_conflict_blocks_sharing():
    p = XCCProblem(
        ["A", "B"],
        ["X"],
        [((0,), ((0, 1),)), ((1,), ((0, 2),)), ((1,), ((0, 1),))],
    )
    sols, _ = solve_all(p)
    assert sorted(s.option_ids for s in sols) == [(0, 2)]


def test_color_zero_is_ordinary():
    p = XCCProblem(
        ["A", "B"],
        ["X"],
        [((0,), ((0, 0),)), ((1,), ((0, 0),)), ((1,), ((0, 1),))],
    )
    sols, _ = solve_all(p)
    assert sorted(s.option_ids for s in sols) == [(0, 1)]


def test_empty_problem_has_one_solution():
    sols, stats = solve_all(XCCProblem([], [], []))
    assert stats.solutions == 1 and sols[0].option_ids == ()
    assert stats.nodes >= stats.solutions


def test_uncovered_secondary_is_fine():
    p = XCCProblem(["A"], ["X"], [((0,), ())])
    sols, _ = solve_all(p)
    assert [s.option_ids for s in sols] == [(0,)]


def test_problem_validation():
    with pytest.raises(ValueError):
        XCCProblem(["A"], [], [((), ())])  # no primary item
    with pytest.raises(ValueError):
        XCCProblem(["A"], ["X"], [((0,), ((0, -1),))])  # negative color
    with pytest.raises(ValueError):
        XCCProblem(["A", "A"], [])  # duplicate name
    with pytest.raises(ValueError):
        XCCProblem(["A"], ["X"], [((0, 0), ())])  # repeated item
    with pytest.raises(ValueError):
        XCCProblem(["A"], ["X"], [((0,), ((0, 1), (0, 1)))])  # repeated secondary
    with pytest.raises(ValueError):
        XCCProblem.from_arrays(["A"], [], [0, 2], [0])  # indptr beyond the items
    with pytest.raises(ValueError):
        XCCProblem.from_arrays(["A"], [], [0, 1], [1])  # item id out of range
    # the intake rule: integers only, refused before a cast could truncate
    # or wrap, and colors below 2^63 in both forms
    for arrays in (
        ([0, 1, 2], [0.7, 1.2], None, (), ()),
        ([0, 1.5, 2], [0, 1], None, (), ()),
        ([0, 1, 2], np.array([False, True]), None, (), ()),
        ([0, 1, 2], np.array([0, 1 << 64], dtype=object), None, (), ()),
        ([0, 1, 2], [0, 1], [0, 1, 1], [0], [1.5]),
        ([0, 1, 2], [0, 1], [0, 1, 1], [0], np.array([1 << 63], dtype=np.uint64)),
        ([0, 1, 2], [0, 1], [0, 1, 1], [0], np.array([1 << 64], dtype=object)),
    ):
        with pytest.raises(ValueError, match=r"must be integers|below 2\^63"):
            XCCProblem.from_arrays(["A", "B"], ["X"], *arrays)
    for options in (
        [((0.7,), ()), ((1,), ())],
        [((0,), ((0, 1.5),)), ((1,), ())],
        [((0,), ((0, 1 << 63),)), ((1,), ())],
        [((0,), ((0, 1 << 64),)), ((1,), ())],
        [((True,), ())],
        [((True,), ()), ((1,), ())],  # numpy takes the bool beside an int as 1
    ):
        with pytest.raises(ValueError, match=r"must be integers|below 2\^63"):
            XCCProblem(["A", "B"], ["X"], options)
    assert XCCProblem(["A"], ["X"], [((0,), ((0, (1 << 63) - 1),))]).sec_colors.tolist() == [
        (1 << 63) - 1]


def test_from_arrays_copies_unless_handed_over():
    # an array in its stored dtype and C order, needing no sort, is handed
    # over: kept and made read-only; any other is copied
    ptr, items = np.array([0, 2, 3], dtype=np.int64), np.array([1, 0, 1], dtype=np.int32)
    sorted_copy = XCCProblem.from_arrays(["A", "B"], [], ptr, items)
    assert not np.shares_memory(sorted_copy.prim_items, items) and items.flags.writeable
    assert sorted_copy.prim_items.tolist() == [0, 1, 1]  # sorted within options
    assert sorted_copy.prim_indptr is ptr and not ptr.flags.writeable
    rows = np.array([0, 1, 1], dtype=np.int32)
    for other in (rows.astype(np.int64), rows.tolist(), np.repeat(rows, 2)[::2]):
        cast = XCCProblem.from_arrays(["A", "B"], [], ptr, other)
        assert cast == sorted_copy and cast.prim_items.dtype == np.int32
        assert not np.shares_memory(cast.prim_items, other)
    taken = XCCProblem.from_arrays(["A", "B"], [], ptr, rows)
    assert taken == sorted_copy and taken.prim_items is rows and not rows.flags.writeable
    colors = np.array([0, 2], dtype=np.int64)
    sec = XCCProblem.from_arrays(["A"], ["s"], [0, 1, 2], [0, 0], [0, 1, 2], [0, 0], colors)
    assert sec.sec_colors is colors and sec.sec_items.dtype == np.int32


def random_problem(rng):
    n_p = rng.randint(1, 6)
    n_s = rng.randint(0, 4)
    options = []
    for _ in range(rng.randint(0, 14)):
        prim = rng.sample(range(n_p), rng.randint(1, n_p))
        sec = rng.sample(range(n_s), rng.randint(0, n_s)) if n_s else []
        options.append((prim, [(s, rng.randint(0, 3)) for s in sec]))
    return XCCProblem([f"p{i}" for i in range(n_p)], [f"s{i}" for i in range(n_s)], options)


def test_oracle_equivalence_randomized():
    rng = random.Random(987)
    for _ in range(200):
        p = random_problem(rng)
        sols, _ = assert_same_search(p)
        assert sorted(s.option_ids for s in sols) == xcc_solutions_bruteforce(p)
        for s in sols:
            assert verify_solution(p, s.option_ids)


def test_determinism():
    rng = random.Random(5)
    for _ in range(30):
        p = random_problem(rng)
        s1, st1 = solve_all(p)
        s2, st2 = solve_all(p)
        assert [x.option_ids for x in s1] == [x.option_ids for x in s2]
        assert st1.nodes == st2.nodes


def test_modes_and_limits():
    p = XCCProblem(["A"], [], [((0,), ()), ((0,), ()), ((0,), ())])
    assert solve(p).solutions == 3
    st = solve(p, limit=1)
    assert st.solutions == 1 and st.limit_hit
    sols, st = solve_all(p, limit=2)
    assert len(sols) == 2 and st.limit_hit
    st = solve(p, node_cap=1)
    assert st.limit_hit


def test_export_import_round_trip():
    p = toy_problem()
    text = export_text(p)
    assert text.splitlines()[0] == "A B | X"
    p2 = import_text(text)
    assert p2 == p
    assert export_text(p2) == text


def test_round_trip_randomized():
    rng = random.Random(31)
    for _ in range(50):
        p = random_problem(rng)
        text = export_text(p)
        p2 = import_text(text)
        assert p2 == p
        assert export_text(p2) == text


def test_export_text_matches_option_view(monkeypatch):
    G, N = cyclic_group(37), normalizer_of_cyclic(37)
    ko = good_k_orbit_reps(G, 37, 4, 2)
    km = build_km(G, t_orbit_reps(G, 37, 2), ko)
    p = encode(km, normalizer_classes(N, ko, G), "c").problem
    text = export_text(p)
    assert text.encode() == export_text_from_options(p).encode()
    assert import_text(text) == p
    for chunk in (1, 7, p.n_options):  # lines are made a chunk of options at a time
        monkeypatch.setattr(xcc, "_EXPORT_CHUNK", chunk)
        lines = list(xcc.export_lines(p))
        assert len(lines) == p.n_options + 1 and "".join(lines) == text


def test_export_without_options():
    for p, head in ((XCCProblem(["A", "B"]), "A B |"), (XCCProblem(["A"], ["X"]), "A | X")):
        assert export_text(p) == export_text_from_options(p) == head + "\n"
        assert import_text(export_text(p)) == p


@pytest.mark.parametrize("n_prim", [1, 45, 64, 120])
def test_item_counts_both_paths(n_prim):
    # rows below _HISTOGRAM_ROWS are unpacked, longer ones histogrammed by byte
    from oracles import _HISTOGRAM_ROWS, _bitmask, _item_counts

    rng = np.random.default_rng(n_prim)
    words = (n_prim + 63) // 64
    for rows in (0, 7, _HISTOGRAM_ROWS - 1, _HISTOGRAM_ROWS, 3000):
        dense = rng.random((rows, n_prim)) < 0.3
        indptr = np.r_[0, np.cumsum(dense.sum(axis=1))]
        sub = _bitmask(indptr, np.nonzero(dense)[1], words)
        assert np.array_equal(_item_counts(sub, n_prim), dense.sum(axis=0))


@pytest.mark.parametrize("words", [1, 2, 3])
@pytest.mark.parametrize("chunk", [1, 3, 1 << 16])
def test_bitmask_matches_dense(words, chunk, monkeypatch):
    # random CSR rows, a fifth of them empty, built in chunks of `chunk` options
    monkeypatch.setattr(oracles, "_MASK_CHUNK", chunk)
    rng = np.random.default_rng(10 * words + chunk)
    for n in (0, 1, 50):
        dense = rng.random((n, 64 * words)) < 0.1
        dense[rng.random(n) < 0.2] = False
        indptr = np.r_[0, np.cumsum(dense.sum(axis=1))]
        items = np.nonzero(dense)[1].astype(np.int32)
        got = oracles._bitmask(indptr, items, words)
        packed = np.packbits(dense, axis=1, bitorder="little")
        expected = packed.view("<u8").astype(np.uint64).reshape(n, words)
        assert got.shape == (n, words)
        assert np.array_equal(got, expected)


def trivial_group_problem(v, k, t):
    G = PermutationGroup.trivial(v)
    km = build_km(G, t_orbit_reps(G, v, t), good_k_orbit_reps(G, v, k, t))
    return encode(km, None, "a").problem


def test_multiword_search_pinned():
    # S(3,4,10) with the trivial group: 120 primary items, so every
    # bitmask row spans two words
    p = trivial_group_problem(10, 4, 3)
    assert (len(p.primary), p.n_options) == (120, 210)
    sols, stats = solve_all(p)
    assert (stats.solutions, stats.nodes) == (2520, 51913)  # 10!/1440 labeled designs
    digest = hashlib.sha256(repr([s.option_ids for s in sols]).encode()).hexdigest()
    assert digest == "85892a5d304fd92490a94e42238252dd619c38b6d37b9ae642507e9710a05256"


def test_import_errors():
    # each names the line at fault, counted from 1, after the file name
    for text, message in [
        ("A B | X\nA Q\n", ":2: unknown item 'Q'"),
        ("A | X\nA X:red\n", ":2: malformed color 'red'"),
        ("A | X\nX:1\n", ":2: option covers no primary item"),
        ("A | X\nA X\n", ":2: secondary item 'X' needs a color"),
        ("A B\nA\n", ":1: header line must contain '|'"),
        ("A | X\nA X:1 A\n", ":2: item 'A' repeated within the option"),
        ("A | X\nA X:99999999999999999999\n", ":2: malformed color '99999999999999999999'"),
    ]:
        with pytest.raises(ValueError) as err:
            import_text(text)
        assert str(err.value) == "<string>" + message


def test_replay_verifier_rejects_bad_sets():
    p = toy_problem()
    assert not verify_solution(p, (0,))  # B uncovered
    assert not verify_solution(p, (0, 2))  # A covered twice
    assert verify_solution(p, (2,))


@pytest.mark.parametrize("caps", [{"limit": 0}, {"limit": -3}, {"node_cap": -1},
                                  {"time_cap": -0.5}, {"time_cap": math.nan}])
def test_bad_caps_rejected(caps):
    p = toy_problem()
    with pytest.raises(ValueError):
        solve(p, **caps)
    if "limit" in caps:
        with pytest.raises(ValueError):
            solve_all(p, limit=caps["limit"])


def test_cap_semantics_pinned():
    # S(3,4,10), trivial group: the time cap is checked at every 256th
    # node, the solution limit stops at the solution's node
    p = trivial_group_problem(10, 4, 3)
    sols = []
    stats = solve(p, on_solution=sols.append, time_cap=0.0)
    assert (stats.nodes, stats.solutions, stats.limit_hit, len(sols)) == (256, 12, True, 12)
    for limit, nodes in ((1, 31), (5, 110)):
        stats = solve(p, limit=limit)
        assert (stats.nodes, stats.solutions, stats.limit_hit) == (nodes, limit, True)
    stats = solve(p, node_cap=0)
    assert (stats.nodes, stats.solutions, stats.limit_hit) == (1, 0, True)
    stats = solve(p, node_cap=51913)  # the whole tree: the cap is not passed
    assert (stats.nodes, stats.solutions, stats.limit_hit) == (51913, 2520, False)


def test_callback_exception_propagates_and_leaves_no_state():
    p = trivial_group_problem(10, 4, 3)

    def fail_at_third(sol):
        seen.append(sol)
        if len(seen) == 3:
            raise KeyError("stop")

    runs = []
    for _ in range(2):
        seen = []
        with pytest.raises(KeyError):
            solve(p, on_solution=fail_at_third)
        assert len(seen) == 3
        sols = []
        stats = solve(p, on_solution=sols.append)
        runs.append((stats.nodes, stats.solutions, stats.limit_hit, sols))
    assert runs[0] == runs[1]
    assert runs[0][:3] == (51913, 2520, False)


@pytest.mark.parametrize("v, words", [(7, 1), (13, 2), (19, 3)])
def test_same_search_as_oracle_by_mask_words(v, words):
    # STS(v) with the trivial group: v(v-1)/2 primary items, so the mask
    # rows span 1, 2 and 3 words; STS(13) and STS(19) under a node cap
    p = trivial_group_problem(v, 3, 2)
    assert (len(p.primary) + 63) // 64 == words
    assert_same_search(p, node_cap=3000)
    assert_same_search(p, node_cap=3000, limit=7)


def test_same_search_as_oracle_cyclic_s2473():
    G, N = cyclic_group(73), normalizer_of_cyclic(73)
    ko = good_k_orbit_reps(G, 73, 4, 2)
    p = encode(build_km(G, t_orbit_reps(G, 73, 2), ko), normalizer_classes(N, ko, G), "c").problem
    sols, stats = assert_same_search(p, node_cap=20000)
    assert stats.nodes == 20001 and stats.limit_hit and sols


def test_progress_every_256_nodes():
    p = trivial_group_problem(10, 4, 3)
    calls = []
    stats = solve(p, node_cap=1000, progress=lambda *a: calls.append(a))
    assert [c[0] for c in calls] == [256, 512, 768]
    for nodes, depth, branch, branches in calls:
        assert 0 < depth <= 30 and (branch, branches) == (1, 7)
    assert stats.nodes == 1001


def test_missing_compiler_is_an_import_error(tmp_path, monkeypatch):
    shutil.copy(KERNEL_SOURCE, tmp_path / "_xcc.c")
    monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    # solve has no fallback: it fails with the loader's ImportError
    monkeypatch.setattr(_native, "_loaded", {})
    monkeypatch.setattr(_native, "__file__", str(tmp_path / "_native.py"))
    with pytest.raises(ImportError, match="gcc"):
        solve(toy_problem())
    assert not list((tmp_path / "__pycache__").glob("*"))


def test_kernel_is_not_loaded_before_the_first_solve(child_env):
    code = (
        "import kmsteiner, kmsteiner.cli\n"
        "from kmsteiner import xcc\n"
        "p = xcc.XCCProblem(['A', 'B'], ['X'], [((0,), ((0, 1),)), ((0, 1), ())])\n"
        "xcc.import_text(xcc.export_text(p))\n"
        "from kmsteiner import _native\n"
        "assert not _native._loaded\n"
        "assert xcc.solve(p).solutions == 1\n"
        "assert list(_native._loaded) == ['_xcc.c']\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=child_env)
