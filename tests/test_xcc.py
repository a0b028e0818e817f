import hashlib
import random

import numpy as np
import pytest

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

from oracles import export_text_from_options, xcc_solutions_bruteforce


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
        sols, _ = solve_all(p)
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


def test_export_text_matches_option_view():
    G, N = cyclic_group(37), normalizer_of_cyclic(37)
    ko = good_k_orbit_reps(G, 37, 4, 2)
    km = build_km(G, t_orbit_reps(G, 37, 2), ko)
    p = encode(km, normalizer_classes(N, ko, G), "c").problem
    text = export_text(p)
    assert text.encode() == export_text_from_options(p).encode()
    assert import_text(text) == p


@pytest.mark.parametrize("n_prim", [1, 45, 64, 120])
def test_item_counts_both_paths(n_prim):
    # rows below _HISTOGRAM_ROWS are unpacked, longer ones histogrammed by byte
    from kmsteiner.xcc import _HISTOGRAM_ROWS, _bitmask, _item_counts

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
    from kmsteiner import xcc

    monkeypatch.setattr(xcc, "_MASK_CHUNK", chunk)
    rng = np.random.default_rng(10 * words + chunk)
    for n in (0, 1, 50):
        dense = rng.random((n, 64 * words)) < 0.1
        dense[rng.random(n) < 0.2] = False
        indptr = np.r_[0, np.cumsum(dense.sum(axis=1))]
        items = np.nonzero(dense)[1].astype(np.int32)
        got = xcc._bitmask(indptr, items, words)
        packed = np.packbits(dense, axis=1, bitorder="little")
        expected = packed.view("<u8").astype(np.uint64).reshape(n, words)
        assert got.shape == (n, words)
        assert np.array_equal(got, expected)


def test_multiword_search_pinned():
    # S(3,4,10) with the trivial group: 120 primary items, so every
    # bitmask row spans two words
    G = PermutationGroup.trivial(10)
    km = build_km(G, t_orbit_reps(G, 10, 3), good_k_orbit_reps(G, 10, 4, 3))
    p = encode(km, None, "a").problem
    assert (len(p.primary), p.n_options) == (120, 210)
    sols, stats = solve_all(p)
    assert (stats.solutions, stats.nodes) == (2520, 51913)  # 10!/1440 labeled designs
    digest = hashlib.sha256(repr([s.option_ids for s in sols]).encode()).hexdigest()
    assert digest == "85892a5d304fd92490a94e42238252dd619c38b6d37b9ae642507e9710a05256"


def test_import_errors():
    with pytest.raises(ValueError):
        import_text("A B | X\nA Q\n")  # unknown item
    with pytest.raises(ValueError):
        import_text("A | X\nA X:red\n")  # malformed color
    with pytest.raises(ValueError):
        import_text("A | X\nX:1\n")  # option with no primary item
    with pytest.raises(ValueError):
        import_text("A | X\nA X\n")  # secondary without color
    with pytest.raises(ValueError):
        import_text("A B\nA\n")  # missing separator
    with pytest.raises(ValueError):
        import_text("A | X\nA X:1 A\n")  # repeated item
    with pytest.raises(ValueError):
        import_text("A | X\nA X:99999999999999999999\n")  # color beyond 64 bits


def test_replay_verifier_rejects_bad_sets():
    p = toy_problem()
    assert not verify_solution(p, (0,))  # B uncovered
    assert not verify_solution(p, (0, 2))  # A covered twice
    assert verify_solution(p, (2,))
