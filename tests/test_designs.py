import itertools
import os
import random

import numpy as np
import pytest

from kmsteiner import designs
from kmsteiner.designs import (
    BudgetExceeded,
    Design,
    SteinerReport,
    canonical_form,
    classify,
    expand,
    read_design_file,
    verify_steiner,
    write_design_file,
    write_gap_designs,
)
from kmsteiner.km import build_km
from kmsteiner.orbitgen import OrbitSet, good_k_orbit_reps, t_orbit_reps
from kmsteiner.perm import PermutationGroup, cyclic_group, normalizer_of_cyclic
from kmsteiner.symbreak import decode_solution, encode, normalizer_classes
from kmsteiner.xcc import solve

from oracles import (
    aut_order_bruteforce,
    designs_equal,
    expand_by_closure,
    orbit_of_subset,
    verify_steiner_dict,
)

RNG = random.Random(2024)


def fano():
    return Design(7, sorted(orbit_of_subset(cyclic_group(7), (1, 2, 4))))


def relabel(d, perm):
    return Design(d.v, np.asarray(perm)[d.blocks - 1])


def random_relabel(d, rng):
    pts = list(range(1, d.v + 1))
    rng.shuffle(pts)
    return relabel(d, pts)


def test_expand_fano_orbit():
    G = cyclic_group(7)
    ko = good_k_orbit_reps(G, 7, 3, 2)
    j = ko.reps.tolist().index([1, 2, 4])
    d = expand({j}, ko, G)
    assert d.b == 7 and verify_steiner(d, 2).ok


def test_expand_trivial_group():
    G = PermutationGroup.trivial(7)
    ko = good_k_orbit_reps(G, 7, 3, 2)
    chosen = {i for i, rep in enumerate(ko.reps.tolist()) if rep in fano().blocks.tolist()}
    d = expand(chosen, ko, G)
    assert designs_equal(d, fano())


def test_expand_duplicate_blocks_rejected():
    # two distinct representatives of one C7 orbit
    G = cyclic_group(7)
    ko = OrbitSet(v=7, t=2, reps=[(1, 2, 4), (2, 3, 5)], sizes=[7, 7], group_id=G.fingerprint())
    with pytest.raises(ValueError, match="duplicate blocks across chosen orbits"):
        expand({0, 1}, ko, G)
    # an orbit of 7 blocks recorded with size 3
    ko = OrbitSet(v=7, t=2, reps=[(1, 2, 4)], sizes=[3], group_id=G.fingerprint())
    with pytest.raises(AssertionError, match="orbit size mismatch"):
        expand({0}, ko, G)


def _orbit_set_unchecked(reps, sizes, G):
    """An OrbitSet of 3-subsets of the points of G whose arrays skip the
    constructor's checks, to reach the guards that keep the kernel of expand
    within its memory."""
    v = G.degree
    ko = object.__new__(OrbitSet)
    for name, value in (("v", v), ("t", 2), ("reps", np.array(reps, np.min_scalar_type(v))),
                        ("sizes", np.array(sizes, dtype=np.int64)), ("group_id", G.fingerprint())):
        object.__setattr__(ko, name, value)
    return ko


# (reps, sizes, chosen orbits, the error of expand); OrbitSet refuses the
# reps and sizes of the guarded cases
EXPAND_INDEX = [
    ([(1, 2, 4)], [7], {0, 1}, ValueError, r"^orbit index outside 0..0 in \[0, 1\]$"),
    ([(1, 2, 4)], [7], {-1, 0}, ValueError, r"^orbit index outside 0..0 in \[-1, 0\]$"),
]
EXPAND_GUARDED = [
    ([(0, 1, 2)], [7], {0}, ValueError, r"^orbit representative outside 1..7$"),
    ([(1, 2, 8)], [7], {0}, ValueError, r"^orbit representative outside 1..7$"),
    # an unsorted rep is never its own sorted image: an empty stabilizer
    ([(4, 2, 1)], [7], {0}, AssertionError, "^orbit size mismatch during expansion$"),
    # ... read as orbit size 0, which leaves 7 blocks for a total of 0
    ([(4, 2, 1)], [0], {0}, ValueError, "^duplicate blocks across chosen orbits$"),
]


# the same errors where points are uint16: each case holds a point above
# 255 and runs at v = 257, where C257 moves every 3-subset in an orbit of 257
EXPAND_UINT16 = [
    ([(1, 2, 256)], [257], {0, 1}, ValueError, r"^orbit index outside 0..0 in \[0, 1\]$"),
    ([(1, 2, 258)], [257], {0}, ValueError, r"^orbit representative outside 1..257$"),
    ([(1, 2, 256)], [3], {0}, AssertionError, "^orbit size mismatch during expansion$"),
    ([(1, 2, 256), (2, 3, 257)], [257, 257], {0, 1}, ValueError,
     "^duplicate blocks across chosen orbits$"),
]


# indices that are not integers, once truncated to orbit 0 and taken as orbit 1
EXPAND_NOT_INTEGER = [
    ([(1, 2, 3), (1, 2, 4)], [7, 7], [0.9], ValueError, "^orbit indices must be integers$"),
    ([(1, 2, 3), (1, 2, 4)], [7, 7], [True], ValueError, "^orbit indices must be integers$"),
]


@pytest.mark.parametrize("reps,sizes,chosen,error,message",
                         EXPAND_INDEX + EXPAND_GUARDED + EXPAND_UINT16 + EXPAND_NOT_INTEGER)
def test_expand_rejects(reps, sizes, chosen, error, message):
    G = cyclic_group(257 if np.max(reps) > 255 else 7)
    with pytest.raises(error, match=message):
        expand(chosen, _orbit_set_unchecked(reps, sizes, G), G)


@pytest.mark.parametrize("reps,sizes", [case[:2] for case in EXPAND_GUARDED])
def test_orbit_set_refuses_what_the_expand_kernel_guards(reps, sizes):
    message = "^orbit 0 is not 3 ascending points of 1..7 with an orbit size of at least 1$"
    with pytest.raises(ValueError, match=message):
        OrbitSet(v=7, t=2, reps=reps, sizes=sizes, group_id="")


def test_kernel_table_addresses_live_as_long_as_their_tables():
    # the kernels read cached tables by address: the Fano plane (expand
    # (v, k) = (7, 3), Steiner check (k, t) = (3, 2)) checked against the
    # oracles after the caches overflowed, and after the binomial tables
    # alone were evicted by numpy-path Steiner checks; an address that
    # outlived its table would read freed memory
    G = cyclic_group(7)
    ko = good_k_orbit_reps(G, 7, 3, 2)
    fano_orbit = [ko.reps.tolist().index([1, 2, 4])]

    def check_fano():
        d = expand(fano_orbit, ko, G)
        assert designs_equal(d, expand_by_closure(fano_orbit, ko, G))
        rep = verify_steiner(d, 2)
        assert (rep.ok, rep.violations) == verify_steiner_dict(d, 2) == (True, [])

    check_fano()
    halves = []  # 1-designs of two blocks of k points on 2k, one orbit each
    for k in range(4, 24):  # 20 shapes (2k, k) and (k, 1), 40 tables (2k, *)
        parts = OrbitSet(2 * k, 1, [range(1, k + 1), range(k + 1, 2 * k + 1)], [1, 1], "")
        trivial = PermutationGroup.trivial(2 * k)
        halves.append(expand({0, 1}, parts, trivial))
        assert designs_equal(halves[-1], expand_by_closure({0, 1}, parts, trivial))
        assert verify_steiner(halves[-1], 1).ok and verify_steiner_dict(halves[-1], 1)[0]
    check_fano()
    for d in halves:  # b C(k, 2) < C(2k, 2): counted in numpy, through _binomials only
        assert not verify_steiner(d, 2).ok and not verify_steiner_dict(d, 2)[0]
    # refill freed buffers of the sizes of the Fano plane's binomial tables
    junk = [np.full(n, -1, dtype=np.int64) for n in (14, 21) for _ in range(64)]
    check_fano()
    assert all((a == -1).all() for a in junk)


def test_expand_empty_choice():
    G = cyclic_group(13)
    ko = good_k_orbit_reps(G, 13, 3, 2)
    d = expand(set(), ko, G)
    assert (d.v, d.b, d.k) == (13, 0, 3)
    assert d.blocks.shape == (0, 3) and d.blocks.dtype == np.uint8
    rep = verify_steiner(d, 2)
    assert not rep.ok and (rep.ok, rep.violations) == verify_steiner_dict(d, 2)


@pytest.mark.parametrize(
    "v,k,solutions", [(15, 3, 2), (21, 3, 12), (27, 3, 16), (37, 4, 4), (21, 5, 1), (73, 4, 2080)]
)
def test_expand_every_benchmark_solution_matches_oracles(v, k, solutions):
    # every solution of the classify-mix instances, and the first 100,000
    # nodes of search-s2473: the same blocks and dtype as the closure
    # oracle, and a passing Steiner check as the dict oracle finds it
    G = cyclic_group(v)
    ko = good_k_orbit_reps(G, v, k, 2)
    km = build_km(G, t_orbit_reps(G, v, 2), ko)
    enc = encode(km, normalizer_classes(normalizer_of_cyclic(v), ko, G), "c")
    sols = []
    solve(enc.problem, on_solution=sols.append, node_cap=100_000)
    assert len(sols) == solutions
    for i, s in enumerate(sols):
        chosen = decode_solution(s, enc)
        d = expand(chosen, ko, G)
        assert designs_equal(d, expand_by_closure(chosen, ko, G))
        rep = verify_steiner(d, 2)
        assert rep.ok and rep.violations == []
        if i % 20 == 0:
            assert verify_steiner_dict(d, 2) == (True, [])


@pytest.mark.parametrize("v,k,kind,node_cap", [(19, 3, "a", None), (73, 4, "c", 20_000)])
def test_expand_matches_closure_oracle(v, k, kind, node_cap):
    G = cyclic_group(v)
    ko = good_k_orbit_reps(G, v, k, 2)
    km = build_km(G, t_orbit_reps(G, v, 2), ko)
    classes = normalizer_classes(normalizer_of_cyclic(v), ko, G) if kind != "a" else None
    enc = encode(km, classes, kind)
    sols = []
    solve(enc.problem, on_solution=sols.append, node_cap=node_cap)
    assert sols
    for s in sols:
        chosen = decode_solution(s, enc)
        d = expand(chosen, ko, G)
        assert designs_equal(d, expand_by_closure(chosen, ko, G)) and verify_steiner(d, 2).ok


def test_expand_past_256_points_matches_closure_oracle():
    G = cyclic_group(257)
    ko = good_k_orbit_reps(G, 257, 3, 2)
    assert ko.reps.dtype == np.uint16
    chosen = set(RNG.sample(range(len(ko)), 40)) | {len(ko) - 1}
    d = expand(chosen, ko, G)
    assert d.blocks.dtype == np.uint16 and designs_equal(d, expand_by_closure(chosen, ko, G))


def test_verify_steiner_pass_and_fail():
    d = fano()
    assert verify_steiner(d, 2).ok
    broken = Design(7, np.r_[d.blocks[:-1], [(1, 2, 3)]])
    rep = verify_steiner(broken, 2)
    assert not rep.ok
    assert any(count == 2 for _, count in rep.violations)
    assert len(rep.violations) <= 10


def test_verify_steiner_sorts_within_blocks():
    # given unsorted, sorted by the constructor: (2, 1) and (1, 2) are the
    # same pair
    d = Design(
        v=7,
        blocks=((2, 4, 1), (1, 4, 5), (1, 6, 7), (1, 2, 3), (2, 5, 7), (3, 4, 7), (3, 5, 6)),
    )
    rep = verify_steiner(d, 2)
    assert not rep.ok
    assert rep.violations == [((1, 2), 2), ((1, 4), 2), ((2, 6), 0), ((4, 6), 0)]


def cyclic_designs(v, k):
    from kmsteiner.km import build_km
    from kmsteiner.orbitgen import t_orbit_reps
    from kmsteiner.symbreak import encode
    from kmsteiner.xcc import solve_all

    G = cyclic_group(v)
    ko = good_k_orbit_reps(G, v, k, 2)
    sols, _ = solve_all(encode(build_km(G, t_orbit_reps(G, v, 2), ko), None, "a").problem)
    return [expand(set(s.option_ids), ko, G) for s in sols]


def corrupt(d, rng):
    """(v, blocks): one to three blocks replaced, dropped or duplicated, as
    a list of tuples; sometimes with the points of a block out of order."""
    blocks = list(map(tuple, d.blocks.tolist()))
    how = rng.choice(["replace", "drop", "duplicate"])
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(blocks))
        if how == "replace":
            blocks[i] = tuple(rng.sample(range(1, d.v + 1), d.k))
        elif how == "drop":
            del blocks[i]
        else:
            blocks.append(blocks[i])
    return d.v, blocks


def test_verify_steiner_matches_dict_oracle():
    rng = random.Random(91)
    found = cyclic_designs(19, 3) + cyclic_designs(37, 4)
    assert len(found) == 32 + 48
    corrupted = [corrupt(rng.choice(found), rng) for _ in range(200)]
    failing = refused = 0
    for d in found:
        rep = verify_steiner(d, 2)
        assert (rep.ok, rep.violations) == verify_steiner_dict(d, 2) == (True, [])
    for v, blocks in corrupted:
        if len(set(map(frozenset, blocks))) < len(blocks):  # a block repeats
            with pytest.raises(ValueError, match="repeats$"):
                Design(v, blocks)
            refused += 1
            continue
        d = Design(v, blocks)
        rep = verify_steiner(d, 2)
        assert (rep.ok, rep.violations) == verify_steiner_dict(d, 2)
        failing += not rep.ok
    assert (failing, refused) == (128, 72)  # every corruption is caught


def test_verify_steiner_edge_cases_match_dict_oracle():
    cases = [
        (Design(7, ()), 2),
        (fano(), 3),
        (fano(), 0),
        (fano(), 4),
        # C(100, 10) ~ 1.7e13 lex ranks
        (Design(100, (tuple(range(1, 12)), tuple(range(13, 2, -1)))), 10),
    ]
    for d, t in cases:
        rep = verify_steiner(d, t)
        assert (rep.ok, rep.violations) == verify_steiner_dict(d, t)
    # C(200, 40) >= 2^63 has no 63-bit lex rank
    with pytest.raises(ValueError, match="too wide"):
        verify_steiner(Design(200, [range(1, 41)]), 40)


def affine_plane(q):
    """AG(2, q) for a prime q, an S(2, q, q^2): the lines y = mx + c and
    x = c, the point (x, y) numbered 1 + qx + y."""
    lines = [[1 + q * x + (m * x + c) % q for x in range(q)] for m in range(q) for c in range(q)]
    lines += [[1 + q * c + y for y in range(q)] for c in range(q)]
    return Design(q * q, lines)


def boolean_quadruples(n):
    """The 4-subsets of GF(2)^n summing to 0, an S(3, 4, 2^n), the vector x
    numbered 1 + x."""
    return Design(1 << n, [tuple(x + 1 for x in Q) for Q in itertools.combinations(range(1 << n), 4)
                           if Q[0] ^ Q[1] ^ Q[2] ^ Q[3] == 0])


def with_blocks(d, drop, add, rng):
    """d with drop of its blocks removed and add new k-subsets added."""
    blocks = sorted(map(tuple, d.blocks.tolist()))
    rng.shuffle(blocks)
    kept = set(blocks[drop:])
    while len(kept) < d.b - drop + add:
        kept.add(tuple(sorted(rng.sample(range(1, d.v + 1), d.k))))
    return Design(d.v, sorted(kept))


def test_verify_steiner_reports_match_dict_oracle(monkeypatch):
    # designs with exactly C(v, t) t-subsets are checked in the kernel,
    # the others and those it fails by the key sort
    rng = random.Random(73)
    sts19, plane, sqs8, sqs16 = cyclic_designs(19, 3)[0], affine_plane(17), *map(boolean_quadruples, (3, 4))
    with monkeypatch.context() as patch:
        patch.setattr(designs, "_pack_keys", None)  # the kernel alone passes them
        for d, t in [(sts19, 2), (plane, 2), (sqs8, 3), (sqs16, 3)]:  # plane: 16-bit points
            assert verify_steiner(d, t) == SteinerReport(True, []) and verify_steiner_dict(d, t)[0]
    for d, t in [
        (with_blocks(sts19, 0, 6, rng), 2),  # over-covered
        (with_blocks(sts19, 5, 0, rng), 2),  # under-covered
        (with_blocks(plane, 1, 0, rng), 2),
        (with_blocks(sts19, 6, 6, rng), 2),  # mixed, at the kernel's size
        (with_blocks(plane, 3, 3, rng), 2),
        (with_blocks(sqs16, 4, 4, rng), 3),
    ]:
        rep = verify_steiner(d, t)
        assert (rep.ok, rep.violations) == verify_steiner_dict(d, t)
        assert len(rep.violations) == 10


@pytest.mark.parametrize(
    "blocks,message",
    [
        (((0, 1, 2), (2, 9, 3), (4, 5)), "equal-size sequences"),  # out of range, ragged
        (((1, 2, 3), (2, 3)), "equal-size sequences"),
        ((1, 2, 3), "equal-size sequences"),
        (((1, 2, 3), (2, 9, 3)), r"^block \(2, 3, 9\) has a point outside 1..7$"),
        (((0, 1, 2),), r"^block \(0, 1, 2\) has a point outside 1..7$"),
        (((1, 2, 2), (3, 4, 5)), r"^block \(1, 2, 2\) repeats a point$"),
        (((1, 2, 3), (3, 2, 1)), r"^block \(1, 2, 3\) repeats$"),
        # {123, 123, 456} and {123, 456, 456} were once one isomorphism class
        (((1, 2, 3), (1, 2, 3), (4, 5, 6)), r"^block \(1, 2, 3\) repeats$"),
        (((1, 2, 3), (4, 5, 6), (4, 5, 6)), r"^block \(4, 5, 6\) repeats$"),
        # strictly increasing within and across rows, but out of range
        (((1, 2, 3), (4, 5, 8)), r"^block \(4, 5, 8\) has a point outside 1..7$"),
        (((0, 1, 2), (1, 2, 3)), r"^block \(0, 1, 2\) has a point outside 1..7$"),
        # in order but for one adjacent pair: the rows are sorted first
        (((1, 2, 3), (1, 2, 4), (1, 2, 4)), r"^block \(1, 2, 4\) repeats$"),
        (((1, 3, 3), (2, 4, 5)), r"^block \(1, 3, 3\) repeats a point$"),
        (((4, 5, 6), (1, 2, 3), (6, 5, 4)), r"^block \(4, 5, 6\) repeats$"),
        (((3, 2, 1), (1, 2, 9)), r"^block \(1, 2, 9\) has a point outside 1..7$"),
        # the intake rule: integers only, refused before a cast could truncate
        (((1.5, 2, 3), (1, 4, 5)), "equal-size sequences of integer points"),
        (np.array([[1.9, 2, 3]]), "equal-size sequences of integer points"),
        ((("1", "2", "3"),), "equal-size sequences of integer points"),
        (np.array([[1, 2, 1 << 64]], dtype=object), "equal-size sequences of integer points"),
        (np.array([[True, True, True]]), "equal-size sequences of integer points"),
        ([(1, 2, 4), (True, 3, 5)], "equal-size sequences of integer points"),
    ],
)
def test_design_constructor_rejects(blocks, message):
    with pytest.raises(ValueError, match=message):
        Design(7, blocks)


def test_design_copies_unless_handed_over():
    # an array in np.min_scalar_type(v) and C order, its rows in order, is
    # handed over: kept and made read-only; any other is copied
    rows = np.array([[1, 2, 3], [1, 4, 5]], dtype=np.uint8)
    taken = Design(7, rows)
    assert np.shares_memory(taken.blocks, rows) and not rows.flags.writeable
    for other in (rows.astype(np.int64), rows.tolist(), np.asfortranarray(rows),
                  np.repeat(rows, 2, axis=0)[::2], rows[::-1].copy()):
        d = Design(7, other)
        assert np.array_equal(d.blocks, taken.blocks) and d.blocks.dtype == np.uint8
        if isinstance(other, np.ndarray):
            assert not np.shares_memory(d.blocks, other) and other.flags.writeable


def test_design_array_form():
    d = Design(7, [(4, 2, 1), (7, 6, 1), (3, 2, 1)])
    assert d.blocks.dtype == np.uint8 and not d.blocks.flags.writeable
    assert d.blocks.tolist() == [[1, 2, 3], [1, 2, 4], [1, 6, 7]]
    assert (d.v, d.b, d.k) == (7, 3, 3)
    assert designs_equal(Design(7, d.blocks[::-1]), d) and Design(7, d.blocks) != d
    assert Design(300, [(1, 299, 300)]).blocks.dtype == np.uint16
    assert Design(7, ()).blocks.shape == (0, 0)


def test_design_ordered_input_matches_sorted_input():
    # rows already strictly ordered skip the sort; shuffled rows take it
    rng = np.random.default_rng(5)
    for d in cyclic_designs(19, 3)[:4] + [Design(7, [(1, 2, 3)]), Design(300, [(1, 2, 300), (2, 3, 4)])]:
        rows = rng.permuted(d.blocks[rng.permutation(d.b)].astype(np.int64), axis=1)
        for blocks in (d.blocks, d.blocks.tolist(), rows, np.asfortranarray(d.blocks)):
            copy = Design(d.v, blocks)
            assert designs_equal(copy, d) and copy.blocks.flags.c_contiguous
            assert verify_steiner(copy, 2) == verify_steiner(d, 2)


def test_replication_number_corollary():
    d = fano()
    r = (d.v - 1) // (d.k - 1)
    for p in range(1, 8):
        assert sum(1 for blk in d.blocks if p in blk) == r


def test_fano_aut_order():
    cf = canonical_form(fano())
    assert cf.aut_order == 168
    assert aut_order_bruteforce(fano()) == 168


def test_relabeling_invariance_50_perms():
    base = canonical_form(fano())
    for _ in range(50):
        d = random_relabel(fano(), RNG)
        cf = canonical_form(d)
        assert cf.certificate == base.certificate
        assert cf.aut_order == 168


def test_seeded_autos_do_not_change_answer():
    from kmsteiner.perm import parse_permutation

    G = cyclic_group(7)
    plain = canonical_form(fano())
    seeded = canonical_form(fano(), known_autos=G.generators)
    assert (plain.certificate, plain.aut_order) == (
        seeded.certificate,
        seeded.aut_order,
    )
    # a seed that is not an automorphism is rejected
    with pytest.raises(ValueError):
        canonical_form(fano(), known_autos=[parse_permutation("(1,2)", 7)])


def test_random_small_systems_match_bruteforce():
    all_triples = list(itertools.combinations(range(1, 8), 3))
    for _ in range(30):
        d = Design(7, RNG.sample(all_triples, RNG.randint(2, 9)))
        cf = canonical_form(d)
        assert cf.aut_order == aut_order_bruteforce(d)
        d2 = random_relabel(d, RNG)
        cf2 = canonical_form(d2)
        assert cf2.certificate == cf.certificate
        assert cf2.aut_order == cf.aut_order


def test_nonisomorphic_systems_have_distinct_certificates():
    d1 = Design(7, [(1, 2, 3), (4, 5, 6)])
    d2 = Design(7, [(1, 2, 3), (3, 4, 5)])
    assert canonical_form(d1).certificate != canonical_form(d2).certificate


def test_budget_is_hard_failure():
    with pytest.raises(BudgetExceeded):
        canonical_form(fano(), node_budget=2)


def test_canonical_form_refuses_v_past_16_bits():
    with pytest.raises(ValueError, match="16-bit"):
        canonical_form(Design(1 << 16, [(1, 2, 3)]))


def test_classify_multiplicity():
    d = fano()
    cls = classify([d, random_relabel(d, RNG), random_relabel(d, RNG)])
    assert len(cls) == 1
    assert cls[0].multiplicity == 3
    assert cls[0].aut_order == 168
    assert verify_steiner(cls[0].representative, 2).ok


def test_classify_mixed():
    d1 = Design(7, [(1, 2, 3), (4, 5, 6)])
    d2 = Design(7, [(1, 2, 3), (3, 4, 5)])
    cls = classify([d1, d2, random_relabel(d1, RNG)])
    assert len(cls) == 2
    assert sorted(c.multiplicity for c in cls) == [1, 2]
    assert [c.certificate for c in cls] == sorted(c.certificate for c in cls)
    with pytest.raises(ValueError):
        classify([d1, Design(8, [(1, 2, 3)])])


def test_aut_divisible_by_prescribed_group():
    G = cyclic_group(13)
    ko = good_k_orbit_reps(G, 13, 3, 2)
    from kmsteiner.km import build_km
    from kmsteiner.orbitgen import t_orbit_reps
    from kmsteiner.symbreak import encode
    from kmsteiner.xcc import solve_all

    km = build_km(G, t_orbit_reps(G, 13, 2), ko)
    enc = encode(km, None, "a")
    sols, _ = solve_all(enc.problem)
    for s in sols:
        d = expand(set(s.option_ids), ko, G)
        assert canonical_form(d).aut_order % 13 == 0


def test_design_file_round_trip(tmp_path):
    d = fano()
    path = os.path.join(tmp_path, "fano.txt")
    write_design_file(path, d)
    assert designs_equal(read_design_file(path), d)
    with open(path) as fh:
        assert fh.readline() == "v=7 b=7 k=3\n"


@pytest.mark.parametrize(
    "text, where, message",
    [
        ("v=7 k=3\n1 2 3\n", ":1", "malformed design header"),
        ("v=0 b=0 k=0\n", ":1", "v, b and k must be at least 1, got v=0 b=0 k=0"),
        ("v=7 b=0 k=0\n", ":1", "v, b and k must be at least 1, got v=7 b=0 k=0"),
        ("v=7 b=0 k=-1\n", ":1", "v, b and k must be at least 1, got v=7 b=0 k=-1"),
        ("v=7 b=2 k=3\n1 2 x\n1 3 5\n", ":2", "invalid literal for int() with base 10: 'x'"),
        ("v=7 b=2 k=3\n1 2 4\n1 5 9\n", ":3", "block (1, 5, 9) has a point outside 1..7"),
        ("v=7 b=1 k=3\n2 1 2\n", ":2", "block (2, 1, 2) repeats a point"),
        ("v=7 b=2 k=3\n1 2 3\n\n3 2 1\n", ":4", "block (3, 2, 1) repeats line 2"),
        ("v=7 b=2 k=3\n1 2\n1 3 5\n", ":2", "block (1, 2) has size != 3"),
        ("v=7 b=3 k=3\n1 2 3\n", "", "expected 3 blocks, found 1"),  # no one line at fault
    ],
)
def test_design_file_errors_name_file_and_line(tmp_path, text, where, message):
    path = tmp_path / "d.txt"
    path.write_text(text)
    with pytest.raises(ValueError) as err:
        read_design_file(path)
    assert str(err.value) == f"{path}{where}: {message}"


def test_gap_file_shape(tmp_path):
    path = os.path.join(tmp_path, "designs.gap")
    write_gap_designs(path, [fano()])
    text = open(path).read()
    assert text.startswith("[\n[[1,2,4],")
    assert text.rstrip().endswith("]")
