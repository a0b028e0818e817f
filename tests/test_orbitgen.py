import os
import random
from math import comb

import pytest

from kmsteiner.orbitgen import (
    _orderly_reps,
    good_k_orbit_reps,
    read_orbit_file,
    subset_orbit_count,
    t_orbit_reps,
    write_orbit_file,
)
from kmsteiner.perm import Permutation, PermutationGroup, cyclic_group, parse_permutation

from oracles import (
    good_orbits_bruteforce,
    is_good_orbit,
    orderly_reps_bitmask,
    subset_orbits,
)


def test_t_orbit_reps_cyclic91():
    reps = t_orbit_reps(cyclic_group(91), 91, 2)
    assert len(reps) == 45
    assert sum(r.orbit_size for r in reps) == comb(91, 2)


def test_t_orbit_reps_trivial():
    reps = t_orbit_reps(PermutationGroup.trivial(7), 7, 2)
    assert len(reps) == 21
    assert all(r.orbit_size == 1 for r in reps)


def test_t_orbit_reps_cyclic7():
    reps = t_orbit_reps(cyclic_group(7), 7, 2)
    assert len(reps) == 3
    assert all(r.orbit_size == 7 for r in reps)


def test_indices_contiguous_lex():
    reps = t_orbit_reps(cyclic_group(13), 13, 3)
    assert [r.index for r in reps] == list(range(len(reps)))
    assert [r.rep for r in reps] == sorted(r.rep for r in reps)


def test_is_good_orbit_examples():
    C7 = cyclic_group(7)
    assert is_good_orbit(C7, (1, 2, 4), 2)
    assert not is_good_orbit(C7, (1, 2, 3), 2)
    assert is_good_orbit(PermutationGroup.trivial(9), (1, 5, 9), 2)
    with pytest.raises(ValueError):
        is_good_orbit(C7, (1, 2), 2)


def _cycle(v):
    return "(" + ",".join(map(str, range(1, v + 1))) + ")"


def _reflection(v):
    """The reflection i -> v + 2 - i of the cyclic v-gon on 1..v, fixing 1."""
    return "".join(f"({i},{v + 2 - i})" for i in range(2, v + 1) if i < v + 2 - i)


@pytest.mark.parametrize(
    "gens,v,k,t",
    [
        (["(1,2,3,4,5,6,7,8,9,10,11,12,13)"], 13, 3, 2),
        (["(1,2,3,4,5,6,7)"], 7, 3, 2),
        ([], 7, 3, 2),  # trivial group
        (["(1,2,3,4,5)"], 9, 3, 2),  # non-transitive
        (["(1,2,3,4,5,6,7,8,9,10,11)", "(2,3,5,9,6,11,10,8,4,7)"], 11, 5, 2),
        (["(1,2,3,4,5,6,7,8)"], 8, 4, 3),  # t = 3
    ],
)
def test_good_orbits_match_bruteforce(gens, v, k, t):
    perms = [parse_permutation(s, v) for s in gens] or [
        parse_permutation("()", v)
    ]
    G = PermutationGroup(perms, v)
    got = good_k_orbit_reps(G, v, k, t)
    expected = good_orbits_bruteforce(G.generators, v, k, t)
    assert [(r.rep, r.orbit_size) for r in got.reps] == expected


@pytest.mark.parametrize(
    "gens,count",
    [
        ([_cycle(67)], 682),
        ([_cycle(67), _reflection(67)], 0),  # dihedral, order 134
        ([_reflection(67)], 22913),
    ],
)
def test_good_orbits_two_words_match_bruteforce(gens, count):
    # v = 67 needs two 64-bit words per mask
    G = PermutationGroup([parse_permutation(s, 67) for s in gens], 67)
    got = [(r.rep, r.orbit_size) for r in good_k_orbit_reps(G, 67, 3, 2).reps]
    assert len(got) == count
    assert got == good_orbits_bruteforce(G.generators, 67, 3, 2)


def _seeded_group(kind, v, seed):
    """A cyclic, dihedral, single-reflection or trivial group on v points,
    relabeled by a seeded random permutation."""
    gens = {
        "cyclic": [_cycle(v)],
        "dihedral": [_cycle(v), _reflection(v)],
        "reflection": [_reflection(v)],
        "trivial": ["()"],
    }[kind]
    perms = [parse_permutation(s, v).raw() for s in gens]
    relabel = list(range(v))
    random.Random(seed).shuffle(relabel)
    back = [0] * v
    for x, y in enumerate(relabel):
        back[y] = x
    conj = [Permutation(tuple(relabel[g[back[y]]] for y in range(v))) for g in perms]
    return PermutationGroup(conj, v)


@pytest.mark.parametrize("kind", ["cyclic", "dihedral", "reflection", "trivial"])
@pytest.mark.parametrize(
    "v,size,t,good,overlap_prune",
    [
        (13, 4, 2, True, True),
        (19, 4, 2, True, True),
        (19, 4, 2, True, False),
        (16, 4, 3, True, True),  # t = 3
        (70, 3, 2, True, True),  # two words
        (17, 3, 3, False, True),  # t-orbits
        (70, 2, 2, False, True),
    ],
)
def test_matches_bitmask_oracle(kind, v, size, t, good, overlap_prune):
    _check_against_oracle(kind, v, size, t, good, overlap_prune)


@pytest.mark.parametrize(
    "kind,v,size,t,good",
    [
        ("cyclic", 300, 3, 2, True),
        ("dihedral", 260, 3, 3, False),
        ("reflection", 260, 2, 2, False),
        ("trivial", 257, 2, 2, False),
    ],
)
def test_matches_bitmask_oracle_past_256_points(kind, v, size, t, good):
    # points from 256 on sit in the fifth mask word and beyond; not crossed
    # with every kind, since the trivial group at v = 300 has 4.5 million
    # good 3-subset orbits
    _check_against_oracle(kind, v, size, t, good, True)


def _check_against_oracle(kind, v, size, t, good, overlap_prune):
    seed = v * 100 + size * 10 + t
    G = _seeded_group(kind, v, seed)
    whole = orderly_reps_bitmask(G, v, size, t, good, overlap_prune)
    assert _orderly_reps(G, v, size, t, good, overlap_prune) == whole
    parts = []
    for i in range(3):
        parts += _orderly_reps(G, v, size, t, good, overlap_prune, shard=(i, 3))
    assert sorted(parts) == whole


def test_overlap_prune_is_sound():
    for v, k in [(13, 3), (16, 4)]:
        G = cyclic_group(v)
        with_prune = good_k_orbit_reps(G, v, k, 2)
        without = good_k_orbit_reps(G, v, k, 2, overlap_prune=False)
        assert [(r.rep, r.orbit_size) for r in with_prune.reps] == [
            (r.rep, r.orbit_size) for r in without.reps
        ]


def test_rerun_identical():
    G = cyclic_group(19)
    a = good_k_orbit_reps(G, 19, 3, 2)
    b = good_k_orbit_reps(G, 19, 3, 2)
    assert [(r.rep, r.orbit_size) for r in a.reps] == [
        (r.rep, r.orbit_size) for r in b.reps
    ]
    assert a.group_id == b.group_id


def test_sharding_partitions_the_tree():
    G = cyclic_group(19)
    whole = [(r.rep, r.orbit_size) for r in good_k_orbit_reps(G, 19, 3, 2).reps]
    parts = []
    for i in range(4):
        s = good_k_orbit_reps(G, 19, 3, 2, shard=(i, 4))
        parts.extend((r.rep, r.orbit_size) for r in s.reps)
    assert sorted(parts) == whole


def test_orbit_sizes_divide_group_order():
    G = cyclic_group(15)
    s = good_k_orbit_reps(G, 15, 3, 2)
    for r in s.reps:
        assert 15 % r.orbit_size == 0


def test_subset_orbit_count_burnside():
    assert subset_orbit_count(cyclic_group(13), 3) == len(
        subset_orbits(cyclic_group(13).generators, 13, 3)
    )
    assert subset_orbit_count(PermutationGroup.trivial(8), 3) == comb(8, 3)
    assert subset_orbit_count(cyclic_group(91), 6) == 7324878


def test_orbit_file_round_trip(tmp_path):
    G = cyclic_group(13)
    s = good_k_orbit_reps(G, 13, 3, 2)
    path = os.path.join(tmp_path, "orbits.txt")
    write_orbit_file(path, 13, 3, 2, s.reps, "C13.grp")
    v, k, t, label, reps = read_orbit_file(path)
    assert (v, k, t, label) == (13, 3, 2, "C13.grp")
    assert [(r.rep, r.orbit_size) for r in reps] == [
        (r.rep, r.orbit_size) for r in s.reps
    ]
    # byte-identical on re-write
    path2 = os.path.join(tmp_path, "orbits2.txt")
    write_orbit_file(path2, v, k, t, reps, label)
    assert open(path).read() == open(path2).read()


def test_orbit_file_count_mismatch(tmp_path):
    path = os.path.join(tmp_path, "bad.txt")
    with open(path, "w") as fh:
        fh.write("7 3 2 group=x count=2\n1 2 4 size=7\n")
    with pytest.raises(ValueError):
        read_orbit_file(path)


def test_parameter_validation():
    with pytest.raises(ValueError):
        t_orbit_reps(cyclic_group(7), 7, 0)
    with pytest.raises(ValueError):
        good_k_orbit_reps(cyclic_group(7), 7, 3, 3)
