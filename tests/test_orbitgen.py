import os
import random
import subprocess
import sys
from math import comb

import numpy as np
import pytest

from kmsteiner.km import build_km
from kmsteiner.orbitgen import (
    OrbitSet,
    _min_image_keys,
    _orderly_reps,
    good_k_orbit_reps,
    t_orbit_reps,
)
from kmsteiner.order84 import TABLE_GROUPS
from kmsteiner.perm import (
    Permutation,
    PermutationGroup,
    cyclic_group,
    parse_permutation,
    read_group_file,
)
from kmsteiner.symbreak import encode, normalizer_classes
from kmsteiner.xcc import solve

from oracles import (
    canonical_keys,
    good_orbits_bruteforce,
    is_good_orbit,
    orderly_reps_bitmask,
    subset_orbit_count,
    subset_orbits,
)


def _pairs(reps, sizes):
    """(rep tuple, orbit size) per row of the orbit arrays."""
    return list(zip(map(tuple, reps.tolist()), sizes.tolist()))


def test_t_orbit_reps_cyclic91():
    reps = t_orbit_reps(cyclic_group(91), 91, 2)
    assert len(reps) == 45
    assert reps.sizes.sum() == comb(91, 2)


def test_t_orbit_reps_trivial():
    reps = t_orbit_reps(PermutationGroup.trivial(7), 7, 2)
    assert len(reps) == 21
    assert (reps.sizes == 1).all()


def test_t_orbit_reps_cyclic7():
    reps = t_orbit_reps(cyclic_group(7), 7, 2)
    assert len(reps) == 3
    assert (reps.sizes == 7).all()


def test_indices_contiguous_lex():
    reps = t_orbit_reps(cyclic_group(13), 13, 3)
    assert reps.reps.shape == (len(reps), 3) and reps.reps.dtype == np.uint8
    assert not reps.reps.flags.writeable and not reps.sizes.flags.writeable
    rows = reps.reps.tolist()
    assert rows == sorted(rows) and len(set(map(tuple, rows))) == len(rows)


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
    assert _pairs(got.reps, got.sizes) == expected


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
    s = good_k_orbit_reps(G, 67, 3, 2)
    got = _pairs(s.reps, s.sizes)
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
    "v,size,t,good,oracle_p2",
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
def test_matches_bitmask_oracle(kind, v, size, t, good, oracle_p2):
    # oracle_p2=False compares the library (prune P2 always on) with the
    # oracle's tree without P2
    _check_against_oracle(kind, v, size, t, good, oracle_p2)


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


def _check_against_oracle(kind, v, size, t, good, oracle_p2):
    # good is the oracle's alone: the library's prune P2 is always on, and
    # never prunes at size == t
    seed = v * 100 + size * 10 + t
    G = _seeded_group(kind, v, seed)
    whole = orderly_reps_bitmask(G, v, size, t, good, oracle_p2)
    reps, sizes, _ = _orderly_reps(G, v, size, t)
    assert reps.dtype == np.min_scalar_type(v) and sizes.dtype == np.int64
    assert _pairs(reps, sizes) == whole


def test_overlap_prune_is_sound():
    for v, k in [(13, 3), (16, 4)]:
        G = cyclic_group(v)
        with_prune = good_k_orbit_reps(G, v, k, 2)
        without = orderly_reps_bitmask(G, v, k, 2, True, overlap_prune=False)
        assert _pairs(with_prune.reps, with_prune.sizes) == without


def test_rerun_identical():
    G = cyclic_group(19)
    a = good_k_orbit_reps(G, 19, 3, 2)
    b = good_k_orbit_reps(G, 19, 3, 2)
    assert _pairs(a.reps, a.sizes) == _pairs(b.reps, b.sizes)
    assert a.group_id == b.group_id


def test_orbit_sizes_divide_group_order():
    G = cyclic_group(15)
    s = good_k_orbit_reps(G, 15, 3, 2)
    assert (15 % s.sizes == 0).all()


def test_subset_orbit_count_burnside():
    assert subset_orbit_count(cyclic_group(13), 3) == len(
        subset_orbits(cyclic_group(13).generators, 13, 3)
    )
    assert subset_orbit_count(PermutationGroup.trivial(8), 3) == comb(8, 3)
    assert subset_orbit_count(cyclic_group(91), 6) == 7324878


def save_and_load(path, arr):
    np.save(path, arr, allow_pickle=False)
    return np.load(path, allow_pickle=False)


def test_orbit_file_round_trip(tmp_path):
    G = cyclic_group(13)
    s = good_k_orbit_reps(G, 13, 3, 2)
    reps = save_and_load(os.path.join(tmp_path, "reps.npy"), s.reps)
    sizes = save_and_load(os.path.join(tmp_path, "sizes.npy"), s.sizes)
    assert reps.dtype == s.reps.dtype and np.array_equal(reps, s.reps)
    assert sizes.dtype == s.sizes.dtype and np.array_equal(sizes, s.sizes)
    # kept, not copied, and made read-only; byte-identical on re-write
    again = OrbitSet(13, 2, reps, sizes, s.group_id)
    assert again.reps is reps and again.sizes is sizes and not reps.flags.writeable
    for name, arr in (("reps", again.reps), ("sizes", again.sizes)):
        np.save(os.path.join(tmp_path, f"{name}2.npy"), arr, allow_pickle=False)
        assert (open(os.path.join(tmp_path, f"{name}.npy"), "rb").read()
                == open(os.path.join(tmp_path, f"{name}2.npy"), "rb").read())


def test_orbit_file_count_mismatch():
    reps = np.array([[1, 2, 4], [1, 2, 5]], dtype=np.uint8)
    with pytest.raises(ValueError, match=r"sizes of shape \(1,\)"):
        OrbitSet(7, 2, reps, np.array([7], dtype=np.int64), "")


def _set(a, index, value):
    a = a.copy()
    a[index] = value
    return a


# the orbits 1 2 4 and 1 2 5 of 3-subsets of 1..7, each of size 7, with the
# second one changed; each id gives the changed orbit as text, its points
# and "size=<orbit size>".  A row of the wrong width is the file format's
# to refuse (test_cli's tampered orbit files); here 1 2 and 1 2 repeat.
@pytest.mark.parametrize(
    "tamper",
    [
        pytest.param(lambda r, s: (r[:, :2].copy(), s), id="1 2 size=7"),
        pytest.param(lambda r, s: (_set(r, (1, 0), 0), s), id="0 2 4 size=7"),
        pytest.param(lambda r, s: (_set(r, (1, 2), 8), s), id="1 2 8 size=7"),
        pytest.param(lambda r, s: (_set(r, 1, [1, 4, 2]), s), id="1 4 2 size=7"),
        pytest.param(lambda r, s: (_set(r, (1, 2), 2), s), id="1 2 2 size=7"),
        pytest.param(lambda r, s: (_set(r, 1, [1, 2, 4]), _set(s, 1, 0)), id="1 2 4 size=0"),
        pytest.param(lambda r, s: (_set(r, 1, [1, 2, 4]), s[:1]), id="1 2 4 7"),  # no size
        pytest.param(lambda r, s: (_set(r.astype(np.float64), (1, 2), np.nan), s),
                     id="1 2 x size=7"),
        pytest.param(lambda r, s: (_set(r.astype(np.int64), (1, 2), 1 << 62), s),
                     id="1 2 99999999999999999999 size=7"),
    ],
)
def test_orbit_file_bad_rep_rejected(tamper):
    reps = np.array([[1, 2, 4], [1, 2, 5]], dtype=np.uint8)
    OrbitSet(7, 2, reps, np.array([7, 7], dtype=np.int64), "")
    with pytest.raises(ValueError):
        OrbitSet(7, 2, *tamper(reps, np.array([7, 7], dtype=np.int64)), "")


@pytest.mark.parametrize(
    "reps,sizes,message",
    [
        # 260 would wrap to 4 in uint8, the dtype of v = 7
        ([[1, 2, 260]], [7], "orbit 0 is not 3 ascending points of 1..7"),
        ([[1, 2, -252]], [7], "orbit 0 is not 3 ascending points of 1..7"),
        # 2^63 would wrap to -2^63 in int64
        ([[1, 2, 4]], np.array([1 << 63], dtype=np.uint64), "orbit 0 is not 3 ascending"),
        ([[1, 2, 4]], [1 << 64], "must be integers"),  # an object array
        ([[1, 2, 4.0]], [7], "must be integers"),
        ([[1, 2, 4]], [True], "must be integers"),
    ],
)
def test_orbit_set_checks_values_before_its_cast(reps, sizes, message):
    with pytest.raises(ValueError, match=message):
        OrbitSet(v=7, t=2, reps=reps, sizes=sizes, group_id="")
    s = OrbitSet(v=7, t=2, reps=[[1, 2, 4], [1, 2, 5]], sizes=[7, 7], group_id="")
    assert s.reps.dtype == np.uint8 and s.reps.tolist() == [[1, 2, 4], [1, 2, 5]]


def test_parameter_validation():
    with pytest.raises(ValueError):
        t_orbit_reps(cyclic_group(7), 7, 0)
    with pytest.raises(ValueError):
        good_k_orbit_reps(cyclic_group(7), 7, 3, 3)


def _conjugate(G, sigma):
    """The group with g' mapping sigma(x) to sigma(g(x)) for each g in G."""
    gens = []
    for g in G.generators:
        img = [0] * G.degree
        for x, gx in enumerate(g.raw()):
            img[sigma[x]] = sigma[gx]
        gens.append(Permutation(img))
    return PermutationGroup(gens, G.degree)


def _example_group(name, fixtures_dir):
    if name == "trivial":
        return PermutationGroup.trivial(10)
    if name == "S8":
        return PermutationGroup([Permutation([1, 0, 2, 3, 4, 5, 6, 7]),
                                 Permutation([1, 2, 3, 4, 5, 6, 7, 0])], 8)
    if name.startswith("C"):
        return cyclic_group(int(name[1:]))
    G = read_group_file(os.path.join(fixtures_dir, "groups", name[:3] + ".grp"))
    if name.endswith("moved"):
        # swap point 0 with a point of another orbit, so the orbit holding
        # point 0, and with it the least orbit minimum, changes
        y = int(np.flatnonzero(~np.isin(np.arange(G.degree), G.element_table()[:, 0]))[0])
        sigma = list(range(G.degree))
        sigma[0], sigma[y] = y, 0
        moved = _conjugate(G, sigma)
        assert len(set(moved.element_table()[:, 0])) != len(set(G.element_table()[:, 0]))
        return moved
    return G


@pytest.mark.parametrize(
    "name, k, count",
    [
        ("trivial", 3, 5000),
        ("C13", 3, 5000),
        ("C37", 4, 5000),
        ("C73", 4, 5000),
        ("G08", 6, 5000),
        ("G14", 6, 5000),
        ("G08 moved", 6, 5000),
        # 3 x 5,040 candidates per subset, more than one chunk holds
        ("S8", 3, 20),
    ],
)
def test_min_image_keys_match_all_elements_oracle(name, k, count, fixtures_dir):
    # random sorted k-subsets, not only orbit representatives; 5,000 of
    # them give more than one chunk of candidate images
    G = _example_group(name, fixtures_dir)
    rng = np.random.default_rng(11)
    subsets0 = np.sort(rng.random((count, G.degree)).argsort(axis=1)[:, :k], axis=1)
    expected = canonical_keys(subsets0, G)
    assert (_min_image_keys(subsets0, G) == expected).all()
    assert (_min_image_keys(subsets0.astype(np.uint8), G) == expected).all()
    assert _min_image_keys(subsets0[:0], G).shape == (0,)


# nodes of the orderly search for the good 6-orbits at v = 91
SEARCH_NODES = {"G8": 40249, "G14": 40492, "G1": 229055, "C91": 322281}


def _order84_group(label, fixtures_dir):
    return read_group_file(os.path.join(fixtures_dir, "groups", f"G{int(label[1:]):02d}.grp"))


@pytest.mark.parametrize("label", ["G8", "G14"])
def test_orderly_reps_node_count(label, fixtures_dir):
    _, sizes, nodes = _orderly_reps(_order84_group(label, fixtures_dir), 91, 6, 2)
    assert (len(sizes), nodes) == (TABLE_GROUPS[label][0], SEARCH_NODES[label])


# groups of order 84 with no published design whose normalizer classes and
# encoding-b search take under a second; each of the other seven has KM rows
# that no good orbit covers
SOLVED_TO_ZERO = ("G7", "G8", "G12", "G14")


@pytest.mark.parametrize("label", [*TABLE_GROUPS, "C91"])
def test_good_orbit_counts_match_the_paper(label, fixtures_dir):
    # the paper's good 6-orbit column for the 15 groups of order 84, and
    # the 1,774,964 good orbits of cyclic S(2,6,91)
    if label == "C91":
        G, expected = cyclic_group(91), 1774964
    else:
        G, expected = _order84_group(label, fixtures_dir), TABLE_GROUPS[label][0]
    calls = []
    ko = good_k_orbit_reps(G, 91, 6, 2, progress=lambda *args: calls.append(args))
    assert len(ko) == expected
    nodes, found, second, v = calls[-1]
    assert (found, v) == (expected, 91)
    assert 2 <= second <= 87  # a second point leaves room for four more
    if label in SEARCH_NODES:
        assert nodes == SEARCH_NODES[label]
    # a call every 2^16 nodes, counts never falling
    assert {n for n, *_ in calls if n % (1 << 16) == 0} == set(range(1 << 16, nodes + 1, 1 << 16))
    assert [c[:3] for c in calls] == sorted(c[:3] for c in calls)
    if label == "C91" or TABLE_GROUPS[label][2]:
        return
    # the paper's 0 designs, with its |Ncal| where the search runs
    km = build_km(G, t_orbit_reps(G, 91, 2), ko)
    if label in SOLVED_TO_ZERO:
        N = read_group_file(os.path.join(fixtures_dir, "normalizers", f"G{int(label[1:]):02d}.grp"))
        classes = normalizer_classes(N, ko, G)
        assert classes.n_classes == TABLE_GROUPS[label][1]
        assert solve(encode(km, classes, "b").problem).solutions == 0
    else:
        # rows 0-2 are the three 2-orbits on the point orbit {1..7}; no good
        # orbit covers them, so no design exists
        assert km.t_orbits.reps[:3].max() <= 7 and km.t_orbits.reps[3:].max() > 7
        assert np.bincount(km.col_rows, minlength=km.shape[0])[:3].tolist() == [0, 0, 0]


def test_kernel_is_not_loaded_before_the_first_orbit_search(child_env):
    code = (
        "import kmsteiner, kmsteiner.cli, kmsteiner.orbitgen\n"
        "from kmsteiner import _native, orbitgen, perm\n"
        "assert not _native._loaded\n"
        "assert len(orbitgen.good_k_orbit_reps(perm.cyclic_group(13), 13, 3, 2)) == 16\n"
        "assert list(_native._loaded) == ['_orbits.c']\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True, env=child_env)


def test_orbit_kernel_refuses_an_element_table_not_c_ordered(child_env):
    # read as if C-ordered, the reversed rows would run past the table's end
    code = (
        "import ctypes\n"
        "from kmsteiner import orbitgen, perm\n"
        "G = perm.cyclic_group(13)\n"
        "table = G.element_table()[::-1]\n"
        "G.element_table = lambda: table\n"
        "try:\n"
        "    orbitgen.good_k_orbit_reps(G, 13, 3, 2)\n"
        "except ctypes.ArgumentError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=child_env, capture_output=True,
                          text=True, check=False)
    assert proc.returncode == 0, proc.stderr
    assert "kms_orbits_new argument 5: expected a C-ordered array of int64" in proc.stdout
