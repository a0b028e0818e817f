import os
from itertools import combinations
from math import comb

import numpy as np
import pytest

from kmsteiner.km import KMError, build_km, read_km_file, write_km_file
from kmsteiner.orbitgen import OrbitSet, good_k_orbit_reps, t_orbit_reps
from kmsteiner.perm import PermutationGroup, cyclic_group, read_group_file

from oracles import (
    column_weight_ok,
    count_b,
    km_columns_dict,
    orbit_of_subset,
    t_orbit_lookup,
)


def _lookup(G, v, t):
    return t_orbit_lookup(G, t_orbit_reps(G, v, t))


def test_count_b_fano_base_block():
    C7 = cyclic_group(7)
    lookup = _lookup(C7, 7, 2)
    b = count_b((1, 2, 4), lookup, 2)
    # the three pair orbits (differences 1, 2, 3) each counted once
    assert sorted(b.values()) == [1, 1, 1]
    assert len(b) == 3


def test_count_b_trivial_group():
    G = PermutationGroup.trivial(7)
    lookup = _lookup(G, 7, 2)
    b = count_b((1, 2, 4), lookup, 2)
    assert len(b) == comb(3, 2) and set(b.values()) == {1}


def test_count_b_double_cover():
    C7 = cyclic_group(7)
    lookup = _lookup(C7, 7, 2)
    b = count_b((1, 2, 3), lookup, 2)
    # pairs {1,2} and {2,3} both lie in the difference-1 orbit
    assert sorted(b.values()) == [1, 2]
    assert sum(b.values()) == comb(3, 2)


def test_build_km_trivial_7_3():
    G = PermutationGroup.trivial(7)
    km = build_km(G, t_orbit_reps(G, 7, 2), good_k_orbit_reps(G, 7, 3, 2))
    assert km.shape == (21, 35)
    assert all(len(km.column(j)) == 3 for j in range(35))
    assert all(column_weight_ok(km, j) for j in range(35))


def test_build_km_cyclic13_entries_match_definition():
    G = cyclic_group(13)
    tro = t_orbit_reps(G, 13, 2)
    ko = good_k_orbit_reps(G, 13, 3, 2)
    km = build_km(G, tro, ko)
    # brute-force a_ij: fix T in orbit i, count K in full orbit j containing T
    full_orbits = [sorted(orbit_of_subset(G, rep)) for rep in ko.reps.tolist()]
    for i, rep in enumerate(tro.reps.tolist()):
        T = set(rep)
        for j in range(len(ko)):
            a = sum(1 for K in full_orbits[j] if T <= set(K))
            assert a in (0, 1)
            assert (i in km.column(j)) == (a == 1)


def test_transpose_identity_sampled():
    G = cyclic_group(13)
    tro = t_orbit_reps(G, 13, 2)
    ko = good_k_orbit_reps(G, 13, 3, 2)
    km = build_km(G, tro, ko)
    lookup = t_orbit_lookup(G, tro)
    for j, rep in enumerate(ko.reps.tolist()):
        full_orbit = orbit_of_subset(G, rep)
        for i, bji in count_b(rep, lookup, 2).items():
            T = set(tro.reps[i].tolist())
            a = sum(1 for K in full_orbit if T <= set(K))
            assert a * tro.sizes[i] == bji * ko.sizes[j]


def test_column_weight_identity():
    G = cyclic_group(19)
    km = build_km(G, t_orbit_reps(G, 19, 2), good_k_orbit_reps(G, 19, 3, 2))
    for j in range(km.shape[1]):
        assert column_weight_ok(km, j)


def test_bad_orbit_rejected():
    # {1,2,3} under C7 covers the difference-1 pair orbit twice
    G = cyclic_group(7)
    tro = t_orbit_reps(G, 7, 2)
    bad = OrbitSet(v=7, t=2, reps=[(1, 2, 3)], sizes=[7], group_id=G.fingerprint())
    with pytest.raises(KMError, match=r"^entry 2 > 1 at row 0, column 0: orbit not good$"):
        build_km(G, tro, bad)
    with pytest.raises(KMError, match=r"^entry 2 > 1 at row 0, column 0: orbit not good$"):
        km_columns_dict(G, tro, bad)


def test_non_integer_entry_rejected():
    # a wrong orbit size: the orbit of {1,2,3} under C13 has 13 blocks, not 5
    G = cyclic_group(13)
    tro = t_orbit_reps(G, 13, 2)
    ko = good_k_orbit_reps(G, 13, 3, 2)
    reps = [ko.reps[0].tolist(), [1, 2, 3]]
    bad = OrbitSet(v=13, t=2, reps=reps, sizes=[ko.sizes[0], 5], group_id=G.fingerprint())
    message = r"^non-integer entry at row 0, column 1: 2\*5/13$"
    with pytest.raises(KMError, match=message):
        build_km(G, tro, bad)
    with pytest.raises(KMError, match=message):
        km_columns_dict(G, tro, bad)


@pytest.mark.parametrize(
    "name,v,k",
    [("trivial", 7, 3), ("cyclic", 13, 3), ("cyclic", 19, 3), ("cyclic", 37, 4),
     ("G08", 91, 6), ("cyclic", 257, 3)],
)
def test_build_km_matches_dict_oracle(name, v, k, fixtures_dir):
    if name == "G08":
        G = read_group_file(os.path.join(fixtures_dir, "groups", "G08.grp"))
    else:
        G = PermutationGroup.trivial(v) if name == "trivial" else cyclic_group(v)
    tro, ko = t_orbit_reps(G, v, 2), good_k_orbit_reps(G, v, k, 2)
    km = build_km(G, tro, ko)
    indptr, rows = km_columns_dict(G, tro, ko)
    assert km.col_indptr.dtype == np.int64 and km.col_indptr.tolist() == indptr
    assert km.col_rows.dtype == np.int32 and km.col_rows.tolist() == rows
    assert ko.reps.dtype == (np.uint16 if v > 255 else np.uint8)


def test_incomplete_t_orbits_rejected():
    G = cyclic_group(13)
    tro = t_orbit_reps(G, 13, 2)
    partial = OrbitSet(13, 2, tro.reps[1:], tro.sizes[1:], tro.group_id)
    ko = good_k_orbit_reps(G, 13, 3, 2)
    with pytest.raises(ValueError, match="do not partition the C\\(13,2\\) t-subsets"):
        build_km(G, partial, ko)
    # a t-orbit counted twice
    rows = [0, 0, 1, 2, 3, 4, 5]
    twice = OrbitSet(13, 2, tro.reps[rows], tro.sizes[rows], tro.group_id)
    with pytest.raises(ValueError, match="do not partition"):
        build_km(G, twice, ko)


def test_group_mismatch_rejected():
    G = cyclic_group(13)
    other = cyclic_group(14)
    ko = good_k_orbit_reps(G, 13, 3, 2)
    with pytest.raises(ValueError):
        build_km(other, t_orbit_reps(other, 14, 2), ko)


def test_block_count_identity_for_solutions():
    # any exact cover selects orbits whose sizes sum to v(v-1)/(k(k-1))
    from oracles import km_block_count
    from kmsteiner.symbreak import encode
    from kmsteiner.xcc import solve_all

    G = cyclic_group(13)
    ko = good_k_orbit_reps(G, 13, 3, 2)
    km = build_km(G, t_orbit_reps(G, 13, 2), ko)
    enc = encode(km, None, "a")
    sols, _ = solve_all(enc.problem)
    assert sols
    for s in sols:
        total = sum(ko.sizes[j] for j in s.option_ids)
        assert total == km_block_count(13, 3) == 26


def test_km_file_round_trip(tmp_path):
    G = cyclic_group(13)
    km = build_km(G, t_orbit_reps(G, 13, 2), good_k_orbit_reps(G, 13, 3, 2))
    path = os.path.join(tmp_path, "km.txt")
    write_km_file(path, km)
    m, n, v, k, t, sizes, indptr, rows = read_km_file(path)
    assert (m, n, v, k, t) == (6, 16, 13, 3, 2)
    assert sizes == km.k_orbits.sizes.tolist()
    assert indptr.dtype == km.col_indptr.dtype and np.array_equal(indptr, km.col_indptr)
    assert rows.dtype == km.col_rows.dtype and np.array_equal(rows, km.col_rows)
    with open(path, "a") as fh:
        fh.write("16 1\n")  # column line without its ":" separator
    with pytest.raises(ValueError, match="malformed column line"):
        read_km_file(path)
