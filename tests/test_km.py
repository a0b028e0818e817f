import os
from itertools import combinations
from math import comb

import numpy as np
import pytest

from kmsteiner.km import (
    KMError,
    build_km,
    count_b,
    read_km_file,
    t_orbit_lookup,
    write_km_file,
)
from kmsteiner.orbitgen import GoodOrbitSet, OrbitRep, good_k_orbit_reps, t_orbit_reps
from kmsteiner.perm import PermutationGroup, cyclic_group, orbit_of_subset

from oracles import column_weight_ok


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
    full_orbits = [sorted(orbit_of_subset(G, r.rep)) for r in ko.reps]
    for i, tr in enumerate(tro):
        T = set(tr.rep)
        for j in range(len(ko.reps)):
            a = sum(1 for K in full_orbits[j] if T <= set(K))
            assert a in (0, 1)
            assert (i in km.column(j)) == (a == 1)


def test_transpose_identity_sampled():
    G = cyclic_group(13)
    tro = t_orbit_reps(G, 13, 2)
    ko = good_k_orbit_reps(G, 13, 3, 2)
    km = build_km(G, tro, ko)
    lookup = t_orbit_lookup(G, tro)
    full_orbits = {j: sorted(orbit_of_subset(G, r.rep)) for j, r in enumerate(ko.reps)}
    for j, kr in enumerate(ko.reps):
        b = count_b(kr.rep, lookup, 2)
        for i, bji in b.items():
            T = set(tro[i].rep)
            a = sum(1 for K in full_orbits[j] if T <= set(K))
            assert a * tro[i].orbit_size == bji * kr.orbit_size


def test_column_weight_identity():
    G = cyclic_group(19)
    km = build_km(G, t_orbit_reps(G, 19, 2), good_k_orbit_reps(G, 19, 3, 2))
    for j in range(km.shape[1]):
        assert column_weight_ok(km, j)


def test_bad_orbit_rejected():
    # {1,2,3} under C7 covers the difference-1 pair orbit twice
    G = cyclic_group(7)
    tro = t_orbit_reps(G, 7, 2)
    bad = GoodOrbitSet(
        v=7,
        k=3,
        t=2,
        reps=[OrbitRep((1, 2, 3), 7, 0)],
        group_id=G.fingerprint(),
    )
    with pytest.raises(KMError):
        build_km(G, tro, bad)


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
        total = sum(ko.reps[j].orbit_size for j in s.option_ids)
        assert total == km_block_count(13, 3) == 26


def test_km_file_round_trip(tmp_path):
    G = cyclic_group(13)
    km = build_km(G, t_orbit_reps(G, 13, 2), good_k_orbit_reps(G, 13, 3, 2))
    path = os.path.join(tmp_path, "km.txt")
    write_km_file(path, km)
    m, n, v, k, t, sizes, indptr, rows = read_km_file(path)
    assert (m, n, v, k, t) == (6, 16, 13, 3, 2)
    assert sizes == [r.orbit_size for r in km.k_orbits.reps]
    assert indptr.dtype == km.col_indptr.dtype and np.array_equal(indptr, km.col_indptr)
    assert rows.dtype == km.col_rows.dtype and np.array_equal(rows, km.col_rows)
    with open(path, "a") as fh:
        fh.write("16 1\n")  # column line without its ":" separator
    with pytest.raises(ValueError, match="malformed column line"):
        read_km_file(path)
