import os

import numpy as np
import pytest

from kmsteiner.designs import classify, expand, verify_steiner
from kmsteiner.km import build_km
from kmsteiner.orbitgen import good_k_orbit_reps, t_orbit_reps
from kmsteiner.perm import cyclic_group, normalizer_of_cyclic
from kmsteiner.symbreak import (
    decode_solution,
    encode,
    normalizer_classes,
    read_copy_map,
    write_copy_map,
)
from kmsteiner.xcc import solve, solve_all


def pipeline_parts(v, k=3, t=2):
    G = cyclic_group(v)
    N = normalizer_of_cyclic(v)
    tro = t_orbit_reps(G, v, t)
    ko = good_k_orbit_reps(G, v, k, t)
    km = build_km(G, tro, ko)
    return G, N, ko, km


def test_classes_under_own_group_are_singletons():
    G, _, ko, _ = pipeline_parts(13)
    cls = normalizer_classes(G, ko, G)
    assert cls.n_classes == len(ko.reps)
    assert cls.reps == list(range(len(ko.reps)))


def test_classes_structure():
    G, N, ko, _ = pipeline_parts(13)
    cls = normalizer_classes(N, ko, G)
    assert cls.reps == sorted(cls.reps)
    for c, rep in enumerate(cls.reps):
        assert cls.class_of[rep] == c
    # every orbit belongs to exactly one class led by its smallest member
    for j in range(len(ko.reps)):
        assert cls.reps[cls.class_of[j]] <= j


def test_classes_match_bruteforce_partition():
    # directly recompute the partition: two orbits are equivalent iff some
    # element of N maps one onto the other
    G, N, ko, _ = pipeline_parts(13)
    cls = normalizer_classes(N, ko, G)
    from oracles import lex_min_rep, subset_image

    reps = list(map(tuple, ko.reps.tolist()))
    rep_index = {rep: j for j, rep in enumerate(reps)}
    n = len(reps)
    adj = [set() for _ in range(n)]
    for pi in N.element_table().tolist():
        for j, rep in enumerate(reps):
            img = lex_min_rep(G, subset_image(pi, rep))
            adj[j].add(rep_index[img])
    # transitive closure by BFS gives the brute-force classes
    seen = [False] * n
    brute = []
    for j in range(n):
        if seen[j]:
            continue
        comp = set()
        queue = [j]
        while queue:
            x = queue.pop()
            if seen[x]:
                continue
            seen[x] = True
            comp.add(x)
            queue.extend(adj[x] - comp)
        brute.append(frozenset(comp))
    got = {}
    for j in range(n):
        got.setdefault(int(cls.class_of[j]), set()).add(j)
    assert sorted(map(frozenset, got.values())) == sorted(brute)


def test_classes_require_normalizer():
    G = cyclic_group(13)
    other = cyclic_group(14)
    ko = good_k_orbit_reps(G, 13, 3, 2)
    with pytest.raises(ValueError):
        normalizer_classes(other, ko, G)


def test_encoding_shapes():
    G, N, ko, km = pipeline_parts(13)
    cls = normalizer_classes(N, ko, G)
    n = len(ko.reps)
    a = encode(km, None, "a")
    assert len(a.problem.primary) == km.shape[0]
    assert not a.problem.secondary and not a.copy_map
    assert a.problem.n_options == n
    assert [a.problem.options[j][0] for j in range(n)] == [
        km.column(j) for j in range(n)
    ]
    b = encode(km, cls, "b")
    assert len(b.problem.primary) == km.shape[0] + 1
    assert not b.problem.secondary
    assert b.problem.n_options == n + cls.n_classes
    assert len(b.copy_map) == cls.n_classes
    c = encode(km, cls, "c")
    assert len(c.problem.secondary) == cls.n_classes - 1
    assert c.problem.n_options == b.problem.n_options
    # copies cover the extra primary item
    nhit = km.shape[0]
    for oid, orig in c.copy_map.items():
        prim, _ = c.problem.options[oid]
        assert nhit in prim
        assert set(prim) - {nhit} == set(km.column(orig))
    with pytest.raises(ValueError):
        encode(km, None, "b")
    with pytest.raises(ValueError):
        encode(km, cls, "d")


@pytest.mark.parametrize("kind", ["b", "c"])
def test_copy_option_arrays(kind):
    # option j is column j; option n + q is column reps[q] and then Nhit
    G, N, ko, km = pipeline_parts(37, 4)
    cls = normalizer_classes(N, ko, G)
    m, n = km.shape
    columns = [km.column(j) for j in range(n)] + [km.column(r) + (m,) for r in cls.reps]
    p = encode(km, cls, kind).problem
    assert p.prim_indptr.dtype == np.int64 and p.prim_items.dtype == np.int32
    assert p.prim_indptr.tobytes() == np.cumsum([0] + [len(c) for c in columns]).tobytes()
    assert p.prim_items.tobytes() == np.array([i for c in columns for i in c], np.int32).tobytes()


def test_kind_c_color_layout():
    G, N, ko, km = pipeline_parts(13)
    cls = normalizer_classes(N, ko, G)
    c = encode(km, cls, "c")
    last = cls.n_classes - 1
    for j in range(len(ko.reps)):
        _, sec = c.problem.options[j]
        cid = int(cls.class_of[j])
        if cid < last:
            assert sec == ((cid, 1),)
        else:
            assert sec == ()
    for oid, orig in c.copy_map.items():
        _, sec = c.problem.options[oid]
        cid = int(cls.class_of[orig])
        expected = [(i, 0) for i in range(cid)]
        if cid < last:
            expected.append((cid, 1))
        assert sec == tuple(sorted(expected))


@pytest.mark.parametrize(
    "v, k, kind, solutions, nodes",
    [
        (19, 3, "a", 32, 91),
        (19, 3, "b", 8, 22),
        (19, 3, "c", 8, 18),
        (37, 4, "a", 48, 4181),
        (37, 4, "b", 4, 358),
        (37, 4, "c", 4, 162),
    ],
)
def test_search_counts_pinned(v, k, kind, solutions, nodes):
    # the solver's branching rule fixes the node count, so a change to the
    # instance arrays or to the search that alters the tree shows here
    G, N, ko, km = pipeline_parts(v, k)
    classes = normalizer_classes(N, ko, G) if kind != "a" else None
    stats = solve(encode(km, classes, kind).problem)
    assert (stats.solutions, stats.nodes) == (solutions, nodes)


def test_every_bc_solution_contains_a_copy():
    G, N, ko, km = pipeline_parts(13)
    cls = normalizer_classes(N, ko, G)
    for kind in "bc":
        enc = encode(km, cls, kind)
        sols, _ = solve_all(enc.problem)
        assert sols
        for s in sols:
            assert any(oid in enc.copy_map for oid in s.option_ids)


def test_decode_solution():
    G, N, ko, km = pipeline_parts(13)
    cls = normalizer_classes(N, ko, G)
    enc = encode(km, cls, "b")
    sols, _ = solve_all(enc.problem)
    for s in sols:
        decoded = decode_solution(s, enc)
        assert decoded <= set(range(len(ko.reps)))
    a = encode(km, None, "a")
    sols_a, _ = solve_all(a.problem)
    for s in sols_a:
        assert decode_solution(s, a) == set(s.option_ids)


@pytest.mark.parametrize("v", [13, 19])
def test_encodings_agree_up_to_isomorphism(v):
    G, N, ko, km = pipeline_parts(v)
    cls = normalizer_classes(N, ko, G)
    counts = {}
    cert_sets = {}
    for kind in "abc":
        enc = encode(km, cls if kind != "a" else None, kind)
        sols, stats = solve_all(enc.problem)
        designs = [expand(decode_solution(s, enc), ko, G) for s in sols]
        for d in designs:
            assert verify_steiner(d, 2).ok
        classes = classify(designs, known_autos=G.generators)
        counts[kind] = stats.solutions
        cert_sets[kind] = {c.certificate for c in classes}
    assert cert_sets["a"] == cert_sets["b"] == cert_sets["c"]
    assert counts["c"] <= counts["b"] <= counts["a"]


def test_copy_map_round_trip(tmp_path):
    cm = {16: 0, 17: 4}
    path = os.path.join(tmp_path, "copymap.txt")
    write_copy_map(path, cm)
    assert read_copy_map(path) == cm
    with open(path) as fh:
        assert fh.readline() == "copy 16 = orbit 0\n"
