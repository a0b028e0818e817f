import os
import re

import numpy as np
import pytest

from kmsteiner.designs import classify, expand, verify_steiner
from kmsteiner import symbreak
from kmsteiner.km import build_km
from kmsteiner.orbitgen import OrbitSet, _min_image_keys, good_k_orbit_reps, t_orbit_reps
from kmsteiner.perm import (
    PermutationGroup,
    cyclic_group,
    normalizer_of_cyclic,
    parse_permutation,
    read_group_file,
)
from kmsteiner.symbreak import (
    NormalizerClasses,
    decode_options,
    decode_solution,
    encode,
    normalizer_classes,
)
from kmsteiner.xcc import solve, solve_all

from oracles import normalizer_classes_by_keys


def pipeline_parts(v, k=3, t=2):
    G = cyclic_group(v)
    N = normalizer_of_cyclic(v)
    tro = t_orbit_reps(G, v, t)
    ko = good_k_orbit_reps(G, v, k, t)
    km = build_km(G, tro, ko)
    return G, N, ko, km


def copy_options(enc, n):
    """Each copy-option id of an encoding over n columns -> the orbit that
    the decoder maps it to."""
    return {o: decode_options([o], n, enc.classes).pop() for o in range(n, enc.problem.n_options)}


def test_classes_under_own_group_are_singletons():
    G, _, ko, _ = pipeline_parts(13)
    cls = normalizer_classes(G, ko, G)
    assert cls.n_classes == len(ko.reps)
    assert cls.reps.tolist() == list(range(len(ko.reps)))


def test_classes_structure():
    G, N, ko, _ = pipeline_parts(13)
    cls = normalizer_classes(N, ko, G)
    assert cls.reps.tolist() == sorted(cls.reps.tolist())
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


@pytest.mark.parametrize("name", ["G08", "G14", "C73"])
def test_classes_match_all_elements_oracle(name, fixtures_dir, monkeypatch):
    if name == "C73":
        G, N, ko, _ = pipeline_parts(73, 4)
    else:
        G = read_group_file(os.path.join(fixtures_dir, "groups", name + ".grp"))
        N = read_group_file(os.path.join(fixtures_dir, "normalizers", name + ".grp"))
        ko = good_k_orbit_reps(G, 91, 6, 2)
    # a generator of N inside G maps every G-orbit to itself: no image pass
    calls = []
    monkeypatch.setattr(symbreak, "_min_image_keys",
                        lambda subsets0, G: calls.append(len(subsets0)) or _min_image_keys(subsets0, G))
    cls = normalizer_classes(N, ko, G)
    assert (cls.class_of.tolist(), cls.reps.tolist()) == normalizer_classes_by_keys(N, ko, G)
    # the fixture normalizers list G's generators first: 3 of 7 for G08, 3
    # of 9 for G14, and the shift of normalizer_of_cyclic(73) lies in C73
    assert len(calls) == {"G08": 4, "G14": 6, "C73": 3}[name]


def test_missing_image_orbit_is_n_closure_violation():
    # drop the last orbit of a class of two or more: another orbit of the
    # class has it as an image under some generator of N
    G, N, ko, _ = pipeline_parts(13)
    class_of = normalizer_classes(N, ko, G).class_of
    drop = max(j for j in range(len(ko)) if (class_of == class_of[j]).sum() > 1)
    keep = np.arange(len(ko)) != drop
    short = OrbitSet(ko.v, ko.t, ko.reps[keep], ko.sizes[keep], ko.group_id)
    with pytest.raises(RuntimeError, match="N-closure violated"):
        normalizer_classes(N, short, G)


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
    assert not a.problem.secondary and a.classes is None
    assert a.problem.n_options == n
    assert [a.problem.options[j][0] for j in range(n)] == [
        km.column(j) for j in range(n)
    ]
    b = encode(km, cls, "b")
    assert len(b.problem.primary) == km.shape[0] + 1
    assert not b.problem.secondary
    assert b.problem.n_options == n + cls.n_classes
    assert copy_options(b, n) == {16: 0, 17: 1}
    c = encode(km, cls, "c")
    assert len(c.problem.secondary) == cls.n_classes - 1
    assert c.problem.n_options == b.problem.n_options
    # copies cover the extra primary item
    nhit = km.shape[0]
    assert copy_options(c, n) == {16: 0, 17: 1}
    for oid, orig in copy_options(c, n).items():
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
    for oid, orig in copy_options(c, len(ko)).items():
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
        copies = copy_options(enc, len(ko))
        assert copies == {16: 0, 17: 1}
        for s in sols:
            assert any(oid in copies for oid in s.option_ids)


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


@pytest.mark.parametrize("ids, orbits", [((3, 16, 5, 3), {0, 3, 5}), ((17,), {1}), ((), set())])
def test_decode_options(ids, orbits):
    # C13: 16 good orbits in 2 classes led by orbits 0 and 1
    G, N, ko, _ = pipeline_parts(13)
    cls = normalizer_classes(N, ko, G)
    got = decode_options(ids, len(ko), cls)
    assert got == orbits and all(type(j) is int for j in got)


@pytest.mark.parametrize("ids, classes, top", [((1, 18), True, 17), ((-1,), True, 17),
                                               ((16,), False, 15), ((0, 99), False, 15)])
def test_decode_options_refuses_an_unknown_option(ids, classes, top):
    G, N, ko, _ = pipeline_parts(13)
    cls = normalizer_classes(N, ko, G) if classes else None
    message = re.escape(f"solution {ids} has an option outside 0..{top}") + "$"
    with pytest.raises(ValueError, match=message):
        decode_options(ids, len(ko), cls)


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
    # the classes saved and loaded as the encode stage does give the same
    # copy-options and the same decoding
    G, N, ko, km = pipeline_parts(13)
    classes = normalizer_classes(N, ko, G)
    path = os.path.join(tmp_path, "class_of.npy")
    np.save(path, classes.class_of, allow_pickle=False)
    again = NormalizerClasses(np.load(path, allow_pickle=False))
    assert np.array_equal(again.class_of, classes.class_of)
    assert np.array_equal(again.reps, classes.reps)
    for kind in ("b", "c"):
        enc = encode(km, again, kind)
        assert enc.problem == encode(km, classes, kind).problem
        cm = copy_options(enc, len(ko))
        assert cm == {16: 0, 17: 1}
        assert all(type(x) is int for x in [*cm, *cm.values()])


def test_classes_are_read_only_int64():
    G, N, ko, _ = pipeline_parts(13)
    cls = NormalizerClasses(class_of=[0, 1, 0, 1])
    for arr in (cls.class_of, cls.reps):
        assert arr.dtype == np.int64 and not arr.flags.writeable
    cls = normalizer_classes(N, ko, G)
    for arr in (cls.class_of, cls.reps):
        assert arr.dtype == np.int64 and not arr.flags.writeable


@pytest.mark.parametrize(
    "class_of",
    [
        [1, 0, 0, 1],  # class 1 before class 0
        [0, 2, 1],
        [0, 1, 3],  # an id past n - 1
        [0, -1, 1],
        [[0, 1]],
        [[0], [1]],
        0,
    ],
)
def test_classes_refuse_ids_out_of_order(class_of):
    with pytest.raises(ValueError, match="not a 1-D array numbering the classes 0, 1, ..."):
        NormalizerClasses(class_of)


@pytest.mark.parametrize(
    "class_of",
    [
        [0.0, 0.5, 1.0],  # would truncate to 0, 0, 1
        np.array([0, 1 << 64], dtype=object),
        [False, True],
        ["0", "1"],
        [0, True],  # numpy takes the bool beside an int as 1
    ],
)
def test_classes_refuse_non_integer_ids(class_of):
    with pytest.raises(ValueError, match="class ids must be integers"):
        NormalizerClasses(class_of)


@pytest.mark.parametrize("v, k", [(13, 3), (19, 3), (37, 4)])
def test_derived_reps_are_the_first_orbit_of_each_class(v, k):
    G, N, ko, _ = pipeline_parts(v, k)
    cls = normalizer_classes(N, ko, G)
    class_of = cls.class_of.tolist()
    assert cls.reps.tolist() == [class_of.index(c) for c in range(max(class_of) + 1)]
    assert cls.n_classes > 1


def test_no_good_orbits_no_classes():
    # S_7 is 2-transitive, so every triple orbit repeats a pair: no good
    # orbits, no classes, and encoding c has no secondary item and no option
    G = PermutationGroup([parse_permutation("(1,2)", 7), parse_permutation("(1,2,3,4,5,6,7)", 7)])
    ko = good_k_orbit_reps(G, 7, 3, 2)
    km = build_km(G, t_orbit_reps(G, 7, 2), ko)
    cls = normalizer_classes(G, ko, G)
    assert (len(ko), km.shape, cls.n_classes) == (0, (1, 0), 0)
    enc = encode(km, cls, "c")
    assert (len(enc.problem.primary), enc.problem.secondary, enc.problem.n_options) == (2, [], 0)
    assert solve(enc.problem).solutions == 0
    assert decode_options((), 0, cls) == set()
