import itertools
import os
import random

import pytest

from kmsteiner.designs import (
    BudgetExceeded,
    Design,
    canonical_form,
    classify,
    expand,
    read_design_file,
    verify_steiner,
    write_design_file,
    write_gap_designs,
)
from kmsteiner.orbitgen import good_k_orbit_reps
from kmsteiner.perm import PermutationGroup, cyclic_group, orbit_of_subset

from oracles import aut_order_bruteforce, verify_steiner_dict

RNG = random.Random(2024)


def fano():
    return Design.make(7, orbit_of_subset(cyclic_group(7), (1, 2, 4)))


def relabel(d, perm):
    return Design.make(d.v, [tuple(perm[p - 1] for p in blk) for blk in d.blocks])


def random_relabel(d, rng):
    pts = list(range(1, d.v + 1))
    rng.shuffle(pts)
    return relabel(d, pts)


def test_expand_fano_orbit():
    G = cyclic_group(7)
    ko = good_k_orbit_reps(G, 7, 3, 2)
    j = next(i for i, r in enumerate(ko.reps) if r.rep == (1, 2, 4))
    d = expand({j}, ko, G)
    assert d.b == 7 and verify_steiner(d, 2).ok


def test_expand_trivial_group():
    G = PermutationGroup.trivial(7)
    ko = good_k_orbit_reps(G, 7, 3, 2)
    chosen = {i for i, r in enumerate(ko.reps) if r.rep in fano().blocks}
    d = expand(chosen, ko, G)
    assert d.blocks == fano().blocks


def test_expand_duplicate_blocks_rejected():
    G = PermutationGroup.trivial(4)
    from kmsteiner.orbitgen import GoodOrbitSet, OrbitRep

    ko = GoodOrbitSet(
        v=4,
        k=3,
        t=2,
        reps=[OrbitRep((1, 2, 3), 1, 0), OrbitRep((1, 2, 3), 1, 1)],
        group_id=G.fingerprint(),
    )
    with pytest.raises(ValueError):
        expand({0, 1}, ko, G)


def test_verify_steiner_pass_and_fail():
    d = fano()
    assert verify_steiner(d, 2).ok
    broken = Design.make(7, list(d.blocks[:-1]) + [(1, 2, 3)])
    rep = verify_steiner(broken, 2)
    assert not rep.ok
    assert any(count == 2 for _, count in rep.violations)
    assert len(rep.violations) <= 10


def test_verify_steiner_sorts_within_blocks():
    # built without Design.make, so the blocks are not sorted: (2, 1) and
    # (1, 2) are the same pair
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
    """One to three blocks replaced, dropped or duplicated; sometimes with
    the points of a block out of order."""
    blocks = list(d.blocks)
    how = rng.choice(["replace", "drop", "duplicate"])
    for _ in range(rng.randint(1, 3)):
        i = rng.randrange(len(blocks))
        if how == "replace":
            blocks[i] = tuple(rng.sample(range(1, d.v + 1), d.k))
        elif how == "drop":
            del blocks[i]
        else:
            blocks.append(blocks[i])
    return Design(v=d.v, blocks=tuple(blocks))


def test_verify_steiner_matches_dict_oracle():
    rng = random.Random(91)
    found = cyclic_designs(19, 3) + cyclic_designs(37, 4)
    assert len(found) == 32 + 48
    cases = found + [corrupt(rng.choice(found), rng) for _ in range(200)]
    failing = 0
    for d in cases:
        rep = verify_steiner(d, 2)
        assert (rep.ok, rep.violations) == verify_steiner_dict(d, 2)
        failing += not rep.ok
    assert failing == 200


def test_verify_steiner_edge_cases_match_dict_oracle():
    cases = [
        (Design(v=7, blocks=()), 2),
        (Design(v=7, blocks=((0, 1, 2), (2, 9, 3), (4, 5))), 2),  # out of range, ragged
        (fano(), 3),
        (fano(), 0),
        # 100^10 keys do not fit in 63 bits, so the rows are counted unpacked
        (Design(v=100, blocks=(tuple(range(1, 12)), tuple(range(13, 2, -1)))), 10),
    ]
    for d, t in cases:
        rep = verify_steiner(d, t)
        assert (rep.ok, rep.violations) == verify_steiner_dict(d, t)


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
        d = Design.make(7, RNG.sample(all_triples, RNG.randint(2, 9)))
        cf = canonical_form(d)
        assert cf.aut_order == aut_order_bruteforce(d)
        d2 = random_relabel(d, RNG)
        cf2 = canonical_form(d2)
        assert cf2.certificate == cf.certificate
        assert cf2.aut_order == cf.aut_order


def test_nonisomorphic_systems_have_distinct_certificates():
    d1 = Design.make(7, [(1, 2, 3), (4, 5, 6)])
    d2 = Design.make(7, [(1, 2, 3), (3, 4, 5)])
    assert canonical_form(d1).certificate != canonical_form(d2).certificate


def test_budget_is_hard_failure():
    with pytest.raises(BudgetExceeded):
        canonical_form(fano(), node_budget=2)


def test_classify_multiplicity():
    d = fano()
    cls = classify([d, random_relabel(d, RNG), random_relabel(d, RNG)])
    assert len(cls) == 1
    assert cls[0].multiplicity == 3
    assert cls[0].aut_order == 168
    assert verify_steiner(cls[0].representative, 2).ok


def test_classify_mixed():
    d1 = Design.make(7, [(1, 2, 3), (4, 5, 6)])
    d2 = Design.make(7, [(1, 2, 3), (3, 4, 5)])
    cls = classify([d1, d2, random_relabel(d1, RNG)])
    assert len(cls) == 2
    assert sorted(c.multiplicity for c in cls) == [1, 2]
    assert [c.certificate for c in cls] == sorted(c.certificate for c in cls)
    with pytest.raises(ValueError):
        classify([d1, Design.make(8, [(1, 2, 3)])])


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
    d2 = read_design_file(path)
    assert d2 == d
    with open(path) as fh:
        assert fh.readline() == "v=7 b=7 k=3\n"


def test_gap_file_shape(tmp_path):
    path = os.path.join(tmp_path, "designs.gap")
    write_gap_designs(path, [fano()])
    text = open(path).read()
    assert text.startswith("[\n[[1,2,4],")
    assert text.rstrip().endswith("]")
