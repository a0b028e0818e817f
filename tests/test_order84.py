import glob
import os
from collections import Counter

import pytest

from kmsteiner.order84 import (
    EXPECTED_NORMALIZER_ORDER,
    H_NAMES,
    build_order84_group,
    enumerate_order84_groups,
    normalizer_in_s91,
    order12_group,
    valid_phis,
    _classify_label,
    _semidirect_table,
)
from kmsteiner.perm import (
    read_group_file,
    verify_normalizes,
)

from oracles import (
    abstract_isomorphic,
    orbit_of_subset,
    order12_subgroup_classes,
    order_multiset,
)


def test_order12_models():
    expected_orders = {
        "C12": [1, 12, 6, 4, 3, 12, 2, 12, 3, 4, 6, 12],
        "A4": None,  # just check sizes below
    }
    for name in H_NAMES:
        H = order12_group(name)
        assert H.n == 12
        assert H.order_of[H.e] == 1
    assert sorted(order12_group("C12").order_of) == sorted(expected_orders["C12"])
    # A4 has no element of order 4 or 6; Dic3 has a unique involution
    assert 4 not in order12_group("A4").order_of
    assert 6 not in order12_group("A4").order_of
    assert sum(1 for o in order12_group("Dic3").order_of if o == 2) == 1


def test_phi_counts():
    counts = {name: len(valid_phis(name)) for name in H_NAMES}
    assert counts == {"C12": 6, "C6xC2": 12, "D12": 4, "A4": 3, "Dic3": 2}
    assert sum(counts.values()) == 27


def test_invalid_phi_rejected():
    with pytest.raises(ValueError):
        build_order84_group("A4", (1, 6))  # A4 abelianization kills involutions
    with pytest.raises(ValueError):
        build_order84_group("Dic3", (6, 2))
    with pytest.raises(ValueError):
        build_order84_group("Q8", (1,))


def test_build_examples():
    # full twist on C12 gives the group with elements of order 12 and Z = C2
    g1 = build_order84_group("C12", (3,))
    assert g1.order() == 84
    assert _classify_label(_semidirect_table("C12", (3,))[0]) == "G1"
    # trivial phi on A4 gives the direct product
    g10 = build_order84_group("A4", (1, 1))
    assert g10.order() == 84
    assert _classify_label(_semidirect_table("A4", (1, 1))[0]) == "G10"


def test_enumeration_dedupes_to_15_classes():
    records = enumerate_order84_groups()
    assert [r.label for r in records] == [f"G{i}" for i in range(1, 16)]
    for r in records:
        assert r.group.order() == 84
        assert len(orbit_of_subset(r.group, (1,))) == 7
        assert len(orbit_of_subset(r.group, (8,))) == 84


def test_unique_order12_subgroup_class():
    for r in enumerate_order84_groups():
        assert order12_subgroup_classes(r.table) == 1


def test_label_is_isomorphism_invariant():
    # all 27 (H, phi) pairs, grouped by label: same-label tables are
    # abstractly isomorphic, the 15 labels are pairwise distinguishable
    by_label = {}
    for name in H_NAMES:
        for phi in valid_phis(name):
            table, _, _ = _semidirect_table(name, phi)
            by_label.setdefault(_classify_label(table), []).append(table)
    assert len(by_label) == 15
    assert sum(len(v) for v in by_label.values()) == 27
    for label, tables in by_label.items():
        for other in tables[1:]:
            assert abstract_isomorphic(tables[0], other), label
    labels = sorted(by_label)
    reps = {lab: by_label[lab][0] for lab in labels}
    # order multiset plus center size separates every pair of classes
    sigs = {
        lab: (order_multiset(t), t.center_size()) for lab, t in reps.items()
    }
    assert len(set(sigs.values())) == 15


def test_abstract_isomorphic_negative():
    a = _semidirect_table("C12", (1,))[0]  # C84
    b = _semidirect_table("C6xC2", (1, 1))[0]  # C42 x C2
    assert not abstract_isomorphic(a, b)


def test_fixture_files_match_construction(fixtures_dir):
    group_files = sorted(glob.glob(os.path.join(fixtures_dir, "groups", "G*.grp")))
    assert len(group_files) == 15
    records = {r.label: r for r in enumerate_order84_groups()}
    for path in group_files:
        num = int(os.path.basename(path)[1:3])
        G = read_group_file(path)
        rec = records[f"G{num}"]
        assert [g.images for g in G.generators] == [
            g.images for g in rec.group.generators
        ]
        npath = os.path.join(fixtures_dir, "normalizers", f"G{num:02d}.grp")
        N = read_group_file(npath)
        assert N.order() == EXPECTED_NORMALIZER_ORDER[f"G{num}"]
        assert verify_normalizes(N, G)


@pytest.mark.parametrize("label", ["G1", "G9", "G10"])
def test_normalizer_construction(label):
    rec = {r.label: r for r in enumerate_order84_groups()}[label]
    N = normalizer_in_s91(rec)
    assert N.order() == EXPECTED_NORMALIZER_ORDER[label]
    assert verify_normalizes(N, rec.group)
    # N preserves the two point orbits
    assert len(orbit_of_subset(N, (1,))) == 7
    assert len(orbit_of_subset(N, (8,))) == 84


def test_element_order_statistics():
    # spot invariants pinning the labeling: center sizes and key orders
    tables = {r.label: r.table for r in enumerate_order84_groups()}
    assert tables["G6"].is_abelian() and 84 in tables["G6"].order_of
    assert tables["G15"].is_abelian() and 84 not in tables["G15"].order_of
    assert tables["G8"].center_size() == 1
    assert tables["G11"].center_size() == 1
    assert 21 in tables["G8"].order_of and 21 not in tables["G11"].order_of
    assert tables["G10"].center_size() == 7
    counts = Counter(tables["G1"].order_of)
    assert counts[12] > 0
