"""The canonizer's C refinement kernel against the Python reference in
`oracles`, the node counts of its search, and the kernel's build."""

import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmsteiner import _native, designs
from kmsteiner.designs import Design, canonical_form, classify, expand
from kmsteiner.km import build_km
from kmsteiner.orbitgen import good_k_orbit_reps, t_orbit_reps
from kmsteiner.perm import Permutation, cyclic_group, normalizer_of_cyclic
from kmsteiner.symbreak import decode_solution, encode, normalizer_classes
from kmsteiner.xcc import solve_all

from oracles import PythonCanonizer, orbit_of_subset

KERNEL_SOURCE = Path(designs.__file__).with_name("_refine.c")


def cyclic_design(v, *base_blocks):
    G = cyclic_group(v)
    return Design(v, sorted({blk for base in base_blocks for blk in orbit_of_subset(G, base)}))


# the Fano plane, cyclic STS(13), PG(3,2) and PG(2,4), from difference
# families; each is invariant under cyclic_group(v)
SMALL_DESIGNS = {
    "fano": cyclic_design(7, (1, 2, 4)),
    "sts13": cyclic_design(13, (1, 2, 5), (1, 3, 8)),
    "pg32": cyclic_design(15, (1, 2, 5), (1, 3, 9), (1, 6, 11)),
    "pg24": cyclic_design(21, (1, 2, 5, 15, 17)),
}


@st.composite
def relabeling(draw):
    """A design of SMALL_DESIGNS relabeled by a point map, and the
    relabeled generator of its cyclic group."""
    d = SMALL_DESIGNS[draw(st.sampled_from(sorted(SMALL_DESIGNS)))]
    perm = draw(st.permutations(range(d.v)))
    shift = cyclic_group(d.v).generators[0].raw()
    img = [0] * d.v
    for x in range(d.v):
        img[perm[x]] = perm[shift[x]]
    return Design(d.v, np.asarray(perm)[d.blocks - 1] + 1), Permutation(img)


def test_small_designs_are_steiner_systems():
    for d, (v, b, k) in zip(SMALL_DESIGNS.values(), [(7, 7, 3), (13, 26, 3), (15, 35, 3), (21, 21, 5)]):
        assert (d.v, d.b, d.k) == (v, b, k) and designs.verify_steiner(d, 2).ok


@settings(max_examples=40, deadline=None)
@given(relabeling(), st.randoms(use_true_random=False))
def test_kernel_refines_like_reference(relabeled, rng):
    d, _ = relabeled
    cz = PythonCanonizer(d)  # its graph arrays feed both sides
    n = cz.n
    ref, ts = cz._root()
    depth, kts = designs._Canonizer._root(cz)
    assert np.array_equal(cz._levels[0], ref.array()) and kts == ts
    while ts >= 0:
        # any non-singleton cell, not only the target cell
        cells = [s for s in sorted(set(ref.start)) if ref.end[s] - s > 1]
        cs = rng.choice(cells)
        y = rng.choice(ref.cell_at(cs))
        ref, ts = cz._individualize(ref, cs, y)
        depth, kts = designs._Canonizer._individualize(cz, depth, cs, y)
        assert np.array_equal(cz._levels[depth], ref.array()) and kts == ts
        assert cz._kernel.kms_target_cell(n, cz._addrs[depth]) == ts
    # the kernel leaves its bit set, counters and flags zero
    assert not cz._work[: 2 * (n // 64 + 1) + 3 * n].any()


@settings(max_examples=20, deadline=None)
@given(relabeling(), st.booleans())
def test_kernel_search_matches_reference(relabeled, seeded):
    d, shift = relabeled
    autos = [shift] if seeded else []
    ref = PythonCanonizer(d, known_autos=autos).canonical_form()
    cf = canonical_form(d, known_autos=autos)
    assert (cf.certificate, cf.aut_order, cf.nodes) == (ref.certificate, ref.aut_order, ref.nodes)
    assert cf.aut_order == {7: 168, 13: 39, 15: 20160, 21: 120960}[d.v]


def _classify_mix_designs(v, k):
    G, N = cyclic_group(v), normalizer_of_cyclic(v)
    ko = good_k_orbit_reps(G, v, k, 2)
    enc = encode(build_km(G, t_orbit_reps(G, v, 2), ko), normalizer_classes(N, ko, G), "c")
    sols, _ = solve_all(enc.problem)
    return G, [expand(decode_solution(s, enc), ko, G) for s in sols]


# (aut order, canonization nodes) of each design of the benchmark's
# classify-mix, in solution order, with G's generators as known automorphisms
CLASSIFY_MIX_NODES = {
    (15, 3): [(20160, 1180), (60, 70)],
    (21, 3): [(504, 1413), (21, 212), (21, 212), (21, 212), (1008, 724), (126, 160),
              (882, 160), (882, 260), (42, 203), (126, 76), (42, 214), (42, 214)],
    (27, 3): [(27, 353)] * 16,
    (37, 4): [(37, 914), (37, 914), (111, 382), (37, 914)],
    (21, 5): [(120960, 5163)],
}


def test_canonization_nodes_pinned():
    total = 0
    for (v, k), expected in CLASSIFY_MIX_NODES.items():
        G, found = _classify_mix_designs(v, k)
        forms = [canonical_form(d, known_autos=G.generators) for d in found]
        assert [(cf.aut_order, cf.nodes) for cf in forms] == expected
        classes = classify(found, known_autos=G.generators)
        assert sum(c.nodes for c in classes) == sum(nodes for _, nodes in expected)
        total += sum(cf.nodes for cf in forms)
    assert total == 19245


def test_classify_jobs_agree_and_report_progress():
    G, found = _classify_mix_designs(21, 3)
    calls = []
    one = classify(found, known_autos=G.generators, progress=lambda *a: calls.append(a))
    two = classify(found, known_autos=G.generators, jobs=2)
    key = [(c.certificate, c.aut_order, c.multiplicity, c.nodes) for c in one]
    assert key == [(c.certificate, c.aut_order, c.multiplicity, c.nodes) for c in two]
    assert [(i, n) for i, n, _ in calls] == [(i, 12) for i in range(1, 13)]
    assert calls[-1][2] == sum(c.nodes for c in one) == sum(n for _, n in CLASSIFY_MIX_NODES[21, 3])


def test_empty_design():
    cf = canonical_form(Design(7, ()))
    assert (cf.certificate, cf.aut_order, cf.nodes) == (b"", 5040, 0)
    (cls,) = classify([Design(7, ()), Design(7, [])])
    assert (cls.aut_order, cls.multiplicity, cls.representative.b) == (5040, 2, 0)


def test_missing_compiler_is_an_import_error(tmp_path, monkeypatch):
    shutil.copy(KERNEL_SOURCE, tmp_path / "_refine.c")
    monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    with pytest.raises(ImportError, match="gcc"):
        _native.load(tmp_path / "_refine.c")
    # canonization has no fallback: it fails the same way
    monkeypatch.setattr(designs, "_kernel", None)
    monkeypatch.setattr(designs, "__file__", str(tmp_path / "designs.py"))
    with pytest.raises(ImportError, match="gcc"):
        canonical_form(SMALL_DESIGNS["fano"])
    assert not list((tmp_path / "__pycache__").glob("*"))


def test_changed_source_builds_a_new_library(tmp_path):
    source = tmp_path / "_refine.c"
    shutil.copy(KERNEL_SOURCE, source)
    _native.load(source)
    first = sorted((tmp_path / "__pycache__").iterdir())
    _native.load(source)  # same source: reused
    assert sorted((tmp_path / "__pycache__").iterdir()) == first and len(first) == 1
    source.write_text(source.read_text() + "/* changed */\n")
    lib = _native.load(source)
    built = sorted((tmp_path / "__pycache__").iterdir())
    assert len(built) == 2 and first[0] in built
    assert all(p.suffix == ".so" for p in built)
    assert lib.kms_target_cell  # the new library loads


def test_kernel_is_not_loaded_at_import():
    code = (
        "import kmsteiner, kmsteiner.cli\n"
        "from kmsteiner import designs\n"
        "designs.Design(7, [(1, 2, 4)])\n"
        "assert designs._kernel is None\n"
        "designs.canonical_form(designs.Design(7, ()))\n"
        "assert designs._kernel is None\n"
    )
    src = str(Path(designs.__file__).parent.parent)
    subprocess.run([sys.executable, "-c", code], check=True, env={"PYTHONPATH": src})
