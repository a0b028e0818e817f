"""The canonizer's C kernel (refinement and search) against the Python
reference in `oracles`, the node counts of its search, and the kernel's
build."""

import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kmsteiner import _native, designs
from kmsteiner.designs import BudgetExceeded, Design, canonical_form, classify, expand
from kmsteiner.km import build_km
from kmsteiner.orbitgen import good_k_orbit_reps, t_orbit_reps
from kmsteiner.perm import Permutation, StabilizerChain, cyclic_group, normalizer_of_cyclic
from kmsteiner.symbreak import decode_solution, encode, normalizer_classes
from kmsteiner.xcc import solve_all

from oracles import Partition, PythonCanonizer, orbit_of_subset

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


def clean_work(cz):
    """Whether the kernel left its bit set, counters and flags zero."""
    return not cz.work[: 2 * (cz.n // 64 + 1) + 3 * cz.n].any()


@settings(max_examples=40, deadline=None)
@given(relabeling(), st.randoms(use_true_random=False))
def test_kernel_refines_like_reference(relabeled, rng):
    d, _ = relabeled
    cz = designs._Canonizer(d, ())  # its graph arrays feed both sides
    n, kernel = cz.n, _native.kernel("_refine.c")
    graph = (n, cz.indptr.ctypes.data, cz.adj.ctypes.data)
    oracle = PythonCanonizer(d)
    ref, ts = oracle._root()
    part = Partition([list(range(d.v)), list(range(d.v, n))]).array()  # the root, unrefined
    queue = np.array([0, d.v], dtype=np.int32)
    kernel.kms_refine(*graph, part.ctypes.data, queue.ctypes.data, 2, cz.work.ctypes.data)
    assert np.array_equal(part, ref.array()) and kernel.kms_target_cell(n, part.ctypes.data) == ts
    while ts >= 0:
        # any non-singleton cell, not only the target cell
        cells = [s for s in sorted(set(ref.start)) if ref.end[s] - s > 1]
        cs = rng.choice(cells)
        y = rng.choice(ref.cell_at(cs))
        ref, ts = oracle._individualize(ref, cs, y)
        child = np.empty_like(part)
        kts = kernel.kms_individualize(
            *graph, part.ctypes.data, child.ctypes.data, cs, y, cz.work.ctypes.data
        )
        part = child
        assert np.array_equal(part, ref.array()) and kts == ts
        assert kernel.kms_target_cell(n, part.ctypes.data) == ts
    assert clean_work(cz)


@settings(max_examples=20, deadline=None)
@given(relabeling(), st.booleans())
def test_kernel_search_matches_reference(relabeled, seeded):
    d, shift = relabeled
    autos = [shift] if seeded else []
    ref = PythonCanonizer(d, known_autos=autos).canonical_form()
    cz = designs._Canonizer(d, autos)
    cf = cz.run(10**7)
    assert (cf.certificate, cf.aut_order, cf.nodes) == (ref.certificate, ref.aut_order, ref.nodes)
    assert cf.aut_order == {7: 168, 13: 39, 15: 20160, 21: 120960}[d.v]
    assert clean_work(cz)
    # the budget: both stop when they enter node budget + 1
    assert canonical_form(d, node_budget=ref.nodes, known_autos=autos).nodes == ref.nodes
    for budget in (ref.nodes - 1, ref.nodes // 2):
        with pytest.raises(BudgetExceeded):
            canonical_form(d, node_budget=budget, known_autos=autos)
    if ref.nodes < 1000:  # the oracle's budgeted run costs as much as its full run
        oracle = PythonCanonizer(d, node_budget=ref.nodes - 1, known_autos=autos)
        with pytest.raises(BudgetExceeded):
            oracle.canonical_form()
        assert oracle.nodes == ref.nodes
    # a transposition of two points is no automorphism of a 2-design with k > 2
    swap = list(range(d.v))
    swap[0], swap[1] = 1, 0
    with pytest.raises(ValueError, match="not an automorphism"):
        PythonCanonizer(d, known_autos=autos + [Permutation(swap)])
    with pytest.raises(ValueError, match="not an automorphism"):
        canonical_form(d, known_autos=autos + [Permutation(swap)])


def test_callback_exception_reaches_the_caller(monkeypatch):
    def add(self, g):
        raise KeyError("from the callback")

    monkeypatch.setattr(StabilizerChain, "add", add)
    cz = designs._Canonizer(SMALL_DESIGNS["sts13"], ())  # unseeded: add runs in the callback only
    with pytest.raises(KeyError, match="from the callback"):
        cz.run(10**7)
    assert clean_work(cz)


def test_uint16_design_matches_reference():
    """A design on 260 points (uint16 blocks, labels past one byte), every
    point covered, and a relabeled copy."""
    rng = np.random.default_rng(12)
    v = 260
    blocks = {tuple(sorted(rng.choice(v, 3, replace=False) + 1)) for _ in range(300)}
    blocks |= {(p, p % v + 1, (p + 1) % v + 1) for p in range(1, v + 1, 3)}
    d = Design(v, sorted(blocks))
    assert d.blocks.dtype == np.uint16 and len(np.unique(d.blocks)) == v
    perm = rng.permutation(v)
    relabeled = Design(v, perm[d.blocks - 1] + 1)
    forms = [canonical_form(x) for x in (d, relabeled)]
    ref = PythonCanonizer(d).canonical_form()
    assert forms[0] == forms[1] or forms[0].certificate == forms[1].certificate
    assert (forms[0].certificate, forms[0].aut_order, forms[0].nodes) == (
        ref.certificate, ref.aut_order, ref.nodes)
    assert max(ref.certificate[::2]) == 1  # labels 256 and up are written big-endian


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


@pytest.mark.parametrize("name", ["fano", "sts13"])
def test_complements_match_reference(name):
    """The block complements of a Steiner triple system: every pair of
    points lies on several blocks, so rows tie on their first two labels
    and the later ones order them."""
    d = SMALL_DESIGNS[name]
    inside = np.zeros((d.b, d.v + 1), dtype=bool)
    inside[np.arange(d.b)[:, None], d.blocks] = True
    complement = Design(d.v, [np.flatnonzero(~row[1:]) + 1 for row in inside])
    rng = np.random.default_rng(3)
    for _ in range(3):
        relabeled = Design(d.v, rng.permutation(d.v)[complement.blocks - 1] + 1)
        ref = PythonCanonizer(relabeled).canonical_form()
        assert canonical_form(relabeled) == ref
        assert ref.aut_order == {7: 168, 13: 39}[d.v]


@pytest.mark.parametrize("v, k, picks", [(21, 3, range(12)), (37, 4, [0, 2])])
def test_classify_mix_certificates_match_reference(v, k, picks):
    """Byte for byte, with G seeded; for S(2,4,37) one design of each of
    its two classes, as the reference takes about 1.4 s per design there."""
    G, found = _classify_mix_designs(v, k)
    for i in picks:
        ref = PythonCanonizer(found[i], known_autos=G.generators).canonical_form()
        assert canonical_form(found[i], known_autos=G.generators) == ref


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
    monkeypatch.setattr(_native, "_loaded", {})
    monkeypatch.setattr(_native, "__file__", str(tmp_path / "_native.py"))
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


@pytest.mark.skipif(shutil.which("gcc") is None, reason="needs gcc")
@pytest.mark.parametrize("source", sorted(_native._PROTOTYPES))
def test_kernel_compiles_without_warnings(source):
    path = Path(_native.__file__).with_name(source)
    proc = subprocess.run(
        ["gcc", "-fsyntax-only", "-Wall", "-Wextra", "-Werror", str(path)],
        capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("source", sorted(_native._PROTOTYPES))
def test_prototypes_match_c_definitions(source):
    # ctypes passes what the prototype says, so a C signature change must
    # come with its prototype
    text = Path(_native.__file__).with_name(source).read_text()
    for name, (argtypes, _) in _native._PROTOTYPES[source].items():
        found = re.findall(rf"^[\w *]*\b{name}\(([^)]*)\)\s*{{", text, re.MULTILINE)
        assert len(found) == 1, f"{source}: no single definition of {name}"
        params = found[0].strip()
        n_params = 0 if params in ("", "void") else len(params.split(","))
        assert len(argtypes) == n_params, f"{source}: {name} takes {n_params} arguments"


def test_kernel_is_not_loaded_at_import(child_env):
    # each of canonization, expansion and the Steiner check loads the
    # kernel on its first use, and nothing before
    for first_use in (
        "designs.canonical_form(fano)",
        "designs.expand({0}, orbitgen.OrbitSet(7, 2, [(1, 2, 4)], [7], ''), perm.cyclic_group(7))",
        "designs.verify_steiner(fano, 2).ok",
    ):
        code = (
            "import kmsteiner, kmsteiner.cli\n"
            "from kmsteiner import designs, orbitgen, perm\n"
            "fano = designs.Design(7, [(1, 2, 4), (2, 3, 5), (3, 4, 6), (4, 5, 7), (1, 5, 6),"
            " (2, 6, 7), (1, 3, 7)])\n"
            "from kmsteiner import _native\n"
            "assert not _native._loaded\n"
            "designs.canonical_form(designs.Design(7, ()))\n"
            "assert not _native._loaded\n"
            f"assert {first_use}\n"
            "assert list(_native._loaded) == ['_refine.c']\n"
        )
        subprocess.run([sys.executable, "-c", code], check=True, env=child_env)
