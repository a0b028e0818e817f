"""The canonizer's C kernel (refinement and search) against the Python
reference in `oracles`, the node counts of its search, and the kernel's
build."""

import hashlib
import re
import shutil
import subprocess
import sys
from itertools import combinations
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

from oracles import Partition, PythonCanonizer, designs_isomorphic_bruteforce, orbit_of_subset

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
    graph = (n, d.v, cz.indptr.ctypes.data, cz.adj.ctypes.data)  # stop = v, as in the search
    oracle = PythonCanonizer(d)
    ref, ts = oracle._root()
    part = Partition([list(range(d.v)), list(range(d.v, n))]).array()  # the root, unrefined
    queue = np.array([0, d.v], dtype=np.int32)
    leaf = kernel.kms_refine(*graph, part.ctypes.data, queue.ctypes.data, 2, cz.work.ctypes.data)
    assert np.array_equal(part, ref.array()) and leaf == (ts < 0)
    assert kernel.kms_target_cell(n, part.ctypes.data) == ref.target_cell()
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
        assert kernel.kms_target_cell(n, part.ctypes.data) == ref.target_cell()
    assert clean_work(cz)


@settings(max_examples=20, deadline=None)
@given(relabeling(), st.booleans())
def test_kernel_search_matches_reference(relabeled, seeded):
    d, shift = relabeled
    autos = [shift] if seeded else []
    oracle = PythonCanonizer(d, known_autos=autos)
    ref = oracle.canonical_form()
    cz = designs._Canonizer(d, autos)
    calls = []
    on_aut = cz._on_aut
    cz._on_aut = lambda addr: calls.append(addr) or on_aut(addr)
    cf = cz.run(10**7)
    assert (cf.certificate, cf.aut_order, cf.nodes) == (ref.certificate, ref.aut_order, ref.nodes)
    # the kernel passes on every leaf automorphism that moves a point
    assert len(calls) == len(oracle.aut_gens) - len(cz.seeds)
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


def test_leaf_map_failing_the_replay_is_an_error(monkeypatch):
    # every leaf automorphism outside the chain's group is replayed on the
    # block set before it joins the chain
    monkeypatch.setattr(designs._Canonizer, "_vertex_perm", lambda self, pt_perm: None)
    cz = designs._Canonizer(SMALL_DESIGNS["sts13"], ())  # unseeded: no seed to replay
    with pytest.raises(AssertionError, match="does not preserve the block set"):
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
    (15, 3): [(20160, 76), (60, 70)],
    (21, 3): [(504, 20), (21, 212), (21, 212), (21, 212), (1008, 32), (126, 7),
              (882, 80), (882, 78), (42, 4), (126, 7), (42, 4), (42, 4)],
    # the two without Pasch configurations leave the quadrilateral invariant
    # nothing to split
    (27, 3): [(27, 2)] * 3 + [(27, 353)] + [(27, 2)] * 5 + [(27, 353)] + [(27, 2)] * 6,
    (37, 4): [(37, 2), (37, 2), (111, 4), (37, 2)],
    (21, 5): [(120960, 325)],
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
    assert total == 2087


def pg42():
    """PG(4,2): the lines {a, b, a ^ b} of the nonzero vectors of GF(2)^5,
    vector x as point x, and the Singer cycle x -> alpha * x, alpha a root
    of x^5 + x^2 + 1."""
    lines = {tuple(sorted((a, b, a ^ b))) for a in range(1, 32) for b in range(a + 1, 32)}
    times_alpha = [x << 1 ^ (0b100101 if x & 16 else 0) for x in range(1, 32)]
    return Design(31, sorted(lines)), Permutation([y - 1 for y in times_alpha])


def test_seeded_search_prunes_with_automorphisms_in_the_seeded_group():
    """Leaf automorphisms inside the group of the seeds still prune: seeded
    with its Singer cycle, PG(4,2) once took 259,276 nodes against 573
    unseeded."""
    d, singer = pg42()
    assert d.b == 155 and designs.verify_steiner(d, 2).ok
    seeded = canonical_form(d, known_autos=[singer])
    plain = canonical_form(d)
    assert seeded.certificate == plain.certificate
    assert seeded.aut_order == plain.aut_order == 9999360  # |GL(5, 2)|
    assert seeded.nodes <= plain.nodes and seeded.nodes < 1000


def test_cyclic_sts31_classification_pinned():
    """Cyclic STS(31) from encoding c: 176 designs in 80 classes; PG(4,2)
    is the one with aut order 9,999,360."""
    G, found = _classify_mix_designs(31, 3)
    classes = classify(found, known_autos=G.generators)
    assert (len(found), len(classes)) == (176, 80)
    assert sum(c.multiplicity for c in classes) == 176
    auts = sorted(c.aut_order for c in classes)
    assert auts == [31] * 63 + [93] * 15 + [465, 9999360]


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


@pytest.mark.parametrize("v, k, i, quads", [(27, 3, 0, True), (27, 3, 3, False), (37, 4, 0, True)])
def test_quadrilateral_invariant_matches_reference(v, k, i, quads):
    """Node for node, with G seeded and on a relabeled copy unseeded: a
    cyclic STS(27) with Pasch configurations (the quadrilaterals of a
    triple system), one without, where the invariant splits nothing, and
    an S(2,4,37)."""
    G, found = _classify_mix_designs(v, k)
    d = found[i]
    oracle = PythonCanonizer(d)
    assert oracle.linear and (oracle._quad_counts(0)[0] > 0) == quads  # through point 1
    relabeled = Design(v, np.random.default_rng(v).permutation(v)[d.blocks - 1] + 1)
    for design, autos in ((d, G.generators), (relabeled, ())):
        ref = PythonCanonizer(design, known_autos=autos).canonical_form()
        cz = designs._Canonizer(design, autos)
        assert cz.run(10**7) == ref and clean_work(cz)
    assert ref.certificate == canonical_form(d).certificate


def test_relabelings_get_equal_certificates():
    """Every classify-mix design and two random relabelings of it get one
    certificate."""
    rng = np.random.default_rng(5)
    for v, k in CLASSIFY_MIX_NODES:
        _, found = _classify_mix_designs(v, k)
        for d in found:
            cert = canonical_form(d).certificate
            for _ in range(2):
                relabeled = Design(v, rng.permutation(v)[d.blocks - 1] + 1)
                assert canonical_form(relabeled).certificate == cert


def test_certificates_agree_with_bruteforce_isomorphism():
    """The two STS(13): the cyclic one, and the one a Pasch trade makes of
    it.  Certificates of relabelings are equal exactly when brute force
    finds an isomorphism."""
    cyclic = SMALL_DESIGNS["sts13"]
    pasch = {(1, 2, 5), (1, 3, 8), (2, 8, 10), (3, 5, 10)}
    traded = Design(13, sorted(set(map(tuple, cyclic.blocks.tolist())) - pasch
                               | {(1, 2, 8), (1, 3, 5), (2, 5, 10), (3, 8, 10)}))
    assert designs.verify_steiner(traded, 2).ok and canonical_form(traded).aut_order == 6
    rng = np.random.default_rng(13)
    for d in (cyclic, traded):
        relabeled = Design(13, rng.permutation(13)[d.blocks - 1] + 1)
        for other in (cyclic, traded):
            same = canonical_form(relabeled).certificate == canonical_form(other).certificate
            assert same == (other is d)
        assert designs_isomorphic_bruteforce(d, relabeled)
    assert not designs_isomorphic_bruteforce(traded, cyclic)


def s348():
    """S(3,4,8): the planes {a, b, c, d}, a ^ b ^ c ^ d = 0, of GF(2)^3,
    vector x as point x + 1."""
    return Design(8, [tuple(x + 1 for x in q) for q in combinations(range(8), 4)
                      if q[0] ^ q[1] ^ q[2] ^ q[3] == 0])


def complement(d):
    inside = np.zeros((d.b, d.v + 1), dtype=bool)
    inside[np.arange(d.b)[:, None], d.blocks] = True
    return Design(d.v, [np.flatnonzero(~row[1:]) + 1 for row in inside])


# (aut order, nodes, certificate SHA-256 prefix) of each design and of two
# relabelings, as the search without the quadrilateral invariant gives them
NON_LINEAR_FORMS = {
    "s348": [(1344, 78, "44ab6eb295b046b4")] * 3,
    "fano": [(168, 46, "1b3c9d1cf7c720b1")] * 2 + [(168, 43, "1b3c9d1cf7c720b1")],
    "sts13": [(39, 133, "88bbde0ba91f7d31"), (39, 146, "88bbde0ba91f7d31"),
              (39, 120, "88bbde0ba91f7d31")],
}


@pytest.mark.parametrize("name", sorted(NON_LINEAR_FORMS))
def test_non_linear_designs_search_without_the_invariant(name):
    """S(3,4,8), a 3-design, and the block complements of two triple
    systems have pairs of points in several blocks: their search, nodes and
    certificates are those of the search without the invariant."""
    d = s348() if name == "s348" else complement(SMALL_DESIGNS[name])
    assert not PythonCanonizer(d).linear
    rng = np.random.default_rng(8)
    forms = []
    for i in range(3):
        x = d if i == 0 else Design(d.v, rng.permutation(d.v)[d.blocks - 1] + 1)
        cf = canonical_form(x)
        forms.append((cf.aut_order, cf.nodes, hashlib.sha256(cf.certificate).hexdigest()[:16]))
    assert forms == NON_LINEAR_FORMS[name]


def test_classify_jobs_agree_and_report_progress():
    G, found = _classify_mix_designs(21, 3)
    calls = []
    one = classify(found, known_autos=G.generators, progress=lambda *a: calls.append(a))
    two = classify(found, known_autos=G.generators, jobs=2)
    key = [(c.certificate, c.aut_order, c.multiplicity, c.nodes) for c in one]
    assert key == [(c.certificate, c.aut_order, c.multiplicity, c.nodes) for c in two]
    assert [(i, n) for i, n, _ in calls] == [(i, 12) for i in range(1, 13)]
    assert calls[-1][2] == sum(c.nodes for c in one) == sum(n for _, n in CLASSIFY_MIX_NODES[21, 3])


def test_root_refinement_can_end_at_a_leaf():
    """The first design with k = 3 and v <= 8 in a brute-force search whose
    root refinement already makes every point a singleton: the root is a
    leaf, the only node, and the search starts there."""
    d = Design(6, [(1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 5, 6)])
    cf = canonical_form(d)
    assert (cf.aut_order, cf.nodes) == (1, 1)
    assert cf == PythonCanonizer(d).canonical_form()


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
def test_kernel_compiles_without_warnings(source, tmp_path):
    # a full -O2 build: some warnings, such as -Wmaybe-uninitialized, need
    # the optimizer's analysis
    path = Path(_native.__file__).with_name(source)
    proc = subprocess.run(
        ["gcc", "-O2", "-Wall", "-Wextra", "-Werror", "-shared", "-fPIC",
         "-o", str(tmp_path / "kernel.so"), str(path)],
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
