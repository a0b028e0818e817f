"""Block designs: expansion, Steiner verification, canonical forms and
isomorphism classification.

A ``Design`` holds its blocks as one read-only (b, k) array in lex order,
and every function here reads that array; subsets of points are keyed by
their lex ranks (``orbitgen._pack_keys``).  The constructor validates in
numpy and never loads a kernel.

The work done per design runs in one small C kernel, ``_refine.c``, built
with gcc on its first use and loaded with ctypes by ``_native``:

- ``expand`` passes the element table, the OrbitSet's own reps and
  sizes and the chosen orbit indices to ``kms_expand``, which gathers and
  checks the chosen reps, sorts and keys every image, counts each
  stabilizer, radix sorts the keys and writes the distinct blocks in lex
  order, which the ``Design`` keeps unchecked;
- ``verify_steiner`` counts the t-subsets of the blocks in a table of
  C(v, t) entries with ``kms_steiner_count``, which reads each block's
  points and their binomials once, when the blocks hold exactly C(v, t)
  of them, the only case in which a design can be Steiner; any other
  design, and one that fails, gets its report from a key sort in numpy;
- ``canonical_form`` runs the search ``kms_canon``.

Isomorphism means relabeling of points; block order is irrelevant.  The
canonical form is computed by individualization-refinement on the
bipartite point/block incidence graph, with the two sides as initial
colors.  The kernel does partition refinement, the walk over the tree,
the leaf certificates and the automorphism pruning.  The certificate is
the canonically relabeled block list (each block sorted, blocks sorted,
16-bit big-endian labels), taken minimal over the leaves of the search
tree.  Every refinement, the root's included, stops once the points are
all singletons, and such a node is a leaf.  Automorphisms are detected
as leaves with a certificate equal to the first leaf's, and every one
found prunes candidate choices, whether or not it grows the known
group.  In a Steiner 2-design, refinement after one point is
individualized leaves the other points alike, so each child of the root
that individualized a point and is not a leaf splits its cells by a
vertex invariant: the number of
quadrilaterals (four blocks, any two meeting in exactly one point, the
six meeting points distinct) holding both that point and the vertex,
then refines again.  The invariant runs only on linear designs, where no
pair of points lies in two blocks, as the kernel decides from the
design's own blocks; any other design, such as a 3-design, runs the
search without it.  Here stay the CSR graph, the check of the known
automorphisms and the one ``StabilizerChain`` of the group found: the
kernel calls back with every leaf automorphism, and one outside the
chain's group is replayed on the block set and added to the chain.  The
group is returned via its order, with the number of search nodes.  A
design without blocks has the empty certificate and aut order v!.
Canonization refuses v >= 2^16 (certificate labels are 16-bit) and k with
C(v, k) >= 2^63, which has no 63-bit lex rank.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache, partial
from itertools import combinations
from math import comb, factorial

import numpy as np

from . import _native
from .orbitgen import OrbitSet, _binomials, _pack_keys, _strictly_lex_ordered
from .perm import PermutationGroup, StabilizerChain

__all__ = [
    "Design",
    "IsoClass",
    "SteinerReport",
    "BudgetExceeded",
    "expand",
    "verify_steiner",
    "canonical_form",
    "CanonicalForm",
    "classify",
    "write_design_file",
    "read_design_file",
    "write_gap_designs",
]


class BudgetExceeded(RuntimeError):
    """Refinement search exceeded its node budget; no answer produced."""


@dataclass(frozen=True, eq=False)
class Design:
    """A set of blocks on the points {1..v}.

    ``blocks`` is a read-only C-ordered (b, k) array in dtype
    ``np.min_scalar_type(v)``, each row ascending and the rows in lex
    order, taken by the rule of ``_native.intake`` from any sequence of
    blocks or a (b, k) array.  The constructor raises ValueError when a
    point lies outside 1..v, a point repeats within a block, blocks differ
    in size or a block repeats.  Designs compare by identity; compare
    ``v`` and ``blocks`` to test equality.
    """

    v: int
    blocks: np.ndarray  # (b, k)
    _refused = "blocks must be equal-size sequences of integer points"  # not a field

    def __post_init__(self):
        _native.intake(self, {"blocks": np.min_scalar_type(self.v)}, (self.blocks,),
                       self._refused, self._check)

    def _check(self, rows: np.ndarray) -> tuple:
        if rows.ndim != 2:
            if rows.size:
                raise ValueError(self._refused)
            rows = rows.reshape(0, 0)
        # rows strictly increasing, within each row and in lex order across
        # rows, in range, repeat no point and no block: nothing left to check
        if not _strictly_lex_ordered(rows, self.v):
            rows = np.sort(rows, axis=1)
            if rows.shape[1]:
                rows = rows[np.lexsort(rows.T[::-1])]
            for bad, what in (
                (((rows < 1) | (rows > self.v)).any(axis=1), f"has a point outside 1..{self.v}"),
                ((rows[:, 1:] == rows[:, :-1]).any(axis=1), "repeats a point"),
                (np.r_[False, (rows[1:] == rows[:-1]).all(axis=1)], "repeats"),
            ):
                if bad.any():
                    raise ValueError(f"block {tuple(rows[bad.argmax()].tolist())} {what}")
        return (rows,)

    @property
    def k(self) -> int:
        return self.blocks.shape[1]

    @property
    def b(self) -> int:
        return len(self.blocks)


def expand(orbit_indices, k_orbits: OrbitSet, G: PermutationGroup) -> Design:
    """Union of the full orbits of the chosen representatives.

    The orbit of a representative K is its images under every element of
    G, each image Stab(K)-fold, so |G| / #{g : K^g = K} must equal the
    recorded orbit size (AssertionError if not).  A group whose degree is
    not v, an orbit index that is not an integer (a bool is not) or lies
    outside 0..len(k_orbits)-1, a representative point outside 1..v and a
    block in two chosen orbits are ValueErrors.  The kernel ``kms_expand`` sorts, keys, counts and
    deduplicates the images.
    """
    idx = _native.integers(sorted(orbit_indices), "orbit indices must be integers")
    idx = idx.astype(np.int64, copy=False)
    if len(idx) and not 0 <= idx[0] <= idx[-1] < len(k_orbits):
        raise ValueError(f"orbit index outside 0..{len(k_orbits) - 1} in {idx.tolist()}")
    if G.degree != k_orbits.v:  # the kernel reads the element table in rows of v
        raise ValueError("group degree does not match v")
    v, k, els = k_orbits.v, k_orbits.k, G.element_table()
    out = np.empty((len(els) * len(idx), k), dtype=k_orbits.reps.dtype)
    b = _native.kernel("_refine.c").kms_expand(v, k, len(els), els, k_orbits.reps, out.itemsize,
                                               k_orbits.sizes, len(idx), idx, _binomials(v, k), out)
    if b < 0:
        raise {
            -1: AssertionError("orbit size mismatch during expansion"),
            -2: ValueError("duplicate blocks across chosen orbits"),
            -3: ValueError(f"orbit representative outside 1..{v}"),
        }.get(b, MemoryError("expansion ran out of memory"))
    out.flags.writeable = False  # rows as Design stores them: kept without its checks
    d = object.__new__(Design)
    d.__dict__.update(v=v, blocks=out[:b])
    return d


@dataclass
class SteinerReport:
    ok: bool
    violations: list  # up to 10 (t_subset, count) entries; count 0 = uncovered


@lru_cache(maxsize=16)
def _picks(k: int, t: int) -> np.ndarray:
    """The t-subsets of range(k) in lex order, as a read-only (C(k, t), t) int32 array."""
    pick = np.array(list(combinations(range(k), t)), dtype=np.int32).reshape(comb(k, t), t)
    pick.flags.writeable = False
    return pick


def verify_steiner(d: Design, t: int) -> SteinerReport:
    """Check that every t-subset of {1..v} is covered exactly once.

    The t-subsets of the blocks are keyed by their lex ranks
    (``orbitgen._pack_keys``), which refuses t with C(v, t) >= 2^63
    (ValueError).  When the blocks hold exactly C(v, t) t-subsets, the
    kernel ``kms_steiner_count`` counts them in a table of C(v, t) entries
    and a design with every count 1 passes at once.  Otherwise the report
    lists the subsets covered a wrong number of times in lex order, then
    the uncovered ones in lex order, at most 10 in all.
    """
    pick = _picks(d.k, t)
    n_sub = comb(d.v, t)
    if d.b * len(pick) == n_sub:
        ok = _native.kernel("_refine.c").kms_steiner_count(
            d.v, t, d.b, d.k, d.blocks, d.blocks.itemsize, len(pick), pick, _binomials(d.v, t),
            n_sub)
        if ok < 0:
            raise MemoryError("the Steiner check ran out of memory")
        if ok:
            return SteinerReport(ok=True, violations=[])
    rows = (d.blocks[:, pick] - 1).reshape(d.b * len(pick), t)
    keys = _pack_keys(rows, d.v)
    uniq, counts = np.unique(keys, return_counts=True)
    wrong = np.flatnonzero(counts != 1)[:10]
    at = [int(np.argmax(keys == key)) for key in uniq[wrong]]  # a row holding each wrong key
    violations = list(zip(map(tuple, (rows[at] + 1).tolist()), counts[wrong].tolist()))
    if len(violations) < 10 and len(uniq) != n_sub:
        present = set(uniq.tolist())
        # combinations() yields the t-subsets in lex order, so its index is the key
        for key, T in enumerate(combinations(range(1, d.v + 1), t)):
            if key not in present:
                violations.append((T, 0))
                if len(violations) >= 10:
                    break
    return SteinerReport(ok=not violations, violations=violations)


# ---------------------------------------------------------------------------
# canonical labeling


@dataclass(frozen=True)
class CanonicalForm:
    certificate: bytes
    aut_order: int
    nodes: int  # search tree nodes visited


class _Canonizer:
    """One canonization: the design's incidence graph in CSR form for the
    C search, and the stabilizer chain of the automorphisms it finds.  Only
    the known automorphisms that grow the chain seed the search."""

    def __init__(self, design: Design, known_autos):
        if design.v >= 1 << 16:
            raise ValueError("certificates hold points as 16-bit labels: v too large")
        self.v, self.b, self.k = design.v, design.b, design.k
        self.n = self.v + self.b
        self.blocks0 = design.blocks.astype(np.intp) - 1
        self.keys = _pack_keys(self.blocks0, self.v)  # ascending: the rows are in lex order
        # incidence graph in CSR form: point p is vertex p, block i vertex v + i
        flat = self.blocks0.ravel()
        degree = np.r_[np.bincount(flat, minlength=self.v), np.full(self.b, self.k)]
        self.indptr = np.r_[0, np.cumsum(degree)].astype(np.int32)
        self.adj = np.r_[self.v + np.argsort(flat, kind="stable") // self.k, flat].astype(np.int32)
        self.work = np.zeros(2 * (self.n // 64 + 1) + 7 * self.n, dtype=np.int32)
        self.chain = StabilizerChain([], self.v)
        seeds = []  # vertex permutations of the known automorphisms that grow the chain
        for g in known_autos:
            if g.degree != self.v:
                raise ValueError("seed automorphism has wrong degree")
            vp = self._vertex_perm(np.array(g.raw()))
            if vp is None:
                raise ValueError("permutation is not an automorphism of the design")
            if self.chain.add(tuple(vp[: self.v].tolist())):
                seeds.append(vp)
        self.seeds = np.array(seeds, dtype=np.int32).reshape(len(seeds), self.n)
        self.error = None  # an exception raised in _on_aut

    def _vertex_perm(self, pt_perm: np.ndarray):
        """The vertex permutation of a 0-based point permutation, or None
        if it does not map the block set onto itself."""
        img = _pack_keys(np.sort(pt_perm[self.blocks0], axis=1), self.v)
        tgt = np.minimum(np.searchsorted(self.keys, img), self.b - 1)
        if (self.keys[tgt] != img).any():
            return None
        return np.r_[pt_perm, self.v + tgt]

    def _on_aut(self, perm) -> int:
        """The search's callback for a leaf automorphism, its vertex images at
        perm: one already in the chain's group is a product of verified
        automorphisms; any other is replayed on the block set and added to the
        chain.  Returns 0, or -1, keeping the exception for run, if anything raised."""
        try:
            g = tuple(perm[: self.v])
            if self.chain.contains(g):
                return 0
            vp = np.array(perm[: self.n])
            replay = self._vertex_perm(vp[: self.v])
            if replay is None or not np.array_equal(replay, vp):
                raise AssertionError("leaf map does not preserve the block set")
            self.chain.add(g)
            return 0
        except BaseException as exc:
            self.error = exc
            return -1

    def run(self, node_budget: int) -> CanonicalForm:
        best = np.empty(2 * self.b * self.k, dtype=np.uint8)
        nodes = np.zeros(1, dtype=np.int64)
        status = _native.kernel("_refine.c").kms_canon(
            self.n, self.v, self.indptr, self.adj, self.seeds, len(self.seeds),
            min(node_budget, (1 << 63) - 1), _native.AUT_CALLBACK(self._on_aut), best, nodes,
            self.work)
        if self.error is not None:
            raise self.error
        if status == 1:
            raise BudgetExceeded(f"canonical labeling exceeded {node_budget} nodes")
        if status:
            raise MemoryError("canonical labeling ran out of memory")
        return CanonicalForm(best.tobytes(), self.chain.order(), int(nodes[0]))


def canonical_form(
    d: Design,
    node_budget: int = 10**7,
    known_autos=(),
) -> CanonicalForm:
    """Certificate and automorphism group order of a design.

    known_autos may seed the search with permutations already known to be
    automorphisms (e.g. the prescribed group); they are verified and do
    not change the certificate.  Raises BudgetExceeded when the node cap
    is hit; never returns a wrong answer.
    """
    if not d.b:
        return CanonicalForm(b"", factorial(d.v), 0)
    return _Canonizer(d, known_autos).run(node_budget)


@dataclass
class IsoClass:
    representative: Design
    certificate: bytes
    aut_order: int
    multiplicity: int
    nodes: int  # canonization nodes over the class's designs


def _design_from_cert(cert: bytes, v: int, k: int) -> Design:
    return Design(v, np.frombuffer(cert, dtype=">u2").reshape(-1, k) + 1 if cert else ())


def classify(designs, known_autos=(), jobs: int = 1, progress=None) -> list:
    """Group designs by certificate; returns IsoClasses sorted by certificate.

    Canonization is pure, so jobs > 1 spreads it over worker processes,
    at most one per CPU and per design; the grouped result is independent
    of the worker count.  progress, if given, is called as
    progress(i, n, nodes) after the i-th of n designs is canonized, with
    the canonization nodes of designs 1..i.
    """
    if not designs:
        return []
    v = designs[0].v
    k = designs[0].k
    for d in designs:
        if d.v != v or d.k != k:
            raise ValueError("designs must share (v, k)")
    job = partial(canonical_form, known_autos=known_autos)
    workers = min(jobs, os.cpu_count() or 1, len(designs))
    pool = None
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # imported only when used

        pool = ProcessPoolExecutor(max_workers=workers)
    forms = map(job, designs) if pool is None else pool.map(job, designs, chunksize=1)
    buckets: dict = {}
    nodes = 0
    try:
        for i, cf in enumerate(forms, start=1):
            nodes += cf.nodes
            entry = buckets.setdefault(cf.certificate, [cf.aut_order, 0, 0])
            if entry[0] != cf.aut_order:
                raise AssertionError("equal certificates with different aut orders")
            entry[1] += 1
            entry[2] += cf.nodes
            if progress is not None:
                progress(i, len(designs), nodes)
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)
    return [
        IsoClass(_design_from_cert(cert, v, k), cert, aut, mult, class_nodes)
        for cert, (aut, mult, class_nodes) in sorted(buckets.items())
    ]


# ---------------------------------------------------------------------------
# design files: line 1 "v=<v> b=<b> k=<k>", one block per line (1-based);
# plus a list-of-lists text form readable by common CAS systems


def write_design_file(path, d: Design) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"v={d.v} b={d.b} k={d.k}\n")
        for blk in d.blocks.tolist():
            fh.write(" ".join(map(str, blk)) + "\n")


def read_design_file(path) -> Design:
    """The design in a file of ``write_design_file``'s format.  An error
    names path and, where one line is at fault, the line, counted from 1."""
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.readline().split()
        try:
            fields = dict(tok.split("=") for tok in head)
            v, b, k = int(fields["v"]), int(fields["b"]), int(fields["k"])
        except (ValueError, KeyError):
            raise ValueError(f"{path}:1: malformed design header") from None
        if min(v, b, k) < 1:
            raise ValueError(f"{path}:1: v, b and k must be at least 1, got v={v} b={b} k={k}")
        blocks = []
        first = {}  # block, sorted -> the line that gives it
        for ln, line in enumerate(fh, start=2):
            toks = line.split()
            if not toks:
                continue
            try:
                blk = tuple(int(x) for x in toks)
            except ValueError as exc:
                raise ValueError(f"{path}:{ln}: {exc}") from None
            key = tuple(sorted(blk))
            for bad, what in ((len(blk) != k, f"has size != {k}"),
                              (key[0] < 1 or key[-1] > v, f"has a point outside 1..{v}"),
                              (len(set(key)) < len(key), "repeats a point"),
                              (key in first, f"repeats line {first.get(key)}")):
                if bad:
                    raise ValueError(f"{path}:{ln}: block {blk} {what}")
            first[key] = ln
            blocks.append(blk)
    if len(blocks) != b:
        raise ValueError(f"{path}: expected {b} blocks, found {len(blocks)}")
    try:
        return Design(v, np.reshape(blocks, (b, k)))
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def write_gap_designs(path, designs) -> None:
    """List-of-lists text form: one bracketed block list per design."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n")
        for i, d in enumerate(designs):
            rows = ",".join("[" + ",".join(map(str, blk)) + "]" for blk in d.blocks.tolist())
            sep = "," if i + 1 < len(designs) else ""
            fh.write(f"[{rows}]{sep}\n")
        fh.write("]\n")
