"""Block designs: expansion, Steiner verification, canonical forms and
isomorphism classification.

A ``Design`` holds its blocks as one read-only (b, k) array in lex order,
and every function here reads that array; subsets of points are keyed by
their lex ranks (``orbitgen._pack_keys``).

Isomorphism means relabeling of points; block order is irrelevant.  The
canonical form is computed by individualization-refinement on the
bipartite point/block incidence graph, with the two sides as initial
colors.  Partition refinement, the inner loop, runs in a small C kernel
(``_refine.c``, built with gcc on the first canonization and loaded with
ctypes by ``_native``): partitions are int32 arrays and the graph is in
CSR form.  The search over the tree, automorphism pruning and the leaf
certificates stay here, in Python and numpy.  The certificate is the
canonically relabeled block list (each block sorted, blocks sorted,
fixed-width integers), taken minimal over the leaves of the search tree.
Automorphisms are detected as leaves with a certificate equal to the
first leaf's and are used to prune candidate choices; the discovered
group is returned via its order, with the number of search nodes.  A
design without blocks has the empty certificate and aut order v!.
Canonization refuses v >= 2^16 (certificate labels are 16-bit) and k with
C(v, k) >= 2^63, which has no 63-bit lex rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb, factorial

import numpy as np

from . import _native
from .orbitgen import OrbitSet, _pack_keys
from .perm import Permutation, PermutationGroup, StabilizerChain

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

    ``blocks`` is a read-only (b, k) array in dtype ``np.min_scalar_type(v)``,
    each row ascending and the rows in lex order.  The constructor takes
    any sequence of blocks or a (b, k) array and raises ValueError when a
    point lies outside 1..v, a point repeats within a block, blocks differ
    in size or a block repeats.  Designs compare by identity; compare
    ``v`` and ``blocks`` to test equality.
    """

    v: int
    blocks: np.ndarray  # (b, k)

    def __post_init__(self):
        message = "blocks must be equal-size sequences of integer points"
        try:
            rows = np.array(self.blocks, dtype=np.int64)
        except ValueError:
            raise ValueError(message) from None
        if rows.ndim != 2:
            if rows.size:
                raise ValueError(message)
            rows = rows.reshape(0, 0)
        # rows strictly increasing, within each row and in lex order across
        # rows, repeat no point and no block: only the range is left to check
        if not (_strictly_lex_ordered(rows) and 1 <= rows[:, 0].min()
                and rows[:, -1].max() <= self.v):
            rows.sort(axis=1)
            if rows.shape[1]:
                rows = rows[np.lexsort(rows.T[::-1])]
            for bad, what in (
                (((rows < 1) | (rows > self.v)).any(axis=1), f"has a point outside 1..{self.v}"),
                ((rows[:, 1:] == rows[:, :-1]).any(axis=1), "repeats a point"),
                (np.r_[False, (rows[1:] == rows[:-1]).all(axis=1)], "repeats"),
            ):
                if bad.any():
                    raise ValueError(f"block {tuple(rows[bad.argmax()].tolist())} {what}")
        rows = rows.astype(np.min_scalar_type(self.v))
        rows.flags.writeable = False
        object.__setattr__(self, "blocks", rows)

    @property
    def k(self) -> int:
        return self.blocks.shape[1]

    @property
    def b(self) -> int:
        return len(self.blocks)


def _strictly_lex_ordered(rows: np.ndarray) -> bool:
    """Whether a non-empty (b, k) array is strictly increasing within each
    row and its rows strictly increasing in lex order."""
    if not rows.size or not (rows[:, 1:] > rows[:, :-1]).all():
        return False
    step = rows[1:] - rows[:-1]  # the first nonzero entry must be positive
    return bool((step[np.arange(len(step)), (step != 0).argmax(axis=1)] > 0).all())


def expand(orbit_indices, k_orbits: OrbitSet, G: PermutationGroup) -> Design:
    """Union of the full orbits of the chosen representatives.

    The orbit of a representative K is its images under every element of
    G, each image Stab(K)-fold, so |G| / #{g : K^g = K} must equal the
    recorded orbit size.  An orbit index outside 0..len(k_orbits)-1 is a
    ValueError.
    """
    idx = np.array(sorted(orbit_indices), dtype=np.intp)
    if len(idx) and not 0 <= idx[0] <= idx[-1] < len(k_orbits):
        raise ValueError(f"orbit index outside 0..{len(k_orbits) - 1} in {idx.tolist()}")
    reps0 = k_orbits.reps[idx].astype(np.int64) - 1
    els = G.element_table()
    images = np.sort(els[:, reps0], axis=2)  # (|G|, chosen, k)
    n_stab = (images == reps0).all(axis=2).sum(axis=0)
    if (len(els) // n_stab != k_orbits.sizes[idx]).any():
        raise AssertionError("orbit size mismatch during expansion")
    # keys are lex ranks, so the distinct blocks come out in lex order
    _, first = np.unique(_pack_keys(images, k_orbits.v), return_index=True)
    if len(first) != k_orbits.sizes[idx].sum():
        raise ValueError("duplicate blocks across chosen orbits")
    return Design(k_orbits.v, images.reshape(-1, k_orbits.k)[first] + 1)


@dataclass
class SteinerReport:
    ok: bool
    violations: list  # up to 10 (t_subset, count) entries; count 0 = uncovered


def verify_steiner(d: Design, t: int) -> SteinerReport:
    """Check that every t-subset of {1..v} is covered exactly once.

    The t-subsets of the blocks are keyed by their lex ranks
    (``orbitgen._pack_keys``), which refuses t with C(v, t) >= 2^63
    (ValueError).  The report lists the subsets covered a wrong number of
    times in lex order, then the uncovered ones in lex order, at most 10
    in all.
    """
    pick = np.array(list(combinations(range(d.k), t)), dtype=np.intp).reshape(comb(d.k, t), t)
    rows = (d.blocks[:, pick] - 1).reshape(d.b * len(pick), t)
    uniq, first, counts = np.unique(_pack_keys(rows, d.v), return_index=True, return_counts=True)
    wrong = np.flatnonzero(counts != 1)[:10]
    violations = list(zip(map(tuple, (rows[first[wrong]] + 1).tolist()), counts[wrong].tolist()))
    if len(violations) < 10 and len(uniq) != comb(d.v, t):
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
    """Individualization-refinement search over partitions held by the C
    kernel: the partition of search depth i is the i-th array of
    ``_levels``, laid out as ``_refine.c`` describes."""

    def __init__(self, design: Design, node_budget: int, known_autos):
        if design.v >= 1 << 16:
            raise ValueError("certificates hold points as 16-bit labels: v too large")
        self.v = design.v
        self.b = design.b
        self.n = self.v + self.b
        self.blocks0 = design.blocks.astype(np.intp) - 1
        self.keys = _pack_keys(self.blocks0, self.v)  # ascending: the rows are in lex order
        # incidence graph in CSR form: point p is vertex p, block i vertex v + i
        flat = self.blocks0.ravel()
        degree = np.r_[np.bincount(flat, minlength=self.v), np.full(self.b, design.k)]
        self.indptr = np.r_[0, np.cumsum(degree)].astype(np.int32)
        self.adj = np.r_[self.v + np.argsort(flat, kind="stable") // design.k, flat].astype(np.int32)
        self._kernel = _native.kernel("_refine.c")
        self._work = np.zeros(2 * (self.n // 64 + 1) + 7 * self.n, dtype=np.int32)
        # the kernel's arguments before the partitions
        self._args = (self.n, self.indptr.ctypes.data, self.adj.ctypes.data)
        self._work_addr = self._work.ctypes.data
        self._levels: list = []
        self._addrs: list = []  # data addresses of _levels
        self.node_budget = node_budget
        self.nodes = 0
        self.aut_gens: list = []  # full vertex permutations (tuples)
        self._aut_epoch = 0
        self._chain = StabilizerChain([], self.v)
        for g in known_autos:
            if g.degree != self.v:
                raise ValueError("seed automorphism has wrong degree")
            vp = self._extend_point_perm(np.array(g.raw()))
            if vp is None:
                raise ValueError("permutation is not an automorphism of the design")
            self._add_aut(vp)
        self.first_cert = None
        self.first_pt_label = None
        self.best_cert = None

    # -- automorphism bookkeeping ---------------------------------------

    def _extend_point_perm(self, pt_perm: np.ndarray):
        """The vertex permutation of a 0-based point permutation, or None
        if it does not map the block set onto itself."""
        img = _pack_keys(np.sort(pt_perm[self.blocks0], axis=1), self.v)
        tgt = np.minimum(np.searchsorted(self.keys, img), self.b - 1)
        if (self.keys[tgt] != img).any():
            return None
        return tuple(pt_perm.tolist() + (self.v + tgt).tolist())

    def _add_aut(self, vertex_perm: tuple) -> None:
        if self._chain.add(vertex_perm[: self.v]):
            self.aut_gens.append(vertex_perm)
            self._aut_epoch += 1

    def aut_order(self) -> int:
        return self._chain.order()

    # -- partitions --------------------------------------------------------

    def _level(self, depth: int) -> np.ndarray:
        while len(self._levels) <= depth:
            self._levels.append(np.empty(4 * self.n, dtype=np.int32))
            self._addrs.append(self._levels[-1].ctypes.data)
        return self._levels[depth]

    def _root(self):
        """Partition of depth 0, points then blocks, refined; and its
        target cell."""
        n, v = self.n, self.v
        part = self._level(0)
        part[: 2 * n] = np.tile(np.arange(n), 2)  # lab, pos
        part[2 * n :] = np.repeat([0, v, v, n], [v, n - v, v, n - v])  # start, end
        queue = np.array([0, v], dtype=np.int32)
        k = self._kernel
        k.kms_refine(*self._args, self._addrs[0], queue.ctypes.data, 2, self._work_addr)
        return 0, k.kms_target_cell(n, self._addrs[0])

    def _individualize(self, depth: int, ts: int, y: int):
        """Depth + 1 holds the depth partition with y split off the front
        of cell ts, refined; returns it and its target cell."""
        self._level(depth + 1)
        cts = self._kernel.kms_individualize(
            *self._args, self._addrs[depth], self._addrs[depth + 1], ts, y, self._work_addr
        )
        return depth + 1, cts

    def _cell(self, depth: int, ts: int) -> list:
        part = self._levels[depth]
        return part[ts : part[3 * self.n + ts]].tolist()

    def _lab(self, depth: int) -> np.ndarray:
        return self._levels[depth][: self.n]

    # -- leaves ----------------------------------------------------------

    def _leaf_cert(self, lab: np.ndarray):
        """Certificate bytes and the point labeling of a discrete partition."""
        pt_label = np.empty(self.v, dtype=np.intp)  # point -> canonical label (0-based)
        pt_label[lab[lab < self.v]] = np.arange(self.v)
        rows = np.sort(pt_label[self.blocks0], axis=1)
        cert = rows[np.argsort(_pack_keys(rows, self.v))].astype(">u2").tobytes()
        return cert, pt_label

    def _leaf(self, lab: np.ndarray) -> None:
        cert, pt_label = self._leaf_cert(lab)
        if self.best_cert is None or cert < self.best_cert:
            self.best_cert = cert
        if self.first_cert is None:
            self.first_cert = cert
            self.first_pt_label = pt_label
            return
        if cert == self.first_cert:
            # label-preserving map: p -> q with first_label[q] == leaf_label[p]
            inv_first = np.empty(self.v, dtype=np.intp)
            inv_first[self.first_pt_label] = np.arange(self.v)
            vp = self._extend_point_perm(inv_first[pt_label])
            if vp is None:  # replay check: must fix the block set
                raise AssertionError("leaf map does not preserve the block set")
            self._add_aut(vp)

    # -- search ----------------------------------------------------------

    def search(self, part, ts: int, prefix: list) -> None:
        """Visit the node with partition part and target cell ts; prefix
        lists the vertices individualized on the way to it."""
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise BudgetExceeded(
                f"canonical labeling exceeded {self.node_budget} nodes"
            )
        if ts < 0:
            self._leaf(self._lab(part))
            return
        candidates = self._cell(part, ts)
        explored: list = []
        explored_orbit: set = set()
        orbit_epoch = -1
        for y in candidates:
            if explored:
                if orbit_epoch != self._aut_epoch:
                    explored_orbit = self._orbit_closure(explored, prefix)
                    orbit_epoch = self._aut_epoch
                if y in explored_orbit:
                    explored.append(y)
                    explored_orbit = self._grow_closure(explored_orbit, [y], prefix)
                    continue
            child, cts = self._individualize(part, ts, y)
            prefix.append(y)
            self.search(child, cts, prefix)
            prefix.pop()
            explored.append(y)
            if orbit_epoch == self._aut_epoch:
                explored_orbit = self._grow_closure(explored_orbit, [y], prefix)

    # -- aut orbit pruning ------------------------------------------------

    def _prefix_gens(self, prefix: list) -> list:
        pf = set(prefix)
        return [a for a in self.aut_gens if all(a[p] == p for p in pf)]

    def _orbit_closure(self, seeds: list, prefix: list) -> set:
        return self._grow_closure(set(), seeds, prefix)

    def _grow_closure(self, closure: set, seeds: list, prefix: list) -> set:
        gens = self._prefix_gens(prefix)
        out = set(closure)
        queue = [s for s in seeds if s not in out]
        out.update(queue)
        while queue:
            x = queue.pop()
            for a in gens:
                y = a[x]
                if y not in out:
                    out.add(y)
                    queue.append(y)
        return out


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
    cz = _Canonizer(d, node_budget, known_autos)
    cz.search(*cz._root(), [])
    return CanonicalForm(cz.best_cert, cz.aut_order(), cz.nodes)


@dataclass
class IsoClass:
    representative: Design
    certificate: bytes
    aut_order: int
    multiplicity: int
    nodes: int  # canonization nodes over the class's designs


def _design_from_cert(cert: bytes, v: int, k: int) -> Design:
    return Design(v, np.frombuffer(cert, dtype=">u2").reshape(-1, k) + 1 if cert else ())


def _canonical_form_job(args) -> CanonicalForm:
    v, blocks, budget, auto_images = args
    autos = [Permutation(img) for img in auto_images]
    return canonical_form(Design(v, blocks), node_budget=budget, known_autos=autos)


def classify(
    designs, node_budget: int = 10**7, known_autos=(), jobs: int = 1, progress=None
) -> list:
    """Group designs by certificate; returns IsoClasses sorted by certificate.

    Canonization is pure, so jobs > 1 spreads it over worker processes;
    the grouped result is independent of the worker count.  progress, if
    given, is called as progress(i, n, nodes) after the i-th of n designs
    is canonized, with the canonization nodes of designs 1..i.
    """
    if not designs:
        return []
    v = designs[0].v
    k = designs[0].k
    for d in designs:
        if d.v != v or d.k != k:
            raise ValueError("designs must share (v, k)")
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        work = [
            (d.v, d.blocks, node_budget, [g.raw() for g in known_autos])
            for d in designs
        ]
        pool = ProcessPoolExecutor(max_workers=jobs)
        forms = pool.map(_canonical_form_job, work, chunksize=1)
    else:
        pool = None
        forms = (
            canonical_form(d, node_budget=node_budget, known_autos=known_autos)
            for d in designs
        )
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
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.readline().split()
        try:
            fields = dict(tok.split("=") for tok in head)
            v, b, k = int(fields["v"]), int(fields["b"]), int(fields["k"])
        except (ValueError, KeyError):
            raise ValueError(f"{path}: malformed design header") from None
        blocks = []
        for line in fh:
            toks = line.split()
            if not toks:
                continue
            blk = tuple(int(x) for x in toks)
            if len(blk) != k:
                raise ValueError(f"{path}: block {blk} has size != {k}")
            blocks.append(blk)
    if len(blocks) != b:
        raise ValueError(f"{path}: expected {b} blocks, found {len(blocks)}")
    return Design(v, np.reshape(blocks, (b, k)))


def write_gap_designs(path, designs) -> None:
    """List-of-lists text form: one bracketed block list per design."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n")
        for i, d in enumerate(designs):
            rows = ",".join("[" + ",".join(map(str, blk)) + "]" for blk in d.blocks.tolist())
            sep = "," if i + 1 < len(designs) else ""
            fh.write(f"[{rows}]{sep}\n")
        fh.write("]\n")
