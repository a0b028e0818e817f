"""Block designs: expansion, Steiner verification, canonical forms and
isomorphism classification.

A ``Design`` holds its blocks as one read-only (b, k) array in lex order,
and every function here reads that array; subsets of points are keyed by
their lex ranks (``orbitgen._pack_keys``).

Isomorphism means relabeling of points; block order is irrelevant.  The
canonical form is computed by individualization-refinement on the
bipartite point/block incidence graph, with the two sides as initial
colors.  The certificate is the canonically relabeled block list (each
block sorted, blocks sorted, fixed-width integers), taken minimal over
the leaves of the search tree.  Automorphisms are detected as leaves with
a certificate equal to the first leaf's and are used to prune candidate
choices; the discovered group is returned via its order.  Canonization
refuses v >= 2^16 (certificate labels are 16-bit) and k with
C(v, k) >= 2^63, which has no 63-bit lex rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

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


def verify_steiner(d: Design, t: int, lam: int = 1) -> SteinerReport:
    """Check that every t-subset of {1..v} is covered exactly lam times.

    The t-subsets of the blocks are keyed by their lex ranks
    (``orbitgen._pack_keys``), which refuses t with C(v, t) >= 2^63
    (ValueError).  The report lists the subsets covered a wrong number of
    times in lex order, then the uncovered ones in lex order, at most 10
    in all.
    """
    pick = np.array(list(combinations(range(d.k), t)), dtype=np.intp).reshape(comb(d.k, t), t)
    rows = (d.blocks[:, pick] - 1).reshape(d.b * len(pick), t)
    uniq, first, counts = np.unique(_pack_keys(rows, d.v), return_index=True, return_counts=True)
    wrong = np.flatnonzero(counts != lam)[:10]
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

    def __iter__(self):
        return iter((self.certificate, self.aut_order))


class _Partition:
    """Ordered partition of the vertex set, split in place.

    Cells occupy contiguous ranges of the vertex order, identified by
    their start position; splitting never moves other cells.
    """

    __slots__ = ("lab", "pos", "start", "end", "n_cells")

    def __init__(self, cells):
        lab = []
        self.start = []
        self.end = []
        for cell in cells:
            s = len(lab)
            lab.extend(cell)
            e = len(lab)
            self.start.extend([s] * (e - s))
            self.end.extend([e] * (e - s))
        self.lab = lab
        self.pos = [0] * len(lab)
        for i, u in enumerate(lab):
            self.pos[u] = i
        self.n_cells = len(cells)

    def copy(self) -> "_Partition":
        p = _Partition.__new__(_Partition)
        p.lab = list(self.lab)
        p.pos = list(self.pos)
        p.start = list(self.start)
        p.end = list(self.end)
        p.n_cells = self.n_cells
        return p

    def is_discrete(self) -> bool:
        return self.n_cells == len(self.lab)

    def cell_at(self, s: int) -> list:
        return self.lab[s : self.end[s]]

    def split(self, s: int, groups) -> list:
        """Replace the cell starting at s by consecutive groups; returns the
        start positions of all groups."""
        e = self.end[s]
        flat = [u for grp in groups for u in grp]
        assert len(flat) == e - s
        starts = []
        i = s
        for grp in groups:
            gs = i
            starts.append(gs)
            for u in grp:
                self.lab[i] = u
                self.pos[u] = i
                i += 1
            for j in range(gs, i):
                self.start[j] = gs
                self.end[j] = i
        self.n_cells += len(groups) - 1
        return starts

    def target_cell(self) -> int:
        """Start of the first smallest non-singleton cell, or -1 if discrete."""
        best = -1
        best_size = None
        s = 0
        n = len(self.lab)
        while s < n:
            e = self.end[s]
            size = e - s
            if size > 1 and (best_size is None or size < best_size):
                best, best_size = s, size
            s = e
        return best


class _Canonizer:
    def __init__(self, design: Design, node_budget: int, known_autos):
        if design.v >= 1 << 16:
            raise ValueError("certificates hold points as 16-bit labels: v too large")
        self.v = design.v
        self.b = design.b
        self.n = self.v + self.b
        self.blocks0 = design.blocks.astype(np.intp) - 1
        self.keys = _pack_keys(self.blocks0, self.v)  # ascending: the rows are in lex order
        adj: list = [[] for _ in range(self.n)]
        for bi, blk in enumerate(self.blocks0.tolist()):
            bv = self.v + bi
            for p in blk:
                adj[p].append(bv)
                adj[bv].append(p)
        self.adj = adj
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

    # -- refinement ------------------------------------------------------

    def refine(self, part: _Partition, queue: list) -> None:
        """Refine to a fixpoint against the queued cells.

        Standard worklist refinement: when a cell splits, fragments other
        than the largest are enqueued (all of them if the cell itself was
        still queued).  Fragment order follows the neighbor counts, so the
        result is deterministic and isomorphism-invariant.
        """
        adj = self.adj
        n = self.n
        cnt = [0] * n
        queued = set(queue)
        qi = 0
        while qi < len(queue):
            ws = queue[qi]
            qi += 1
            if ws not in queued:
                continue
            queued.discard(ws)
            touched: list = []
            for w in part.lab[ws : part.end[ws]]:
                for x in adj[w]:
                    if cnt[x] == 0:
                        touched.append(x)
                    cnt[x] += 1
            # cells containing a touched vertex, in position order
            cells = sorted({part.start[part.pos[x]] for x in touched})
            for cs in cells:
                ce = part.end[cs]
                if ce - cs == 1:
                    continue
                members = part.lab[cs:ce]
                groups: dict = {}
                for u in members:
                    groups.setdefault(cnt[u], []).append(u)
                if len(groups) == 1:
                    continue
                ordered = [groups[val] for val in sorted(groups)]
                starts = part.split(cs, ordered)
                if cs in queued:
                    fresh = starts[1:]  # cs itself stays queued
                else:
                    largest = max(
                        range(len(ordered)), key=lambda i: (len(ordered[i]), -i)
                    )
                    fresh = [s for i, s in enumerate(starts) if i != largest]
                for s in fresh:
                    if s not in queued:
                        queued.add(s)
                        queue.append(s)
            for x in touched:
                cnt[x] = 0

    def initial_partition(self) -> _Partition:
        part = _Partition([list(range(self.v)), list(range(self.v, self.n))])
        self.refine(part, [0, self.v])
        return part

    # -- leaves ----------------------------------------------------------

    def _leaf_cert(self, part: _Partition):
        """Certificate bytes and the point labeling of a discrete partition."""
        lab = np.array(part.lab)
        pt_label = np.empty(self.v, dtype=np.intp)  # point -> canonical label (0-based)
        pt_label[lab[lab < self.v]] = np.arange(self.v)
        rows = np.sort(pt_label[self.blocks0], axis=1)
        cert = rows[np.argsort(_pack_keys(rows, self.v))].astype(">u2").tobytes()
        return cert, pt_label

    def _leaf(self, part: _Partition) -> None:
        cert, pt_label = self._leaf_cert(part)
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

    def search(self, part: _Partition, prefix: list) -> None:
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise BudgetExceeded(
                f"canonical labeling exceeded {self.node_budget} nodes"
            )
        ts = part.target_cell()
        if ts < 0:
            self._leaf(part)
            return
        candidates = part.cell_at(ts)
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
            child = part.copy()
            # remaining members keep their relative order
            rest = [u for u in child.cell_at(ts) if u != y]
            starts = child.split(ts, [[y], rest])
            self.refine(child, list(starts))
            prefix.append(y)
            self.search(child, prefix)
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
        return CanonicalForm(b"", 1)
    cz = _Canonizer(d, node_budget, known_autos)
    part = cz.initial_partition()
    cz.search(part, [])
    return CanonicalForm(cz.best_cert, cz.aut_order())


@dataclass
class IsoClass:
    representative: Design
    certificate: bytes
    aut_order: int
    multiplicity: int


def _design_from_cert(cert: bytes, v: int, k: int) -> Design:
    return Design(v, np.frombuffer(cert, dtype=">u2").reshape(-1, k) + 1)


def _canonical_form_job(args):
    v, blocks, budget, auto_images = args
    d = Design(v, blocks)
    autos = [Permutation(img) for img in auto_images]
    cf = canonical_form(d, node_budget=budget, known_autos=autos)
    return cf.certificate, cf.aut_order


def classify(designs, node_budget: int = 10**7, known_autos=(), jobs: int = 1) -> list:
    """Group designs by certificate; returns IsoClasses sorted by certificate.

    Canonization is pure, so jobs > 1 spreads it over worker processes;
    the grouped result is independent of the worker count.
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
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            forms = list(pool.map(_canonical_form_job, work, chunksize=1))
    else:
        forms = [
            tuple(canonical_form(d, node_budget=node_budget, known_autos=known_autos))
            for d in designs
        ]
    buckets: dict = {}
    for cert, aut in forms:
        entry = buckets.get(cert)
        if entry is None:
            buckets[cert] = [aut, 1]
        else:
            if entry[0] != aut:
                raise AssertionError("equal certificates with different aut orders")
            entry[1] += 1
    out = []
    for cert in sorted(buckets):
        aut, mult = buckets[cert]
        out.append(
            IsoClass(
                representative=_design_from_cert(cert, v, k),
                certificate=cert,
                aut_order=aut,
                multiplicity=mult,
            )
        )
    return out


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
