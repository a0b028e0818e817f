"""Block designs: expansion, Steiner verification, canonical forms and
isomorphism classification.

Isomorphism means relabeling of points; block order is irrelevant.  The
canonical form is computed by individualization-refinement on the
bipartite point/block incidence graph, with the two sides as initial
colors.  The certificate is the canonically relabeled block list (each
block sorted, blocks sorted, fixed-width integers), taken minimal over
the leaves of the search tree.  Automorphisms are detected as leaves with
a certificate equal to the first leaf's and are used to prune candidate
choices; the discovered group is returned via its order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations
from math import comb

import numpy as np

from .orbitgen import GoodOrbitSet
from .perm import PermutationGroup, Permutation, orbit_of_subset

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


@dataclass(frozen=True)
class Design:
    v: int
    blocks: tuple

    @staticmethod
    def make(v: int, blocks) -> "Design":
        blks = tuple(sorted(tuple(sorted(b)) for b in blocks))
        if len(set(blks)) != len(blks):
            raise ValueError("duplicate blocks")
        for b in blks:
            if len(set(b)) != len(b) or (b and (b[0] < 1 or b[-1] > v)):
                raise ValueError(f"bad block {b}")
        return Design(v=v, blocks=blks)

    @property
    def k(self) -> int:
        return len(self.blocks[0]) if self.blocks else 0

    @property
    def b(self) -> int:
        return len(self.blocks)


def expand(orbit_indices, k_orbits: GoodOrbitSet, G: PermutationGroup) -> Design:
    """Union of the full orbits of the chosen representatives."""
    blocks: list = []
    for j in sorted(orbit_indices):
        rep = k_orbits.reps[j]
        orb = sorted(orbit_of_subset(G, rep.rep))
        if len(orb) != rep.orbit_size:
            raise AssertionError("orbit size mismatch during expansion")
        blocks.extend(orb)
    if len(set(blocks)) != len(blocks):
        raise ValueError("duplicate blocks across chosen orbits")
    return Design.make(k_orbits.v, blocks)


@dataclass
class SteinerReport:
    ok: bool
    violations: list  # up to 10 (t_subset, count) entries; count 0 = uncovered


def _t_subsets(blocks, t: int) -> np.ndarray:
    """Rows of the t-subsets of every block, each row ascending."""
    sizes = set(map(len, blocks))
    parts = [np.empty((0, t), dtype=np.int64)]
    for k in sizes:
        blks = blocks if len(sizes) == 1 else [b for b in blocks if len(b) == k]
        pick = list(combinations(range(k), t))
        pick = np.array(pick, dtype=np.intp).reshape(len(pick), t)
        flat = np.fromiter(chain.from_iterable(blks), dtype=np.int64, count=len(blks) * k)
        rows = np.sort(flat.reshape(len(blks), k), axis=1)
        parts.append(rows[:, pick].reshape(len(blks) * len(pick), t))
    return np.concatenate(parts)


def verify_steiner(d: Design, t: int, lam: int = 1) -> SteinerReport:
    """Check that every t-subset of {1..v} is covered exactly lam times.

    The report lists the subsets covered a wrong number of times in sorted
    order, then the uncovered ones in lexicographic order, at most 10 in all.
    """
    rows = _t_subsets(d.blocks, t)
    # points outside 1..v (a design built without Design.make) widen the digits
    lo = min(int(rows.min(initial=1)), 1)
    base = max(int(rows.max(initial=d.v)), d.v) - lo + 1
    if base**t < 1 << 63:
        # base-`base` digits keep the lexicographic order of the rows
        keys = (rows - lo) @ (base ** np.arange(t - 1, -1, -1, dtype=np.int64))
        _, first, counts = np.unique(keys, return_index=True, return_counts=True)
        subsets = rows[first]
    else:
        subsets, counts = np.unique(rows, axis=0, return_counts=True)
    wrong = np.flatnonzero(counts != lam)[:10]
    violations = list(zip(map(tuple, subsets[wrong].tolist()), counts[wrong].tolist()))
    if len(violations) < 10 and len(counts) != comb(d.v, t):
        present = set(map(tuple, subsets.tolist()))
        for T in combinations(range(1, d.v + 1), t):
            if T not in present:
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
        self.v = design.v
        self.b = len(design.blocks)
        self.n = self.v + self.b
        self.k = design.k
        blocks0 = [tuple(p - 1 for p in blk) for blk in design.blocks]
        self.block_index = {blk: i for i, blk in enumerate(blocks0)}
        self.blocks0 = blocks0
        adj: list = [[] for _ in range(self.n)]
        for bi, blk in enumerate(blocks0):
            bv = self.v + bi
            for p in blk:
                adj[p].append(bv)
                adj[bv].append(p)
        self.adj = adj
        self.node_budget = node_budget
        self.nodes = 0
        self.aut_gens: list = []  # full vertex permutations (tuples)
        self._aut_epoch = 0
        from .perm import _Chain

        self._chain = _Chain([], self.v)
        for g in known_autos:
            vp = self._extend_point_perm(g)
            self._add_aut(vp)
        self.first_cert = None
        self.first_pt_label = None
        self.best_cert = None

    # -- automorphism bookkeeping ---------------------------------------

    def _extend_point_perm(self, g: Permutation) -> tuple:
        if g.degree != self.v:
            raise ValueError("seed automorphism has wrong degree")
        raw = g.raw()
        out = list(raw) + [0] * self.b
        for bi, blk in enumerate(self.blocks0):
            img = tuple(sorted(raw[p] for p in blk))
            tgt = self.block_index.get(img)
            if tgt is None:
                raise ValueError("permutation is not an automorphism of the design")
            out[self.v + bi] = self.v + tgt
        return tuple(out)

    def _add_aut(self, vertex_perm: tuple) -> bool:
        pt = vertex_perm[: self.v]
        before = self._chain.order()
        self._chain._add(tuple(pt))
        if self._chain.order() != before:
            self.aut_gens.append(vertex_perm)
            self._aut_epoch += 1
            return True
        return False

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
        pt_label = [0] * self.v  # point -> canonical label (0-based)
        rank = 0
        for u in part.lab:
            if u < self.v:
                pt_label[u] = rank
                rank += 1
        rows = []
        for blk in self.blocks0:
            rows.append(tuple(sorted(pt_label[p] for p in blk)))
        rows.sort()
        cert = np.array(rows, dtype=">u2").tobytes()
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
            inv_first = [0] * self.v
            for q, lbl in enumerate(self.first_pt_label):
                inv_first[lbl] = q
            pt_perm = tuple(inv_first[pt_label[p]] for p in range(self.v))
            # replay check: must fix the block set
            ok = all(
                tuple(sorted(pt_perm[p] for p in blk)) in self.block_index
                for blk in self.blocks0
            )
            if not ok:
                raise AssertionError("leaf map does not preserve the block set")
            self._add_aut(self._extend_point_perm(Permutation(pt_perm)))

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
    if not d.blocks:
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
    arr = np.frombuffer(cert, dtype=">u2")
    rows = arr.reshape(-1, k) + 1
    return Design.make(v, [tuple(int(x) for x in row) for row in rows])


def _canonical_form_job(args):
    v, blocks, budget, auto_images = args
    d = Design(v=v, blocks=blocks)
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
        for blk in d.blocks:
            fh.write(" ".join(str(p) for p in blk) + "\n")


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
    return Design.make(v, blocks)


def write_gap_designs(path, designs) -> None:
    """List-of-lists text form: one bracketed block list per design."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("[\n")
        for i, d in enumerate(designs):
            rows = ",".join("[" + ",".join(str(p) for p in blk) + "]" for blk in d.blocks)
            sep = "," if i + 1 < len(designs) else ""
            fh.write(f"[{rows}]{sep}\n")
        fh.write("]\n")
