"""Independent brute-force oracles used by the tests.

Everything here deliberately avoids the library's own search machinery:
orbits come from plain closure over generator products, exact covers from
subset enumeration, automorphism groups from full permutation sweeps, and
isomorphism from point-map backtracking.  Former implementations are kept
as references for the array code that replaced them: `orderly_reps_bitmask`
for the search tree of the orderly search and its prunes, `km_columns_dict`
for the Kramer-Mesner matrix, `expand_by_closure` for design expansion,
`Partition`, `refine` and `PythonCanonizer` for the canonizer's C
refinement kernel, and `numpy_solve` for the search tree of the C
exact-cover kernel.
"""

import time
from itertools import combinations, permutations
from math import comb

import numpy as np

from kmsteiner.designs import CanonicalForm, Design, _Canonizer
from kmsteiner.km import KMError
from kmsteiner.order84 import _closure, _isomorphisms
from kmsteiner.perm import Permutation
from kmsteiner.xcc import Solution, SolveStats


def subset_image(g, S):
    """Image of the 1-based point set S under the 0-based image row g
    (a row of `PermutationGroup.element_table` or `Permutation.raw`),
    re-sorted."""
    return tuple(sorted(g[p - 1] + 1 for p in S))


def orbit_of_subset(G, S):
    """Orbit of a point subset under G: closure under generator application."""
    start = tuple(sorted(S))
    gens = [g.raw() for g in G.generators]
    seen = {start}
    queue = [start]
    qi = 0
    while qi < len(queue):
        cur = queue[qi]
        qi += 1
        for g in gens:
            img = subset_image(g, cur)
            if img not in seen:
                seen.add(img)
                queue.append(img)
    return seen


def subset_orbits(generators, v, size):
    """All orbits on `size`-subsets as {lexmin rep: orbit set}, by closure."""
    gens = [g.raw() for g in generators]
    seen = set()
    orbits = {}
    for S in combinations(range(1, v + 1), size):
        if S in seen:
            continue
        orbit = {S}
        queue = [S]
        while queue:
            cur = queue.pop()
            for g in gens:
                img = tuple(sorted(g[p - 1] + 1 for p in cur))
                if img not in orbit:
                    orbit.add(img)
                    queue.append(img)
        seen |= orbit
        orbits[min(orbit)] = orbit
    return orbits


def subset_orbit_count(G, k):
    """Number of G-orbits on k-subsets, by Burnside's lemma.

    A subset is fixed by g iff it is a union of cycles of g, so the fixed
    count per element is a subset-sum over its cycle lengths.
    """
    v = G.degree
    table = G.element_table()
    total = 0
    for g in table.tolist():
        seen = [False] * v
        lengths = []
        for i in range(v):
            if seen[i]:
                continue
            L = 1
            seen[i] = True
            j = g[i]
            while j != i:
                seen[j] = True
                L += 1
                j = g[j]
            lengths.append(L)
        dp = [0] * (k + 1)
        dp[0] = 1
        for L in lengths:
            for j in range(k, L - 1, -1):
                dp[j] += dp[j - L]
        total += dp[k]
    orbits, rem = divmod(total, len(table))
    if rem:
        raise AssertionError("Burnside count is not integral")
    return orbits


def good_orbits_bruteforce(generators, v, k, t):
    """(rep, orbit size) for every orbit covering each t-subset at most once."""
    out = []
    for rep, orbit in sorted(subset_orbits(generators, v, k).items()):
        counts = {}
        good = True
        for K in orbit:
            for T in combinations(K, t):
                counts[T] = counts.get(T, 0) + 1
                if counts[T] > 1:
                    good = False
                    break
            if not good:
                break
        if good:
            out.append((rep, len(orbit)))
    return out


def exact_covers_bruteforce(universe, sets):
    """All index subsets of `sets` that partition `universe`.

    Enumerates the inclusion/exclusion tree over all subsets; branches die
    as soon as an element is covered twice, which cannot exclude a valid
    cover.
    """
    universe = frozenset(universe)
    n = len(sets)
    out = []

    def rec(i, covered, chosen):
        if i == n:
            if covered == universe:
                out.append(tuple(chosen))
            return
        rec(i + 1, covered, chosen)
        s = frozenset(sets[i])
        if covered & s:
            return
        chosen.append(i)
        rec(i + 1, covered | s, chosen)
        chosen.pop()

    rec(0, frozenset(), [])
    return sorted(out)


def xcc_solutions_bruteforce(problem):
    """All option subsets satisfying the solution invariants.

    Walks the include/exclude tree over the options; a branch is abandoned
    once a primary item is covered twice or a secondary item receives two
    colors, both of which are monotone violations.
    """
    n = len(problem.options)
    n_prim = len(problem.primary)
    out = []

    def rec(i, counts, colors, chosen):
        if i == n:
            if all(c == 1 for c in counts):
                out.append(tuple(chosen))
            return
        rec(i + 1, counts, colors, chosen)
        prim, sec = problem.options[i]
        if any(counts[p] for p in prim):
            return
        for s, c in sec:
            if s in colors and colors[s] != c:
                return
        for p in prim:
            counts[p] += 1
        added = [s for s, c in sec if s not in colors]
        for s, c in sec:
            colors.setdefault(s, c)
        chosen.append(i)
        rec(i + 1, counts, colors, chosen)
        chosen.pop()
        for s in added:
            del colors[s]
        for p in prim:
            counts[p] -= 1

    rec(0, [0] * n_prim, {}, [])
    return sorted(out)


def _block_tuples(d):
    return [tuple(blk) for blk in d.blocks.tolist()]


def designs_equal(d1, d2):
    """Same v and the same block array, dtype included (`Design` compares
    by identity)."""
    return d1.v == d2.v and d1.blocks.dtype == d2.blocks.dtype and np.array_equal(d1.blocks, d2.blocks)


def aut_order_bruteforce(design):
    """|Aut| by sweeping all v! point permutations (v <= 9 or so)."""
    blocks = set(_block_tuples(design))
    n = 0
    for perm in permutations(range(1, design.v + 1)):
        img = {tuple(sorted(perm[p - 1] for p in blk)) for blk in blocks}
        if img == blocks:
            n += 1
    return n


def designs_isomorphic_bruteforce(d1, d2):
    """Point-map backtracking isomorphism test (no canonical forms)."""
    if d1.v != d2.v or d1.b != d2.b:
        return False
    v = d1.v
    blocks1, blocks2 = _block_tuples(d1), set(_block_tuples(d2))
    # blocks through each point, for pruning
    through1 = {p: [b for b in blocks1 if p in b] for p in range(1, v + 1)}
    through2 = {p: len([b for b in blocks2 if p in b]) for p in range(1, v + 1)}

    def consistent(mapping):
        for blk in blocks1:
            img = [mapping.get(p) for p in blk]
            if None in img:
                continue
            if tuple(sorted(img)) not in blocks2:
                return False
        return True

    def rec(p, mapping, used):
        if p > v:
            return True
        for q in range(1, v + 1):
            if q in used or len(through1[p]) != through2[q]:
                continue
            mapping[p] = q
            used.add(q)
            if consistent(mapping) and rec(p + 1, mapping, used):
                return True
            del mapping[p]
            used.remove(q)
        return False

    return rec(1, {}, set())


def cyclic_triple_systems(v):
    """All triple systems on Z_v invariant under x -> x+1, by direct
    enumeration of orbit subsets covering every pair exactly once.

    Returns (orbit reps used per solution, good orbit reps).
    """
    shift = tuple((i % v) + 1 for i in range(1, v + 1))
    orbits = {}
    seen = set()
    for T in combinations(range(1, v + 1), 3):
        if T in seen:
            continue
        orb = {T}
        cur = T
        while True:
            cur = tuple(sorted(shift[p - 1] for p in cur))
            if cur in orb:
                break
            orb.add(cur)
        seen |= orb
        orbits[min(orb)] = sorted(orb)
    good = []
    for rep, orb in sorted(orbits.items()):
        counts = {}
        ok = True
        for K in orb:
            for T in combinations(K, 2):
                counts[T] = counts.get(T, 0) + 1
                if counts[T] > 1:
                    ok = False
        if ok:
            good.append(rep)
    pair_sets = {
        rep: frozenset(T for K in orbits[rep] for T in combinations(K, 2))
        for rep in good
    }
    all_pairs = frozenset(combinations(range(1, v + 1), 2))
    solutions = []

    def rec(i, covered, chosen):
        if covered == all_pairs:
            solutions.append(tuple(chosen))
            return
        if i == len(good):
            return
        rec(i + 1, covered, chosen)
        rep = good[i]
        if covered & pair_sets[rep]:
            return
        chosen.append(rep)
        rec(i + 1, covered | pair_sets[rep], chosen)
        chosen.pop()

    rec(0, frozenset(), [])
    return sorted(solutions), good, orbits


def closure_elements(generators, cap=10**6):
    """Element set by closure BFS over generator products (independent of
    the stabilizer chain; used as an order cross-check)."""
    gens = [g.raw() for g in generators]
    if not gens:
        return set()
    ident = tuple(range(len(gens[0])))
    els = {ident}
    frontier = [ident]
    while frontier:
        new = []
        for a in frontier:
            for g in gens:
                c = tuple(g[x] for x in a)  # apply a, then g
                if c not in els:
                    els.add(c)
                    if len(els) > cap:
                        raise ValueError(f"closure exceeds cap {cap}")
                    new.append(c)
        frontier = new
    return {Permutation(t) for t in els}


def lex_min_rep(G, S):
    """Lexicographically smallest sorted subset in the orbit of S."""
    return min(orbit_of_subset(G, S))


def is_good_orbit(G, K, t):
    """True iff the orbit of K covers every t-subset at most once,
    i.e. for every g either K^g = K or |K meet K^g| <= t-1."""
    K = tuple(sorted(K))
    if len(K) <= t:
        raise ValueError("need |K| > t")
    kset = frozenset(K)
    for g in G.element_table().tolist():
        img = frozenset(subset_image(g, K))
        if img != kset and len(kset & img) >= t:
            return False
    return True


def order_multiset(G):
    """Sorted element orders of a `SmallGroup`: an isomorphism invariant."""
    return tuple(sorted(G.order_of))


def abstract_isomorphic(A, B):
    """Brute-force generator-image search for an isomorphism A -> B of
    `SmallGroup` tables."""
    if A.n != B.n or order_multiset(A) != order_multiset(B):
        return False
    return next(_isomorphisms(A, B), None) is not None


def order12_subgroup_classes(G):
    """Number of conjugacy classes of order-12 subgroups of a `SmallGroup`.

    All five groups of order 12 are 2-generated, so closures of element
    pairs (orders dividing 12) find every subgroup.
    """
    small = [i for i in range(G.n) if G.order_of[i] > 1 and 12 % G.order_of[i] == 0]
    subgroups = set()
    for a in small:
        for b in small:
            els = frozenset(_closure((a, b), lambda x, y: G.mul[x][y], G.e))
            if len(els) == 12:
                subgroups.add(els)
    classes = []
    for S in subgroups:
        if any(S in cl for cl in classes):
            continue
        conj = set()
        for g in range(G.n):
            gi = G.inv[g]
            conj.add(frozenset(G.mul[G.mul[g][x]][gi] for x in S))
        classes.append(conj)
    return len(classes)


def km_block_count(v, k):
    """Block count of a Steiner 2-design with these parameters."""
    num, rem = divmod(v * (v - 1), k * (k - 1))
    if rem:
        raise ValueError(f"k(k-1) does not divide v(v-1) for v={v}, k={k}")
    return num


def column_weight_ok(km, j):
    """Check sum_i a_ij * |T_i| = |K_j| * C(k, t) for one column."""
    ks = km.k_orbits
    total = sum(int(km.t_orbits.sizes[i]) for i in km.column(j))
    return total == ks.sizes[j] * comb(ks.k, ks.t)


def t_orbit_lookup(G, t_orbits):
    """Map from every t-subset (sorted tuple) to the index of its t-orbit,
    by closure of each representative; C(v, t) entries in all."""
    lookup = {}
    for i, rep in enumerate(t_orbits.reps.tolist()):
        for T in orbit_of_subset(G, rep):
            lookup[T] = i
    return lookup


def count_b(K, lookup, t):
    """b_ji: how many t-subsets of K lie in each t-orbit; sums to C(|K|, t)."""
    out = {}
    for T in combinations(sorted(K), t):
        i = lookup[T]
        out[i] = out.get(i, 0) + 1
    return out


def km_columns_dict(G, t_orbits, k_orbits):
    """The Kramer-Mesner columns (indptr, rows) column by column from the
    dict counts b_ji and a_ij = b_ji |K_j| / |T_i|, raising KMError as
    `km.build_km` does."""
    lookup = t_orbit_lookup(G, t_orbits)
    t_sizes = t_orbits.sizes.tolist()
    indptr, rows = [0], []
    for j, (rep, size) in enumerate(zip(k_orbits.reps.tolist(), k_orbits.sizes.tolist())):
        for i, bji in sorted(count_b(rep, lookup, t_orbits.t).items()):
            a, rem = divmod(bji * size, t_sizes[i])
            if rem != 0:
                raise KMError(
                    f"non-integer entry at row {i}, column {j}: {bji}*{size}/{t_sizes[i]}"
                )
            if a > 1:
                raise KMError(f"entry {a} > 1 at row {i}, column {j}: orbit not good")
            if a == 1:
                rows.append(i)
        indptr.append(len(rows))
    return indptr, rows


def expand_by_closure(orbit_indices, k_orbits, G):
    """`designs.expand` by the closure orbit of each chosen representative."""
    blocks = []
    for j in sorted(orbit_indices):
        orbit = orbit_of_subset(G, k_orbits.reps[j].tolist())
        assert len(orbit) == k_orbits.sizes[j]
        blocks.extend(orbit)
    return Design(k_orbits.v, blocks)


def verify_steiner_dict(d, t):
    """Steiner check by counting t-subsets in a dict: the same report as
    `designs.verify_steiner` (wrong counts in sorted order, then uncovered
    subsets in lexicographic order, at most 10 in all)."""
    counts = {}
    for blk in _block_tuples(d):
        for T in combinations(sorted(blk), t):
            counts[T] = counts.get(T, 0) + 1
    violations = []
    for T, c in sorted(counts.items()):
        if c != 1:
            violations.append((T, c))
            if len(violations) >= 10:
                break
    if len(violations) < 10 and len(counts) != comb(d.v, t):
        for T in combinations(range(1, d.v + 1), t):
            if T not in counts:
                violations.append((T, 0))
                if len(violations) >= 10:
                    break
    return not violations, violations


def export_text_from_options(problem):
    """The xcc text format written option by option from the tuple view."""
    lines = [" ".join(problem.primary) + " | " + " ".join(problem.secondary)]
    for prim, sec in problem.options:
        toks = [problem.primary[i] for i in prim]
        toks += [f"{problem.secondary[s]}:{c}" for s, c in sec]
        lines.append(" ".join(toks))
    return "\n".join(lines).rstrip() + "\n"


def orderly_reps_bitmask(G, v, size, t, good, overlap_prune=True, shard=None):
    """(rep, orbit size) pairs from the orderly search that compares every
    candidate's whole image masks at every node: one (candidates x elements
    x words) uint64 block per node, with the prunes P1 and P2 and the shard
    split of `orbitgen`."""
    imgs = np.array(G.element_table())
    n_el = len(imgs)
    words = (v + 63) // 64
    point_bit = np.zeros((v, words), dtype=np.uint64)
    for p in range(v):
        point_bit[p, p >> 6] = np.uint64(1) << np.uint64(p & 63)
    bits = point_bit[imgs.T]  # (v, n_el, words): bit of the image of p under e
    one = np.uint64(1)
    out = []

    def lex_smaller_any(diff, imgmask):
        # is the lowest differing point in the image, per leading index?
        shape = diff.shape[:-1]
        smaller = np.zeros(shape, dtype=bool)
        decided = np.zeros(shape, dtype=bool)
        for w in range(diff.shape[-1]):
            dw = diff[..., w]
            nz = (dw != 0) & ~decided
            low = dw & (~dw + one)
            smaller |= nz & ((low & imgmask[..., w]) != 0)
            decided |= dw != 0
        return smaller

    def popcount(masks):
        return np.bitwise_count(masks).sum(axis=-1).astype(np.int64)

    def descend(depth, last, masks, smask, prefix):
        cand = np.arange(last + 1, v - (size - depth) + 1, dtype=np.int64)
        if depth == 1 and shard is not None:
            cand = cand[cand % shard[1] == shard[0]]
        if cand.size == 0:
            return
        new_masks = masks[None, :, :] | bits[cand]
        new_smask = smask[None, :] | point_bit[cand]
        diff = new_masks ^ new_smask[:, None, :]
        pruned = lex_smaller_any(diff, new_masks).any(axis=1)
        if depth + 1 == size:
            stab = (diff == 0).all(axis=2)
            keep = ~pruned
            if good:
                inter = popcount(new_masks & new_smask[:, None, :])
                keep &= (stab | (inter <= t - 1)).all(axis=1)
            sizes = n_el // stab.sum(axis=1)
            for ci in np.flatnonzero(keep):
                out.append((prefix + (int(cand[ci]) + 1,), int(sizes[ci])))
            return
        if good and overlap_prune:
            inter = popcount(new_masks & new_smask[:, None, :])
            union = 2 * (depth + 1) - inter
            pruned |= ((inter >= t) & (union > size)).any(axis=1)
        for ci in np.flatnonzero(~pruned):
            p = int(cand[ci])
            descend(depth + 1, p, new_masks[ci], new_smask[ci], prefix + (p + 1,))

    descend(0, -1, np.zeros((n_el, words), dtype=np.uint64), np.zeros(words, dtype=np.uint64), ())
    return out


class Partition:
    """Ordered partition of the vertex set, split in place: the Python
    form of the C kernel's partition array.

    Cells occupy contiguous ranges of the vertex order, identified by
    their start position; splitting never moves other cells.
    """

    __slots__ = ("lab", "pos", "start", "end")

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

    def copy(self):
        p = Partition.__new__(Partition)
        p.lab, p.pos, p.start, p.end = (list(a) for a in (self.lab, self.pos, self.start, self.end))
        return p

    def array(self):
        """The kernel's layout: lab, pos, start, end in one array."""
        return np.array(self.lab + self.pos + self.start + self.end, dtype=np.int32)

    def cell_at(self, s):
        return self.lab[s : self.end[s]]

    def split(self, s, groups):
        """Replace the cell starting at s by consecutive groups; returns the
        start positions of all groups."""
        assert sum(map(len, groups)) == self.end[s] - s
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
        return starts

    def target_cell(self):
        """Start of the first smallest non-singleton cell, or -1 if discrete."""
        best, best_size = -1, None
        s = 0
        while s < len(self.lab):
            e = self.end[s]
            if e - s > 1 and (best_size is None or e - s < best_size):
                best, best_size = s, e - s
            s = e
        return best


def refine(adj, part, queue):
    """Refine to a fixpoint against the queued cells (the reference for
    ``_refine.c``).

    Worklist refinement: when a cell splits, fragments other than the
    first largest are enqueued (all but the first if the cell itself was
    still queued).  Fragment order follows the neighbor counts, so the
    result is deterministic and isomorphism-invariant.
    """
    cnt = [0] * len(adj)
    queued = set(queue)
    qi = 0
    while qi < len(queue):
        ws = queue[qi]
        qi += 1
        if ws not in queued:
            continue
        queued.discard(ws)
        touched = []
        for w in part.cell_at(ws):
            for x in adj[w]:
                if cnt[x] == 0:
                    touched.append(x)
                cnt[x] += 1
        # cells containing a touched vertex, in position order
        for cs in sorted({part.start[part.pos[x]] for x in touched}):
            groups = {}
            for u in part.cell_at(cs):
                groups.setdefault(cnt[u], []).append(u)
            if len(groups) == 1:
                continue
            ordered = [groups[val] for val in sorted(groups)]
            starts = part.split(cs, ordered)
            if cs in queued:
                fresh = starts[1:]  # cs itself stays queued
            else:
                largest = max(range(len(ordered)), key=lambda i: (len(ordered[i]), -i))
                fresh = [s for i, s in enumerate(starts) if i != largest]
            for s in fresh:
                if s not in queued:
                    queued.add(s)
                    queue.append(s)
        for x in touched:
            cnt[x] = 0


class PythonCanonizer(_Canonizer):
    """The library's canonizer with its partitions held as `Partition`s
    and refined by `refine`: the same search, with no C kernel."""

    def __init__(self, design, node_budget=10**7, known_autos=()):
        super().__init__(design, node_budget, known_autos)
        indptr, adj = self.indptr.tolist(), self.adj.tolist()
        self.adj_lists = [adj[indptr[u] : indptr[u + 1]] for u in range(self.n)]

    def _root(self):
        part = Partition([list(range(self.v)), list(range(self.v, self.n))])
        refine(self.adj_lists, part, [0, self.v])
        return part, part.target_cell()

    def _individualize(self, part, ts, y):
        child = part.copy()
        # remaining members keep their relative order
        starts = child.split(ts, [[y], [u for u in child.cell_at(ts) if u != y]])
        refine(self.adj_lists, child, starts)
        return child, child.target_cell()

    def _cell(self, part, ts):
        return part.cell_at(ts)

    def _lab(self, part):
        return np.array(part.lab)

    def canonical_form(self):
        self.search(*self._root(), [])
        return CanonicalForm(self.best_cert, self.aut_order(), self.nodes)


# ---------------------------------------------------------------------------
# the numpy exact-cover search


class _Stop(Exception):
    pass


# options per chunk of _bitmask: its temporaries stay in cache, whatever the
# size of the entry array
_MASK_CHUNK = 1 << 12


def _bitmask(indptr: np.ndarray, items: np.ndarray, words: int) -> np.ndarray:
    """Row o has the bits of option o's items set; items ascend within options."""
    n = len(indptr) - 1
    mask = np.zeros((n, words), dtype=np.uint64)
    flat = mask.reshape(-1)
    for a in range(0, n, _MASK_CHUNK):
        b = min(n, a + _MASK_CHUNK)
        lo, hi = indptr[a], indptr[b]
        if lo == hi:
            continue
        chunk = items[lo:hi]
        rows = np.arange(a * words, b * words, words)
        key = np.repeat(rows, np.diff(indptr[a : b + 1])) + (chunk >> 6)
        start = np.flatnonzero(np.r_[True, key[1:] != key[:-1]])
        bits = np.left_shift(np.uint64(1), (chunk & 63).astype(np.uint64))
        flat[key[start]] = np.bitwise_or.reduceat(bits, start)
    return mask


# bit b of byte value x, for turning byte histograms into item counts
_BYTE_BITS = (np.arange(256)[:, None] >> np.arange(8)) & 1
# from this many active options on, byte histograms count faster than unpacking
_HISTOGRAM_ROWS = 1024


def _item_counts(sub: np.ndarray, n_prim: int) -> np.ndarray:
    """Number of rows of ``sub`` (little-endian bitmask rows) that have
    each of the first n_prim bits set."""
    by = sub.view(np.uint8)
    if len(sub) < _HISTOGRAM_ROWS:
        bits = np.unpackbits(by, axis=1, count=n_prim, bitorder="little")
        return bits.sum(axis=0, dtype=np.int64)
    hist = [np.bincount(by[:, j], minlength=256) for j in range((n_prim + 7) // 8)]
    return (np.stack(hist) @ _BYTE_BITS).ravel()[:n_prim]


def numpy_solve(
    problem,
    limit: int | None = None,
    on_solution=None,
    node_cap: int | None = None,
    time_cap: float | None = None,
) -> "SolveStats":
    """The former numpy search of `xcc.solve`, the node-count oracle of
    the C kernel: the same branching rule, the same caps (without their
    argument checks), the same stats.  The set of still-compatible options
    is a sorted index array; at each node `_item_counts` counts the live
    options of every primary item from their bitmask rows, covered items
    carry a large penalty, and a child keeps the active options that pass
    a bitmask test and a color-clash mask over all options."""
    stats = SolveStats()
    t0 = time.perf_counter()
    chosen: list = []
    n_prim = len(problem.primary)
    words = max(1, (n_prim + 63) // 64)
    # little-endian words, so byte j of row o holds items 8j..8j+7 in bit order
    pmask = _bitmask(problem.prim_indptr, problem.prim_items, words).astype("<u8", copy=False)
    prim_ptr = problem.prim_indptr.tolist()
    prim_items = problem.prim_items
    covered_mark = np.iinfo(np.int64).max
    # option o -> its secondary items and colors: slice sec_ptr[o]:sec_ptr[o + 1]
    sec_ptr = problem.sec_indptr.tolist()
    opt_sec = list(zip(problem.sec_items.tolist(), problem.sec_colors.tolist()))
    # secondary item -> (option ids, colors), ascending option id
    owner = np.repeat(np.arange(problem.n_options), np.diff(problem.sec_indptr))
    by_item = np.argsort(problem.sec_items, kind="stable")
    cuts = np.cumsum(np.bincount(problem.sec_items, minlength=len(problem.secondary)))[:-1]
    sec_opts = np.split(owner[by_item], cuts)
    sec_colors = np.split(problem.sec_colors[by_item], cuts)
    # scratch mask of the options a color clash rules out; cleared after each use
    killed = np.zeros(problem.n_options, dtype=bool)

    def emit() -> None:
        stats.solutions += 1
        if on_solution is not None:
            on_solution(Solution(tuple(sorted(chosen))))
        if limit is not None and stats.solutions >= limit:
            stats.limit_hit = True
            raise _Stop

    def search(active: np.ndarray, penalty: np.ndarray, uncovered: int) -> None:
        """``penalty`` holds covered_mark on covered items and 0 elsewhere;
        ``uncovered`` counts the items it leaves at 0."""
        stats.nodes += 1
        if node_cap is not None and stats.nodes > node_cap:
            stats.limit_hit = True
            raise _Stop
        if (
            time_cap is not None
            and stats.nodes % 256 == 0
            and time.perf_counter() - t0 > time_cap
        ):
            stats.limit_hit = True
            raise _Stop
        if uncovered == 0:
            emit()
            return
        sub = pmask[active]
        counts = _item_counts(sub, n_prim)
        counts |= penalty
        # fewest live options, lowest item id on ties; covered items never win
        best = int(counts.argmin())
        if counts[best] == 0:
            return
        cand = (sub[:, best >> 6] & np.uint64(1 << (best & 63))) != 0
        for o in active[cand].tolist():
            omask = pmask[o]
            if words == 1:
                keep = (sub[:, 0] & omask[0]) == 0
            else:
                keep = ~np.any(sub & omask, axis=1)
            sec = opt_sec[sec_ptr[o] : sec_ptr[o + 1]]
            if sec:
                bad = np.concatenate([sec_opts[s][sec_colors[s] != c] for s, c in sec])
                if bad.size:
                    killed[bad] = True
                    keep &= ~killed[active]
                    killed[bad] = False
            lo, hi = prim_ptr[o], prim_ptr[o + 1]
            new_penalty = penalty.copy()
            new_penalty[prim_items[lo:hi]] = covered_mark
            chosen.append(o)
            search(active[keep], new_penalty, uncovered - (hi - lo))
            chosen.pop()

    try:
        search(
            np.arange(problem.n_options, dtype=np.int64),
            np.zeros(n_prim, dtype=np.int64),
            n_prim,
        )
    except _Stop:
        pass
    stats.elapsed = time.perf_counter() - t0
    return stats
