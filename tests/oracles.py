"""Independent brute-force oracles used by the tests.

Everything here deliberately avoids the library's own search machinery:
orbits come from plain closure over generator products, exact covers from
subset enumeration, automorphism groups from full permutation sweeps, and
isomorphism from point-map backtracking.  Former implementations are kept
as references for the array code that replaced them: `orderly_reps_bitmask`
for the search tree of the orderly search and its prunes, `km_columns_dict`
for the Kramer-Mesner matrix and `expand_by_closure` for design expansion.
"""

from itertools import combinations, permutations
from math import comb

import numpy as np

from kmsteiner.designs import Design
from kmsteiner.km import KMError
from kmsteiner.perm import Permutation


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
            img = tuple(sorted(g[p - 1] + 1 for p in cur))
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
    for g in G.elements():
        img = frozenset(g.apply(p) for p in K)
        if img != kset and len(kset & img) >= t:
            return False
    return True


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


def verify_steiner_dict(d, t, lam=1):
    """Steiner check by counting t-subsets in a dict: the same report as
    `designs.verify_steiner` (wrong counts in sorted order, then uncovered
    subsets in lexicographic order, at most 10 in all)."""
    counts = {}
    for blk in _block_tuples(d):
        for T in combinations(sorted(blk), t):
            counts[T] = counts.get(T, 0) + 1
    violations = []
    for T, c in sorted(counts.items()):
        if c != lam:
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
    imgs = np.array([g.raw() for g in G.elements()], dtype=np.int64)
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
