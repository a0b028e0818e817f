"""Orderly generation of subset-orbit representatives.

Representatives are the lexicographically minimal sorted subsets of their
orbits, generated by a depth-first search over increasing point sequences
(orderly generation in Read's sense).  Two prunes keep the tree small:

  P1 (prefix minimality): abandon a partial subset S if some group element
     maps S to a lexicographically smaller sorted set.  If a full subset K
     is lex-minimal then so is every prefix, so no representative is lost.

  P2 (overlap): while generating *good* orbits, abandon S if some element g
     has |S meet S^g| >= t and |S union S^g| > k.  Any completion K would
     share a t-subset with K^g without K^g = K being possible, so no good
     completion exists.

Every node keeps a small state per group element g, with point sets held
as bitmasks: SG = S^g; SF = g^-1(S) together with the fixed points of g;
m = min(S xor S^g), or v when g fixes S; and inter = |S meet S^g|.  On a
node that passed P1, m lies in S.  A child S + p, p above max(S), is then
tested without forming its images:

  P1: (S + p)^g is smaller iff g(p) < m where g moves S, and iff
     g(p) < p where g fixes S.  One table row per element, {x : g(x) < m}
     or {x : g(x) < x}, ORed over the elements, marks every such p at
     once.  Only p = g^-1(m) is left open; for that one p per element the
     whole masks are compared.

  P2 and leaves: |(S + p) meet (S + p)^g| = inter + [p in SG] + [p in SF],
     because for p outside S, g(p) in S and g(p) = p exclude each other.
     Bit-sliced counts over SG and SF give the prune for every p and
     element; at a leaf K, the elements with count k are the stabilizer,
     so the orbit size is |G| / #{g : |K meet K^g| = k}.

A child's state follows from its parent's in O(elements x words); m is
recomputed from the masks only where g(p) = m.

The search evaluates batches of same-depth nodes, each holding at most
_BATCH_BYTES of SG and SF state, so numpy's per-call cost is paid per
batch.  The children of a batch are built in chunks of the same bound and
visited depth first, so the representatives come out in lex order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from .perm import PermutationGroup

__all__ = [
    "OrbitSet",
    "t_orbit_reps",
    "good_k_orbit_reps",
    "read_orbit_file",
    "write_orbit_file",
]


@dataclass(frozen=True, eq=False)
class OrbitSet:
    """G-orbits on the k-subsets of {1..v}, one row per orbit in lex order.

    ``reps[i]`` is the lex-minimal sorted representative of orbit i as
    1-based points, in dtype ``np.min_scalar_type(v)``; ``sizes[i]`` is the
    orbit size, int64.  Both arrays are read-only.  ``t`` is the design's
    t, so a set of t-orbits has k == t.
    """

    v: int
    t: int
    reps: np.ndarray  # (n, k)
    sizes: np.ndarray  # (n,)
    group_id: str

    def __post_init__(self):
        for name, dtype in (("reps", np.min_scalar_type(self.v)), ("sizes", np.int64)):
            arr = np.asarray(getattr(self, name), dtype=dtype)
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def k(self) -> int:
        return self.reps.shape[1]

    def __len__(self) -> int:
        return len(self.sizes)


@lru_cache(maxsize=16)
def _binomials(v: int, k: int) -> np.ndarray:
    """C(v - 1 - x, k - c) at [c, x] for 0 <= c < k and 0 <= x < v, read-only."""
    table = np.array([[comb(v - 1 - x, k - c) for x in range(v)] for c in range(k)], dtype=np.int64)
    table.flags.writeable = False
    return table


def _pack_keys(subsets0: np.ndarray, v: int) -> np.ndarray:
    """Keys (...) of sorted 0-based k-subsets (..., k) of range(v): their
    ranks in the lex order of all C(v, k) k-subsets, as int64.

    The subset s_0 < ... < s_{k-1} has colex rank sum_c C(v-1-s_c, k-c)
    after the reflection x -> v-1-x, which reverses lex order.
    """
    k = subsets0.shape[-1]
    top = comb(v, k) - 1
    if top >= 1 << 63:
        raise ValueError("subset too wide to pack")
    binom = _binomials(v, k)
    keys = np.full(subsets0.shape[:-1], top, dtype=np.int64)
    for c in range(k):
        keys -= binom[c][subsets0[..., c]]
    return keys


# bytes of SG and SF state per batch of same-depth nodes
_BATCH_BYTES = 1 << 16


def _pack(flags: np.ndarray, words: int) -> np.ndarray:
    """Boolean (..., n) -> bitmasks (words, ...) with bit x set where flags[..., x]."""
    by = np.packbits(flags, axis=-1, bitorder="little")
    pad = [(0, 0)] * (by.ndim - 1) + [(0, 8 * words - by.shape[-1])]
    masks = np.pad(by, pad).view("<u8").astype(np.uint64)
    return np.ascontiguousarray(np.moveaxis(masks, -1, 0))


def _bytes(masks: np.ndarray) -> np.ndarray:
    """Bitmasks (words, ...) -> their bytes (..., 8 * words), point x in byte x >> 3."""
    return np.ascontiguousarray(np.moveaxis(masks, 0, -1), dtype="<u8").view(np.uint8)


def _unpack(masks: np.ndarray, v: int) -> np.ndarray:
    """Bitmasks (words, ...) -> 0/1 uint8 (..., v); the inverse of _pack."""
    return np.unpackbits(_bytes(masks), axis=-1, count=v, bitorder="little")


def _select(counts, which: np.ndarray) -> np.ndarray:
    """OR over c of counts[c] (words, n_el, B) where which[c] (n_el, B)."""
    on = which.astype(np.uint64) * ~np.uint64(0)
    return (counts[0] & on[0]) | (counts[1] & on[1]) | (counts[2] & on[2])


def _lowest(diff: np.ndarray, v: int) -> np.ndarray:
    """Lowest set point of ``diff`` (words, ...) along its first axis, or v."""
    one = np.uint64(1)
    point = np.full(diff.shape[1:], v)
    for w in range(len(diff) - 1, -1, -1):
        dw = diff[w]
        low = np.bitwise_count((dw & (~dw + one)) - one).astype(np.int64)
        point = np.where(dw != 0, 64 * w + low, point)
    return point


def _lowest_in(diff: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Whether ``mask`` has the lowest set point of ``diff`` (both (words, ...))."""
    inside = np.zeros(diff.shape[1:], dtype=bool)
    for w in range(len(diff) - 1, -1, -1):
        dw = diff[w]
        inside = np.where(dw != 0, (dw & (~dw + np.uint64(1)) & mask[w]) != 0, inside)
    return inside


def _orderly_reps(
    G: PermutationGroup,
    v: int,
    size: int,
    t: int,
    good: bool,
    shard=None,
):
    """Run the orderly search; returns the representatives as an (n, size)
    array of 1-based points in lex order and their orbit sizes.

    shard=(i, n) keeps only second points p with p % n == i; the union
    over all i is the full tree, so shards may run on separate workers
    and be merged by re-sorting the representatives.
    """
    if G.degree != v:
        raise ValueError("group degree does not match v")
    img = G.element_table()  # img[g, x] = g(x)
    n_el = len(img)
    words = (v + 63) // 64
    inv = np.argsort(img, axis=1)  # inv[g, y] = g^-1(y)
    points = np.arange(v)
    # masks are (words, ...) arrays; bit[:, x] is point x, bit[:, v] is empty
    bit = _pack(np.eye(v + 1, v, dtype=bool), words)
    # p is pruned by g when g(p) < m_g: column m_g is PRE[g, m_g] = {x : g(x) < m_g};
    # column v, for g fixing S, is LT[g] = {x : g(x) < x}
    below = np.zeros((words, n_el, v + 1), dtype=np.uint64)
    below[:, :, 1:] = bit[:, inv]  # bit of g^-1(j - 1) in column j
    np.bitwise_or.accumulate(below[:, :, 1:v], axis=2, out=below[:, :, 1:v])
    below[:, :, v] = _pack(img < points, words)
    below = below.reshape(words, -1)
    pre_image = np.column_stack([inv, np.full(n_el, v)]).ravel()
    base = np.arange(n_el)[:, None] * (v + 1)  # row offsets of the elements in below
    from_point = _pack(points >= np.arange(v + 1)[:, None], words)
    if shard is not None:
        shard_mask = _pack(points % shard[1] == shard[0], words)[:, None]
    span = np.arange(3)[:, None, None]
    batch = max(1, _BATCH_BYTES // (2 * n_el * words * 8))
    out_reps = [np.zeros((0, size), dtype=np.min_scalar_type(v))]
    out_sizes = [np.zeros(0, dtype=np.int64)]

    def survivors(prefix, S, SG, SF, m, inter):
        """The children S + p of a batch of B depth-d nodes that pass P1 and
        P2, as node indices b and points p in lex order; at leaves also the
        orbit size of each S + p.

        prefix (B, d) holds the 0-based points of each node's S, and S
        (words, B) its bitmask.  Per element g and node: SG = S^g and SF =
        g^-1(S) + Fix(g), both (words, n_el, B); m = min(S xor S^g), or v
        if g fixes S, and inter = |S meet S^g|, both (n_el, B).
        """
        B, d = prefix.shape
        last = prefix[:, -1] if d else np.full(B, -1)
        # candidates last < p <= v - (size - d), room left for the rest of S
        keep = from_point[:, last + 1] & ~from_point[:, v - size + d + 1, None]
        if d == 1 and shard is not None:
            keep &= shard_mask
        # P1: g makes S + p smaller iff g(p) < m_g, except at g(p) = m_g
        bad = np.bitwise_or.reduce(np.take(below, base + m, axis=1), axis=1)
        # there, with m_g in S and not in S^g, (S + p)^g xor (S + p) is
        # SG xor S xor {m_g, p}, and the image is smaller iff its lowest
        # point is in SG
        pe = np.take(pre_image, base + m)  # the p with g(p) = m_g, v if m_g = v
        pe_bit = np.take(bit, pe, axis=1)
        diff = SG ^ S[:, None] ^ np.take(bit, m, axis=1) ^ pe_bit
        bad |= np.bitwise_or.reduce(pe_bit * _lowest_in(diff, SG), axis=1)
        keep &= ~bad
        # |S' meet S'^g| = inter + c, c = [p in S^g] + [p in SF]: for p
        # outside S, g(p) in S and g(p) = p exclude each other
        leaf = d + 1 == size
        top = 2 * (d + 1) - size - 1  # P2 prunes t <= |S' meet S'^g| <= top
        overlap = good and top >= t
        if overlap or leaf:
            counts = (~(SG | SF), SG ^ SF, SG & SF)  # bits p with c = 0, 1, 2
            total = inter + span  # (3, n_el, B): inter + c
        if overlap:
            hit = _select(counts, (t <= total) & (total <= top))
            keep &= ~np.bitwise_or.reduce(hit, axis=1)
        bi, p = np.nonzero(_unpack(keep, v))
        if not leaf:
            return bi, p, None
        # the byte holding bit p of each element's mask, (n_el, leaves)
        fixed = _bytes(_select(counts, total == size))[:, bi, p >> 3]
        n_stab = ((fixed >> (p & 7).astype(np.uint8)) & 1).sum(axis=0)
        return bi, p, n_el // n_stab

    def child(prefix, S, SG, SF, m, inter, b, q):
        """The state of the nodes S + q, for each node index in b and point in q."""
        gq = np.take(img, q, axis=1)  # (n_el, C): g(q)
        mb = np.take(m, b, axis=1)
        child_S = np.take(S, b, axis=1) | bit[:, q]
        child_SG = np.take(SG, b, axis=2) | np.take(bit, gq, axis=1)
        # m_g stays unless g fixed S (then S + q and its image differ first
        # at q, as P1 kept only g(q) > q) or g(q) = m_g (then look it up)
        child_m = np.where((mb == v) & (gq != q), q, mb)
        redo = np.flatnonzero(mb == gq)  # g * C + c
        diff = np.take(child_SG.reshape(words, -1), redo, axis=1) ^ np.take(
            child_S, redo % len(q), axis=1
        )
        np.put(child_m, redo, _lowest(diff, v))
        return (
            np.column_stack([prefix[b], q]),
            child_S,
            child_SG,
            np.take(SF, b, axis=2) | np.take(bit, np.take(inv, q, axis=1), axis=1),
            child_m,
            np.bitwise_count(child_SG & child_S[:, None]).sum(axis=0, dtype=np.int64),
        )

    def children(node, bi, p):
        """The states of the survivors (bi, p) of node, in chunks of at most
        ``batch`` nodes."""
        for lo in range(0, len(bi), batch):
            yield child(*node, bi[lo : lo + batch], p[lo : lo + batch])

    root = (
        np.zeros((1, 0), dtype=np.int64),
        np.zeros((words, 1), dtype=np.uint64),
        np.zeros((words, n_el, 1), dtype=np.uint64),
        _pack(img == points, words)[:, :, None],
        np.full((n_el, 1), v),
        np.zeros((n_el, 1), dtype=np.int64),
    )
    # depth first over chunks of same-depth nodes, so the output is in lex order
    pending = [iter([root])]
    while pending:
        node = next(pending[-1], None)
        if node is None:
            pending.pop()
            continue
        bi, p, sizes = survivors(*node)
        if sizes is None:
            pending.append(children(node, bi, p))
        else:
            reps = np.column_stack([node[0][bi], p]) + 1
            out_reps.append(reps.astype(out_reps[0].dtype))
            out_sizes.append(sizes.astype(np.int64))
    return np.concatenate(out_reps), np.concatenate(out_sizes)


def t_orbit_reps(G: PermutationGroup, v: int, t: int) -> OrbitSet:
    """All G-orbits on t-subsets, in lex order of representative."""
    if not 1 <= t < v:
        raise ValueError("need 1 <= t < v")
    reps, sizes = _orderly_reps(G, v, t, t, good=False)
    total = int(sizes.sum())
    if total != comb(v, t):
        raise AssertionError(f"orbit sizes sum to {total}, expected C({v},{t})")
    return OrbitSet(v=v, t=t, reps=reps, sizes=sizes, group_id=G.fingerprint())


def good_k_orbit_reps(
    G: PermutationGroup,
    v: int,
    k: int,
    t: int,
    shard=None,
) -> OrbitSet:
    """All good k-orbit representatives in lex order.

    shard=(i, n) splits the tree at the second point so workers can
    generate disjoint parts to be merged and re-sorted.
    """
    if not t < k < v:
        raise ValueError("need t < k < v")
    reps, sizes = _orderly_reps(G, v, k, t, good=True, shard=shard)
    return OrbitSet(v=v, t=t, reps=reps, sizes=sizes, group_id=G.fingerprint())


# ---------------------------------------------------------------------------
# orbit file format: header "v k t group=<file> count=<n>", then one rep per
# line as space-separated points followed by "size=<orbit_size>"


def write_orbit_file(path, v, k, t, orbits: OrbitSet, group_label) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{v} {k} {t} group={group_label} count={len(orbits)}\n")
        for rep, size in zip(orbits.reps.tolist(), orbits.sizes.tolist()):
            fh.write(f"{' '.join(map(str, rep))} size={size}\n")


def read_orbit_file(path, size: int):
    """Returns (v, k, t, group_label, reps, sizes), the arrays as an
    ``OrbitSet`` holds them, from a file of representatives with ``size``
    points each: t for t-orbits, k for good k-orbits.

    Every representative must be ``size`` ascending points of 1..v, and
    every orbit size at least 1.
    """
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 5:
            raise ValueError(f"{path}: malformed orbit file header")
        v, k, t = int(header[0]), int(header[1]), int(header[2])
        if not header[3].startswith("group=") or not header[4].startswith("count="):
            raise ValueError(f"{path}: malformed orbit file header")
        group_label = header[3][len("group=") :]
        count = int(header[4][len("count=") :])
        points, sizes = [], []
        for i, line in enumerate(fh, start=2):
            toks = line.split()
            if not toks:
                continue
            if len(toks) != size + 1 or not toks[-1].startswith("size="):
                raise ValueError(f"{path}: line {i} is not {size} points and a size field")
            points.append([int(x) for x in toks[:-1]])
            sizes.append(int(toks[-1][len("size=") :]))
    if len(sizes) != count:
        raise ValueError(f"{path}: header count {count} != {len(sizes)} reps")
    reps = np.array(points, dtype=np.int64).reshape(count, size)
    sizes = np.array(sizes, dtype=np.int64)
    bad = (reps[:, 0] < 1) | (reps[:, -1] > v) | (np.diff(reps, axis=1) <= 0).any(axis=1)
    bad = np.flatnonzero(bad | (sizes < 1))
    if len(bad):
        raise ValueError(
            f"{path}: representative {bad[0] + 1} is not {size} ascending points "
            f"of 1..{v} with an orbit size of at least 1"
        )
    return v, k, t, group_label, reps.astype(np.min_scalar_type(v)), sizes
