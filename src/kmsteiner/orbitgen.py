"""Orderly generation of subset-orbit representatives.

Representatives are the lexicographically minimal sorted subsets of their
orbits, generated by a depth-first search over increasing point sequences.
Two prunes keep the tree small:

  P1 (prefix minimality): abandon a partial subset S if some group element
     maps S to a lexicographically smaller sorted set.  If a full subset K
     is lex-minimal then so is every prefix, so no representative is lost.

  P2 (overlap): while generating *good* orbits, abandon S if some element g
     has |S meet S^g| >= t and |S union S^g| > k.  Any completion K would
     share a t-subset with K^g without K^g = K being possible, so no good
     completion exists.

Subsets are evaluated against all group elements at once using bitmask
arrays, one row per element.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

import numpy as np

from .perm import PermutationGroup

__all__ = [
    "OrbitRep",
    "GoodOrbitSet",
    "t_orbit_reps",
    "good_k_orbit_reps",
    "subset_orbit_count",
    "read_orbit_file",
    "write_orbit_file",
]

ELEMENT_CAP = 10**6


@dataclass(frozen=True)
class OrbitRep:
    rep: tuple  # lex-minimal sorted 1-based points
    orbit_size: int
    index: int


@dataclass
class GoodOrbitSet:
    v: int
    k: int
    t: int
    reps: list
    group_id: str


def subset_orbit_count(G: PermutationGroup, k: int) -> int:
    """Number of G-orbits on k-subsets, by Burnside's lemma.

    A subset is fixed by g iff it is a union of cycles of g, so the fixed
    count per element is a subset-sum over its cycle lengths.
    """
    v = G.degree
    total = 0
    n_el = 0
    for g in G.raw_elements(cap=ELEMENT_CAP):
        n_el += 1
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
    orbits, rem = divmod(total, n_el)
    if rem:
        raise AssertionError("Burnside count is not integral")
    return orbits


class _Tables:
    """Per-element bitmask tables for the orderly search."""

    def __init__(self, G: PermutationGroup, v: int):
        if G.degree != v:
            raise ValueError("group degree does not match v")
        elements = G.raw_elements(cap=ELEMENT_CAP)
        self.n_el = len(elements)
        self.words = (v + 63) // 64
        imgs = np.array(elements, dtype=np.int64)  # (n_el, v), 0-based images
        self.point_bit = np.zeros((v, self.words), dtype=np.uint64)
        for p in range(v):
            self.point_bit[p, p >> 6] = np.uint64(1) << np.uint64(p & 63)
        # bits[p, e, w]: bit of the image of point p under element e
        self.bits = self.point_bit[imgs.T]  # (v, n_el, words)


def _lex_smaller_any(diff: np.ndarray, imgmask: np.ndarray) -> np.ndarray:
    """Given diff = imgmask XOR selfmask (…, words), return a bool array over
    the leading axes: does the lowest differing point belong to the image
    (i.e. is the image lexicographically smaller as a sorted set)?"""
    one = np.uint64(1)
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


def _popcount(masks: np.ndarray) -> np.ndarray:
    return np.bitwise_count(masks).sum(axis=-1).astype(np.int64)


def _orderly_reps(
    G: PermutationGroup,
    v: int,
    size: int,
    t: int,
    good: bool,
    overlap_prune: bool = True,
    shard=None,
):
    """Run the orderly DFS; returns list of (rep_tuple_1based, orbit_size).

    shard=(i, n) keeps only second points p with p % n == i; the union
    over all i is the full tree, so shards may run on separate workers
    and be merged by re-sorting the representatives.
    """
    tab = _Tables(G, v)
    words, n_el = tab.words, tab.n_el
    out = []
    emit = lambda rep, sz: out.append((rep, sz))

    def descend(depth, last, masks, smask, prefix):
        # candidate extension points, 0-based, keeping room for size-depth more
        lo = last + 1
        hi = v - (size - depth) + 1
        cand = np.arange(lo, hi, dtype=np.int64)
        if depth == 1 and shard is not None:
            cand = cand[cand % shard[1] == shard[0]]
        if cand.size == 0:
            return
        new_masks = masks[None, :, :] | tab.bits[cand]  # (nc, n_el, words)
        new_smask = smask[None, :] | tab.point_bit[cand]  # (nc, words)
        diff = new_masks ^ new_smask[:, None, :]
        pruned = _lex_smaller_any(diff, new_masks).any(axis=1)
        if depth + 1 == size:
            stab = (diff == 0).all(axis=2)  # (nc, n_el)
            if good:
                inter = _popcount(new_masks & new_smask[:, None, :])
                ok = (stab | (inter <= t - 1)).all(axis=1)
                keep = ~pruned & ok
            else:
                keep = ~pruned
            sizes = n_el // stab.sum(axis=1)
            for ci in np.flatnonzero(keep):
                emit(prefix + (int(cand[ci]) + 1,), int(sizes[ci]))
            return
        if good and overlap_prune:
            inter = _popcount(new_masks & new_smask[:, None, :])
            union = 2 * (depth + 1) - inter
            pruned |= ((inter >= t) & (union > size)).any(axis=1)
        for ci in np.flatnonzero(~pruned):
            p = int(cand[ci])
            descend(depth + 1, p, new_masks[ci], new_smask[ci], prefix + (p + 1,))

    empty_masks = np.zeros((n_el, words), dtype=np.uint64)
    empty_smask = np.zeros(words, dtype=np.uint64)
    descend(0, -1, empty_masks, empty_smask, ())
    return out


def t_orbit_reps(G: PermutationGroup, v: int, t: int):
    """One OrbitRep per G-orbit on t-subsets, in lex order of representative."""
    if not 1 <= t < v:
        raise ValueError("need 1 <= t < v")
    pairs = _orderly_reps(G, v, t, t, good=False)
    reps = [OrbitRep(rep, sz, i) for i, (rep, sz) in enumerate(pairs)]
    total = sum(r.orbit_size for r in reps)
    if total != comb(v, t):
        raise AssertionError(f"orbit sizes sum to {total}, expected C({v},{t})")
    return reps


def good_k_orbit_reps(
    G: PermutationGroup,
    v: int,
    k: int,
    t: int,
    overlap_prune: bool = True,
    shard=None,
) -> GoodOrbitSet:
    """All good k-orbit representatives in lex order.

    overlap_prune=False disables prune P2 (used by soundness tests; the
    output is unchanged).  shard=(i, n) splits the tree at the second
    point so workers can generate disjoint parts to be merged and
    re-sorted.
    """
    if not t < k < v:
        raise ValueError("need t < k < v")
    raw = _orderly_reps(
        G,
        v,
        k,
        t,
        good=True,
        overlap_prune=overlap_prune,
        shard=shard,
    )
    reps = [OrbitRep(rep, sz, i) for i, (rep, sz) in enumerate(raw)]
    return GoodOrbitSet(v=v, k=k, t=t, reps=reps, group_id=G.fingerprint())


# ---------------------------------------------------------------------------
# orbit file format: header "v k t group=<file> count=<n>", then one rep per
# line as space-separated points followed by "size=<orbit_size>"


def write_orbit_file(path, v, k, t, reps, group_label) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{v} {k} {t} group={group_label} count={len(reps)}\n")
        for r in reps:
            pts = " ".join(str(p) for p in r.rep)
            fh.write(f"{pts} size={r.orbit_size}\n")


def read_orbit_file(path):
    """Returns (v, k, t, group_label, reps)."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 5:
            raise ValueError(f"{path}: malformed orbit file header")
        v, k, t = int(header[0]), int(header[1]), int(header[2])
        if not header[3].startswith("group=") or not header[4].startswith("count="):
            raise ValueError(f"{path}: malformed orbit file header")
        group_label = header[3][len("group=") :]
        count = int(header[4][len("count=") :])
        reps = []
        for i, line in enumerate(fh):
            toks = line.split()
            if not toks:
                continue
            if not toks[-1].startswith("size="):
                raise ValueError(f"{path}: line {i + 2} missing size field")
            size = int(toks[-1][len("size=") :])
            rep = tuple(int(x) for x in toks[:-1])
            if list(rep) != sorted(set(rep)):
                raise ValueError(f"{path}: line {i + 2} is not a sorted subset")
            reps.append(OrbitRep(rep, size, len(reps)))
    if len(reps) != count:
        raise ValueError(f"{path}: header count {count} != {len(reps)} reps")
    return v, k, t, group_label, reps
