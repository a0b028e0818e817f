"""Orderly generation of subset-orbit representatives.

Representatives are the lexicographically minimal sorted subsets of their
orbits, generated by a depth-first search over increasing point sequences
(orderly generation in Read's sense).  Two prunes keep the tree small:

  P1 (prefix minimality): abandon a partial subset S if some group element
     maps S to a lexicographically smaller sorted set.  If a full subset K
     is lex-minimal then so is every prefix, so no representative is lost.

  P2 (overlap): abandon S if some element g has |S meet S^g| >= t and
     |S union S^g| > k.  Any completion K would share a t-subset with K^g
     without K^g = K being possible, so no good completion exists.  With
     k = t it never prunes, as a t-subset meeting its image in t points is
     that image, so the same search gives every t-orbit.

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
     so the orbit size is |G| / #{g : |K meet K^g| = k}.  Only elements
     with inter >= k - 2 can reach k, so only those are counted.

A child's state follows from its parent's in O(elements x words); m is
recomputed from the masks only where g(p) = m.

The search runs in a small C kernel, ``_orbits.c``, which ``_native``
builds with gcc on the first call and loads with ctypes; without gcc
orbit generation raises ImportError.  It visits the children of a node
in ascending p, depth first, so the representatives come out in lex
order, and returns to Python with each chunk of representatives and
every 2^16 nodes, where progress is reported.

Subsets are keyed by their lex ranks (``_pack_keys``); the key of a
subset's orbit, the rank of its lex-least image, comes from
``_min_image_keys``, which tries only the elements that can give it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

import numpy as np

from . import _native
from .perm import PermutationGroup

__all__ = [
    "OrbitSet",
    "t_orbit_reps",
    "good_k_orbit_reps",
]


@dataclass(frozen=True, eq=False)
class OrbitSet:
    """G-orbits on the k-subsets of {1..v}, one row per orbit in lex order.

    ``reps[i]`` is the lex-minimal sorted representative of orbit i as
    1-based points, in dtype ``np.min_scalar_type(v)``; ``sizes[i]`` is the
    orbit size, int64; both are taken by the rule of ``_native.intake``.
    ``t`` is the design's t, so a set of t-orbits has k == t.
    Construction refuses a row that is not k >= 1 ascending points of
    1..v, an orbit size below 1, a size count other than the row count,
    and rows not in strict lex order.
    """

    v: int
    t: int
    reps: np.ndarray  # (n, k)
    sizes: np.ndarray  # (n,)
    group_id: str

    def __post_init__(self):
        _native.intake(self, {"reps": np.min_scalar_type(self.v), "sizes": np.int64},
                       (self.reps, self.sizes),
                       "orbit representatives and sizes must be integers", self._check)

    def _check(self, reps: np.ndarray, sizes: np.ndarray) -> None:
        if reps.ndim != 2 or not reps.shape[1] or sizes.shape != reps.shape[:1]:
            raise ValueError(f"representatives of shape {reps.shape} and sizes of shape "
                             f"{sizes.shape}, expected (n, k) with k >= 1 and (n,)")
        # the rows are searched for the first bad orbit only on failure
        v, int64_max = self.v, np.iinfo(np.int64).max
        if len(reps) and not (_strictly_lex_ordered(reps, v) and 1 <= sizes.min()
                              and sizes.max() <= int64_max):
            bad = (reps[:, 0] < 1) | (reps[:, -1] > v) | (reps[:, 1:] <= reps[:, :-1]).any(axis=1)
            bad = np.flatnonzero(bad | (sizes < 1) | (sizes > int64_max))
            if len(bad):
                raise ValueError(f"orbit {bad[0]} is not {reps.shape[1]} ascending points of "
                                 f"1..{v} with an orbit size of at least 1")
            raise ValueError("representatives not in strict lex order")

    @property
    def k(self) -> int:
        return self.reps.shape[1]

    def __len__(self) -> int:
        return len(self.sizes)


def _strictly_lex_ordered(rows: np.ndarray, v: int) -> bool:
    """Whether a (b, k) integer array is non-empty, has every point in
    1..v, is strictly increasing within each row and has its rows strictly
    increasing in lex order."""
    if not rows.size:
        return False
    dtype = np.min_scalar_type(v)
    cols = np.ascontiguousarray(rows.T)
    # rows already in dtype are unsigned, so the cast below keeps them, and
    # once they are in lex order their least first point is rows[0, 0]
    if not ((cols[1:] > cols[:-1]).all() and cols[-1].max() <= v
            and (rows.dtype == dtype or 1 <= cols[0].min())):
        return False
    # a row's points as big-endian bytes compare as the rows do: as one
    # unsigned integer where they fill 1, 2, 4 or 8 bytes, else as a string
    text = np.ascontiguousarray(rows, dtype=dtype.newbyteorder(">"))
    width = text.itemsize * text.shape[1]
    text = text.view(f">u{width}" if width in (1, 2, 4, 8) else f"S{width}").ravel()
    return bool((text[1:] > text[:-1]).all() and rows[0, 0] >= 1)


@lru_cache(maxsize=16)
def _binomials(v: int, k: int) -> np.ndarray:
    """C(v - 1 - x, k - c) at [c, x] for 0 <= c < k and 0 <= x < v, read-only.
    Refuses k with C(v, k) - 1 >= 2^63, a lex rank that int64 cannot hold."""
    if comb(v, k) - 1 >= 1 << 63:
        raise ValueError("subset too wide to pack")
    table = np.array([[comb(v - 1 - x, k - c) for x in range(v)] for c in range(k)], dtype=np.int64)
    table.flags.writeable = False
    return table


def _pack_keys(subsets0: np.ndarray, v: int) -> np.ndarray:
    """Keys (...) of sorted 0-based k-subsets (..., k) of range(v): their
    ranks in the lex order of all C(v, k) k-subsets, as int64.

    The subset s_0 < ... < s_{k-1} has colex rank sum_c C(v-1-s_c, k-c)
    after the reflection x -> v-1-x, which reverses lex order.
    """
    return _pack_columns(np.moveaxis(subsets0, -1, 0), v, subsets0.shape[:-1])


def _pack_columns(cols, v: int, shape) -> np.ndarray:
    """``_pack_keys`` of the subsets of the given shape whose c-th points
    are the array cols[c]."""
    k = len(cols)
    binom = _binomials(v, k)
    keys = np.full(shape, comb(v, k) - 1, dtype=np.int64)
    for c in range(k):
        keys -= binom[c][cols[c]]
    return keys


# candidate images per chunk of _min_image_keys
_CHUNK_ROWS = 1 << 12


def _min_image_keys(subsets0: np.ndarray, G: PermutationGroup) -> np.ndarray:
    """Keys (n,) of the lex-least images under G of sorted 0-based
    k-subsets (n, k), as ``_pack_keys`` gives them.

    The least image of S starts with m, the least orbit minimum of its
    points, so only the elements sending some x in S with orbit minimum m
    to m can give it: |G_x| elements for each such x, not all of G.
    Their images are keyed in chunks of about _CHUNK_ROWS candidates, one
    array per point column, sorted across the columns by a network of
    np.minimum/np.maximum, and each subset keeps the least.
    """
    els = G.element_table()
    n = len(subsets0)
    omin = els.min(axis=0)  # the least point of each point's orbit
    # per point x, the elements g with g(x) = omin[x], grouped by x
    x_of, g_of = np.nonzero(els.T == omin[:, None])
    stab = np.bincount(x_of, minlength=G.degree)
    start = np.cumsum(stab) - stab
    om = omin.astype(subsets0.dtype)[subsets0]
    m = om.min(axis=1)
    reach = om == m[:, None]  # the x in S with omin[x] = m, all in the orbit of m
    lens = reach.sum(axis=1) * stab[m]  # candidates per subset, |G_x| = |G_m| each
    cuts = np.searchsorted(np.cumsum(lens), np.arange(_CHUNK_ROWS, lens.sum(), _CHUNK_ROWS))
    cuts = np.r_[0, cuts, n]  # a chunk is empty where one subset has more rows
    keys = np.empty(n, dtype=np.int64)
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        part, rows = subsets0[lo:hi], lens[lo:hi]
        x = part[reach[lo:hi]]  # row-major: each subset's candidates are contiguous
        cnt = stab[x]
        # g_of[start[x] + j] for j < |G_x|, the elements sending x to m
        g = g_of[np.repeat(start[x] - np.cumsum(cnt) + cnt, cnt) + np.arange(cnt.sum())]
        g *= G.degree
        cols = [np.take(els, g + np.repeat(part[:, c], rows)) for c in range(part.shape[1])]
        for i in range(1, len(cols)):  # insertion network: the columns ascend
            for j in range(i, 0, -1):
                cols[j - 1], cols[j] = np.minimum(cols[j - 1], cols[j]), np.maximum(cols[j - 1], cols[j])
        keys[lo:hi] = np.minimum.reduceat(_pack_columns(cols, G.degree, g.shape), np.cumsum(rows) - rows)
    return keys


# rows of representatives per call into the kernel
_REP_ROWS = 1 << 14

# kms_orbits_run's return value at the end of the search; it also returns
# with a full chunk (1) and every 2^16 nodes (2)
_DONE = 0


def _orderly_reps(
    G: PermutationGroup,
    v: int,
    size: int,
    t: int,
    progress=None,
):
    """Run the orderly search in the kernel ``_orbits.c``, prunes P1 and P2
    both on: the good orbits of size-subsets for size > t, and every
    t-orbit for size == t.  Returns the representatives as an (n, size)
    array of 1-based points in lex order, their orbit sizes, and the
    number of search nodes.

    Every 2^16 nodes, at every chunk of _REP_ROWS representatives and at
    the end, ``progress(nodes, representatives, second point, v)`` is
    called if given; the second point is 1-based, 0 before the first.
    """
    if G.degree != v:
        raise ValueError("group degree does not match v")
    img = G.element_table()  # img[g, x] = g(x)
    lib = _native.kernel("_orbits.c")
    info = np.zeros(3, dtype=np.int64)  # nodes, second point, rows written
    reps = np.empty((_REP_ROWS, size), dtype=np.int32)
    sizes = np.empty(_REP_ROWS, dtype=np.int64)
    dtype = np.min_scalar_type(v)
    out_reps = [np.zeros((0, size), dtype=dtype)]
    out_sizes = [np.zeros(0, dtype=np.int64)]
    state = lib.kms_orbits_new(v, size, t, len(img), img, info)
    if not state:
        raise MemoryError("orbit kernel: out of memory")
    found = 0
    try:
        while True:
            status = lib.kms_orbits_run(state, reps, sizes, _REP_ROWS)
            nodes, second, rows = info.tolist()
            out_reps.append(reps[:rows].astype(dtype))
            out_sizes.append(sizes[:rows].copy())
            found += rows
            if progress is not None:
                progress(nodes, found, second, v)
            if status == _DONE:
                break
    finally:
        lib.kms_orbits_free(state)
    return np.concatenate(out_reps), np.concatenate(out_sizes), nodes


def t_orbit_reps(G: PermutationGroup, v: int, t: int) -> OrbitSet:
    """All G-orbits on t-subsets, in lex order of representative."""
    if not 1 <= t < v:
        raise ValueError("need 1 <= t < v")
    reps, sizes, _ = _orderly_reps(G, v, t, t)
    total = int(sizes.sum())
    if total != comb(v, t):
        raise AssertionError(f"orbit sizes sum to {total}, expected C({v},{t})")
    return OrbitSet(v=v, t=t, reps=reps, sizes=sizes, group_id=G.fingerprint())


def good_k_orbit_reps(
    G: PermutationGroup,
    v: int,
    k: int,
    t: int,
    progress=None,
) -> OrbitSet:
    """All good k-orbit representatives in lex order.

    Every 2^16 search nodes and at the end, ``progress(nodes,
    representatives, second point, v)`` is called if given.
    """
    if not t < k < v:
        raise ValueError("need t < k < v")
    reps, sizes, _ = _orderly_reps(G, v, k, t, progress=progress)
    return OrbitSet(v=v, t=t, reps=reps, sizes=sizes, group_id=G.fingerprint())
