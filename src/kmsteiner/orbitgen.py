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
    k = subsets0.shape[-1]
    binom = _binomials(v, k)
    keys = np.full(subsets0.shape[:-1], comb(v, k) - 1, dtype=np.int64)
    for c in range(k):
        keys -= binom[c][subsets0[..., c]]
    return keys


# candidate images per chunk of _min_image_keys
_CHUNK_ROWS = 1 << 12


def _min_image_keys(subsets0: np.ndarray, G: PermutationGroup) -> np.ndarray:
    """Keys (n,) of the lex-least images under G of sorted 0-based
    k-subsets (n, k), as ``_pack_keys`` gives them.

    The least image of S starts with m, the least orbit minimum of its
    points, so only the elements sending some x in S with orbit minimum m
    to m can give it: |G_x| elements for each such x, not all of G.
    Their images are sorted and keyed in chunks of about _CHUNK_ROWS
    candidates, and each subset keeps the least.
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
        imgs = np.sort(np.take(els, g[:, None] * G.degree + np.repeat(part, rows, axis=0)), axis=1)
        keys[lo:hi] = np.minimum.reduceat(_pack_keys(imgs, G.degree), np.cumsum(rows) - rows)
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
    good: bool,
    progress=None,
):
    """Run the orderly search in the kernel ``_orbits.c``; returns the
    representatives as an (n, size) array of 1-based points in lex order,
    their orbit sizes, and the number of search nodes.

    Every 2^16 nodes, at every chunk of _REP_ROWS representatives and at
    the end, ``progress(nodes, representatives, second point, v)`` is
    called if given; the second point is 1-based, 0 before the first.
    """
    if G.degree != v:
        raise ValueError("group degree does not match v")
    img = G.element_table()  # img[g, x] = g(x), int64 and C-contiguous
    lib = _native.kernel("_orbits.c")
    info = np.zeros(3, dtype=np.int64)  # nodes, second point, rows written
    reps = np.empty((_REP_ROWS, size), dtype=np.int32)
    sizes = np.empty(_REP_ROWS, dtype=np.int64)
    dtype = np.min_scalar_type(v)
    out_reps = [np.zeros((0, size), dtype=dtype)]
    out_sizes = [np.zeros(0, dtype=np.int64)]
    state = lib.kms_orbits_new(v, size, t, int(good), len(img), img.ctypes.data,
                               info.ctypes.data)
    if not state:
        raise MemoryError("orbit kernel: out of memory")
    found = 0
    try:
        while True:
            status = lib.kms_orbits_run(state, reps.ctypes.data, sizes.ctypes.data, _REP_ROWS)
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
    reps, sizes, _ = _orderly_reps(G, v, t, t, good=False)
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
    reps, sizes, _ = _orderly_reps(G, v, k, t, good=True, progress=progress)
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
