"""Kramer-Mesner matrix restricted to good orbits.

Rows are t-subset orbits, columns are good k-subset orbits, and an entry
a_ij counts the blocks of orbit j through a fixed t-subset of orbit i.
With only good orbits every entry is 0 or 1, so the matrix is stored as
per-column sorted row-index lists: the option view of an exact cover
instance.

Entries are computed through the transpose count b_ji (t-subsets of the
column representative per row orbit) and the double-counting identity
a_ij * |T_i| = b_ji * |K_j|.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .orbitgen import GoodOrbitSet, OrbitRep
from .perm import PermutationGroup

__all__ = [
    "KMError",
    "KMInstance",
    "t_orbit_lookup",
    "count_b",
    "build_km",
    "write_km_file",
    "read_km_file",
]


class KMError(RuntimeError):
    """A non-binary or non-integral matrix entry: a bad orbit slipped through."""


@dataclass
class KMInstance:
    t_orbits: list
    k_orbits: GoodOrbitSet
    col_indptr: np.ndarray  # int64, len n+1
    col_rows: np.ndarray  # int32, sorted row indices per column slice

    @property
    def shape(self) -> tuple:
        return (len(self.t_orbits), len(self.k_orbits.reps))

    def column(self, j: int) -> tuple:
        lo, hi = self.col_indptr[j], self.col_indptr[j + 1]
        return tuple(int(i) for i in self.col_rows[lo:hi])


def t_orbit_lookup(G: PermutationGroup, t_orbits) -> dict:
    """Map from any t-subset (sorted tuple) to its orbit index.

    Materializes the full orbits; total size is C(v, t).
    """
    gens = [g.raw() for g in G.generators]
    lookup: dict = {}
    for r in t_orbits:
        queue = [r.rep]
        lookup[r.rep] = r.index
        qi = 0
        while qi < len(queue):
            cur = queue[qi]
            qi += 1
            for g in gens:
                img = tuple(sorted(g[p - 1] + 1 for p in cur))
                if img not in lookup:
                    lookup[img] = r.index
                    queue.append(img)
    return lookup


def count_b(K, lookup: dict, t: int) -> dict:
    """b_ji: how many t-subsets of K lie in each t-orbit; sums to C(|K|, t)."""
    out: dict = {}
    for T in combinations(sorted(K), t):
        i = lookup[T]
        out[i] = out.get(i, 0) + 1
    return out


def build_km(G: PermutationGroup, t_orbits, k_orbits: GoodOrbitSet) -> KMInstance:
    """Assemble the matrix; raises KMError if any entry falls outside {0,1}."""
    if k_orbits.group_id != G.fingerprint():
        raise ValueError("k_orbits were generated under a different group")
    t = k_orbits.t
    lookup = t_orbit_lookup(G, t_orbits)
    t_sizes = [r.orbit_size for r in t_orbits]
    indptr = np.zeros(len(k_orbits.reps) + 1, dtype=np.int64)
    rows: list = []
    for j, kr in enumerate(k_orbits.reps):
        b = count_b(kr.rep, lookup, t)
        col = []
        for i, bji in sorted(b.items()):
            num = bji * kr.orbit_size
            a, rem = divmod(num, t_sizes[i])
            if rem != 0:
                raise KMError(
                    f"non-integer entry at row {i}, column {j}: "
                    f"{bji}*{kr.orbit_size}/{t_sizes[i]}"
                )
            if a > 1:
                raise KMError(f"entry {a} > 1 at row {i}, column {j}: orbit not good")
            if a == 1:
                col.append(i)
        rows.extend(col)
        indptr[j + 1] = len(rows)
    return KMInstance(
        t_orbits=list(t_orbits),
        k_orbits=k_orbits,
        col_indptr=indptr,
        col_rows=np.array(rows, dtype=np.int32),
    )


# ---------------------------------------------------------------------------
# KM file format: header "m n v k t", then one line per column:
# "j size_j : i1 i2 ..." with sorted row indices


def write_km_file(path, km: KMInstance) -> None:
    m, n = km.shape
    ks = km.k_orbits
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m} {n} {ks.v} {ks.k} {ks.t}\n")
        for j in range(n):
            size_j = ks.reps[j].orbit_size
            cols = " ".join(str(i) for i in km.column(j))
            fh.write(f"{j} {size_j} : {cols}\n")


def read_km_file(path):
    """Returns (m, n, v, k, t, sizes, indptr, rows) from a KM file, with
    indptr and rows in the form ``KMInstance.col_indptr``/``col_rows``."""
    with open(path, "r", encoding="utf-8") as fh:
        head = fh.readline().split()
        if len(head) != 5:
            raise ValueError(f"{path}: malformed KM header")
        m, n, v, k, t = (int(x) for x in head)
        sizes, lens, rows = [], [], []
        for line in fh:
            toks = line.split()
            if not toks:
                continue
            if len(toks) < 3 or toks[2] != ":":
                raise ValueError(f"{path}: malformed column line {line!r}")
            j = int(toks[0])
            if j != len(sizes):
                raise ValueError(f"{path}: column {j} out of order")
            sizes.append(int(toks[1]))
            col = [int(x) for x in toks[3:]]
            if col != sorted(col) or any(not 0 <= i < m for i in col):
                raise ValueError(f"{path}: bad row indices in column {j}")
            lens.append(len(col))
            rows.extend(col)
    if len(sizes) != n:
        raise ValueError(f"{path}: expected {n} columns, found {len(sizes)}")
    indptr = np.cumsum([0] + lens, dtype=np.int64)
    return m, n, v, k, t, sizes, indptr, np.array(rows, dtype=np.int32)
