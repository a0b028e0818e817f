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
from math import comb

import numpy as np

from .orbitgen import OrbitSet, _pack_keys
from .perm import PermutationGroup

__all__ = [
    "KMError",
    "KMInstance",
    "build_km",
    "write_km_file",
    "read_km_file",
]

# columns whose t-subsets are gathered at once
_CHUNK = 65536


class KMError(RuntimeError):
    """A non-binary or non-integral matrix entry: a bad orbit slipped through."""


@dataclass
class KMInstance:
    t_orbits: OrbitSet
    k_orbits: OrbitSet
    col_indptr: np.ndarray  # int64, len n+1
    col_rows: np.ndarray  # int32, sorted row indices per column slice

    @property
    def shape(self) -> tuple:
        return (len(self.t_orbits), len(self.k_orbits))

    def column(self, j: int) -> tuple:
        lo, hi = self.col_indptr[j], self.col_indptr[j + 1]
        return tuple(int(i) for i in self.col_rows[lo:hi])


def build_km(G: PermutationGroup, t_orbits: OrbitSet, k_orbits: OrbitSet) -> KMInstance:
    """Assemble the matrix; raises KMError if any entry falls outside {0,1}.

    Every t-subset is looked up by its key, its lex rank, in a table of
    the t-orbits of all C(v, t) t-subsets, filled from the images of the
    t-orbit representatives under the elements of G.
    """
    if {t_orbits.group_id, k_orbits.group_id} != {G.fingerprint()}:
        raise ValueError("the orbits were generated under a different group")
    v, k, t = k_orbits.v, k_orbits.k, k_orbits.t
    els = G.element_table()
    t_images = np.sort(els[:, t_orbits.reps.astype(np.intp) - 1], axis=2)
    orbit_of = np.full(comb(v, t), -1)  # by lex rank of the t-subset
    orbit_of[_pack_keys(t_images, v)] = np.arange(len(t_orbits))
    if (orbit_of < 0).any() or not np.array_equal(
        np.bincount(orbit_of, minlength=len(t_orbits)), t_orbits.sizes
    ):
        raise ValueError(f"the t-orbits and their sizes do not partition the C({v},{t}) t-subsets")
    pick = np.array(list(combinations(range(k), t)), dtype=np.intp)
    rows = np.empty(len(k_orbits) * len(pick), dtype=np.int32)  # filled up to `end`
    lens, end = [], 0
    for lo in range(0, len(k_orbits), _CHUNK):
        # gathered in the reps' own small dtype, which is much faster
        tsub = (k_orbits.reps[lo : lo + _CHUNK] - 1)[:, pick]  # (columns, C(k,t), t)
        row = orbit_of[_pack_keys(tsub, v)]
        row.sort(axis=1)
        # one entry per run of equal rows in a column, b_ji its length; as
        # b_ji >= 1, a_ij = b_ji * |K_j| / |T_i| must be exactly 1
        start = np.ones(row.shape, dtype=bool)
        start[:, 1:] = row[:, 1:] != row[:, :-1]
        at = np.flatnonzero(start)
        row = row.ravel()[at]
        b = np.diff(np.append(at, start.size))
        col = lo + at // len(pick)
        bad = np.flatnonzero(b * k_orbits.sizes[col] != t_orbits.sizes[row])
        if len(bad):
            e = bad[0]
            i, j, bji = int(row[e]), int(col[e]), int(b[e])
            a, rem = divmod(bji * int(k_orbits.sizes[j]), int(t_orbits.sizes[i]))
            if rem:
                raise KMError(
                    f"non-integer entry at row {i}, column {j}: "
                    f"{bji}*{k_orbits.sizes[j]}/{t_orbits.sizes[i]}"
                )
            raise KMError(f"entry {a} > 1 at row {i}, column {j}: orbit not good")
        rows[end : end + len(row)] = row
        end += len(row)
        lens.append(start.sum(axis=1))
    return KMInstance(
        t_orbits=t_orbits,
        k_orbits=k_orbits,
        col_indptr=np.cumsum(np.concatenate([[0], *lens]), dtype=np.int64),
        col_rows=rows[:end],
    )


# ---------------------------------------------------------------------------
# KM file format: header "m n v k t", then one line per column:
# "j size_j : i1 i2 ..." with sorted row indices


def write_km_file(path, km: KMInstance) -> None:
    m, n = km.shape
    ks = km.k_orbits
    indptr, rows = km.col_indptr.tolist(), km.col_rows.tolist()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"{m} {n} {ks.v} {ks.k} {ks.t}\n")
        for j, size_j in enumerate(ks.sizes.tolist()):
            cols = " ".join(map(str, rows[indptr[j] : indptr[j + 1]]))
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
