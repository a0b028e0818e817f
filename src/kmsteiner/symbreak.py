"""Normalizer-induced symmetry breaking.

The normalizer N of the prescribed group G permutes the good k-orbits;
orbits in the same N-class lead to isomorphic designs, so the choice of a
"first" orbit can be restricted to one representative per class.  Three
encodings of the Kramer-Mesner instance are emitted:

  a) plain exact cover, one option per good orbit;
  b) as a), plus an extra primary item and one copy-option per class
     representative covering it, forcing every solution to contain a
     representative;
  c) as b), plus colored secondary items, one per class except the last:
     options of class i carry the class item with color 1, and the
     copy-option of representative j carries the items of all earlier
     classes with color 0, discarding those classes once j is fixed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .km import KMInstance
from .orbitgen import OrbitSet, _pack_keys
from .perm import PermutationGroup, verify_normalizes
from .xcc import Solution, XCCProblem

__all__ = [
    "NormalizerClasses",
    "Encoding",
    "normalizer_classes",
    "encode",
    "decode_solution",
    "write_copy_map",
    "read_copy_map",
]


@dataclass
class NormalizerClasses:
    class_of: np.ndarray  # k-orbit index -> class id
    reps: list  # one k-orbit index per class; ascending, defines class order

    @property
    def n_classes(self) -> int:
        return len(self.reps)


def _canonical_keys(subsets0: np.ndarray, g_images: np.ndarray, v: int) -> np.ndarray:
    """Lex-minimal representative keys for each subset under all group elements."""
    best = None
    for e in range(g_images.shape[0]):
        img = np.sort(g_images[e][subsets0], axis=1)
        keys = _pack_keys(img, v)
        best = keys if best is None else np.minimum(best, keys)
    return best


def normalizer_classes(
    N: PermutationGroup, k_orbits: OrbitSet, G: PermutationGroup
) -> NormalizerClasses:
    """Partition good k-orbits into N-classes.

    Applies each generator of N to each representative, re-canonicalizes
    under G and joins each orbit with its image; a class is led by its
    smallest orbit index.  An image orbit missing from the good set means
    N does not normalize G (or the orbit set is stale) and is a hard
    failure.
    """
    if not verify_normalizes(N, G):
        raise ValueError("N does not normalize G")
    if k_orbits.group_id != G.fingerprint():
        raise ValueError("k_orbits were generated under a different group")
    v = k_orbits.v
    n = len(k_orbits)
    reps0 = k_orbits.reps.astype(np.int64) - 1
    rep_keys = _pack_keys(reps0, v)  # ascending since reps are in lex order
    g_images = G.element_table()
    images = []  # per generator of N, the index of each orbit's image
    chunk = 65536
    for pi in N.generators:
        table = np.array(pi.raw(), dtype=np.int64)
        images.append(np.empty(n, dtype=np.int64))
        for lo in range(0, n, chunk):
            part = reps0[lo : lo + chunk]
            imgs = np.sort(table[part], axis=1)
            keys = _canonical_keys(imgs, g_images, v)
            idx = np.searchsorted(rep_keys, keys)
            ok = (idx < n) & (rep_keys[np.minimum(idx, n - 1)] == keys)
            if not ok.all():
                bad = int(np.flatnonzero(~ok)[0]) + lo
                raise RuntimeError(
                    f"image of good orbit {bad} under a normalizer generator "
                    "is not a good orbit: N-closure violated"
                )
            images[-1][lo : lo + chunk] = idx
    # spread the smallest index over every pair (j, image[j]) until no
    # label changes; lead[j] <= j throughout, so lead[lead] jumps ahead
    lead = np.arange(n)
    while True:
        prev = lead
        for image in images:
            lead = np.minimum(lead, lead[image])
            np.minimum.at(lead, image, lead.copy())
        lead = lead[lead]
        if np.array_equal(lead, prev):
            break
    reps, class_of = np.unique(lead, return_inverse=True)
    return NormalizerClasses(class_of=class_of, reps=reps.tolist())


@dataclass
class Encoding:
    kind: str
    problem: XCCProblem
    copy_map: dict  # copy-option id -> original k-orbit index


def _ranks(lens: np.ndarray) -> np.ndarray:
    """0, 1, ..., len - 1 for each length in turn, concatenated."""
    return np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)


def encode(
    km: KMInstance, classes: NormalizerClasses | None, kind: str
) -> Encoding:
    """Emit the chosen encoding of a Kramer-Mesner instance as XCC.

    Option j < n is column j; for b and c, option n + q is the
    copy-option of the q-th class representative.
    """
    if kind not in ("a", "b", "c"):
        raise ValueError(f"unknown encoding kind {kind!r}")
    if kind in ("b", "c") and classes is None:
        raise ValueError(f"encoding {kind!r} requires normalizer classes")
    m, n = km.shape
    indptr, rows = km.col_indptr, km.col_rows
    primary = [f"r{i}" for i in range(m)]
    if kind == "a":
        return Encoding(kind, XCCProblem.from_arrays(primary, [], indptr, rows), {})
    # copy-option q: the rows of column reps[q], then Nhit (row m)
    reps = np.asarray(classes.reps, dtype=np.int64)
    lens = np.diff(indptr)[reps]
    owner, rank = np.repeat(np.arange(len(reps)), lens), _ranks(lens)
    copy_ptr = np.cumsum(np.r_[0, lens + 1])
    copy_rows = np.full(copy_ptr[-1], m, dtype=np.int64)
    copy_rows[copy_ptr[owner] + rank] = rows[indptr[reps][owner] + rank]
    primary.append("Nhit")
    prim_ptr = np.r_[indptr, indptr[-1] + copy_ptr[1:]]
    prim_rows = np.r_[rows, copy_rows]
    copy_map = {n + q: int(r) for q, r in enumerate(reps)}
    if kind == "b":
        return Encoding(kind, XCCProblem.from_arrays(primary, [], prim_ptr, prim_rows), copy_map)
    # c: option j carries s_{class(j)}:1, and the copy-option of a class-c
    # representative carries s_0..s_{c-1}:0 then s_c:1, i.e. items 0..len-1
    # with color 1 on item c only; the last class has no item.
    last = classes.n_classes - 1
    class_of = np.asarray(classes.class_of, dtype=np.int64)
    has_item = class_of < last
    rep_class = class_of[reps]
    copy_lens = rep_class + (rep_class < last)
    copy_items = _ranks(copy_lens)
    problem = XCCProblem.from_arrays(
        primary, [f"s{c}" for c in range(last)], prim_ptr, prim_rows,
        np.cumsum(np.r_[0, has_item, copy_lens]),
        np.r_[class_of[has_item], copy_items],
        np.r_[has_item[has_item], copy_items == np.repeat(rep_class, copy_lens)],
    )
    return Encoding(kind, problem, copy_map)


def decode_solution(sol: Solution, enc: Encoding) -> set:
    """Replace copy-options by their original k-orbit indices, deduplicated."""
    out = set()
    for oid in sol.option_ids:
        out.add(enc.copy_map.get(oid, oid))
    return out


# ---------------------------------------------------------------------------
# copy map persistence: "copy <option_id> = orbit <j>" lines


def write_copy_map(path, copy_map: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for oid in sorted(copy_map):
            fh.write(f"copy {oid} = orbit {copy_map[oid]}\n")


def read_copy_map(path) -> dict:
    out: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            toks = line.split()
            if not toks:
                continue
            if len(toks) != 5 or toks[0] != "copy" or toks[2] != "=" or toks[3] != "orbit":
                raise ValueError(f"{path}: malformed copy map line {ln}")
            out[int(toks[1])] = int(toks[4])
    return out
