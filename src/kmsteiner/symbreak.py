"""Normalizer-induced symmetry breaking.

The normalizer N of the prescribed group G permutes the good k-orbits;
orbits in the same N-class lead to isomorphic designs, so the choice of a
"first" orbit can be restricted to one representative per class, its
smallest orbit.  The classes are stored as one array of class ids, from
which ``NormalizerClasses`` derives the representatives.  The orbit of a
representative's N-image is found by the image's lex-least image under
G, for which only the elements of G sending a point of the subset to the
least orbit minimum among its points are tried: at most k·|G_m| of them
instead of |G| (``orbitgen._min_image_keys``; Jefferson, Jonauskyte,
Pfeiffer and Waldecker, "Minimal and canonical images", J. Algebra 521,
2019).  Three encodings of the Kramer-Mesner instance are emitted:

  a) plain exact cover: option j < n is column j of the KM matrix;
  b) as a), plus an extra primary item Nhit and copy-option n + q, the
     column of class representative q and Nhit, forcing every solution
     to contain a representative;
  c) as b), plus colored secondary items s_0..s_{nc-2}, one per class
     except the last: options of class c carry s_c with color 1, and the
     copy-option of the class-c representative carries s_0..s_{c-1} with
     color 0, discarding those classes once it is fixed, and its own s_c
     with color 1.

``decode_options`` is the one reader of this layout.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import _native
from .km import KMInstance
from .orbitgen import OrbitSet, _min_image_keys, _pack_keys
from .perm import PermutationGroup, verify_normalizes
from .xcc import Solution, XCCProblem

__all__ = [
    "NormalizerClasses",
    "Encoding",
    "normalizer_classes",
    "encode",
    "decode_options",
    "decode_solution",
]


@dataclass(frozen=True, eq=False)
class NormalizerClasses:
    """The N-classes of the good k-orbits, as read-only int64 arrays taken by
    the rule of ``_native.intake``: ``class_of[j]`` is the class of orbit j,
    and ``reps[c]``, derived from it, the smallest orbit of class c.
    Construction refuses a ``class_of`` that is not 1-D, holds an id
    outside 0..len(class_of)-1 or does not number its classes 0, 1, ...
    in the order of their smallest orbits."""

    class_of: np.ndarray
    reps: np.ndarray = field(init=False)

    def __post_init__(self):
        _native.intake(self, {"class_of": np.int64, "reps": np.int64}, (self.class_of,),
                       "class ids must be integers", self._check)

    def _check(self, class_of: np.ndarray) -> tuple:
        # numbered in the order of their smallest orbits, the ids raise the
        # largest id so far by one at the smallest orbit of each class and
        # nowhere else
        steps = np.diff(np.maximum.accumulate(class_of.ravel()), prepend=-1)
        if class_of.ndim != 1 or class_of.size and (class_of.min() < 0 or steps.max() > 1):
            raise ValueError("class ids are not a 1-D array numbering the classes 0, 1, ... "
                             "in the order of their smallest orbits")
        return class_of, np.flatnonzero(steps)

    @property
    def n_classes(self) -> int:
        return len(self.reps)

def normalizer_classes(
    N: PermutationGroup, k_orbits: OrbitSet, G: PermutationGroup
) -> NormalizerClasses:
    """Partition good k-orbits into N-classes.

    Applies each generator of N outside G (one in G maps every G-orbit to
    itself) to each representative, finds the orbit of the image by its
    lex-least image under G (``orbitgen._min_image_keys``, which tries
    only the elements that can give it) and joins each orbit with that
    orbit; a class is led by its smallest orbit index.  An image
    orbit missing from the good set means N does not normalize G (or the
    orbit set is stale) and is a hard failure.
    """
    if not verify_normalizes(N, G):
        raise ValueError("N does not normalize G")
    if k_orbits.group_id != G.fingerprint():
        raise ValueError("k_orbits were generated under a different group")
    n = len(k_orbits)
    reps0 = k_orbits.reps - 1  # in the reps' own dtype
    rep_keys = _pack_keys(reps0, k_orbits.v)  # ascending since reps are in lex order
    images = []  # per generator of N outside G, the index of each orbit's image
    for pi in [g for g in N.generators if g not in G]:
        table = np.array(pi.raw(), dtype=reps0.dtype)
        keys = _min_image_keys(np.sort(table[reps0], axis=1), G)
        # pi permutes the k-orbits, so the image keys sort to rep_keys
        # unless some image is not a good orbit
        order = np.argsort(keys)
        if not np.array_equal(keys[order], rep_keys):
            bad = int(np.argmin(np.isin(keys, rep_keys)))
            raise RuntimeError(
                f"image of good orbit {bad} under a normalizer generator "
                "is not a good orbit: N-closure violated"
            )
        idx = np.empty(n, dtype=np.intp)
        idx[order] = np.arange(n)
        images.append(idx)
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
    return NormalizerClasses(np.unique(lead, return_inverse=True)[1])


@dataclass
class Encoding:
    """An encoding's exact-cover problem, in the layout of the module
    docstring, and the classes whose copy-options it holds (None for
    encoding a), from which ``decode_solution`` reads its options."""

    problem: XCCProblem
    classes: NormalizerClasses | None


def _ranks(lens: np.ndarray) -> np.ndarray:
    """0, 1, ..., len - 1 for each length in turn, concatenated."""
    return np.arange(lens.sum()) - np.repeat(np.cumsum(lens) - lens, lens)


def encode(
    km: KMInstance, classes: NormalizerClasses | None, kind: str
) -> Encoding:
    """Emit the chosen encoding of a Kramer-Mesner instance as XCC, in the
    layout of the module docstring."""
    if kind not in ("a", "b", "c"):
        raise ValueError(f"unknown encoding kind {kind!r}")
    if kind in ("b", "c") and classes is None:
        raise ValueError(f"encoding {kind!r} requires normalizer classes")
    m, n = km.shape
    indptr, rows = km.col_indptr, km.col_rows
    primary = [f"r{i}" for i in range(m)]
    if kind == "a":
        return Encoding(XCCProblem.from_arrays(primary, [], indptr, rows), None)
    # copy-option q: the rows of column reps[q], then Nhit (row m)
    reps = classes.reps
    lens = np.diff(indptr)[reps]
    owner, rank = np.repeat(np.arange(len(reps)), lens), _ranks(lens)
    copy_ptr = np.cumsum(np.r_[0, lens + 1])
    copy_rows = np.full(copy_ptr[-1], m, dtype=np.int32)  # like rows: prim_rows stays int32
    copy_rows[copy_ptr[owner] + rank] = rows[indptr[reps][owner] + rank]
    primary.append("Nhit")
    prim_ptr = np.r_[indptr, indptr[-1] + copy_ptr[1:]]
    prim_rows = np.r_[rows, copy_rows]
    if kind == "b":
        return Encoding(XCCProblem.from_arrays(primary, [], prim_ptr, prim_rows), classes)
    # c: the copy-option of the class-c representative carries items
    # 0..len-1, with color 1 on item c only
    last = classes.n_classes - 1
    class_of = classes.class_of
    has_item = class_of < last
    rep_class = np.arange(last + 1)  # class_of[reps]
    copy_lens = rep_class + (rep_class < last)
    copy_items = _ranks(copy_lens)
    problem = XCCProblem.from_arrays(
        primary, [f"s{c}" for c in range(last)], prim_ptr, prim_rows,
        np.cumsum(np.r_[0, has_item, copy_lens]),
        np.r_[class_of[has_item], copy_items],
        np.r_[has_item[has_item], copy_items == np.repeat(rep_class, copy_lens)].astype(np.int64),
    )
    return Encoding(problem, classes)


def decode_options(option_ids, n: int, classes: NormalizerClasses | None) -> set:
    """The k-orbit indices of an encoding's options over n KM columns,
    deduplicated; raises ValueError on an option outside 0..n+n_classes-1
    (0..n-1 without classes)."""
    reps = classes.reps if classes is not None else ()
    top = n + len(reps)
    out = set()
    for o in option_ids:
        if not 0 <= o < top:
            raise ValueError(f"solution {tuple(option_ids)} has an option outside 0..{top - 1}")
        out.add(o if o < n else reps.item(o - n))
    return out


def decode_solution(sol: Solution, enc: Encoding) -> set:
    """``decode_options`` of a solution of the encoding."""
    nc = enc.classes.n_classes if enc.classes is not None else 0
    return decode_options(sol.option_ids, enc.problem.n_options - nc, enc.classes)
