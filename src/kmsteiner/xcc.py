"""Exact cover with colored secondary items.

Semantics: a solution is a set of options covering every primary item
exactly once; a secondary item may be covered by several options only if
they all assign it the same color (color 0 is an ordinary color, not a
wildcard).

A problem stores its options in compressed sparse row (CSR) form: for
option o, ``prim_items[prim_indptr[o]:prim_indptr[o + 1]]`` are its
primary item ids in ascending order, and the slice of ``sec_indptr``
selects its secondary item ids (ascending) in ``sec_items`` and their
colors in ``sec_colors``.  The arrays are validated when the problem is
built and are read-only afterwards.

The solver keeps the set of still-compatible options as a sorted index
array.  At each node it counts the live options of every primary item at
once from their bitmask rows: it unpacks the bits and sums the columns
when few options are active, and takes one byte histogram per mask byte
when many are; covered items carry a large penalty so that they are
never chosen.  Choosing an option drops the active options that
share a primary item with it (a bitmask test) and those that give one of
its secondary items another color (marked in a scratch boolean mask over
all options, then cleared).  Branching is deterministic: always the
primary item with the fewest active options, ties broken by lowest item
id, candidate options in ascending index order.  Node counts and solution
order are therefore reproducible across runs.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

__all__ = [
    "XCCProblem",
    "Solution",
    "SolveStats",
    "solve",
    "solve_all",
    "verify_solution",
    "export_text",
    "import_text",
]


def _check_name(name: str) -> str:
    if not name or any(c.isspace() for c in name) or ":" in name or "|" in name:
        raise ValueError(f"bad item name {name!r}")
    return name


def _sort_within(indptr: np.ndarray, items: np.ndarray, *payload) -> tuple:
    """Sort each option's slice by item id, moving payload arrays along;
    an item repeated within an option is an error."""
    owner = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
    same = owner[1:] == owner[:-1]
    if np.any(same & (items[1:] <= items[:-1])):
        order = np.lexsort((items, owner))
        items, payload = items[order], tuple(a[order] for a in payload)
        if np.any(same & (items[1:] == items[:-1])):
            raise ValueError("item repeated within an option")
    return (items, *payload)


class XCCProblem:
    """Primary/secondary item names plus options in CSR form.

    ``XCCProblem(primary, secondary, options)`` takes each option as
    (primary item ids, ((secondary item id, color), ...)), and
    ``XCCProblem.from_arrays`` takes the CSR arrays of the module
    docstring.  Item ids may come in any order within an option; every
    option must cover at least one primary item, may not repeat an item,
    and all colors are non-negative integers.  The problem is immutable.
    """

    def __init__(self, primary, secondary=(), options=()):
        options = [(tuple(prim), tuple(sec)) for prim, sec in options]
        pairs = [pair for _, sec in options for pair in sec]
        self._build(primary, secondary,
                    np.cumsum([0] + [len(prim) for prim, _ in options]),
                    [i for prim, _ in options for i in prim],
                    np.cumsum([0] + [len(sec) for _, sec in options]),
                    [s for s, _ in pairs], [c for _, c in pairs])

    @classmethod
    def from_arrays(cls, primary, secondary, prim_indptr, prim_items,
                    sec_indptr=None, sec_items=(), sec_colors=()) -> "XCCProblem":
        """A problem from CSR arrays; without ``sec_indptr`` no option has
        a secondary item."""
        if sec_indptr is None:
            sec_indptr = np.zeros(len(prim_indptr), dtype=np.int64)
        self = cls.__new__(cls)
        self._build(primary, secondary, prim_indptr, prim_items,
                    sec_indptr, sec_items, sec_colors)
        return self

    def _build(self, primary, secondary, *arrays) -> None:
        self.primary = [_check_name(n) for n in primary]
        self.secondary = [_check_name(n) for n in secondary]
        if len(set(self.primary) | set(self.secondary)) != len(self.primary) + len(
            self.secondary
        ):
            raise ValueError("duplicate item name")
        prim_ptr, prim, sec_ptr, sec, colors = (np.array(a, dtype=np.int64) for a in arrays)
        n = len(prim_ptr) - 1
        for ptr, *data in ((prim_ptr, prim), (sec_ptr, sec, colors)):
            if (n < 0 or ptr.shape != (n + 1,) or ptr[0] != 0 or np.any(ptr[1:] < ptr[:-1])
                    or any(d.shape != (ptr[-1],) for d in data)):
                raise ValueError("malformed option arrays")
        if np.any(prim_ptr[1:] == prim_ptr[:-1]):
            raise ValueError("option covers no primary item")
        if np.any((prim < 0) | (prim >= len(self.primary))):
            raise ValueError("primary item id out of range")
        if np.any((sec < 0) | (sec >= len(self.secondary))):
            raise ValueError("secondary item id out of range")
        if np.any(colors < 0):
            raise ValueError("colors must be non-negative")
        (prim,) = _sort_within(prim_ptr, prim)
        sec, colors = _sort_within(sec_ptr, sec, colors)
        self.prim_indptr, self.prim_items = prim_ptr, prim.astype(np.int32)
        self.sec_indptr, self.sec_items, self.sec_colors = sec_ptr, sec.astype(np.int32), colors
        for a in self._arrays():
            a.setflags(write=False)

    def _arrays(self) -> tuple:
        return (self.prim_indptr, self.prim_items, self.sec_indptr, self.sec_items, self.sec_colors)

    @property
    def options(self) -> "_OptionView":
        """Read-only sequence of (primary ids, ((secondary id, color), ...))."""
        return _OptionView(self)

    @property
    def n_options(self) -> int:
        return len(self.prim_indptr) - 1

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, XCCProblem)
            and self.primary == other.primary
            and self.secondary == other.secondary
            and all(map(np.array_equal, self._arrays(), other._arrays()))
        )

    def __repr__(self) -> str:
        return (
            f"XCCProblem({len(self.primary)}+{len(self.secondary)} items, "
            f"{self.n_options} options)"
        )


class _OptionView(Sequence):
    """The options of a problem as tuples, computed from its arrays."""

    def __init__(self, problem: XCCProblem):
        self._p = problem

    def __len__(self) -> int:
        return self._p.n_options

    def __getitem__(self, o):
        p = self._p
        o = range(len(self))[o]  # bounds check; a negative index counts from the end
        lo, hi = p.prim_indptr[o : o + 2].tolist()
        slo, shi = p.sec_indptr[o : o + 2].tolist()
        sec = zip(p.sec_items[slo:shi].tolist(), p.sec_colors[slo:shi].tolist())
        return tuple(p.prim_items[lo:hi].tolist()), tuple(sec)

    def __iter__(self):
        p = self._p
        pp, pi = p.prim_indptr.tolist(), p.prim_items.tolist()
        sp, si, sc = p.sec_indptr.tolist(), p.sec_items.tolist(), p.sec_colors.tolist()
        for o in range(len(pp) - 1):
            sec = zip(si[sp[o] : sp[o + 1]], sc[sp[o] : sp[o + 1]])
            yield tuple(pi[pp[o] : pp[o + 1]]), tuple(sec)


@dataclass(frozen=True)
class Solution:
    option_ids: tuple


@dataclass
class SolveStats:
    nodes: int = 0
    solutions: int = 0
    elapsed: float = 0.0
    limit_hit: bool = False


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


def solve(
    problem: XCCProblem,
    limit: int | None = None,
    on_solution=None,
    node_cap: int | None = None,
    time_cap: float | None = None,
) -> SolveStats:
    """Visit every solution exactly once in deterministic order.

    Each solution is passed to on_solution if one is given; without it the
    solutions are only counted.  A solution limit, node cap or time cap
    stops the search early and is reported via stats.limit_hit.  The
    callback must not re-enter the solver instance.
    """
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


def solve_all(problem: XCCProblem, limit: int | None = None):
    """Convenience wrapper collecting the solutions; returns (list, stats)."""
    sols: list = []
    stats = solve(problem, limit=limit, on_solution=sols.append)
    return sols, stats


def verify_solution(problem: XCCProblem, option_ids) -> bool:
    """Independent replay check of the Solution invariants against the
    problem, using no solver state."""
    counts = [0] * len(problem.primary)
    colors: dict = {}
    for o in option_ids:
        prim, sec = problem.options[o]
        for i in prim:
            counts[i] += 1
        for s, c in sec:
            if s in colors and colors[s] != c:
                return False
            colors[s] = c
    return all(c == 1 for c in counts)


# ---------------------------------------------------------------------------
# text format: line 1 lists primary items, then "|", then secondary items;
# one option per line with tokens "item" (primary) or "item:color" (secondary)


def export_text(problem: XCCProblem) -> str:
    primary, secondary = problem.primary, problem.secondary
    # one token per CSR entry; option o's tokens are two slices of these lists
    prim = [primary[i] for i in problem.prim_items.tolist()]
    sec = [
        f"{secondary[s]}:{c}"
        for s, c in zip(problem.sec_items.tolist(), problem.sec_colors.tolist())
    ]
    pp, sp = problem.prim_indptr.tolist(), problem.sec_indptr.tolist()
    lines = [" ".join(primary) + " | " + " ".join(secondary)]
    lines += [
        " ".join(prim[pp[o] : pp[o + 1]] + sec[sp[o] : sp[o + 1]])
        for o in range(problem.n_options)
    ]
    return "\n".join(lines).rstrip() + "\n"


def import_text(text: str) -> XCCProblem:
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty problem text")
    head = lines[0]
    if "|" not in head:
        raise ValueError("header line must contain '|'")
    left, _, right = head.partition("|")
    primary = left.split()
    secondary = right.split()
    prim_id = {n: i for i, n in enumerate(primary)}
    sec_id = {n: i for i, n in enumerate(secondary)}
    prim_ptr, prim = [0], []
    sec_ptr, sec, colors = [0], [], []
    for ln, line in enumerate(lines[1:], start=2):
        toks = line.split()
        if not toks:
            continue
        for tok in toks:
            if tok in prim_id:
                prim.append(prim_id[tok])
                continue
            name, colon, color = tok.partition(":")
            if not colon:
                if tok in sec_id:
                    raise ValueError(f"line {ln}: secondary item {tok!r} needs a color")
                raise ValueError(f"line {ln}: unknown item {tok!r}")
            if name not in sec_id:
                raise ValueError(f"line {ln}: unknown secondary item {name!r}")
            try:
                c = int(color)
            except ValueError:
                raise ValueError(f"line {ln}: malformed color {color!r}") from None
            if not 0 <= c < 1 << 63:
                raise ValueError(f"line {ln}: malformed color {color!r}")
            sec.append(sec_id[name])
            colors.append(c)
        if len(prim) == prim_ptr[-1]:
            raise ValueError(f"line {ln}: option covers no primary item")
        prim_ptr.append(len(prim))
        sec_ptr.append(len(sec))
    return XCCProblem.from_arrays(primary, secondary, prim_ptr, prim, sec_ptr, sec, colors)
