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

The search runs in a small C kernel, ``_xcc.c``, which ``_native``
builds with gcc on the first ``solve`` and loads with ctypes; without
gcc ``solve`` raises ImportError.  Building, importing and exporting a
problem need no kernel.  The kernel keeps the still-compatible options
of every depth in one contiguous stack, each with its primary items as
an inline bitmask, and counts the live options of every primary item
while it filters a child.  Choosing an option drops the live options
that share a primary item with it (a bitmask test) and those that give
one of its secondary items another color.  Branching is deterministic:
always the uncovered primary item with the fewest live options, ties
broken by lowest item id, candidate options in ascending index order.
Node counts and solution order are therefore reproducible across runs.
The kernel returns to Python after each solution and every 256 nodes,
where the solution limit, the time cap and progress are handled.
"""

from __future__ import annotations

import time
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from . import _native

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
    starts = indptr[1:-1]
    cut = starts[(starts > 0) & (starts < len(items))] - 1  # pairs i, i + 1 across options
    descent = items[1:] <= items[:-1]
    descent[cut] = False
    if descent.any():
        order = np.lexsort((items, np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))))
        items, payload = items[order], tuple(a[order] for a in payload)
        repeat = items[1:] == items[:-1]
        repeat[cut] = False
        if repeat.any():
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
        prim_ptr, prim, sec_ptr, sec, colors = map(np.asarray, arrays)  # no copies yet
        n = len(prim_ptr) - 1
        for ptr, *data in ((prim_ptr, prim), (sec_ptr, sec, colors)):
            if (n < 0 or ptr.shape != (n + 1,) or ptr[0] != 0 or np.any(ptr[1:] < ptr[:-1])
                    or any(d.shape != (ptr[-1],) for d in data)):
                raise ValueError("malformed option arrays")
        if np.any(prim_ptr[1:] == prim_ptr[:-1]):
            raise ValueError("option covers no primary item")
        if prim.size and (prim.min() < 0 or prim.max() >= len(self.primary)):
            raise ValueError("primary item id out of range")
        if sec.size and (sec.min() < 0 or sec.max() >= len(self.secondary)):
            raise ValueError("secondary item id out of range")
        if np.any(colors < 0):
            raise ValueError("colors must be non-negative")
        # one copy of each array, straight into its stored dtype; the item
        # ids are in range, so the cast to int32 cannot wrap
        self.prim_indptr, self.sec_indptr, colors = (
            np.array(a, dtype=np.int64) for a in (prim_ptr, sec_ptr, colors))
        (self.prim_items,) = _sort_within(self.prim_indptr, np.array(prim, dtype=np.int32))
        self.sec_items, self.sec_colors = _sort_within(
            self.sec_indptr, np.array(sec, dtype=np.int32), colors)
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


# kms_xcc_run's return values
_DONE, _SOLUTION, _TICK, _CAP, _NOMEM = 0, 1, 2, 3, -1


def solve(
    problem: XCCProblem,
    limit: int | None = None,
    on_solution=None,
    node_cap: int | None = None,
    time_cap: float | None = None,
    progress=None,
) -> SolveStats:
    """Visit every solution exactly once in deterministic order.

    Each solution is passed to on_solution if one is given; without it the
    solutions are only counted.  A solution limit (at least 1), node cap or
    time cap (both non-negative) stops the search early and is reported
    via stats.limit_hit; the node cap counts the node that passes it, and
    the time cap is checked every 256 nodes.  Every 256 nodes
    ``progress(nodes, depth, root_branch, n_root_branches)`` is called if
    given; root branches count from 1.  The callbacks must not re-enter
    the solver instance.
    """
    if limit is not None and limit < 1:
        raise ValueError(f"solution limit must be at least 1, not {limit}")
    if node_cap is not None and node_cap < 0:
        raise ValueError(f"node cap must be non-negative, not {node_cap}")
    if time_cap is not None and not time_cap >= 0:  # NaN fails too
        raise ValueError(f"time cap must be non-negative, not {time_cap}")
    stats = SolveStats()
    t0 = time.perf_counter()
    lib = _native.kernel("_xcc.c")
    info = np.zeros(4, dtype=np.int64)  # nodes, depth, root branch, root branches
    chosen = np.zeros(len(problem.primary) + 1, dtype=np.int32)
    arrays = problem._arrays()
    if [a.dtype for a in arrays] != [np.int64, np.int32, np.int64, np.int32, np.int64] or not all(
            a.flags.c_contiguous for a in arrays):
        raise ValueError("problem arrays are not in the layout XCCProblem builds")
    addrs = [a.ctypes.data for a in arrays]
    state = lib.kms_xcc_new(len(problem.primary), len(problem.secondary), problem.n_options,
                            *addrs, -1 if node_cap is None else min(node_cap, 1 << 62),
                            info.ctypes.data, chosen.ctypes.data)
    if not state:
        raise MemoryError("exact-cover kernel: out of memory")
    try:
        while (status := lib.kms_xcc_run(state)) != _DONE:
            if status == _NOMEM:
                raise MemoryError("exact-cover kernel: out of memory")
            if status == _CAP:
                stats.limit_hit = True
                break
            if status == _TICK:
                if progress is not None:
                    progress(*info.tolist())
                if time_cap is not None and time.perf_counter() - t0 > time_cap:
                    stats.limit_hit = True
                    break
                continue
            stats.solutions += 1
            if on_solution is not None:
                on_solution(Solution(tuple(sorted(chosen[: info[1]].tolist()))))
            if limit is not None and stats.solutions >= limit:
                stats.limit_hit = True
                break
    finally:
        lib.kms_xcc_free(state)
    stats.nodes = int(info[0])
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
