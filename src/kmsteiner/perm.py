"""Permutations and permutation groups on the point set {1..v}.

Permutations are stored as immutable image tuples (0-based internally);
all public interfaces speak 1-based points.  Groups carry a deterministic
stabilizer chain, built by the incremental Schreier-Sims algorithm, for
order and membership, and a table of all their elements as one array,
the numpy product of the chain's transversals.
"""

from __future__ import annotations

import re
import threading
from math import gcd, prod
from typing import Sequence

import numpy as np

__all__ = [
    "Permutation",
    "PermutationGroup",
    "StabilizerChain",
    "parse_permutation",
    "cyclic_group",
    "normalizer_of_cyclic",
    "verify_normalizes",
    "read_group_file",
    "parse_group",
    "write_group_file",
]

# ---------------------------------------------------------------------------
# raw tuple arithmetic (0-based); hot paths use these directly


def _mul(p: tuple, q: tuple) -> tuple:
    """Product "apply p, then q"."""
    return tuple(q[x] for x in p)


def _inv(p: tuple) -> tuple:
    out = [0] * len(p)
    for i, x in enumerate(p):
        out[x] = i
    return tuple(out)


def _is_identity(p: tuple) -> bool:
    return all(i == x for i, x in enumerate(p))


class Permutation:
    """A permutation of {1..v}, fixed degree, immutable."""

    __slots__ = ("_img",)

    def __init__(self, images0: Sequence[int]):
        # internal constructor: 0-based image tuple, assumed valid
        self._img = tuple(images0)

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, v: int) -> "Permutation":
        return cls(range(v))

    @classmethod
    def from_images(cls, images: Sequence[int]) -> "Permutation":
        """Build from 1-based ints or numpy integers: images[i] is the image of point i+1."""
        v = len(images)
        seen = [False] * v
        img0 = []
        for x in images:
            if isinstance(x, bool) or not isinstance(x, (int, np.integer)):
                raise ValueError(f"image {x!r} is not an integer")
            if not 1 <= x <= v:
                raise ValueError(f"point {x} out of range 1..{v}")
            if seen[x - 1]:
                raise ValueError(f"duplicate image {x}: not a bijection")
            seen[x - 1] = True
            img0.append(int(x) - 1)
        return cls(img0)

    # -- basic protocol -----------------------------------------------

    @property
    def degree(self) -> int:
        return len(self._img)

    @property
    def images(self) -> tuple:
        """1-based image tuple; images[i] is the image of point i+1."""
        return tuple(x + 1 for x in self._img)

    def raw(self) -> tuple:
        """0-based image tuple (internal representation)."""
        return self._img

    def __mul__(self, other: "Permutation") -> "Permutation":
        """Left-to-right product: (p * q) means apply p, then q."""
        if self.degree != other.degree:
            raise ValueError("degree mismatch")
        return Permutation(_mul(self._img, other._img))

    def inverse(self) -> "Permutation":
        return Permutation(_inv(self._img))

    def is_identity(self) -> bool:
        return _is_identity(self._img)

    def __eq__(self, other) -> bool:
        return isinstance(other, Permutation) and self._img == other._img

    def __hash__(self) -> int:
        return hash(self._img)

    def __repr__(self) -> str:
        return f"Permutation({self.cycle_string()!r}, degree={self.degree})"

    def cycle_string(self) -> str:
        """Cycle notation with 1-based points; identity renders as '()'."""
        img = self._img
        seen = [False] * len(img)
        parts = []
        for i in range(len(img)):
            if seen[i] or img[i] == i:
                continue
            cyc = [i]
            seen[i] = True
            j = img[i]
            while j != i:
                seen[j] = True
                cyc.append(j)
                j = img[j]
            parts.append("(" + ",".join(str(x + 1) for x in cyc) + ")")
        return "".join(parts) if parts else "()"


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation(text: str, v: int) -> Permutation:
    """Parse cycle notation "(1,2,4)(3,5)" or a one-line image list "2 4 5 1 3".

    Fixed points may be omitted in cycle form.  Raises ValueError on
    duplicate points, out-of-range points, or a non-bijective image list.
    """
    s = text.strip()
    if not s:
        raise ValueError("empty permutation string")
    if "(" in s:
        rest = _CYCLE_RE.sub("", s).strip()
        if rest:
            raise ValueError(f"unparseable permutation text {text!r}")
        img0 = list(range(v))
        used = set()
        for m in _CYCLE_RE.finditer(s):
            body = m.group(1).strip()
            if not body:
                continue
            pts = [tok.strip() for tok in body.replace(",", " ").split()]
            cyc = []
            for tok in pts:
                try:
                    x = int(tok)
                except ValueError:
                    raise ValueError(f"bad point {tok!r} in {text!r}") from None
                if not 1 <= x <= v:
                    raise ValueError(f"point {x} out of range 1..{v}")
                if x in used:
                    raise ValueError(f"duplicate point {x} in cycles")
                used.add(x)
                cyc.append(x - 1)
            for a, b in zip(cyc, cyc[1:]):
                img0[a] = b
            img0[cyc[-1]] = cyc[0]
        return Permutation(img0)
    # image list form
    toks = s.split()
    if len(toks) != v:
        raise ValueError(f"image list has {len(toks)} entries, expected {v}")
    try:
        images = [int(t) for t in toks]
    except ValueError:
        raise ValueError(f"non-integer entry in image list {text!r}") from None
    return Permutation.from_images(images)


# ---------------------------------------------------------------------------
# stabilizer chain (deterministic, incremental Schreier-Sims)


class StabilizerChain:
    """Schreier-Sims stabilizer chain, built incrementally (Sims 1970;
    Knuth, Combinatorica 11, 1991).

    Permutations are 0-based image tuples.  Level j has the base point
    ``base[j]``, generators ``gens[j]`` that fix the earlier base points,
    and ``trans[j]``, which maps each point p of the orbit of base[j] to
    an element u_p taking base[j] to p; ``_inverse[j]`` maps p to u_p⁻¹,
    formed once, when p joins the orbit.  A generator s that joins a level
    is applied to every orbit point, and each new point to every
    generator of the level, so a transversal only grows and each pair
    (p, s) is seen once: s(p) = q is new, with u_q = u_p·s, or the
    Schreier generator u_p·s·u_q⁻¹ is sifted once through the deeper
    levels.  A residue that is not the identity joins every level whose
    base points it fixes, deepest first; if it fixes them all, a new
    level opens at the smallest point it moves.  The same generator list
    gives the same chain.  ``add`` grows the group by one permutation and
    says whether it grew.
    """

    def __init__(self, generators: Sequence[tuple], degree: int):
        self.degree = degree
        self.base: list[int] = []
        self.gens: list[list[tuple]] = []
        self.trans: list[dict[int, tuple]] = []
        self._inverse: list[dict[int, tuple]] = []
        for g in generators:
            self.add(g)

    def strip(self, g: tuple, level: int = 0) -> tuple:
        """Sift g; returns (residue, level reached)."""
        for j in range(level, len(self.base)):
            u_inv = self._inverse[j].get(g[self.base[j]])
            if u_inv is None:
                return g, j
            g = _mul(g, u_inv)
        return g, len(self.base)

    def add(self, g: tuple) -> bool:
        """Add g to the group; False if g was already in it."""
        h, j = self.strip(tuple(g))
        if _is_identity(h):
            return False
        self._join(h, 0, j)
        return True

    def _join(self, h: tuple, top: int, j: int) -> None:
        """h, which fixes base[:j], joins levels j down to top; j == len(base)
        opens a new level at the smallest point h moves."""
        if j == len(self.base):
            b = next(i for i, x in enumerate(h) if x != i)
            self.base.append(b)
            self.gens.append([])
            self.trans.append({b: tuple(range(self.degree))})
            self._inverse.append(self.trans[-1].copy())
        for m in range(j, top - 1, -1):
            self.gens[m].append(h)
            new = []  # the points h brings to the orbit, walked while it grows
            for p in list(self.trans[m]):
                self._visit(m, p, h, new)
            for q in new:
                for s in self.gens[m]:
                    self._visit(m, q, s, new)

    def _visit(self, m: int, p: int, s: tuple, new: list) -> None:
        t = self.trans[m]
        q, w = s[p], _mul(t[p], s)
        u = t.get(q)
        if u is None:
            t[q], self._inverse[m][q] = w, _inv(w)
            new.append(q)
        elif w != u:
            h, j = self.strip(_mul(w, self._inverse[m][q]), m + 1)
            if not _is_identity(h):
                self._join(h, m + 1, j)

    def order(self) -> int:
        return prod(map(len, self.trans))

    def contains(self, g: tuple) -> bool:
        return _is_identity(self.strip(g)[0])


# the largest group order that element_table enumerates
ELEMENT_TABLE_CAP = 10**6


class PermutationGroup:
    """Permutation group given by generators; immutable after construction.

    The stabilizer chain and the element table are built lazily under a
    lock and cached, so instances are safe to share across threads.
    """

    def __init__(self, generators: Sequence[Permutation], degree: int | None = None):
        gens = tuple(generators)
        if not gens:
            raise ValueError("generator list must be nonempty (use the identity)")
        if degree is None:
            degree = gens[0].degree
        for g in gens:
            if g.degree != degree:
                raise ValueError("generators have mixed degrees")
        self.degree = degree
        self.generators = gens
        self._chain: StabilizerChain | None = None
        self._table: np.ndarray | None = None
        self._lock = threading.Lock()

    @classmethod
    def trivial(cls, v: int) -> "PermutationGroup":
        return cls([Permutation.identity(v)], v)

    def _get_chain(self) -> StabilizerChain:
        if self._chain is None:
            with self._lock:
                if self._chain is None:
                    self._chain = StabilizerChain([g.raw() for g in self.generators], self.degree)
        return self._chain

    def order(self) -> int:
        return self._get_chain().order()

    def __contains__(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        return self._get_chain().contains(g.raw())

    def element_table(self) -> np.ndarray:
        """All elements as one read-only int64 array: row e holds the 0-based
        images of element e, in the chain's deterministic order.  Raises if
        the order exceeds ``ELEMENT_TABLE_CAP``."""
        chain = self._get_chain()
        n = chain.order()
        if n > ELEMENT_TABLE_CAP:
            raise ValueError(f"group order {n} exceeds enumeration cap {ELEMENT_TABLE_CAP}")
        if self._table is None:
            with self._lock:
                if self._table is None:
                    # each element is h·u_p once, u_p of a level and h of
                    # the levels below it; deepest level first, row (p, h)
                    # is u_p[h], p ascending, h in the deeper table's order
                    table = np.arange(self.degree)[None]  # the identity
                    for t in reversed(chain.trans):
                        u = np.array([t[p] for p in sorted(t)], dtype=np.int64)
                        table = u.take(table, axis=1).reshape(-1, self.degree)
                    table.flags.writeable = False
                    self._table = table
        return self._table

    def fingerprint(self) -> str:
        """Deterministic hex digest of (degree, generator images)."""
        import hashlib

        h = hashlib.sha256()
        h.update(str(self.degree).encode())
        for g in self.generators:
            h.update(b"|")
            h.update(",".join(map(str, g.raw())).encode())
        return h.hexdigest()[:16]

    def __repr__(self) -> str:
        return (
            f"PermutationGroup(degree={self.degree}, "
            f"ngens={len(self.generators)})"
        )


# ---------------------------------------------------------------------------
# spec operations


def cyclic_group(v: int) -> PermutationGroup:
    """Cyclic group generated by x -> x+1 mod v (points as residues 1..v)."""
    if v < 2:
        raise ValueError("v must be at least 2")
    shift = Permutation([(i + 1) % v for i in range(v)])
    return PermutationGroup([shift], v)


def _closure(seed, mul_fn, identity):
    """Deterministic closure: BFS over right-multiplication by the seed."""
    elements, seen = [identity], {identity}
    for a in elements:  # the list grows while it is walked: a BFS queue
        for g in seed:
            b = mul_fn(a, g)
            if b not in seen:
                seen.add(b)
                elements.append(b)
    return elements


def _unit_group_generators(v: int) -> list[int]:
    """Generators of the unit group mod v: each unit not generated by those before it."""
    gens: list[int] = []
    have = {1}
    for a in range(2, v):
        if gcd(a, v) == 1 and a not in have:
            gens.append(a)
            have = set(_closure(gens, lambda x, y: x * y % v, 1))
    return gens


def normalizer_of_cyclic(v: int) -> PermutationGroup:
    """Normalizer of cyclic_group(v) in S_v: the affine maps x -> a*x + b mod v.

    Generated by the shift x -> x+1 together with x -> a*x for
    generators a of the unit group mod v.
    """
    if v < 2:
        raise ValueError("v must be at least 2")
    gens = [Permutation([(i + 1) % v for i in range(v)])]
    for a in _unit_group_generators(v):
        gens.append(Permutation([(a * i) % v for i in range(v)]))
    return PermutationGroup(gens, v)


def verify_normalizes(N: PermutationGroup, G: PermutationGroup) -> bool:
    """True iff n^-1 g n lies in G for every generator n of N and g of G."""
    if N.degree != G.degree:
        raise ValueError("degree mismatch between N and G")
    chain = G._get_chain()
    for n in N.generators:
        ninv = _inv(n.raw())
        for g in G.generators:
            conj = _mul(_mul(ninv, g.raw()), n.raw())
            if not chain.contains(conj):
                return False
    return True


# ---------------------------------------------------------------------------
# group file format: line 1 "degree v", then one generator per line in
# cycle notation; "#" starts a comment


def read_group_file(path) -> PermutationGroup:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_group(fh, path)


def parse_group(text_lines, path) -> PermutationGroup:
    """The group of a group file given as its lines; every error names path
    and the line, counted from 1 over all lines."""
    lines = []  # (line number, text) of the lines left without comments
    for ln, raw in enumerate(text_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((ln, line))
    if not lines:
        raise ValueError(f"{path}: empty group file")
    ln, head = lines[0][0], lines[0][1].split()
    if len(head) != 2 or head[0] != "degree":
        raise ValueError(f"{path}:{ln}: first line must be 'degree v'")
    try:
        v = int(head[1])
    except ValueError:
        v = 0
    if v < 1:
        raise ValueError(f"{path}:{ln}: bad degree {head[1]}")
    gens = []
    for ln, line in lines[1:]:
        try:
            gens.append(parse_permutation(line, v))
        except ValueError as exc:
            raise ValueError(f"{path}:{ln}: {exc}") from None
    if not gens:
        gens = [Permutation.identity(v)]
    return PermutationGroup(gens, v)


def write_group_file(path, G: PermutationGroup, comment: str | None = None) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        if comment:
            for line in comment.splitlines():
                fh.write(f"# {line}\n")
        fh.write(f"degree {G.degree}\n")
        for g in G.generators:
            fh.write(g.cycle_string() + "\n")
