"""Permutations and permutation groups on the point set {1..v}.

Permutations are stored as immutable image tuples (0-based internally);
all public interfaces speak 1-based points.  Groups carry a deterministic
Schreier-Sims stabilizer chain used for order, membership and element
enumeration, and a table of all their elements as one array.
"""

from __future__ import annotations

import re
import threading
from math import gcd
from typing import Iterator, Sequence

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
        """Build from a 1-based image list: images[i] is the image of point i+1."""
        v = len(images)
        seen = [False] * v
        img0 = []
        for x in images:
            if not isinstance(x, int) or not 1 <= x <= v:
                raise ValueError(f"point {x!r} out of range 1..{v}")
            if seen[x - 1]:
                raise ValueError(f"duplicate image {x}: not a bijection")
            seen[x - 1] = True
            img0.append(x - 1)
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
# stabilizer chain (deterministic Schreier-Sims)


class StabilizerChain:
    """Schreier-Sims stabilizer chain with deterministic base selection.

    Permutations are 0-based image tuples.  Base points are chosen as the
    smallest point moved by the first residue that requires a new level,
    transversals are built by BFS with generators in insertion order, so
    two builds from the same generator list are identical.  ``add`` grows
    the group by one permutation and says whether it grew.
    """

    def __init__(self, generators: Sequence[tuple], degree: int):
        self.degree = degree
        self.base: list[int] = []
        self.gens: list[list[tuple]] = []
        self.trans: list[dict[int, tuple]] = []
        ident = tuple(range(degree))
        self._ident = ident
        for g in generators:
            self.add(g)

    def _orbit_trans(self, level: int) -> dict[int, tuple]:
        b = self.base[level]
        t = {b: self._ident}
        queue = [b]
        qi = 0
        gens = self.gens[level]
        while qi < len(queue):
            p = queue[qi]
            qi += 1
            up = t[p]
            for s in gens:
                q = s[p]
                if q not in t:
                    t[q] = _mul(up, s)
                    queue.append(q)
        return t

    def strip(self, g: tuple, level: int = 0) -> tuple:
        """Sift g; returns (residue, level reached)."""
        for j in range(level, len(self.base)):
            p = g[self.base[j]]
            t = self.trans[j]
            if p not in t:
                return g, j
            g = _mul(g, _inv(t[p]))
        return g, len(self.base)

    def add(self, g: tuple) -> bool:
        """Add g to the group; False if g was already in it."""
        h, j = self.strip(g, 0)
        if _is_identity(h):
            return False
        if j == len(self.base):
            self._new_level(h)
        for m in range(0, j + 1):
            self.gens[m].append(h)
        for m in range(min(j, len(self.base) - 1), -1, -1):
            self._close(m)
        return True

    def _new_level(self, h: tuple) -> None:
        b = next(i for i, x in enumerate(h) if x != i)
        self.base.append(b)
        self.gens.append([])
        self.trans.append({})

    def _close(self, level: int) -> None:
        """Restore the invariant that all Schreier generators of this level
        sift to identity through the deeper chain."""
        self.trans[level] = self._orbit_trans(level)
        while True:
            complete = True
            t = self.trans[level]
            for p in sorted(t):
                up = t[p]
                for s in self.gens[level]:
                    sp = s[p]
                    sg = _mul(_mul(up, s), _inv(t[sp]))
                    if _is_identity(sg):
                        continue
                    h, j = self.strip(sg, level + 1)
                    if _is_identity(h):
                        continue
                    complete = False
                    if j == len(self.base):
                        self._new_level(h)
                    for m in range(level + 1, j + 1):
                        self.gens[m].append(h)
                    for m in range(min(j, len(self.base) - 1), level, -1):
                        self._close(m)
                    break
                if not complete:
                    break
            if complete:
                return

    def order(self) -> int:
        n = 1
        for t in self.trans:
            n *= len(t)
        return n

    def contains(self, g: tuple) -> bool:
        h, j = self.strip(g, 0)
        return _is_identity(h)

    def elements(self) -> Iterator[tuple]:
        """All group elements, deterministic order, exactly once each."""

        # factor g = h * u_p with h in the stabilizer: enumerate outer level last
        def rec(level: int) -> Iterator[tuple]:
            if level == len(self.base):
                yield self._ident
                return
            t = self.trans[level]
            for p in sorted(t):
                up = t[p]
                for h in rec(level + 1):
                    yield _mul(h, up)

        return rec(0)


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
                    raw = [g.raw() for g in self.generators]
                    self._chain = StabilizerChain(raw, self.degree)
        return self._chain

    def order(self) -> int:
        return self._get_chain().order()

    def __contains__(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        return self._get_chain().contains(g.raw())

    def element_table(self, cap: int = 10**6) -> np.ndarray:
        """All elements as one read-only int64 array: row e holds the 0-based
        images of element e, in the chain's deterministic order.  Raises if
        the order exceeds cap."""
        chain = self._get_chain()
        n = chain.order()
        if n > cap:
            raise ValueError(f"group order {n} exceeds enumeration cap {cap}")
        if self._table is None:
            with self._lock:
                if self._table is None:
                    table = np.array(list(chain.elements()), dtype=np.int64)
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


def _unit_group_generators(v: int) -> list[int]:
    """Small generating set of the unit group mod v, chosen deterministically."""
    units = [a for a in range(1, v) if gcd(a, v) == 1]
    target = len(units)
    have = {1}
    gens: list[int] = []
    for a in units:
        if a in have:
            continue
        gens.append(a)
        # regenerate closure with the new generator
        have = {1}
        frontier = [1]
        while frontier:
            new = []
            for x in frontier:
                for g in gens:
                    y = (x * g) % v
                    if y not in have:
                        have.add(y)
                        new.append(y)
            frontier = new
        if len(have) == target:
            break
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
        lines = []
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if line:
                lines.append(line)
    if not lines:
        raise ValueError(f"{path}: empty group file")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "degree":
        raise ValueError(f"{path}: first line must be 'degree v'")
    v = int(head[1])
    if v < 1:
        raise ValueError(f"{path}: bad degree {v}")
    gens = [parse_permutation(s, v) for s in lines[1:]]
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
