"""Groups of order 84 acting on 7 + 84 points, and their normalizers in S_91.

Every group of order 84 has a normal Sylow 7-subgroup, so it is a
semidirect product C7 x| H with H one of the five groups of order 12 and
a homomorphism phi from H into the units mod 7.  The permutation
representation puts the action on the cosets of H on points 1..7 and the
regular action on points 8..91.

The normalizer of such a group in S_91 is assembled from three kinds of
elements: right translations (the centralizer on the regular orbit),
coset right-translations by elements normalizing H (the centralizer on
the 7-point orbit), and simultaneous realizations of each automorphism of
the group on both orbits.  The result is validated against the
conjugation test and the expected order.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .perm import Permutation, PermutationGroup, StabilizerChain, _closure

__all__ = [
    "SmallGroup",
    "H_NAMES",
    "order12_group",
    "valid_phis",
    "build_order84_group",
    "Order84Record",
    "enumerate_order84_groups",
    "automorphism_perms",
    "normalizer_in_s91",
    "EXPECTED_NORMALIZER_ORDER",
    "TABLE_GROUPS",
    "TABLE_BENCH",
]

H_NAMES = ("C12", "C6xC2", "D12", "A4", "Dic3")

# |N(G_i)| in S_91, used to validate the construction
EXPECTED_NORMALIZER_ORDER = {
    "G1": 7056,
    "G2": 7056,
    "G3": 42336,
    "G4": 14112,
    "G5": 42336,
    "G6": 14112,
    "G7": 7056,
    "G8": 21168,
    "G9": 21168,
    "G10": 84672,
    "G11": 42336,
    "G12": 14112,
    "G13": 42336,
    "G14": 42336,
    "G15": 42336,
}

# published classification: label -> (good 6-orbits, |Ncal| normalizer
# classes, designs); |N(G)| is EXPECTED_NORMALIZER_ORDER[label]
TABLE_GROUPS = {
    "G1": (703591, 8509, 8),
    "G2": (637595, 7697, 8),
    "G3": (757275, 8985, 0),
    "G4": (883955, 5443, 0),
    "G5": (1279623, 2697, 0),
    "G6": (1011339, 35765, 0),
    "G7": (30191, 406, 0),
    "G8": (2443, 23, 0),
    "G9": (378903, 1593, 2),
    "G10": (409764, 2018, 0),
    "G11": (577269, 1184, 6),
    "G12": (61021, 444, 0),
    "G13": (278489, 2184, 0),
    "G14": (4265, 94, 0),
    "G15": (666585, 7162, 0),
}

# published solution counts per encoding: label -> {encoding: solutions}
TABLE_BENCH = {
    "G1": {"a": 672, "b": 56, "c": 8},
    "G2": {"a": 672, "b": 56, "c": 8},
    "G9": {"a": 504, "b": 43, "c": 2},
    "G11": {"a": 3024, "b": 241, "c": 6},
}


class SmallGroup:
    """Finite group as a multiplication table over opaque element labels."""

    def __init__(self, elements, mul_fn, gens):
        self.elements = list(elements)
        self.index = {e: i for i, e in enumerate(self.elements)}
        n = len(self.elements)
        self.n = n
        self.mul = [[0] * n for _ in range(n)]
        for i, a in enumerate(self.elements):
            row = self.mul[i]
            for j, b in enumerate(self.elements):
                row[j] = self.index[mul_fn(a, b)]
        self.e = next(
            i for i in range(n) if all(self.mul[i][j] == j for j in range(n))
        )
        self.inv = [0] * n
        for i in range(n):
            self.inv[i] = next(j for j in range(n) if self.mul[i][j] == self.e)
        self.order_of = [0] * n
        for i in range(n):
            x, o = i, 1
            while x != self.e:
                x = self.mul[x][i]
                o += 1
            self.order_of[i] = o
        self.gens = [self.index[g] for g in gens]

    def center_size(self) -> int:
        return sum(
            1
            for i in range(self.n)
            if all(self.mul[i][j] == self.mul[j][i] for j in range(self.n))
        )

    def is_abelian(self) -> bool:
        return self.center_size() == self.n


def order12_group(name: str) -> SmallGroup:
    """The five groups of order 12 with fixed generator lists."""
    if name == "C12":
        mul = lambda a, b: (a + b) % 12
        gens = [1]
        return SmallGroup(_closure(gens, mul, 0), mul, gens)
    if name == "C6xC2":
        mul = lambda a, b: ((a[0] + b[0]) % 6, (a[1] + b[1]) % 2)
        gens = [(1, 0), (0, 1)]
        return SmallGroup(_closure(gens, mul, (0, 0)), mul, gens)
    if name == "D12":
        # (i, s): rotation i composed with s reflections
        def mul(a, b):
            i, s = a
            j, t = b
            return ((i + j) % 6 if s == 0 else (i - j) % 6, (s + t) % 2)

        gens = [(1, 0), (0, 1)]
        return SmallGroup(_closure(gens, mul, (0, 0)), mul, gens)
    if name == "A4":
        mul = lambda a, b: tuple(a[b[i]] for i in range(4))
        gens = [(1, 2, 0, 3), (1, 0, 3, 2)]  # (0 1 2) and (0 1)(2 3)
        return SmallGroup(_closure(gens, mul, (0, 1, 2, 3)), mul, gens)
    if name == "Dic3":
        # (i, j) for a^i b^j with b^2 = a^3, b a b^-1 = a^-1
        def mul(a, b):
            i, s = a
            j, t = b
            jj = j if s == 0 else -j
            return ((i + jj + 3 * (s & t)) % 6, (s + t) % 2)

        gens = [(1, 0), (0, 1)]
        return SmallGroup(_closure(gens, mul, (0, 0)), mul, gens)
    raise ValueError(f"unknown order-12 group {name!r}")


# multiplication mod 7 as a table, for maps into the units mod 7
_MUL_MOD_7 = [[a * b % 7 for b in range(7)] for a in range(7)]


def _extend(A: SmallGroup, imgs, identity, mul) -> list | None:
    """The map on A that sends the identity to identity and x g to
    mul[phi(x)][img] for each generator g with image img, built along a
    walk from the identity; None if the walk reaches an element twice
    with different values, or misses one.  The walk checks that rule for
    every element x and generator g, so a map it returns is a homomorphism."""
    phi = [None] * A.n
    phi[A.e] = identity
    frontier = [A.e]
    while frontier:
        new = []
        for x in frontier:
            for g, img in zip(A.gens, imgs):
                y = A.mul[x][g]
                val = mul[phi[x]][img]
                if phi[y] is None:
                    phi[y] = val
                    new.append(y)
                elif phi[y] != val:
                    return None
        frontier = new
    return None if None in phi else phi


def valid_phis(name: str) -> list:
    """All homomorphisms H -> units mod 7, as generator-image tuples."""
    H = order12_group(name)
    units = (1, 2, 3, 4, 5, 6)
    out = []
    for imgs in iproduct(units, repeat=len(H.gens)):
        if _extend(H, imgs, 1, _MUL_MOD_7) is not None:
            out.append(imgs)
    return out


def _semidirect_table(name: str, phi_imgs: tuple) -> tuple:
    """Multiplication table of C7 x| H; returns (SmallGroup, H, phi list)."""
    H = order12_group(name)
    phi = _extend(H, [p % 7 for p in phi_imgs], 1, _MUL_MOD_7)
    if phi is None:
        raise ValueError(f"invalid phi {phi_imgs} for {name}: relations violated")

    def mul(a, b):
        x1, h1 = a
        x2, h2 = b
        return ((x1 + phi[h1] * x2) % 7, H.mul[h1][h2])

    elements = [(x, h) for x in range(7) for h in range(H.n)]
    gens = [(1, H.e)] + [(0, g) for g in H.gens]
    G = SmallGroup(elements, mul, gens)
    return G, H, phi


def _perm_rep_91(G: SmallGroup) -> list:
    """Permutations of 91 points for the designated generators of G:
    points 1..7 are the cosets of H (indexed by the C7 coordinate),
    points 8..91 carry the regular action by left translation."""
    out = []
    he = _h_identity(G)
    # element (x, h) lies in coset x of the complement
    for g in G.gens:
        img = [0] * 91
        for y in range(7):
            ge = G.mul[g][G.index[(y, he)]]
            img[y] = G.elements[ge][0]
        for e in range(G.n):
            img[7 + e] = 7 + G.mul[g][e]
        out.append(Permutation(img))
    return out


def _h_identity(G: SmallGroup):
    return G.elements[G.e][1]


@dataclass
class Order84Record:
    label: str
    h_name: str
    phi: tuple
    table: SmallGroup
    group: PermutationGroup


def _classify_label(G: SmallGroup) -> str:
    """Identify the isomorphism class of an order-84 group by invariants."""
    orders = set(G.order_of)
    z = G.center_size()
    if G.is_abelian():
        return "G6" if 84 in orders else "G15"
    if z == 7:
        return "G10"
    if z == 14:
        return "G3" if 4 in orders else "G13"
    if z == 6:
        return "G4" if 4 in orders else "G12"
    if z == 4:
        zc = [i for i in range(G.n) if all(G.mul[i][j] == G.mul[j][i] for j in range(G.n))]
        cyclic4 = any(G.order_of[i] == 4 for i in zc)
        return "G2" if cyclic4 else "G9"
    if z == 1:
        return "G8" if 21 in orders else "G11"
    if z == 2:
        if 12 in orders:
            return "G1"
        if 4 in orders:
            return "G5"
        if 42 in orders:
            return "G14"
        return "G7"
    raise AssertionError(f"unclassifiable order-84 group (|Z|={z})")


def build_order84_group(h_name: str, phi) -> PermutationGroup:
    """C7 x|_phi H on 91 points; phi gives the images of H's generators in
    the units mod 7 and is verified against the relations of H."""
    if h_name not in H_NAMES:
        raise ValueError(f"unknown complement {h_name!r}; choose from {H_NAMES}")
    G, _, _ = _semidirect_table(h_name, tuple(phi))
    return PermutationGroup(_perm_rep_91(G), 91)


def enumerate_order84_groups() -> list:
    """Build all (H, phi) pairs, deduplicate by abstract isomorphism and
    label the classes; exactly 15 records are returned, ordered G1..G15."""
    records: dict = {}
    for name in H_NAMES:
        for phi in valid_phis(name):
            table, _, _ = _semidirect_table(name, phi)
            label = _classify_label(table)
            if label in records:
                continue
            group = PermutationGroup(_perm_rep_91(table), 91)
            records[label] = Order84Record(
                label=label, h_name=name, phi=phi, table=table, group=group
            )
    if len(records) != 15:
        raise AssertionError(f"expected 15 classes, got {sorted(records)}")
    return [records[f"G{i}"] for i in range(1, 16)]


# ---------------------------------------------------------------------------
# automorphisms and normalizers


def _isomorphisms(A: SmallGroup, B: SmallGroup):
    """Every isomorphism A -> B as a tuple of element indices.

    Brute force over the images of A's generators (elements of B of the
    same orders); each choice that extends to a homomorphism (``_extend``)
    and is injective is an isomorphism.
    """
    candidates = [
        [i for i in range(B.n) if B.order_of[i] == A.order_of[g]] for g in A.gens
    ]
    for imgs in iproduct(*candidates):
        phi = _extend(A, imgs, B.e, B.mul)
        if phi is not None and len(set(phi)) == A.n:
            yield tuple(phi)


def automorphism_perms(G: SmallGroup) -> list:
    """All automorphisms of G as permutations of element indices;
    complete search, feasible at order 84."""
    return list(_isomorphisms(G, G))


def _reduce_generators(perms: list, degree: int) -> list:
    """Greedy generating subset: keep permutations that grow the group."""
    chain = StabilizerChain([], degree)
    return [p for p in perms if chain.add(p.raw())]


def normalizer_in_s91(record: Order84Record) -> PermutationGroup:
    """Normalizer of the constructed group in S_91.

    Generators: the group itself; right translations on the regular orbit
    (identity on the coset orbit); coset right-translations by elements
    normalizing the complement (identity on the regular orbit); and one
    simultaneous realization per automorphism.  The caller validates the
    result with the conjugation test and the expected order.
    """
    G = record.table
    he = _h_identity(G)
    h_set = frozenset(i for i in range(G.n) if G.elements[i][0] == 0)

    gens: list = list(record.group.generators)

    # right translations rho_g: identity on cosets, e -> e*g on the regular orbit
    for g in G.gens:
        img = list(range(91))
        for e in range(G.n):
            img[7 + e] = 7 + G.mul[e][g]
        gens.append(Permutation(img))

    # coset right-translations by n in N_G(H): x H -> x n H, identity on
    # the regular orbit
    for n in range(G.n):
        ni = G.inv[n]
        if frozenset(G.mul[G.mul[n][x]][ni] for x in h_set) != h_set:
            continue
        img = list(range(91))
        for y in range(7):
            ye = G.index[(y, he)]
            img[y] = G.elements[G.mul[ye][n]][0]
        gens.append(Permutation(img))

    # realizations of automorphisms on both orbits
    autos = automorphism_perms(G)
    for alpha in autos:
        alpha_h = frozenset(alpha[x] for x in h_set)
        d = next(
            g
            for g in range(G.n)
            if frozenset(G.mul[G.mul[g][x]][G.inv[g]] for x in h_set) == alpha_h
        )
        img = [0] * 91
        for y in range(7):
            ye = G.index[(y, he)]
            img[y] = G.elements[G.mul[alpha[ye]][d]][0]
        for e in range(G.n):
            img[7 + e] = 7 + alpha[e]
        gens.append(Permutation(img))

    reduced = _reduce_generators(gens, 91)
    return PermutationGroup(reduced, 91)
