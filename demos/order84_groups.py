#!/usr/bin/env python3
"""Desk-scale tour: the fifteen groups of order 84 on 7 + 84 points.

Each group is a semidirect product of the normal C7 with one of the five
groups of order 12, twisted by a homomorphism into the units mod 7.  The
27 (complement, twist) pairs collapse to 15 isomorphism classes; every
class has a unique conjugacy class of order-12 subgroups and therefore a
single faithful action with point orbits of sizes 7 and 84.

Also builds each normalizer in S_91 and prints its order.
"""

from kmsteiner.order84 import (
    EXPECTED_NORMALIZER_ORDER,
    enumerate_order84_groups,
    normalizer_in_s91,
    valid_phis,
)
from kmsteiner.perm import verify_normalizes

# the isomorphism type of each group
STRUCTURES = {
    "G1": "C7 : C12",
    "G2": "C4 x (C7 : C3)",
    "G3": "C7 x (C3 : C4)",
    "G4": "C3 x (C7 : C4)",
    "G5": "C21 : C4",
    "G6": "C84",
    "G7": "C2 x (C7 : C6)",
    "G8": "S3 x D14",
    "G9": "C2 x C2 x (C7 : C3)",
    "G10": "C7 x A4",
    "G11": "(C14 x C2) : C3",
    "G12": "C6 x D14",
    "G13": "C14 x S3",
    "G14": "D84",
    "G15": "C42 x C2",
}


def main():
    print("homomorphism counts into the units mod 7:")
    total = 0
    for name in ("C12", "C6xC2", "D12", "A4", "Dic3"):
        n = len(valid_phis(name))
        total += n
        print(f"  {name:6s}: {n}")
    print(f"  total pairs: {total} -> 15 isomorphism classes\n")

    print(f"{'label':6s} {'structure':28s} {'complement':10s} {'twist':10s} "
          f"{'|N(G)|':>8s}")
    for rec in enumerate_order84_groups():
        N = normalizer_in_s91(rec)
        n_order = N.order()
        assert n_order == EXPECTED_NORMALIZER_ORDER[rec.label]
        assert verify_normalizes(N, rec.group)
        print(f"{rec.label:6s} {STRUCTURES[rec.label]:28s} {rec.h_name:10s} "
              f"{str(rec.phi):10s} {n_order:8d}")


if __name__ == "__main__":
    main()
