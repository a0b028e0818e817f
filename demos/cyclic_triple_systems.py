#!/usr/bin/env python3
"""Desk-scale tour: cyclic Steiner triple systems and symmetry breaking.

For STS(13) and STS(19) under the full cycle, this walks the three
encodings of the search:

  a) plain exact cover over the good triple orbits;
  b) an extra item forcing one normalizer-class representative per
     solution;
  c) additionally, colored secondary items that discard the classes of
     earlier representatives.

The encodings find fewer and fewer solutions while classifying to the
same designs; the normalizer of the cyclic group (the affine maps
x -> a*x + b) is what makes the pruning sound.
"""

from kmsteiner.designs import classify, expand, verify_steiner
from kmsteiner.km import build_km
from kmsteiner.orbitgen import good_k_orbit_reps, t_orbit_reps
from kmsteiner.perm import cyclic_group, normalizer_of_cyclic
from kmsteiner.symbreak import decode_solution, encode, normalizer_classes
from kmsteiner.xcc import solve_all


def run(v):
    G = cyclic_group(v)
    N = normalizer_of_cyclic(v)
    print(f"\n== STS({v}) under the cyclic group ==")
    print(f"|G| = {G.order()}, |N(G)| = {N.order()}")

    tro = t_orbit_reps(G, v, 2)
    ko = good_k_orbit_reps(G, v, 3, 2)
    print(f"pair orbits: {len(tro)}; good triple orbits: {len(ko.reps)}")
    km = build_km(G, tro, ko)
    classes = normalizer_classes(N, ko, G)
    print(f"normalizer classes of triple orbits: {classes.n_classes} "
          f"(representatives {classes.reps})")

    for kind in "abc":
        enc = encode(km, classes if kind != "a" else None, kind)
        sols, stats = solve_all(enc.problem)
        designs = [expand(decode_solution(s, enc), ko, G) for s in sols]
        assert all(verify_steiner(d, 2).ok for d in designs)
        cls = classify(designs, known_autos=G.generators)
        auts = sorted(c.aut_order for c in cls)
        print(f"  encoding {kind}: {stats.solutions:3d} solutions, "
              f"{len(cls)} classes, |Aut| = {auts}")


def main():
    run(13)
    run(19)


if __name__ == "__main__":
    main()
