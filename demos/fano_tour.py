#!/usr/bin/env python3
"""Desk-scale tour: build the Fano plane from scratch.

Runs the whole pipeline with the trivial prescribed group on 7 points,
where everything can be printed and checked by eye: the 21 pair orbits,
the 35 triples, the 21x35 exact cover instance, its 30 solutions, and the
single isomorphism class with automorphism group of order 168.
"""

from kmsteiner.designs import classify, expand, verify_steiner
from kmsteiner.km import build_km
from kmsteiner.orbitgen import good_k_orbit_reps, t_orbit_reps
from kmsteiner.perm import PermutationGroup
from kmsteiner.symbreak import decode_solution, encode
from kmsteiner.xcc import solve_all


def main():
    G = PermutationGroup.trivial(7)
    print("prescribed group: trivial on 7 points")

    tro = t_orbit_reps(G, 7, 2)
    ko = good_k_orbit_reps(G, 7, 3, 2)
    print(f"rows: {len(tro)} pair orbits, columns: {len(ko.reps)} triples")

    km = build_km(G, tro, ko)
    print(f"exact cover instance: {km.shape[0]} items x {km.shape[1]} options")
    print("first option covers pair orbits:", km.column(0))

    enc = encode(km, None, "a")
    sols, stats = solve_all(enc.problem)
    print(f"solutions: {stats.solutions} (the 30 labeled Fano planes), "
          f"{stats.nodes} search nodes")

    designs = [expand(decode_solution(s, enc), ko, G) for s in sols]
    assert all(verify_steiner(d, 2).ok for d in designs)
    classes = classify(designs)
    print(f"isomorphism classes: {len(classes)}; "
          f"|Aut| = {classes[0].aut_order}; "
          f"multiplicity = {classes[0].multiplicity}")
    print("canonical block list:")
    for blk in classes[0].representative.blocks.tolist():
        print("  ", tuple(blk))


if __name__ == "__main__":
    main()
