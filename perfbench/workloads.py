"""The benchmark's workloads: inputs made from a seed, one pipeline per
instance, and the checks on every output.

Every workload is a closed loop with one client: instances run one after
another in one process with ``jobs=1``.  The seed picks a relabeling of
the points, applied to both the prescribed group G and its normalizer N
(see ``seed_relabeling``).  Seed 0 keeps the original labels.

Library calls go through module attributes (``orbitgen.t_orbit_reps``)
so that the tracer's wrappers see them.  Import this module only after
``checkout.import_library()``.
"""

from __future__ import annotations

import os
import random
import shutil
from dataclasses import dataclass, field

from kmsteiner import cli, designs, km, orbitgen, symbreak, xcc
from kmsteiner.perm import (
    Permutation,
    PermutationGroup,
    cyclic_group,
    normalizer_of_cyclic,
    read_group_file,
    write_group_file,
)

from checkout import FIXTURES


def seed_relabeling(N: PermutationGroup, seed: int) -> list:
    """0-based point map chosen by the seed: a random word in N's generators.

    Conjugating by an element of N maps G onto itself as a set, so orbit
    representatives, the KM matrix, the search and the designs stay the
    same and only the generators of G and N change.  A free relabeling
    would change the work with the seed: over seeds 0-5 the solutions
    S(2,4,73) reaches in 100,000 nodes ranged from 1,712 to 2,624, and
    over seeds 201-206 classify-mix took from 8 s to 14 s at equal host
    speed, because the canonizer's search follows the labels.  The invariants the checks
    pin hold under any relabeling; test_smoke.py checks that.
    """
    rng = random.Random(seed)
    sigma = list(range(N.degree))
    for _ in range(32 if seed else 0):
        g = rng.choice(N.generators).raw()
        sigma = [g[x] for x in sigma]
    return sigma


def relabel(G: PermutationGroup, sigma: list) -> PermutationGroup:
    """The conjugate group: g' maps sigma(x) to sigma(g(x))."""
    gens = []
    for g in G.generators:
        img = [0] * G.degree
        for x, gx in enumerate(g.raw()):
            img[sigma[x]] = sigma[gx]
        gens.append(Permutation(img))
    return PermutationGroup(gens, G.degree)


@dataclass
class Instance:
    """One pipeline to run: its label, inputs and expected invariants."""

    label: str
    inputs: dict
    expected: dict
    workdir: str = ""


@dataclass
class Outcome:
    """What a run of one instance produced, for the checks."""

    failures: list = field(default_factory=list)
    summary: tuple = ()  # must repeat exactly for one seed
    artifact_bytes: int = 0


# ---------------------------------------------------------------------------
# order84-cli: the five kmsteiner stages through cli.main


STAGES = ("orbits", "km", "encode", "solve", "classify")


class CliPipeline:
    """Group-file instances run stage by stage through ``cli.main``.

    ``groups`` holds (label, published good orbits, |N|, Ncal, designs).
    """

    def __init__(self, name, groups, v, k, t):
        self.name = name
        self.groups = groups
        self.v, self.k, self.t = v, k, t

    def setup(self, seed: int, workdir: str) -> list:
        out = []
        for label, orbits, n_order, ncal, n_designs in self.groups:
            G = read_group_file(FIXTURES / "groups" / f"{label}.grp")
            N = read_group_file(FIXTURES / "normalizers" / f"{label}.grp")
            sigma = seed_relabeling(N, seed)
            G, N = relabel(G, sigma), relabel(N, sigma)
            inst_dir = os.path.join(workdir, label)
            os.makedirs(inst_dir, exist_ok=True)
            write_group_file(os.path.join(inst_dir, f"{label}.grp"), G, f"{label}, seed {seed}")
            write_group_file(os.path.join(inst_dir, "N.grp"), N, f"normalizer of {label}")
            config = os.path.join(inst_dir, "run.cfg")
            with open(config, "w", encoding="utf-8") as fh:
                fh.write(
                    f"v = {self.v}\nk = {self.k}\nt = {self.t}\n"
                    f"group_file = {label}.grp\nnormalizer_file = N.grp\n"
                    "encoding = c\noutput_dir = out\n"
                )
            expected = {"row": [label, orbits, n_order, ncal, n_designs]}
            out.append(Instance(label, {"config": config}, expected, inst_dir))
        return out

    def run(self, inst: Instance):
        codes = []
        for stage in STAGES:
            codes.append(cli.main([stage, "--config", inst.inputs["config"], "--jobs", "1"]))
            if codes[-1] != cli.EXIT_OK:
                break
        return codes

    def check(self, inst: Instance, codes) -> Outcome:
        res = Outcome()
        if codes != [cli.EXIT_OK] * len(STAGES):
            res.failures.append(f"stage exit codes {codes}")
            return res
        text = cli.cmd_report([inst.inputs["config"]])
        row = text.splitlines()[1].split()
        if row != [str(x) for x in inst.expected["row"]]:
            res.failures.append(f"table row {row}, published {inst.expected['row']}")
        out = os.path.join(inst.workdir, "out")
        res.artifact_bytes = sum(
            os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(out) for f in files
        )
        res.summary = tuple(row)
        return res

    def cleanup(self, inst: Instance) -> None:
        shutil.rmtree(os.path.join(inst.workdir, "out"), ignore_errors=True)


# ---------------------------------------------------------------------------
# library path: orbits -> KM -> normalizer classes -> encoding c -> solve


def _cyclic_instances(specs, seed):
    out = []
    for spec in specs:
        v, k = spec["v"], spec["k"]
        G, N = cyclic_group(v), normalizer_of_cyclic(v)
        sigma = seed_relabeling(N, seed)
        G, N = relabel(G, sigma), relabel(N, sigma)
        out.append(Instance(f"S(2,{k},{v})", {"v": v, "k": k, "t": 2, "G": G, "N": N}, spec))
    return out


def _encoded(inputs):
    v, k, t, G, N = (inputs[x] for x in ("v", "k", "t", "G", "N"))
    tro = orbitgen.t_orbit_reps(G, v, t)
    ko = orbitgen.good_k_orbit_reps(G, v, k, t)
    matrix = km.build_km(G, tro, ko)
    classes = symbreak.normalizer_classes(N, ko, G)
    enc = symbreak.encode(matrix, classes, "c")
    return ko, classes, enc


def _check_invariants(res: Outcome, inst: Instance, ko, classes) -> None:
    exp = inst.expected
    if len(ko.reps) != exp["orbits"]:
        res.failures.append(f"{len(ko.reps)} good orbits, expected {exp['orbits']}")
    if classes.n_classes != exp["ncal"]:
        res.failures.append(f"{classes.n_classes} normalizer classes, expected {exp['ncal']}")


class Classify:
    """Cyclic instances solved completely and classified up to isomorphism.

    Each spec gives v, k and the expected good orbits, Ncal (normalizer
    classes) and multiset of automorphism group orders, one per class.
    """

    def __init__(self, name, specs):
        self.name = name
        self.specs = specs

    def setup(self, seed: int, workdir: str) -> list:
        return _cyclic_instances(self.specs, seed)

    def run(self, inst: Instance):
        G, t = inst.inputs["G"], inst.inputs["t"]
        ko, classes, enc = _encoded(inst.inputs)
        sols, stats = xcc.solve_all(enc.problem)
        found = [designs.expand(symbreak.decode_solution(s, enc), ko, G) for s in sols]
        reports = [designs.verify_steiner(d, t) for d in found]
        iso = designs.classify(found, known_autos=G.generators, jobs=1)
        return ko, classes, stats, reports, iso

    def check(self, inst: Instance, result) -> Outcome:
        ko, classes, stats, reports, iso = result
        res = Outcome()
        _check_invariants(res, inst, ko, classes)
        if not all(r.ok for r in reports):
            res.failures.append("a design fails verify_steiner")
        auts = sorted(c.aut_order for c in iso)
        if auts != sorted(inst.expected["aut_orders"]):
            res.failures.append(f"class aut orders {auts}, expected {inst.expected['aut_orders']}")
        designs_seen = sum(c.multiplicity for c in iso)
        res.summary = (len(ko.reps), classes.n_classes, stats.nodes, designs_seen, tuple(auts))
        return res

    def cleanup(self, inst: Instance) -> None:
        pass


class Search:
    """A capped search: solve to a node cap, then expand and verify every
    solution found, the work ``kmsteiner classify`` does before it
    canonizes.

    Each spec also gives the solutions found within the cap, which the
    seed does not change.
    """

    def __init__(self, name, specs, node_cap):
        self.name = name
        self.specs = specs
        self.node_cap = node_cap

    def setup(self, seed: int, workdir: str) -> list:
        return _cyclic_instances(self.specs, seed)

    def run(self, inst: Instance):
        G, t = inst.inputs["G"], inst.inputs["t"]
        ko, classes, enc = _encoded(inst.inputs)
        sols: list = []
        stats = xcc.solve(enc.problem, on_solution=sols.append, node_cap=self.node_cap)
        found = [designs.expand(symbreak.decode_solution(s, enc), ko, G) for s in sols]
        reports = [designs.verify_steiner(d, t) for d in found]
        return ko, classes, enc, stats, sols, reports

    def check(self, inst: Instance, result) -> Outcome:
        ko, classes, enc, stats, sols, reports = result
        res = Outcome()
        _check_invariants(res, inst, ko, classes)
        # the solver counts the node that trips the cap
        if not stats.limit_hit or stats.nodes != self.node_cap + 1:
            res.failures.append(f"{stats.nodes} nodes, expected the cap {self.node_cap} + 1")
        if not all(xcc.verify_solution(enc.problem, s.option_ids) for s in sols):
            res.failures.append("a solution fails xcc.verify_solution")
        if not all(r.ok for r in reports):
            res.failures.append("a design fails verify_steiner")
        if len(sols) != inst.expected["solutions"]:
            res.failures.append(f"{len(sols)} solutions, expected {inst.expected['solutions']}")
        res.summary = (len(ko.reps), classes.n_classes, stats.nodes, len(sols))
        return res

    def cleanup(self, inst: Instance) -> None:
        pass


# ---------------------------------------------------------------------------
# the workloads; expected values are invariant under relabeling


# Orbits, |N| and Ncal of G8 and G14 as published; neither admits a design.
ORDER84_CLI = CliPipeline(
    "order84-cli",
    [("G08", 2443, 21168, 23, 0), ("G14", 4265, 42336, 94, 0)],
    v=91, k=6, t=2,
)

# 2 / 7 / 8 / 2 / 1 classes: the cyclic STS(15), STS(21), STS(27) counts of
# Colbourn-Rosa, the two cyclic S(2,4,37), and PG(2,4) as the only cyclic
# S(2,5,21).  PG(3,2) has |Aut| = 20,160 and PG(2,4) has 120,960.
CLASSIFY_MIX = Classify(
    "classify-mix",
    [
        {"v": 15, "k": 3, "orbits": 25, "ncal": 5, "aut_orders": [60, 20160]},
        {"v": 21, "k": 3, "orbits": 55, "ncal": 8,
         "aut_orders": [21, 42, 126, 126, 504, 882, 1008]},
        {"v": 27, "k": 3, "orbits": 97, "ncal": 7, "aut_orders": [27] * 8},
        {"v": 37, "k": 4, "orbits": 1092, "ncal": 31, "aut_orders": [37, 111]},
        {"v": 21, "k": 5, "orbits": 2, "ncal": 1, "aut_orders": [120960]},
    ],
)

SEARCH_S2473 = Search(
    "search-s2473",
    [{"v": 73, "k": 4, "orbits": 11904, "ncal": 166, "solutions": 2080}],
    node_cap=100_000,
)

# Small copies of the three, for the smoke self-test: cyclic STS(13) and
# the Fano plane (the cyclic STS(7), |Aut| = 168).
SMOKE = (
    CliPipeline("smoke-cli", [("C13", 16, 156, 2, 1)], v=13, k=3, t=2),
    Classify(
        "smoke-classify",
        [
            {"v": 7, "k": 3, "orbits": 2, "ncal": 1, "aut_orders": [168]},
            {"v": 13, "k": 3, "orbits": 16, "ncal": 2, "aut_orders": [39]},
        ],
    ),
    Search(
        "smoke-search",
        [{"v": 13, "k": 3, "orbits": 16, "ncal": 2, "solutions": 1}],
        node_cap=4,
    ),
)

BENCHMARK = (ORDER84_CLI, CLASSIFY_MIX, SEARCH_S2473)
WORKLOADS = {w.name: w for w in (*BENCHMARK, *SMOKE)}
