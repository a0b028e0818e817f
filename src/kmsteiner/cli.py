"""Pipeline orchestration: stage commands, plain-text configs, persisted
artifacts, one run record per output directory, and report tables.

Stages (orbits -> km -> encode -> solve -> classify) are resumable and
idempotent.  Each stage sets its entry in ``run.json`` in the output
directory: the configuration fingerprint, the artifacts it wrote, its
counts and its seconds.  A stage checks the entries of the stages whose
artifacts it reads, so artifacts from different configurations cannot be
mixed, and ``report`` reads its tables from the record.  Apart from the
``seconds`` fields, the record and every artifact are byte-identical
across reruns.  ``kmsteiner xcc solve FILE`` solves a problem file on its
own.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import sys
import time
from dataclasses import MISSING, dataclass, fields
from math import comb

import numpy as np

from . import designs as designs_mod
from . import km as km_mod
from . import orbitgen, symbreak, xcc
from .perm import (
    PermutationGroup,
    read_group_file,
)

log = logging.getLogger("kmsteiner")

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_RESOURCE = 2


class ValidationError(Exception):
    pass


class ResourceCapHit(Exception):
    pass


def check_admissible(v: int, k: int, t: int) -> list:
    """Violated divisibility conditions for Steiner parameters, as messages.

    For t=2 these are the classical conditions (k-1) | (v-1) and
    k(k-1) | v(v-1); for general t each lambda_i = C(v-i,t-i)/C(k-i,t-i)
    must be an integer.
    """
    problems = []
    if not (0 < t < k < v):
        problems.append(f"need 0 < t < k < v, got t={t} k={k} v={v}")
        return problems
    for i in range(t - 1, -1, -1):
        den = comb(k - i, t - i)
        num = comb(v - i, t - i)
        if num % den != 0:
            if t == 2 and i == 1:
                problems.append(f"(k-1) does not divide (v-1): {k - 1} does not divide {v - 1}")
            elif t == 2 and i == 0:
                problems.append(
                    f"k(k-1) does not divide v(v-1): {k * (k - 1)} does not divide {v * (v - 1)}"
                )
            else:
                problems.append(
                    f"C(k-{i},{t - i})={den} does not divide C(v-{i},{t - i})={num}"
                )
    return problems


@dataclass
class JobConfig:
    v: int
    k: int
    t: int
    group_file: str
    output_dir: str
    normalizer_file: str | None = None
    encoding: str = "a"
    node_cap: int | None = None
    time_cap: float | None = None
    solution_limit: int | None = None
    label: str | None = None
    path: str = ""  # the config file itself, not a key

    @classmethod
    def load(cls, path) -> "JobConfig":
        keys = {f.name: f for f in fields(cls) if f.name != "path"}
        raw: dict = {}
        with open(path, "r", encoding="utf-8") as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValidationError(f"{path}:{ln}: expected key = value")
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if key not in keys:
                    raise ValidationError(f"{path}:{ln}: unknown key {key!r}")
                raw[key] = val
        for req in (name for name, f in keys.items() if f.default is MISSING):
            if req not in raw:
                raise ValidationError(f"{path}: missing required key {req!r}")
        base = os.path.dirname(os.path.abspath(path))

        def rel(p):
            return p if os.path.isabs(p) else os.path.join(base, p)

        cfg = cls(
            v=int(raw["v"]),
            k=int(raw["k"]),
            t=int(raw["t"]),
            group_file=rel(raw["group_file"]),
            output_dir=rel(raw["output_dir"]),
            normalizer_file=rel(raw["normalizer_file"]) if "normalizer_file" in raw else None,
            encoding=raw.get("encoding", "a"),
            node_cap=int(raw["node_cap"]) if "node_cap" in raw else None,
            time_cap=float(raw["time_cap"]) if "time_cap" in raw else None,
            solution_limit=int(raw["solution_limit"]) if "solution_limit" in raw else None,
            label=raw.get("label"),
            path=os.path.abspath(path),
        )
        cfg.validate()
        return cfg

    def validate(self) -> None:
        violations = check_admissible(self.v, self.k, self.t)
        if violations:
            raise ValidationError("inadmissible parameters: " + "; ".join(violations))
        if self.encoding not in ("a", "b", "c"):
            raise ValidationError(f"encoding must be a, b or c, not {self.encoding!r}")
        if not os.path.exists(self.group_file):
            raise ValidationError(f"group file {self.group_file} does not exist")
        if self.encoding in ("b", "c") and not self.normalizer_file:
            raise ValidationError(f"encoding {self.encoding} requires normalizer_file")
        if self.normalizer_file and not os.path.exists(self.normalizer_file):
            raise ValidationError(f"normalizer file {self.normalizer_file} does not exist")
        if self.node_cap is not None and self.node_cap < 0:
            raise ValidationError(f"node_cap must be non-negative, not {self.node_cap}")
        if self.time_cap is not None and not self.time_cap >= 0:  # NaN fails too
            raise ValidationError(f"time_cap must be non-negative, not {self.time_cap}")
        if self.solution_limit is not None and self.solution_limit < 1:
            raise ValidationError(f"solution_limit must be at least 1, not {self.solution_limit}")
        try:
            read_group_file(self.group_file)
            if self.normalizer_file:
                read_group_file(self.normalizer_file)
        except ValueError as exc:
            raise ValidationError(str(exc)) from None

    def group(self) -> PermutationGroup:
        G = read_group_file(self.group_file)
        if G.degree != self.v:
            raise ValidationError(
                f"group degree {G.degree} does not match v={self.v}"
            )
        return G

    def normalizer(self) -> PermutationGroup:
        if not self.normalizer_file:
            raise ValidationError("no normalizer_file configured")
        N = read_group_file(self.normalizer_file)
        if N.degree != self.v:
            raise ValidationError("normalizer degree does not match v")
        return N

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(f"{self.v}|{self.k}|{self.t}|{self.encoding}|".encode())
        with open(self.group_file, "rb") as fh:
            h.update(fh.read())
        h.update(b"|")
        if self.normalizer_file:
            with open(self.normalizer_file, "rb") as fh:
                h.update(fh.read())
        return h.hexdigest()[:16]

    def out(self, name: str) -> str:
        return os.path.join(self.output_dir, name)


# -- run record ---------------------------------------------------------------

RECORD = "run.json"


def _read_record(cfg: JobConfig) -> dict:
    path = cfg.out(RECORD)
    if not os.path.exists(path):
        return {"stages": {}}
    with open(path, "r", encoding="utf-8") as fh:
        record = json.load(fh)
    if not isinstance(record, dict) or not isinstance(record.get("stages"), dict):
        raise ValidationError(f"{path}: malformed run record")
    return record


def _record_stage(cfg: JobConfig, stage: str, t0: float, artifacts, **counts) -> None:
    """Set the entry of a stage that started at perf_counter ``t0`` in the
    run record; the file is replaced whole."""
    record = _read_record(cfg)
    record["stages"][stage] = {
        "fingerprint": cfg.fingerprint(),
        "artifacts": artifacts,
        "counts": counts,
        "seconds": round(time.perf_counter() - t0, 3),
    }
    tmp = cfg.out(RECORD + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, cfg.out(RECORD))


def _check_record(cfg: JobConfig, stages) -> None:
    """Each stage must be recorded under this config, with its artifacts present."""
    entries = _read_record(cfg)["stages"]
    fp = cfg.fingerprint()
    for stage in stages:
        if stage not in entries:
            raise ValidationError(f"stage {stage} not recorded in {cfg.output_dir}; run it first")
        entry = entries[stage]
        if entry["fingerprint"] != fp:
            raise ValidationError(
                f"parameter hash mismatch for {stage}: record {entry['fingerprint']}, config {fp}"
            )
        for art in entry["artifacts"]:
            if not os.path.exists(cfg.out(art)):
                raise ValidationError(f"artifact {art} missing from {cfg.output_dir}")


# -- stages -------------------------------------------------------------------


def _orbit_shard(args):
    group_file, v, k, t, idx, njobs = args
    G = read_group_file(group_file)
    s = orbitgen.good_k_orbit_reps(G, v, k, t, shard=(idx, njobs))
    return s.reps, s.sizes


def cmd_orbits(cfg: JobConfig, jobs: int = 1) -> None:
    os.makedirs(cfg.output_dir, exist_ok=True)
    G = cfg.group()
    t0 = time.perf_counter()
    tro = orbitgen.t_orbit_reps(G, cfg.v, cfg.t)
    log.info("t-orbits: %d", len(tro))
    if jobs > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=jobs) as pool:
            parts = list(pool.map(
                _orbit_shard,
                [(cfg.group_file, cfg.v, cfg.k, cfg.t, i, jobs) for i in range(jobs)],
            ))
        reps = np.concatenate([r for r, _ in parts])
        sizes = np.concatenate([s for _, s in parts])
        order = np.lexsort(reps.T[::-1])  # rows in lex order
        ko = orbitgen.OrbitSet(cfg.v, cfg.t, reps[order], sizes[order], G.fingerprint())
    else:
        ko = orbitgen.good_k_orbit_reps(G, cfg.v, cfg.k, cfg.t)
    log.info("good k-orbits: %d", len(ko))
    glabel = os.path.basename(cfg.group_file)
    orbitgen.write_orbit_file(cfg.out("torbits.txt"), cfg.v, cfg.k, cfg.t, tro, glabel)
    orbitgen.write_orbit_file(cfg.out("korbits.txt"), cfg.v, cfg.k, cfg.t, ko, glabel)
    _record_stage(cfg, "orbits", t0, ["torbits.txt", "korbits.txt"],
                  t_orbits=len(tro), good_orbits=len(ko))


def _load_orbits(cfg: JobConfig):
    """G and the t- and good k-orbit sets read back from the orbit files."""
    _check_record(cfg, ["orbits"])
    G = cfg.group()
    sets = []
    for name, size in (("torbits.txt", cfg.t), ("korbits.txt", cfg.k)):
        v, k, t, _, reps, sizes = orbitgen.read_orbit_file(cfg.out(name), size)
        if (v, k, t) != (cfg.v, cfg.k, cfg.t):
            raise ValidationError("orbit file parameters disagree with config")
        sets.append(orbitgen.OrbitSet(v, t, reps, sizes, G.fingerprint()))
    return G, *sets


def _load_km(cfg: JobConfig, tro, kset) -> km_mod.KMInstance:
    """The matrix from km.txt, checked against the loaded orbit files."""
    _check_record(cfg, ["km"])
    m, n, v, k, t, sizes, indptr, rows = km_mod.read_km_file(cfg.out("km.txt"))
    if (m, n, v, k, t) != (len(tro), len(kset), cfg.v, cfg.k, cfg.t):
        raise ValidationError(
            f"km.txt header {m} {n} {v} {k} {t} disagrees with the orbit files "
            f"{len(tro)} {len(kset)} {cfg.v} {cfg.k} {cfg.t}"
        )
    if sizes != kset.sizes.tolist():
        raise ValidationError("km.txt column sizes disagree with korbits.txt")
    return km_mod.KMInstance(t_orbits=tro, k_orbits=kset, col_indptr=indptr, col_rows=rows)


def cmd_km(cfg: JobConfig) -> None:
    G, tro, kset = _load_orbits(cfg)
    t0 = time.perf_counter()
    km = km_mod.build_km(G, tro, kset)
    km_mod.write_km_file(cfg.out("km.txt"), km)
    log.info("KM matrix: %d x %d", *km.shape)
    m, n = km.shape
    _record_stage(cfg, "km", t0, ["km.txt"], rows=m, columns=n, entries=len(km.col_rows))


def cmd_encode(cfg: JobConfig) -> None:
    G, tro, kset = _load_orbits(cfg)
    t0 = time.perf_counter()
    km = _load_km(cfg, tro, kset)
    classes = None
    if cfg.encoding in ("b", "c"):
        classes = symbreak.normalizer_classes(cfg.normalizer(), kset, G)
        log.info("normalizer classes: %d", classes.n_classes)
    enc = symbreak.encode(km, classes, cfg.encoding)
    with open(cfg.out("xcc.txt"), "w", encoding="utf-8") as fh:
        fh.write(xcc.export_text(enc.problem))
    symbreak.write_copy_map(cfg.out("copymap.txt"), enc.copy_map)
    counts = {
        "primary": len(enc.problem.primary),
        "secondary": len(enc.problem.secondary),
        "options": enc.problem.n_options,
    }
    log.info("encoding %s: %d+%d items, %d options", cfg.encoding, *counts.values())
    if classes is not None:
        counts["classes"] = classes.n_classes
    _record_stage(cfg, "encode", t0, ["xcc.txt", "copymap.txt"], **counts)


def cmd_solve(cfg: JobConfig, limit: int | None = None) -> None:
    if limit is not None and limit < 1:
        raise ValidationError(f"--limit must be at least 1, not {limit}")
    _check_record(cfg, ["encode"])
    t0 = time.perf_counter()
    with open(cfg.out("xcc.txt"), "r", encoding="utf-8") as fh:
        problem = xcc.import_text(fh.read())
    log.info("solving %s", problem)
    sols: list = []
    report = _ProgressLog("%d nodes, %.0f nodes/s, depth %d, root branch %d of %d")
    start = time.perf_counter()
    stats = xcc.solve(
        problem,
        limit=limit if limit is not None else cfg.solution_limit,
        on_solution=sols.append,
        node_cap=cfg.node_cap,
        time_cap=cfg.time_cap,
        progress=lambda nodes, *where: report(
            nodes, nodes / (time.perf_counter() - start), *where),
    )
    with open(cfg.out("solutions.txt"), "w", encoding="utf-8") as fh:
        for s in sols:
            fh.write(" ".join(str(o) for o in s.option_ids) + "\n")
    log.info(
        "solutions=%d nodes=%d seconds=%.3f", stats.solutions, stats.nodes, stats.elapsed
    )
    _record_stage(cfg, "solve", t0, ["solutions.txt"], solutions=stats.solutions,
                  nodes=stats.nodes, limit_hit=stats.limit_hit)
    if stats.limit_hit:
        raise ResourceCapHit("solver stopped at a node, time or solution cap")


PROGRESS_SECONDS = 10.0


class _ProgressLog:
    """Progress callback that logs its arguments through the message
    format, at most once per ``PROGRESS_SECONDS``."""

    def __init__(self, message: str):
        self.message = message
        self.last = time.monotonic()

    def __call__(self, *args) -> None:
        now = time.monotonic()
        if now - self.last >= PROGRESS_SECONDS:
            self.last = now
            log.info(self.message, *args)


def cmd_classify(cfg: JobConfig, jobs: int = 1) -> None:
    G, tro, kset = _load_orbits(cfg)
    _check_record(cfg, ["encode", "solve"])
    t0 = time.perf_counter()
    if _read_record(cfg)["stages"]["solve"]["counts"]["limit_hit"]:
        log.warning("the solve stopped at a cap: its solutions, and so the classes, "
                    "may be incomplete")
    copy_map = symbreak.read_copy_map(cfg.out("copymap.txt"))
    solutions = []
    with open(cfg.out("solutions.txt"), "r", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                solutions.append(tuple(int(x) for x in line.split()))
    all_designs = []
    for opt_ids in solutions:
        orbit_ids = {copy_map.get(o, o) for o in opt_ids}
        d = designs_mod.expand(orbit_ids, kset, G)
        rep = designs_mod.verify_steiner(d, cfg.t)
        if not rep.ok:
            raise ValidationError(f"solution {opt_ids} is not a Steiner design: {rep.violations[:3]}")
        all_designs.append(d)
    classes = designs_mod.classify(all_designs, known_autos=G.generators, jobs=jobs,
                                   progress=_ProgressLog("canonized design %d of %d, %d nodes"))
    os.makedirs(cfg.out("designs"), exist_ok=True)
    for name in os.listdir(cfg.out("designs")):
        if name.startswith("design_") and name.endswith(".txt"):
            os.remove(cfg.out(os.path.join("designs", name)))
    with open(cfg.out("classes.txt"), "w", encoding="utf-8") as fh:
        for i, cl in enumerate(classes, start=1):
            designs_mod.write_design_file(
                cfg.out(os.path.join("designs", f"design_{i:02d}.txt")),
                cl.representative,
            )
            cert = hashlib.sha256(cl.certificate).hexdigest()[:16]
            fh.write(
                f"class {i} aut_order={cl.aut_order} multiplicity={cl.multiplicity} "
                f"certificate={cert}\n"
            )
    designs_mod.write_gap_designs(
        cfg.out("designs.gap"), [cl.representative for cl in classes]
    )
    canon_nodes = sum(cl.nodes for cl in classes)
    log.info("%d solutions -> %d isomorphism classes, %d canonization nodes",
             len(solutions), len(classes), canon_nodes)
    _record_stage(cfg, "classify", t0, ["classes.txt", "designs.gap", "designs"],
                  solutions=len(solutions), classes=len(classes), canon_nodes=canon_nodes)


def cmd_report(cfg_paths, out_stream=None) -> str:
    """Summary and benchmark tables over one or more completed runs, read
    from their run records; "-" marks a stage not yet run, and "+" after
    the solution and design counts a solve stopped at a cap."""
    rows = []
    for path in cfg_paths:
        cfg = JobConfig.load(path)
        label = cfg.label or os.path.splitext(os.path.basename(cfg.group_file))[0]
        stages = _read_record(cfg)["stages"]

        capped = "+" if "solve" in stages and stages["solve"]["counts"]["limit_hit"] else ""

        def count(stage, key, mark=""):
            return str(stages[stage]["counts"][key]) + mark if stage in stages else "-"

        n_order = "-"
        if cfg.normalizer_file and os.path.exists(cfg.normalizer_file):
            n_order = str(cfg.normalizer().order())
        enc = stages["encode"]["counts"] if "encode" in stages else {}
        rows.append(
            {
                "group": label,
                "method": cfg.encoding,
                "orbits": count("orbits", "good_orbits"),
                "normalizer": n_order,
                "nreps": str(enc["classes"]) if enc.get("classes") else "-",
                "designs": count("classify", "classes", capped),
                "items": f"{enc['primary']}+{enc['secondary']}" if enc else "-",
                "options": count("encode", "options"),
                "solutions": count("solve", "solutions", capped),
                "nodes": count("solve", "nodes"),
                "seconds": f"{stages['solve']['seconds']:.3f}" if "solve" in stages else "-",
            }
        )
    lines = ["group        orbits      |N|     |Ncal|  designs"]
    seen = set()
    for r in rows:
        if r["group"] in seen:
            continue
        seen.add(r["group"])
        lines.append(
            f"{r['group']:<12} {r['orbits']:>9} {r['normalizer']:>8} "
            f"{r['nreps']:>8} {r['designs']:>8}"
        )
    lines.append("")
    lines.append("group        method  items        options     sols      nodes    seconds")
    for r in rows:
        lines.append(
            f"{r['group']:<12} {r['method']:<7} {r['items']:<12} {r['options']:>9} "
            f"{r['solutions']:>8} {r['nodes']:>10} {r['seconds']:>10}"
        )
    text = "\n".join(lines) + "\n"
    if out_stream is not None:
        out_stream.write(text)
    return text


# -- entry points --------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kmsteiner",
        description="Steiner design construction with prescribed automorphism groups",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("orbits", "km", "encode", "solve", "classify"):
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--jobs", type=int, default=1,
                        help="worker processes; used by orbits and classify, "
                        "accepted by every stage")
        if name == "solve":
            sp.add_argument("--limit", type=int, default=None,
                            help="stop after this many solutions (exit 2)")
    rp = sub.add_parser("report")
    rp.add_argument("--config", action="append", required=True,
                    help="config of a completed run; repeat for more rows")
    xp = sub.add_parser("xcc", help="solve an exact-cover problem file")
    xp.add_argument("action", choices=["solve"])
    xp.add_argument("file")
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(name)s: %(message)s"
    )
    try:
        if args.command == "report":
            cmd_report(args.config, sys.stdout)
            return EXIT_OK
        if args.command == "xcc":
            with open(args.file, "r", encoding="utf-8") as fh:
                problem = xcc.import_text(fh.read())
            stats = xcc.solve(problem)
            print(f"solutions={stats.solutions} nodes={stats.nodes} seconds={stats.elapsed:.3f}")
            return EXIT_OK
        cfg = JobConfig.load(args.config)
        if args.command == "orbits":
            cmd_orbits(cfg, jobs=args.jobs)
        elif args.command == "km":
            cmd_km(cfg)
        elif args.command == "encode":
            cmd_encode(cfg)
        elif args.command == "solve":
            cmd_solve(cfg, limit=args.limit)
        elif args.command == "classify":
            cmd_classify(cfg, jobs=args.jobs)
        return EXIT_OK
    except ResourceCapHit as exc:
        log.error("%s", exc)
        return EXIT_RESOURCE
    except designs_mod.BudgetExceeded as exc:
        log.error("%s", exc)
        return EXIT_RESOURCE
    except (ValidationError, ValueError, OverflowError, OSError, ImportError,
            km_mod.KMError) as exc:
        log.error("%s", exc)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
