"""Pipeline orchestration: stage commands, plain-text configs, persisted
artifacts, one run record per output directory, and report tables.

Stages (``STAGES``: orbits -> km -> encode -> solve -> classify) are
resumable and idempotent.  ``JobConfig.load`` reads each group file once
and gives the stages G, N and the configuration fingerprint; the solver
caps are the config keys ``node_cap``, ``time_cap`` and
``solution_limit``.  ``--jobs`` sets the worker processes of classify (at
least 1, at most one per CPU): used by classify, accepted by every stage.
The stages hand each other ``.npy`` arrays: the cli checks their file
format, and ``orbitgen.OrbitSet``, ``km.KMInstance`` and
``symbreak.NormalizerClasses`` check their values; the option layout of
an encoding is ``symbreak``'s alone.  Each stage sets its entry in
``run.json`` in the output directory: the configuration fingerprint, the
outputs it wrote (``OUTPUTS``) with the sha256 of each array, its counts
and its seconds.  A stage checks the entries of every stage before it, so
artifacts from different configurations cannot be mixed, and a count it
loads against the one recorded; it drops the entries of every stage after
it and deletes their outputs, so a stage's entry holds only while the
stages before it are unchanged and the directory holds only what the
record lists.  ``report`` reads its tables from the record.  Apart from
the ``seconds`` fields, the record and every artifact are byte-identical
across reruns.  ``kmsteiner xcc export`` writes the configured problem as
XCC text, and ``kmsteiner xcc solve FILE`` solves a problem file on its
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
from .perm import PermutationGroup, parse_group

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


# the config keys and how each value is read; a path is relative to the
# config file
KEY_TYPES = {
    "v": int, "k": int, "t": int, "group_file": "path", "output_dir": "path",
    "normalizer_file": "path", "encoding": str, "node_cap": int, "time_cap": float,
    "solution_limit": int, "label": str,
}


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
    # not keys: the config file itself, and what load reads from the group files
    path: str = ""
    G: PermutationGroup | None = None
    N: PermutationGroup | None = None
    fingerprint: str = ""

    @classmethod
    def load(cls, path) -> "JobConfig":
        """Read and check a config, and read its group files once: G and N
        from their bytes, and the fingerprint from the same bytes."""
        raw: dict = {}
        first: dict = {}  # key -> the line that gives it
        with open(path, "r", encoding="utf-8") as fh:
            for ln, line in enumerate(fh, start=1):
                line = line.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValidationError(f"{path}:{ln}: expected key = value")
                key, _, val = line.partition("=")
                key, val = key.strip(), val.strip()
                if key not in KEY_TYPES:
                    raise ValidationError(f"{path}:{ln}: unknown key {key!r}")
                if key in raw:
                    raise ValidationError(
                        f"{path}:{ln}: key {key!r} given twice, first on line {first[key]}")
                raw[key], first[key] = val, ln
        for f in fields(cls):
            if f.default is MISSING and f.name not in raw:
                raise ValidationError(f"{path}: missing required key {f.name!r}")
        base = os.path.dirname(os.path.abspath(path))
        for key, val in raw.items():
            kind = KEY_TYPES[key]
            try:
                raw[key] = os.path.join(base, val) if kind == "path" else kind(val)
            except ValueError as exc:
                raise ValidationError(f"{path}:{first[key]}: key {key!r}: {exc}") from None
        cfg = cls(**raw, path=os.path.abspath(path))

        violations = check_admissible(cfg.v, cfg.k, cfg.t)
        if violations:
            raise ValidationError("inadmissible parameters: " + "; ".join(violations))
        if cfg.encoding not in ("a", "b", "c"):
            raise ValidationError(f"encoding must be a, b or c, not {cfg.encoding!r}")
        if cfg.encoding in ("b", "c") and not cfg.normalizer_file:
            raise ValidationError(f"encoding {cfg.encoding} requires normalizer_file")
        if cfg.node_cap is not None and cfg.node_cap < 0:
            raise ValidationError(f"node_cap must be non-negative, not {cfg.node_cap}")
        if cfg.time_cap is not None and not cfg.time_cap >= 0:  # NaN fails too
            raise ValidationError(f"time_cap must be non-negative, not {cfg.time_cap}")
        if cfg.solution_limit is not None and cfg.solution_limit < 1:
            raise ValidationError(f"solution_limit must be at least 1, not {cfg.solution_limit}")
        h = hashlib.sha256(f"{cfg.v}|{cfg.k}|{cfg.t}|{cfg.encoding}|".encode())
        cfg.G = _read_group(cfg.group_file, "group", cfg.v, h)
        h.update(b"|")
        if cfg.normalizer_file:
            cfg.N = _read_group(cfg.normalizer_file, "normalizer", cfg.v, h)
        cfg.fingerprint = h.hexdigest()[:16]
        return cfg

    def out(self, name: str) -> str:
        return os.path.join(self.output_dir, name)


def _read_group(path: str, what: str, v: int, digest) -> PermutationGroup:
    """The group in a group file, which must have degree v; the file's
    bytes go into the digest."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        G = parse_group(data.decode("utf-8").splitlines(), path)
    except (OSError, ValueError) as exc:
        raise ValidationError(f"{what} file: {exc}") from None
    digest.update(data)
    if G.degree != v:
        raise ValidationError(f"{what} degree {G.degree} does not match v={v}")
    return G


# -- run record ---------------------------------------------------------------

RECORD = "run.json"

# the stages in the order they run; each reads the artifacts of those before it
STAGES = ("orbits", "km", "encode", "solve", "classify")

# each stage's outputs in the output directory, and the counts of its entry
# that later stages and report read; encoding a writes no class_of.npy and
# records no classes, and in designs/ only the design_*.txt files are the
# classify stage's
OUTPUTS = {
    "orbits": (("t_reps.npy", "t_sizes.npy", "k_reps.npy", "k_sizes.npy"),
               {"t_orbits", "good_orbits"}),
    "km": (("km_indptr.npy", "km_rows.npy"), set()),
    "encode": (("class_of.npy",), {"classes"}),
    "solve": (("solutions.txt",),
              {"primary", "secondary", "options", "solutions", "nodes", "limit_hit"}),
    "classify": (("classes.txt", "designs.gap", "designs"), {"classes"}),
}


def _entry_ok(stage: str, e, encoding: str) -> bool:
    """Whether a stage's entry has the fields ``_record_stage`` writes,
    artifacts from the stage's outputs only, and the counts that are read
    from it."""
    if stage not in OUTPUTS:
        return False
    names, read = OUTPUTS[stage]
    read = read if (stage, encoding) != ("encode", "a") else set()
    return (
        isinstance(e, dict) and isinstance(e.get("fingerprint"), str)
        and isinstance(e.get("artifacts"), dict)
        and e["artifacts"].keys() <= set(names)
        and all(d is None or isinstance(d, str) for d in e["artifacts"].values())
        and isinstance(e.get("counts"), dict)
        and read <= e["counts"].keys()
        and type(e.get("seconds")) in (int, float)  # a bool is not seconds
    )


def _read_record(cfg: JobConfig) -> dict:
    path = cfg.out(RECORD)
    if not os.path.exists(path):
        return {"stages": {}}
    with open(path, "r", encoding="utf-8") as fh:
        try:
            record = json.load(fh)
        except ValueError as exc:
            raise ValidationError(f"{path}: malformed run record: {exc}") from None
    stages = record.get("stages") if isinstance(record, dict) else None
    if not isinstance(stages, dict):
        raise ValidationError(f"{path}: malformed run record")
    for stage, entry in stages.items():
        if not _entry_ok(stage, entry, cfg.encoding):
            raise ValidationError(f"{path}: malformed run record, stage {stage!r}")
    return record


def _record_stage(cfg: JobConfig, stage: str, t0: float, **counts) -> None:
    """Set the entry of a stage that started at perf_counter ``t0`` in the
    run record, with those of its outputs that exist and the sha256 of
    each array, then drop the entries of the stages after it, which read
    what it replaced, and delete their outputs.  The record is replaced
    whole before any output is deleted."""
    record = _read_record(cfg)
    later = STAGES[STAGES.index(stage) + 1 :]
    for dropped in later:
        record["stages"].pop(dropped, None)
    record["stages"][stage] = {
        "fingerprint": cfg.fingerprint,
        "artifacts": {name: _sha256(cfg.out(name)) if name.endswith(".npy") else None
                      for name in OUTPUTS[stage][0] if os.path.exists(cfg.out(name))},
        "counts": counts,
        "seconds": round(time.perf_counter() - t0, 3),
    }
    tmp = cfg.out(RECORD + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, cfg.out(RECORD))
    _clear(cfg, later)


def _clear(cfg: JobConfig, stages) -> None:
    """Delete the outputs of these stages that exist."""
    for stage in stages:
        for name in OUTPUTS[stage][0]:
            path = cfg.out(name)
            if name == "designs":
                for f in os.listdir(path) if os.path.isdir(path) else ():
                    if f.startswith("design_") and f.endswith(".txt"):
                        os.remove(os.path.join(path, f))
            elif os.path.exists(path):
                os.remove(path)


def _check_record(cfg: JobConfig, stage: str) -> dict:
    """The recorded stages; every stage before ``stage`` must be recorded
    under this config, with its artifacts present."""
    entries = _read_record(cfg)["stages"]
    fp = cfg.fingerprint
    for before in STAGES[: STAGES.index(stage)]:
        if before not in entries:
            raise ValidationError(f"stage {before} not recorded in {cfg.output_dir}; run it first")
        entry = entries[before]
        if entry["fingerprint"] != fp:
            raise ValidationError(
                f"parameter hash mismatch for {before}: record {entry['fingerprint']}, config {fp}"
            )
        for art in entry["artifacts"]:
            if not os.path.exists(cfg.out(art)):
                raise ValidationError(f"artifact {art} missing from {cfg.output_dir}")
    return entries


# -- array artifacts ------------------------------------------------------------
# Each stage writes its arrays with np.save and records each file's sha256;
# a reader checks the digest, loads with allow_pickle=False, then checks
# the dtype, C order and shape, and the array type it builds checks the
# values, so a tampered artifact exits 1.


def _sha256(path: str) -> str:
    """The file's sha256, a block at a time (3.10 has no hashlib.file_digest)."""
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            h.update(block)
    return h.hexdigest()


def _save(cfg: JobConfig, **arrays) -> None:
    """Write each array to ``<name>.npy``."""
    for name, arr in arrays.items():
        np.save(cfg.out(name + ".npy"), arr, allow_pickle=False)


def _load(cfg: JobConfig, entry: dict, name: str, dtype, shape: tuple) -> np.ndarray:
    """The array in file ``name``, which must have the sha256 that the
    stage's ``entry`` records and be a C-ordered array of this dtype and
    shape (None: any length)."""
    path = cfg.out(name)
    if _sha256(path) != entry["artifacts"].get(name):
        raise ValidationError(f"{name}: sha256 does not match the run record")
    try:
        arr = np.load(path, allow_pickle=False)
    except (ValueError, EOFError) as exc:
        raise ValidationError(f"{name}: {exc}") from None
    dtype = np.dtype(dtype)
    if not (isinstance(arr, np.ndarray) and arr.dtype == dtype and arr.ndim == len(shape)
            and all(s is None or s == a for s, a in zip(shape, arr.shape))
            and arr.flags.c_contiguous):
        got = f"{arr.dtype} array of shape {arr.shape}" if isinstance(arr, np.ndarray) else "no array"
        raise ValidationError(f"{name}: {got}, expected a C-ordered {dtype} array of shape {shape}")
    return arr


def _checked(files: str, make, *args):
    """make(*args), with a ValueError it raises led by the files it checks."""
    try:
        return make(*args)
    except ValueError as exc:
        raise ValidationError(f"{files}: {exc}") from None


def _check_count(files: str, entries: dict, stage: str, key: str, got: int) -> None:
    """The count ``got`` loaded from files must be the one the stage recorded."""
    recorded = entries[stage]["counts"][key]
    if got != recorded:
        raise ValidationError(f"{files}: {got} {key}, but the run record has {recorded}")


def _load_orbits(cfg: JobConfig, entries: dict, which: str) -> orbitgen.OrbitSet:
    """The t-orbits (which "t") or good k-orbits ("k") of the orbits stage."""
    entry, size = entries["orbits"], cfg.t if which == "t" else cfg.k
    reps = _load(cfg, entry, f"{which}_reps.npy", np.min_scalar_type(cfg.v), (None, size))
    sizes = _load(cfg, entry, f"{which}_sizes.npy", np.int64, (len(reps),))
    files = f"{which}_reps.npy, {which}_sizes.npy"
    orbits = _checked(files, orbitgen.OrbitSet, cfg.v, cfg.t, reps, sizes, cfg.G.fingerprint())
    _check_count(files, entries, "orbits", "t_orbits" if which == "t" else "good_orbits",
                 len(orbits))
    return orbits


def _load_classes(cfg: JobConfig, entries: dict, n: int) -> symbreak.NormalizerClasses | None:
    """The normalizer classes of the encode stage over n good k-orbits;
    None for encoding a."""
    if cfg.encoding == "a":
        return None
    class_of = _load(cfg, entries["encode"], "class_of.npy", np.int64, (n,))
    classes = _checked("class_of.npy", symbreak.NormalizerClasses, class_of)
    _check_count("class_of.npy", entries, "encode", "classes", classes.n_classes)
    return classes


def _problem(cfg: JobConfig, entries: dict) -> xcc.XCCProblem:
    """The configured encoding's exact-cover problem, built from the
    arrays of the orbits, km and encode stages."""
    tro, kset = _load_orbits(cfg, entries, "t"), _load_orbits(cfg, entries, "k")
    indptr = _load(cfg, entries["km"], "km_indptr.npy", np.int64, (len(kset) + 1,))
    rows = _load(cfg, entries["km"], "km_rows.npy", np.int32, (None,))
    km = _checked("km_indptr.npy, km_rows.npy", km_mod.KMInstance, tro, kset, indptr, rows)
    classes = _load_classes(cfg, entries, len(kset))
    return symbreak.encode(km, classes, cfg.encoding).problem


# -- stages -------------------------------------------------------------------


def cmd_orbits(cfg: JobConfig) -> None:
    t0 = time.perf_counter()
    _read_record(cfg)  # a malformed record fails before the search and its writes
    os.makedirs(cfg.output_dir, exist_ok=True)
    tro = orbitgen.t_orbit_reps(cfg.G, cfg.v, cfg.t)
    log.info("t-orbits: %d", len(tro))
    report = _ProgressLog("%d nodes, %.0f nodes/s, %d representatives, second point %d of %d")
    start = time.perf_counter()
    nodes = 0

    def progress(n, *where):
        nonlocal nodes
        nodes = n
        report(n, n / (time.perf_counter() - start), *where)

    ko = orbitgen.good_k_orbit_reps(cfg.G, cfg.v, cfg.k, cfg.t, progress=progress)
    log.info("good k-orbits: %d, %d search nodes", len(ko), nodes)
    _save(cfg, t_reps=tro.reps, t_sizes=tro.sizes, k_reps=ko.reps, k_sizes=ko.sizes)
    _record_stage(cfg, "orbits", t0, t_orbits=len(tro), good_orbits=len(ko), search_nodes=nodes)


def cmd_km(cfg: JobConfig) -> None:
    t0 = time.perf_counter()
    entries = _check_record(cfg, "km")
    km = km_mod.build_km(cfg.G, _load_orbits(cfg, entries, "t"), _load_orbits(cfg, entries, "k"))
    log.info("KM matrix: %d x %d", *km.shape)
    m, n = km.shape
    _save(cfg, km_indptr=km.col_indptr, km_rows=km.col_rows)
    _record_stage(cfg, "km", t0, rows=m, columns=n, entries=len(km.col_rows))


def cmd_encode(cfg: JobConfig) -> None:
    """The normalizer classes of encodings b and c; solve builds the problem."""
    t0 = time.perf_counter()
    entries = _check_record(cfg, "encode")
    counts = {}
    if cfg.encoding in ("b", "c"):
        kset = _load_orbits(cfg, entries, "k")
        t1 = time.perf_counter()
        classes = symbreak.normalizer_classes(cfg.N, kset, cfg.G)
        log.info("normalizer classes: %d in %.1f s", classes.n_classes, time.perf_counter() - t1)
        _save(cfg, class_of=classes.class_of)
        counts = {"classes": classes.n_classes}
    _record_stage(cfg, "encode", t0, **counts)


def cmd_solve(cfg: JobConfig) -> None:
    t0 = time.perf_counter()
    problem = _problem(cfg, _check_record(cfg, "solve"))
    log.info("solving %s", problem)
    sols: list = []
    report = _ProgressLog("%d nodes, %.0f nodes/s, depth %d, root branch %d of %d")
    start = time.perf_counter()
    stats = xcc.solve(problem, limit=cfg.solution_limit, on_solution=sols.append,
                      node_cap=cfg.node_cap, time_cap=cfg.time_cap,
                      progress=lambda nodes, *where: report(
                          nodes, nodes / (time.perf_counter() - start), *where))
    with open(cfg.out("solutions.txt"), "w", encoding="utf-8") as fh:
        for s in sols:
            fh.write(" ".join(str(o) for o in s.option_ids) + "\n")
    log.info("solutions=%d nodes=%d seconds=%.3f", stats.solutions, stats.nodes, stats.elapsed)
    _record_stage(cfg, "solve", t0, primary=len(problem.primary),
                  secondary=len(problem.secondary), options=problem.n_options,
                  solutions=stats.solutions, nodes=stats.nodes, limit_hit=stats.limit_hit)
    if stats.limit_hit:
        raise ResourceCapHit("solver stopped at a node, time or solution cap")


def cmd_xcc_export(cfg: JobConfig, path: str | None = None) -> None:
    """Write the configured encoding's problem as XCC text to path, or to
    stdout, one line at a time."""
    problem = _problem(cfg, _check_record(cfg, "solve"))
    if path is None:
        sys.stdout.writelines(xcc.export_lines(problem))
        return
    with open(path, "w", encoding="utf-8") as fh:
        fh.writelines(xcc.export_lines(problem))


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
    t0 = time.perf_counter()
    stages = _check_record(cfg, "classify")
    kset = _load_orbits(cfg, stages, "k")
    classes = _load_classes(cfg, stages, len(kset))
    if stages["solve"]["counts"]["limit_hit"]:
        log.warning("the solve stopped at a cap: its solutions, and so the classes, "
                    "may be incomplete")
    solutions = []  # (option ids, k-orbit indices)
    with open(cfg.out("solutions.txt"), "r", encoding="utf-8") as fh:
        for ln, line in enumerate(fh, start=1):
            try:
                if ids := tuple(int(x) for x in line.split()):
                    solutions.append((ids, symbreak.decode_options(ids, len(kset), classes)))
            except ValueError as exc:
                raise ValidationError(f"{fh.name}:{ln}: {exc}") from None
    _check_count("solutions.txt", stages, "solve", "solutions", len(solutions))
    all_designs = []
    for opt_ids, chosen in solutions:
        d = designs_mod.expand(chosen, kset, cfg.G)
        rep = designs_mod.verify_steiner(d, cfg.t)
        if not rep.ok:
            raise ValidationError(f"solution {opt_ids} is not a Steiner design: {rep.violations[:3]}")
        all_designs.append(d)
    iso = designs_mod.classify(all_designs, known_autos=cfg.G.generators, jobs=jobs,
                               progress=_ProgressLog("canonized design %d of %d, %d nodes"))
    _clear(cfg, ["classify"])
    os.makedirs(cfg.out("designs"), exist_ok=True)
    with open(cfg.out("classes.txt"), "w", encoding="utf-8") as fh:
        for i, cl in enumerate(iso, start=1):
            designs_mod.write_design_file(
                cfg.out(os.path.join("designs", f"design_{i:02d}.txt")), cl.representative)
            cert = hashlib.sha256(cl.certificate).hexdigest()[:16]
            fh.write(f"class {i} aut_order={cl.aut_order} multiplicity={cl.multiplicity} "
                     f"certificate={cert}\n")
    designs_mod.write_gap_designs(cfg.out("designs.gap"), [cl.representative for cl in iso])
    canon_nodes = sum(cl.nodes for cl in iso)
    log.info("%d solutions -> %d isomorphism classes, %d canonization nodes",
             len(solutions), len(iso), canon_nodes)
    _record_stage(cfg, "classify", t0, solutions=len(solutions), classes=len(iso),
                  canon_nodes=canon_nodes)


def cmd_report(cfg_paths, out_stream=None) -> str:
    """Summary and benchmark tables over one or more completed runs, read
    from their run records; "-" marks a stage not yet run, and "+" after
    the solution and design counts a solve stopped at a cap."""
    summary, bench, seen = [], [], set()
    for path in cfg_paths:
        cfg = JobConfig.load(path)
        label = cfg.label or os.path.splitext(os.path.basename(cfg.group_file))[0]
        stages = _read_record(cfg)["stages"]
        solved = stages["solve"]["counts"] if "solve" in stages else None
        capped = "+" if solved and solved["limit_hit"] else ""

        def count(stage, key, mark=""):
            return str(stages[stage]["counts"][key]) + mark if stage in stages else "-"

        if label not in seen:
            seen.add(label)
            n_order = str(cfg.N.order()) if cfg.N is not None else "-"
            nreps = count("encode", "classes") if cfg.encoding != "a" else "-"
            summary.append(f"{label:<12} {count('orbits', 'good_orbits'):>9} {n_order:>8} "
                           f"{nreps:>8} {count('classify', 'classes', capped):>8}")
        items = f"{solved['primary']}+{solved['secondary']}" if solved else "-"
        seconds = f"{stages['solve']['seconds']:.3f}" if solved else "-"
        bench.append(f"{label:<12} {cfg.encoding:<7} {items:<12} {count('solve', 'options'):>9} "
                     f"{count('solve', 'solutions', capped):>8} {count('solve', 'nodes'):>10} "
                     f"{seconds:>10}")
    lines = ["group        orbits      |N|     |Ncal|  designs", *summary, "",
             "group        method  items        options     sols      nodes    seconds", *bench]
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
    for name in STAGES:
        sp = sub.add_parser(name)
        sp.add_argument("--config", required=True)
        sp.add_argument("--jobs", type=int, default=1,
                        help="worker processes, at most one per CPU; used by classify, "
                        "accepted by every stage")
    rp = sub.add_parser("report")
    rp.add_argument("--config", action="append", required=True,
                    help="config of a completed run; repeat for more rows")
    xp = sub.add_parser("xcc", help="exact-cover problems as XCC text")
    xsub = xp.add_subparsers(dest="action", required=True)
    xsub.add_parser("solve", help="solve a problem file").add_argument("file")
    xe = xsub.add_parser("export", help="write the configured encoding's problem")
    xe.add_argument("--config", required=True)
    xe.add_argument("file", nargs="?", help="the file to write; stdout if omitted")
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr, level=logging.INFO, format="%(name)s: %(message)s"
    )
    try:
        if args.command == "report":
            cmd_report(args.config, sys.stdout)
            return EXIT_OK
        if args.command == "xcc" and args.action == "solve":
            with open(args.file, "r", encoding="utf-8") as fh:
                problem = xcc.import_text(fh.read(), args.file)
            stats = xcc.solve(problem)
            print(f"solutions={stats.solutions} nodes={stats.nodes} seconds={stats.elapsed:.3f}")
            return EXIT_OK
        if args.command == "xcc":
            cmd_xcc_export(JobConfig.load(args.config), args.file)
            return EXIT_OK
        if args.jobs < 1:
            raise ValidationError(f"--jobs must be at least 1, not {args.jobs}")
        cfg = JobConfig.load(args.config)
        stage = globals()[f"cmd_{args.command}"]
        if args.command == "classify":
            stage(cfg, jobs=args.jobs)
        else:
            stage(cfg)
        return EXIT_OK
    except (ResourceCapHit, designs_mod.BudgetExceeded) as exc:
        log.error("%s", exc)
        return EXIT_RESOURCE
    except (ValidationError, ValueError, OverflowError, OSError, ImportError,
            km_mod.KMError) as exc:
        log.error("%s", exc)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
