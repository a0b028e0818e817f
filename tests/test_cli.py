import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from kmsteiner import cli
from kmsteiner.cli import (
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_VALIDATION,
    JobConfig,
    ValidationError,
    check_admissible,
    cmd_classify,
    cmd_encode,
    cmd_km,
    cmd_orbits,
    cmd_report,
    cmd_solve,
    main,
)


def write_config(path, **kv):
    with open(path, "w") as fh:
        for key, val in kv.items():
            fh.write(f"{key} = {val}\n")
    return str(path)


@pytest.fixture
def sts13_cfg(tmp_path, fixtures_dir):
    return write_config(
        tmp_path / "sts13.cfg",
        v=13,
        k=3,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "C13.grp"),
        normalizer_file=os.path.join(fixtures_dir, "normalizers", "C13.grp"),
        encoding="b",
        output_dir=str(tmp_path / "run"),
    )


def solve_counts(cfg):
    with open(cfg.out("run.json")) as fh:
        return json.load(fh)["stages"]["solve"]["counts"]


def run_pipeline(cfg_path):
    cfg = JobConfig.load(cfg_path)
    cmd_orbits(cfg)
    cmd_km(cfg)
    cmd_encode(cfg)
    cmd_solve(cfg)
    cmd_classify(cfg)
    return cfg


# every array artifact of an encoding-b run, with the stage that writes it
# and a stage that reads it
ARRAYS = {
    "t_reps.npy": ("orbits", "km"),
    "t_sizes.npy": ("orbits", "km"),
    "k_reps.npy": ("orbits", "km"),
    "k_sizes.npy": ("orbits", "km"),
    "km_indptr.npy": ("km", "solve"),
    "km_rows.npy": ("km", "solve"),
    "class_of.npy": ("encode", "classify"),
}


def run_stages(cfg_path, stages):
    for stage in stages:
        assert main([stage, "--config", cfg_path]) == EXIT_OK


def test_admissibility_conditions():
    assert check_admissible(13, 3, 2) == []
    assert check_admissible(91, 6, 2) == []
    assert check_admissible(8, 4, 3) == []
    problems = check_admissible(8, 3, 2)
    assert any("does not divide" in p for p in problems)
    assert check_admissible(3, 4, 2)  # k > v


def test_full_pipeline_sts13(sts13_cfg):
    cfg = run_pipeline(sts13_cfg)
    assert solve_counts(cfg)["solutions"] == 2
    classes = [line for line in open(cfg.out("classes.txt")) if line.strip()]
    assert len(classes) == 1
    assert "aut_order=39" in classes[0]
    assert os.path.exists(cfg.out("designs.gap"))
    assert os.path.exists(cfg.out(os.path.join("designs", "design_01.txt")))


def test_rerun_is_byte_identical(sts13_cfg):
    cfg = run_pipeline(sts13_cfg)
    artifacts = [
        *ARRAYS,
        "solutions.txt",
        "classes.txt",
        "designs.gap",
        os.path.join("designs", "design_01.txt"),
    ]

    def snapshot():
        files = {a: open(cfg.out(a), "rb").read() for a in artifacts}
        with open(cfg.out("run.json"), "rb") as fh:
            files["run.json"] = [ln for ln in fh if b'"seconds":' not in ln]
        return files

    before = snapshot()
    run_pipeline(sts13_cfg)
    assert snapshot() == before
    with open(cfg.out("run.json")) as fh:
        stages = json.load(fh)["stages"]
    assert sorted(stages) == ["classify", "encode", "km", "orbits", "solve"]
    assert all(isinstance(e["seconds"], float) for e in stages.values())


def test_rerun_stage_drops_the_entries_after_it(sts13_cfg, caplog):
    cfg = run_pipeline(sts13_cfg)
    assert main(["km", "--config", sts13_cfg]) == EXIT_OK
    with open(cfg.out("run.json")) as fh:
        assert sorted(json.load(fh)["stages"]) == ["km", "orbits"]
    caplog.clear()
    assert main(["solve", "--config", sts13_cfg]) == EXIT_VALIDATION
    expect_one_error(caplog, "stage encode not recorded")
    assert cmd_report([sts13_cfg]).splitlines()[1].split()[-2:] == ["-", "-"]


def test_stage_order_enforced(tmp_path, fixtures_dir):
    cfg_path = write_config(
        tmp_path / "x.cfg",
        v=13,
        k=3,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "C13.grp"),
        output_dir=str(tmp_path / "out"),
    )
    cfg = JobConfig.load(cfg_path)
    with pytest.raises(ValidationError):
        cmd_km(cfg)


def test_fingerprint_mismatch_rejected(tmp_path, fixtures_dir):
    out = str(tmp_path / "shared")
    cfg13 = JobConfig.load(
        write_config(
            tmp_path / "c13.cfg",
            v=13,
            k=3,
            t=2,
            group_file=os.path.join(fixtures_dir, "groups", "C13.grp"),
            output_dir=out,
        )
    )
    cmd_orbits(cfg13)
    cfg19 = JobConfig.load(
        write_config(
            tmp_path / "c19.cfg",
            v=19,
            k=3,
            t=2,
            group_file=os.path.join(fixtures_dir, "groups", "C19.grp"),
            output_dir=out,
        )
    )
    with pytest.raises(ValidationError, match="hash mismatch|not recorded"):
        cmd_km(cfg19)


def test_inadmissible_config_rejected(tmp_path, fixtures_dir):
    path = write_config(
        tmp_path / "bad.cfg",
        v=8,
        k=3,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "C13.grp"),
        output_dir=str(tmp_path / "out"),
    )
    with pytest.raises(ValidationError, match="does not divide"):
        JobConfig.load(path)


def test_unknown_key_rejected(tmp_path, fixtures_dir):
    path = write_config(
        tmp_path / "bad.cfg",
        v=13,
        k=3,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "C13.grp"),
        output_dir=str(tmp_path / "out"),
        flavor="spicy",
    )
    with pytest.raises(ValidationError, match="unknown key"):
        JobConfig.load(path)


def test_solve_mode_key_rejected(tmp_path, fixtures_dir, caplog):
    path = write_config(
        tmp_path / "mode.cfg",
        v=13,
        k=3,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "C13.grp"),
        output_dir=str(tmp_path / "out"),
        solve_mode="count",
    )
    assert main(["orbits", "--config", path]) == EXIT_VALIDATION
    assert "unknown key 'solve_mode'" in caplog.text


def test_exit_codes(tmp_path, fixtures_dir):
    bad = write_config(
        tmp_path / "bad.cfg",
        v=8,
        k=3,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "C13.grp"),
        output_dir=str(tmp_path / "out"),
    )
    assert main(["orbits", "--config", bad]) == EXIT_VALIDATION

    good = write_config(
        tmp_path / "good.cfg",
        v=13,
        k=3,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "C13.grp"),
        output_dir=str(tmp_path / "run"),
        node_cap=1,
    )
    assert main(["orbits", "--config", good]) == EXIT_OK
    assert main(["km", "--config", good]) == EXIT_OK
    assert main(["encode", "--config", good]) == EXIT_OK
    assert main(["solve", "--config", good]) == EXIT_RESOURCE  # node cap hit


def test_non_normalizing_group_rejected(tmp_path, fixtures_dir):
    bad_n = tmp_path / "N.grp"
    bad_n.write_text("degree 13\n(1,2)\n")
    cfgp = write_config(
        tmp_path / "n.cfg",
        v=13,
        k=3,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "C13.grp"),
        normalizer_file=str(bad_n),
        encoding="b",
        output_dir=str(tmp_path / "run"),
    )
    assert main(["orbits", "--config", cfgp]) == EXIT_OK
    assert main(["km", "--config", cfgp]) == EXIT_OK
    assert main(["encode", "--config", cfgp]) == EXIT_VALIDATION


def replace_array(cfg, name, arr, allow_pickle=False):
    """Write arr as the artifact name and record its sha256, as if the
    stage that writes it had."""
    np.save(cfg.out(name), arr, allow_pickle=allow_pickle)
    with open(cfg.out("run.json")) as fh:
        record = json.load(fh)
    with open(cfg.out(name), "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    record["stages"][ARRAYS[name][0]]["artifacts"][name] = digest
    with open(cfg.out("run.json"), "w") as fh:
        json.dump(record, fh)


@pytest.mark.parametrize("name", ARRAYS)
def test_flipped_byte_in_array_rejected(sts13_cfg, caplog, name):
    cfg = JobConfig.load(sts13_cfg)
    run_stages(sts13_cfg, ["orbits", "km", "encode", "solve"])
    with open(cfg.out(name), "r+b") as fh:
        fh.seek(-1, os.SEEK_END)
        last = fh.read(1)
        fh.seek(-1, os.SEEK_END)
        fh.write(bytes([last[0] ^ 1]))
    caplog.clear()
    assert main([ARRAYS[name][1], "--config", sts13_cfg]) == EXIT_VALIDATION
    assert f"{name}: sha256 does not match the run record" in caplog.text


def _swap_rows(a):
    a = a.copy()
    a[[0, 1]] = a[[1, 0]]
    return a


def _set(a, index, value):
    a = a.copy()
    a[index] = value
    return a


def expect_one_error(caplog, message):
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and errors[0].exc_info is None
    assert message in errors[0].getMessage()


# (artifact, the recorded array -> a tampered one, the error); each is saved
# with its digest recorded, and the stage that reads it must exit 1
SHAPE = "expected a C-ordered"
REP = "not 3 ascending points of 1..13 with an orbit size of at least 1"
CLASS_OF = ("class_of.npy: class ids are not a 1-D array numbering the classes 0, 1, ... "
            "in the order of their smallest orbits")
PTR = "km_indptr.npy, km_rows.npy: column pointers not rising from 0 to 48 over 16 columns"
TAMPERED = [
    pytest.param("k_reps.npy", lambda a: a.astype(np.int64), SHAPE, id="k-reps-int64"),
    pytest.param("k_reps.npy", lambda a: a.astype(">u2"), SHAPE, id="k-reps-big-endian"),
    pytest.param("k_reps.npy", np.asfortranarray, SHAPE, id="k-reps-fortran-order"),
    pytest.param("k_reps.npy", lambda a: np.array(1, dtype=a.dtype), SHAPE, id="k-reps-scalar"),
    pytest.param("k_reps.npy", lambda a: _set(a, (1, 1), a[1, 2]), REP, id="k-reps-repeat"),
    pytest.param("k_reps.npy", _swap_rows, "not in strict lex order", id="k-reps-row-order"),
    pytest.param("k_sizes.npy", lambda a: a[1:].copy(), SHAPE, id="k-sizes-short"),
    pytest.param("t_reps.npy", lambda a: _set(a, (1, 1), 14),
                 "not 2 ascending points of 1..13", id="t-reps-point-14"),
    pytest.param("km_rows.npy", lambda a: _set(a, 0, -1),
                 "km_indptr.npy, km_rows.npy: a row id outside 0..5", id="km-rows-negative"),
    pytest.param("km_indptr.npy", lambda a: _set(a, 0, 1), PTR, id="km-indptr-start"),
    pytest.param("km_indptr.npy", lambda a: _set(a, -1, a[-1] - 1), PTR, id="km-indptr-end"),
    pytest.param("km_indptr.npy", lambda a: _set(a, 1, a[2] + 1), PTR, id="km-indptr-descent"),
    pytest.param("class_of.npy", lambda a: _set(a, 0, 1), CLASS_OF, id="class-of-rep"),
    pytest.param("class_of.npy", lambda a: _set(a, 5, 16), CLASS_OF, id="class-of-range"),
]

# an output of each stage that reads an array
OUTPUT = {"km": "km_rows.npy", "solve": "solutions.txt", "classify": "classes.txt"}


@pytest.mark.parametrize("name,tamper,message", TAMPERED)
def test_tampered_array_with_its_digest_rejected(sts13_cfg, caplog, name, tamper, message):
    cfg = JobConfig.load(sts13_cfg)
    run_stages(sts13_cfg, ["orbits", "km", "encode", "solve"])
    replace_array(cfg, name, tamper(np.load(cfg.out(name))))
    stage = ARRAYS[name][1]
    if os.path.exists(cfg.out(OUTPUT[stage])):
        os.remove(cfg.out(OUTPUT[stage]))
    with open(cfg.out("run.json"), "rb") as fh:
        record = fh.read()
    caplog.clear()
    assert main([stage, "--config", sts13_cfg]) == EXIT_VALIDATION
    expect_one_error(caplog, message)
    assert name in caplog.text
    assert not os.path.exists(cfg.out(OUTPUT[stage]))
    with open(cfg.out("run.json"), "rb") as fh:
        assert fh.read() == record


# an orbit row of the orbits stage replaced, with its digest recorded; each
# id gives the row as the text orbit files korbits.txt and torbits.txt
# wrote it, "points size=<orbit size>", before the stages passed arrays
@pytest.mark.parametrize(
    "name,tamper,message",
    [
        pytest.param("k_reps.npy", lambda a: a[:, :2].copy(), SHAPE,
                     id="korbits.txt-1 2 size=13"),  # 2-point reps for 3-point reps
        pytest.param("k_reps.npy", lambda a: _set(a, (1, 0), 0), REP,
                     id="korbits.txt-0 1 2 size=13"),
        pytest.param("k_reps.npy", lambda a: _set(a, (1, 2), 14), REP,
                     id="korbits.txt-1 2 14 size=13"),
        pytest.param("k_sizes.npy", lambda a: _set(a, 1, 0), REP, id="korbits.txt-1 2 4 size=0"),
        pytest.param("k_reps.npy", lambda a: _set(a.astype(np.float64), (1, 2), 1e20), SHAPE,
                     id="korbits.txt-1 2 99999999999999999999 size=13"),
        pytest.param("t_reps.npy", lambda a: np.hstack([a, a[:, -1:] + 1]), SHAPE,
                     id="torbits.txt-1 2 3 size=13"),
        pytest.param("k_sizes.npy", lambda a: _set(a, 3, 20), "non-integer entry",
                     id="korbits.txt-1 2 5 size=26"),  # a KM entry that is not an integer
    ],
)
def test_tampered_orbit_file_rejected(sts13_cfg, caplog, name, tamper, message):
    cfg = JobConfig.load(sts13_cfg)
    cmd_orbits(cfg)
    replace_array(cfg, name, tamper(np.load(cfg.out(name))))
    caplog.clear()
    assert main(["km", "--config", sts13_cfg]) == EXIT_VALIDATION
    expect_one_error(caplog, message)
    assert not os.path.exists(cfg.out("km_rows.npy"))


@pytest.mark.parametrize(
    "edit",
    [
        # a column fewer than the good k-orbits
        lambda: ("km_indptr.npy", lambda a: a[:-1], "km_indptr.npy: int64 array of shape (16,)"),
        # a row id of a seventh t-orbit, where there are six
        lambda: ("km_rows.npy", lambda a: _set(a, 0, 6), "km_rows.npy: a row id outside 0..5"),
    ],
)
def test_km_file_disagreeing_with_orbits_rejected(sts13_cfg, caplog, edit):
    name, tamper, message = edit()
    cfg = JobConfig.load(sts13_cfg)
    run_stages(sts13_cfg, ["orbits", "km", "encode"])
    replace_array(cfg, name, tamper(np.load(cfg.out(name))))
    caplog.clear()
    assert main(["solve", "--config", sts13_cfg]) == EXIT_VALIDATION
    expect_one_error(caplog, message)
    assert not os.path.exists(cfg.out("solutions.txt"))


# arrays rewritten with their digests recorded so that a count the loader
# finds differs from the one the writing stage recorded, and the stage that
# loads them
@pytest.mark.parametrize(
    "names,tamper,stage,message",
    [
        pytest.param(("class_of.npy",), lambda a: _set(a, 5, 2), "solve",
                     "class_of.npy: 3 classes, but the run record has 2", id="classes"),
        pytest.param(("k_reps.npy", "k_sizes.npy"), lambda a: a[:-1].copy(), "km",
                     "k_reps.npy, k_sizes.npy: 15 good_orbits, but the run record has 16",
                     id="good_orbits"),
        pytest.param(("t_reps.npy", "t_sizes.npy"), lambda a: a[:-1].copy(), "km",
                     "t_reps.npy, t_sizes.npy: 5 t_orbits, but the run record has 6",
                     id="t_orbits"),
    ],
)
def test_loaded_count_disagreeing_with_record_rejected(sts13_cfg, caplog, names, tamper,
                                                       stage, message):
    cfg = JobConfig.load(sts13_cfg)
    run_stages(sts13_cfg, cli.STAGES[: cli.STAGES.index(stage)])
    for name in names:
        replace_array(cfg, name, tamper(np.load(cfg.out(name))))
    caplog.clear()
    assert main([stage, "--config", sts13_cfg]) == EXIT_VALIDATION
    expect_one_error(caplog, message)
    assert not os.path.exists(cfg.out(OUTPUT[stage]))


@pytest.mark.parametrize("name", ["k_reps.npy", "km_rows.npy", "class_of.npy"])
def test_pickled_array_with_its_digest_rejected(sts13_cfg, caplog, name):
    cfg = JobConfig.load(sts13_cfg)
    run_stages(sts13_cfg, ["orbits", "km", "encode", "solve"])
    replace_array(cfg, name, np.array([1, "x", None], dtype=object), allow_pickle=True)
    caplog.clear()
    assert main([ARRAYS[name][1], "--config", sts13_cfg]) == EXIT_VALIDATION
    assert "allow_pickle=False" in caplog.text


@pytest.mark.parametrize(
    "name,i,line",
    [
        ("solutions.txt", 0, "-6 1"),  # a negative orbit index
        ("solutions.txt", 0, "1 99"),  # an option the problem does not have
        ("solutions.txt", 0, "1 18"),  # one past the last copy option
        ("solutions.txt", 0, ""),  # a solution fewer than the solve recorded
    ],
)
def test_tampered_solution_artifacts_rejected(sts13_cfg, name, i, line):
    cfg = JobConfig.load(sts13_cfg)
    for stage in ("orbits", "km", "encode", "solve"):
        assert main([stage, "--config", sts13_cfg]) == EXIT_OK
    with open(cfg.out(name)) as fh:
        lines = fh.read().splitlines()
    lines[i] = line
    with open(cfg.out(name), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert main(["classify", "--config", sts13_cfg]) == EXIT_VALIDATION
    assert not os.path.exists(cfg.out("classes.txt"))


@pytest.mark.parametrize(
    "line,message",
    [
        ("1 x", "invalid literal for int() with base 10: 'x'"),
        ("1 99", "solution (1, 99) has an option outside 0..17"),
    ],
)
def test_malformed_solution_line_names_the_file_and_line(sts13_cfg, caplog, line, message):
    cfg = JobConfig.load(sts13_cfg)
    run_stages(sts13_cfg, ["orbits", "km", "encode", "solve"])
    with open(cfg.out("solutions.txt")) as fh:
        lines = fh.read().splitlines()
    lines.insert(1, "")  # blank lines count
    lines[-1] = line
    with open(cfg.out("solutions.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    caplog.clear()
    assert main(["classify", "--config", sts13_cfg]) == EXIT_VALIDATION
    expect_one_error(caplog, f"{cfg.out('solutions.txt')}:{len(lines)}: {message}")
    assert not os.path.exists(cfg.out("classes.txt"))


# run.json texts that are not a run record, and entry fields set to values
# a stage never writes (None: the field is removed)
MALFORMED_RECORDS = ["{", "[]", '{"stages": []}', '{"stages": {"orbits": 5}}',
                     '{"stages": {"sieve": {"fingerprint": "", "artifacts": {}, "counts": {}, '
                     '"seconds": 0}}}']
MALFORMED_FIELDS = [
    pytest.param("orbits", "fingerprint", None, id="no-fingerprint"),
    pytest.param("orbits", "fingerprint", 5, id="fingerprint-int"),
    pytest.param("orbits", "artifacts", "torbits.txt", id="artifacts-str"),
    pytest.param("orbits", "artifacts", [1], id="artifact-int"),
    pytest.param("orbits", "artifacts", {"k_reps.npy": 5}, id="digest-int"),
    pytest.param("orbits", "artifacts", {"../run.json": None}, id="artifact-outside-row"),
    pytest.param("orbits", "counts", {"t_orbits": 7}, id="no-good_orbits"),
    pytest.param("km", "counts", [], id="counts-list"),
    pytest.param("encode", "seconds", "0.5", id="seconds-str"),
    pytest.param("solve", "seconds", True, id="seconds-bool"),
    pytest.param("solve", "counts", {"solutions": 2, "nodes": 3}, id="no-limit_hit"),
]


def _check_malformed_record_rejected(cfg_path, caplog, edit):
    """Run C13 to the solve, rewrite run.json with edit(record), and check
    that km, classify and report exit 1 with a message."""
    for stage in ("orbits", "km", "encode", "solve"):
        assert main([stage, "--config", cfg_path]) == EXIT_OK
    path = JobConfig.load(cfg_path).out("run.json")
    with open(path) as fh:
        record = json.load(fh)
    with open(path, "w") as fh:
        fh.write(edit(record))
    for stage in ("km", "classify", "report"):
        caplog.clear()
        assert main([stage, "--config", cfg_path]) == EXIT_VALIDATION
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].exc_info is None
        assert "malformed run record" in errors[0].getMessage()


@pytest.mark.parametrize("text", MALFORMED_RECORDS)
def test_malformed_run_record_rejected(sts13_cfg, caplog, text):
    _check_malformed_record_rejected(sts13_cfg, caplog, lambda record: text)


@pytest.mark.parametrize("stage,field,value", MALFORMED_FIELDS)
def test_malformed_run_record_entry_rejected(sts13_cfg, caplog, stage, field, value):
    def edit(record):
        entry = record["stages"][stage]
        if value is None:
            del entry[field]
        else:
            entry[field] = value
        return json.dumps(record)

    _check_malformed_record_rejected(sts13_cfg, caplog, edit)


def test_orbits_rejects_malformed_record_before_its_search(sts13_cfg, caplog):
    for stage in ("orbits", "km", "encode", "solve"):
        assert main([stage, "--config", sts13_cfg]) == EXIT_OK
    cfg = JobConfig.load(sts13_cfg)
    with open(cfg.out("run.json")) as fh:
        record = json.load(fh)
    del record["stages"]["solve"]["counts"]["nodes"]
    with open(cfg.out("run.json"), "w") as fh:
        json.dump(record, fh)
    with open(cfg.out("k_reps.npy"), "rb") as fh:
        k_reps = fh.read()
    caplog.clear()
    with caplog.at_level("INFO", logger="kmsteiner"):
        assert main(["orbits", "--config", sts13_cfg]) == EXIT_VALIDATION
    errors = [r for r in caplog.records if r.levelname == "ERROR"]
    assert len(errors) == 1 and "malformed run record, stage 'solve'" in errors[0].getMessage()
    assert not [r for r in caplog.records if "orbits:" in r.getMessage()]  # no search logged
    with open(cfg.out("k_reps.npy"), "rb") as fh:
        assert fh.read() == k_reps


def test_duplicate_config_key_rejected(tmp_path, fixtures_dir, caplog):
    path = write_config(
        tmp_path / "twice.cfg",
        v=13,
        k=3,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "C13.grp"),
        normalizer_file=os.path.join(fixtures_dir, "normalizers", "C13.grp"),
        encoding="b",
        output_dir=str(tmp_path / "out"),
    )
    with open(path, "a") as fh:
        fh.write("encoding = a\n")
    with pytest.raises(ValidationError,
                       match=r"twice\.cfg:8: key 'encoding' given twice, first on line 6"):
        JobConfig.load(path)
    assert main(["orbits", "--config", path]) == EXIT_VALIDATION
    assert "key 'encoding' given twice" in caplog.text
    assert not os.path.exists(tmp_path / "out")


def test_solution_limit_flag(tmp_path, fixtures_dir):
    # the config key solution_limit is the one solution cap; solve has no --limit
    cfgp = write_config(
        tmp_path / "lim.cfg",
        v=13,
        k=3,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "C13.grp"),
        solution_limit=1,
        output_dir=str(tmp_path / "run"),
    )
    assert main(["orbits", "--config", cfgp]) == EXIT_OK
    assert main(["km", "--config", cfgp]) == EXIT_OK
    assert main(["encode", "--config", cfgp]) == EXIT_OK
    with pytest.raises(SystemExit):
        main(["solve", "--config", cfgp, "--limit", "1"])
    assert main(["solve", "--config", cfgp]) == EXIT_RESOURCE
    cfg = JobConfig.load(cfgp)
    sols = [line for line in open(cfg.out("solutions.txt")) if line.strip()]
    assert len(sols) == 1


def test_capped_solve_then_classify(tmp_path, fixtures_dir, caplog):
    cfgp = write_config(
        tmp_path / "c19.cfg",
        v=19,
        k=3,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "C19.grp"),
        normalizer_file=os.path.join(fixtures_dir, "normalizers", "C19.grp"),
        encoding="c",
        output_dir=str(tmp_path / "run"),
    )
    cfg = run_pipeline(cfgp)
    assert len(os.listdir(cfg.out("designs"))) == 4
    lines = cmd_report([cfgp]).splitlines()
    assert lines[1].split()[-1] == "4" and lines[-1].split()[4] == "8"
    # the caps are not part of the fingerprint, so a capped solve reuses the run
    with open(cfgp, "a") as fh:
        fh.write("solution_limit = 1\n")
    assert main(["solve", "--config", cfgp]) == EXIT_RESOURCE
    # the classification read the earlier solutions, so its entry is gone
    lines = cmd_report([cfgp]).splitlines()
    assert lines[1].split()[-1] == "-"  # designs
    assert lines[-1].split()[4] == "1+"  # sols
    with open(cfg.out("run.json")) as fh:
        assert sorted(json.load(fh)["stages"]) == ["encode", "km", "orbits", "solve"]
    # and so are its outputs
    assert not os.path.exists(cfg.out("classes.txt")) and not os.path.exists(cfg.out("designs.gap"))
    assert os.listdir(cfg.out("designs")) == []
    caplog.clear()
    assert main(["classify", "--config", cfgp]) == EXIT_OK
    assert "stopped at a cap" in caplog.text
    # the design files of the earlier, complete classification are gone
    assert os.listdir(cfg.out("designs")) == ["design_01.txt"]
    lines = cmd_report([cfgp]).splitlines()
    assert lines[1].split()[-1] == "1+"  # designs
    assert lines[-1].split()[4] == "1+"  # sols


def _recorded(cfg):
    """run.json and the artifacts that the entries of its record list."""
    with open(cfg.out("run.json")) as fh:
        entries = json.load(fh)["stages"].values()
    return {"run.json"}.union(*(e["artifacts"] for e in entries))


def _found(cfg):
    """The top-level name of every file in the output directory."""
    return {os.path.relpath(os.path.join(root, f), cfg.output_dir).split(os.sep)[0]
            for root, _, files in os.walk(cfg.output_dir) for f in files}


def test_rerun_stage_leaves_only_recorded_outputs(c19c_cfg):
    # a clean encoding-c run writes every output of the table, each listed
    # by its own stage's entry
    cfg = run_pipeline(c19c_cfg)
    assert tuple(cli.OUTPUTS) == cli.STAGES
    with open(cfg.out("run.json")) as fh:
        stages = json.load(fh)["stages"]
    assert {s: set(e["artifacts"]) for s, e in stages.items()} == {
        s: set(names) for s, (names, _) in cli.OUTPUTS.items()}
    assert _found(cfg) == _recorded(cfg)
    # a rerun stage deletes the outputs of the entries it drops
    for stage in reversed(cli.STAGES):
        assert main([stage, "--config", c19c_cfg]) == EXIT_OK
        assert _found(cfg) == _recorded(cfg)
    assert _found(cfg) == {"run.json", *cli.OUTPUTS["orbits"][0]}


def test_jobs_flag_is_deterministic(tmp_path, fixtures_dir):
    base = dict(
        v=19,
        k=3,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "C19.grp"),
    )
    outs = []
    for jobs in ("1", "2"):
        path = write_config(tmp_path / f"j{jobs}.cfg", output_dir=str(tmp_path / f"r{jobs}"),
                            **base)
        assert main(["orbits", "--config", path, "--jobs", jobs]) == EXIT_OK
        cfg = JobConfig.load(path)
        outs.append([open(cfg.out(name), "rb").read() for name in list(ARRAYS)[:4]])
    assert outs[0] == outs[1]


class RecordingExecutor:
    """Stands in for ProcessPoolExecutor: records max_workers and runs the
    work inline, so no process is started."""

    made: list = []

    def __init__(self, max_workers):
        self.made.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.shutdown()

    def map(self, fn, items, chunksize=1):
        return map(fn, items)

    def shutdown(self, wait=True, cancel_futures=False):
        pass


def test_jobs_capped_by_cpus_and_work_items(tmp_path, fixtures_dir, monkeypatch):
    import concurrent.futures

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingExecutor)
    monkeypatch.setattr(RecordingExecutor, "made", [])
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    base = dict(
        v=19,
        k=3,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "C19.grp"),
        normalizer_file=os.path.join(fixtures_dir, "normalizers", "C19.grp"),
        encoding="c",
    )
    one = run_pipeline(write_config(tmp_path / "one.cfg", output_dir=str(tmp_path / "one"), **base))
    assert RecordingExecutor.made == []
    names = ["k_reps.npy", "classes.txt", "designs.gap"]
    expected = {name: open(one.out(name), "rb").read() for name in names}
    cfg = JobConfig.load(write_config(tmp_path / "many.cfg", output_dir=str(tmp_path / "many"),
                                      **base))
    for jobs in ("3", "1000"):  # orbits runs in one process whatever --jobs says
        assert main(["orbits", "--config", cfg.path, "--jobs", jobs]) == EXIT_OK
        assert open(cfg.out("k_reps.npy"), "rb").read() == expected["k_reps.npy"]
    assert RecordingExecutor.made == []
    cmd_km(cfg)
    cmd_encode(cfg)
    cmd_solve(cfg)
    cmd_classify(cfg, jobs=1000)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    cmd_classify(cfg, jobs=1000)  # never more workers than the 8 designs
    assert RecordingExecutor.made == [4, 8]
    assert {name: open(cfg.out(name), "rb").read() for name in names} == expected


def test_jobs_below_one_rejected(sts13_cfg, caplog):
    stages = ("orbits", "km", "encode", "solve", "classify")
    for stage in stages:
        caplog.clear()
        assert main([stage, "--config", sts13_cfg, "--jobs", "0"]) == EXIT_VALIDATION
        assert "--jobs must be at least 1, not 0" in caplog.text
    assert main(["orbits", "--config", sts13_cfg, "--jobs", "-2"]) == EXIT_VALIDATION
    assert not os.path.exists(JobConfig.load(sts13_cfg).output_dir)
    for stage in stages:  # every stage accepts --jobs
        assert main([stage, "--config", sts13_cfg, "--jobs", "1"]) == EXIT_OK


def test_fingerprint_of_earlier_runs_kept(tmp_path, fixtures_dir):
    # the digest that run.json files already on disk hold for this config
    cfg = JobConfig.load(write_config(
        tmp_path / "c13.cfg",
        v=13,
        k=3,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "C13.grp"),
        normalizer_file=os.path.join(fixtures_dir, "normalizers", "C13.grp"),
        encoding="c",
        output_dir=str(tmp_path / "run"),
    ))
    assert cfg.fingerprint == "ac8283332aa159d4"


def test_normalizer_degree_mismatch_rejected(tmp_path, fixtures_dir):
    def config(normalizer_file):
        return write_config(
            tmp_path / "n.cfg",
            v=13,
            k=3,
            t=2,
            group_file=os.path.join(fixtures_dir, "groups", "C13.grp"),
            normalizer_file=normalizer_file,
            encoding="b",
            output_dir=str(tmp_path / "run"),
        )

    cfgp = config(os.path.join(fixtures_dir, "normalizers", "C19.grp"))
    with pytest.raises(ValidationError, match="normalizer degree 19 does not match v=13"):
        JobConfig.load(cfgp)
    assert main(["orbits", "--config", cfgp]) == EXIT_VALIDATION
    assert not os.path.exists(tmp_path / "run")
    with pytest.raises(ValidationError, match="normalizer file: .*missing.grp"):
        JobConfig.load(config("missing.grp"))


def test_encoding_c_through_cli(tmp_path, fixtures_dir):
    cfgp = write_config(
        tmp_path / "c19.cfg",
        v=19,
        k=3,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "C19.grp"),
        normalizer_file=os.path.join(fixtures_dir, "normalizers", "C19.grp"),
        encoding="c",
        output_dir=str(tmp_path / "run"),
    )
    cfg = run_pipeline(cfgp)
    assert solve_counts(cfg)["solutions"] == 8
    classes = [line for line in open(cfg.out("classes.txt")) if line.strip()]
    assert len(classes) == 4


def test_classify_jobs_deterministic(sts13_cfg):
    cfg = run_pipeline(sts13_cfg)
    before = open(cfg.out("classes.txt")).read()
    cmd_classify(cfg, jobs=2)
    assert open(cfg.out("classes.txt")).read() == before


def test_classify_records_canon_nodes_and_logs_progress(tmp_path, fixtures_dir, caplog, monkeypatch):
    cfgp = write_config(
        tmp_path / "c19.cfg",
        v=19,
        k=3,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "C19.grp"),
        normalizer_file=os.path.join(fixtures_dir, "normalizers", "C19.grp"),
        encoding="c",
        output_dir=str(tmp_path / "run"),
    )
    monkeypatch.setattr(cli, "PROGRESS_SECONDS", 0.0)
    with caplog.at_level("INFO", logger="kmsteiner"):
        cfg = run_pipeline(cfgp)
    progress = [r.getMessage() for r in caplog.records if r.getMessage().startswith("canonized")]
    assert progress[0].startswith("canonized design 1 of 8, ")
    assert progress[-1].startswith("canonized design 8 of 8, ")

    def canon_nodes():
        with open(cfg.out("run.json")) as fh:
            return json.load(fh)["stages"]["classify"]["counts"]["canon_nodes"]

    assert progress[-1] == f"canonized design 8 of 8, {canon_nodes()} nodes"
    assert canon_nodes() == 155
    cmd_classify(cfg, jobs=2)
    assert canon_nodes() == 155


def test_report_tables(sts13_cfg):
    run_pipeline(sts13_cfg)
    text = cmd_report([sts13_cfg])
    assert "C13" in text
    assert "156" in text  # normalizer order
    lines = text.splitlines()
    assert lines[0].startswith("group")
    bench = [ln for ln in lines if ln.startswith("C13") and " b " in f" {ln} "]
    assert any("18" in ln for ln in lines)  # option count
    bench_row = lines[lines.index("") + 2].split()
    assert bench_row[:2] == ["C13", "b"]
    float(bench_row[-1])  # solve seconds from the run record, not "-"


def test_report_shows_no_classes_as_0(tmp_path):
    # G = N = S_7 is 2-transitive: no good triple orbit, so no classes
    group = tmp_path / "S7.grp"
    group.write_text("degree 7\n(1,2)\n(1,2,3,4,5,6,7)\n")
    cfgp = write_config(tmp_path / "s7.cfg", v=7, k=3, t=2, group_file=group,
                        normalizer_file=group, encoding="c", output_dir=tmp_path / "run")
    run_stages(cfgp, ["orbits", "km", "encode", "solve", "classify"])
    lines = cmd_report([cfgp]).splitlines()
    assert lines[1].split() == ["S7", "0", "5040", "0", "0"]
    assert lines[4].split()[:5] == ["S7", "c", "2+0", "0", "0"]


def test_report_marks_stages_not_run(sts13_cfg, tmp_path, fixtures_dir):
    # "-" for a stage not yet run, and for the classes of encoding a
    run_stages(sts13_cfg, ["orbits", "km", "encode"])
    lines = cmd_report([sts13_cfg]).splitlines()
    assert lines[1].split() == ["C13", "16", "156", "2", "-"]
    assert lines[4].split() == ["C13", "b", "-", "-", "-", "-", "-"]
    cfgp = write_config(tmp_path / "a.cfg", v=13, k=3, t=2, encoding="a",
                        group_file=os.path.join(fixtures_dir, "groups", "C13.grp"),
                        output_dir=tmp_path / "run_a")
    run_stages(cfgp, ["orbits", "km", "encode", "solve"])
    lines = cmd_report([cfgp]).splitlines()
    assert lines[1].split() == ["C13", "16", "-", "-", "-"]
    assert lines[4].split()[:5] == ["C13", "a", "6+0", "16", "4"]


def test_classify_and_report_read_only_the_listed_counts(tmp_path, fixtures_dir):
    # every stage entry stripped to the counts cli.OUTPUTS names: classify
    # and report still succeed, with the same output
    cfgp = write_config(tmp_path / "c13.cfg", v=13, k=3, t=2, encoding="c",
                        group_file=os.path.join(fixtures_dir, "groups", "C13.grp"),
                        normalizer_file=os.path.join(fixtures_dir, "normalizers", "C13.grp"),
                        output_dir=tmp_path / "run")
    cfg = run_pipeline(cfgp)
    report = cmd_report([cfgp])
    classes = open(cfg.out("classes.txt")).read()

    def strip():
        with open(cfg.out("run.json")) as fh:
            record = json.load(fh)
        for stage, entry in record["stages"].items():
            keep = cli.OUTPUTS[stage][1]
            entry["counts"] = {k: v for k, v in entry["counts"].items() if k in keep}
        with open(cfg.out("run.json"), "w") as fh:
            json.dump(record, fh)

    strip()
    assert main(["report", "--config", cfgp]) == EXIT_OK
    assert cmd_report([cfgp]) == report
    assert main(["classify", "--config", cfgp]) == EXIT_OK
    assert open(cfg.out("classes.txt")).read() == classes
    strip()
    assert cmd_report([cfgp]) == report


@pytest.fixture
def c19c_cfg(tmp_path, fixtures_dir):
    return write_config(
        tmp_path / "c19.cfg",
        v=19,
        k=3,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "C19.grp"),
        normalizer_file=os.path.join(fixtures_dir, "normalizers", "C19.grp"),
        encoding="c",
        output_dir=str(tmp_path / "run"),
    )


def _library_problem(cfg):
    from kmsteiner import build_km, encode, good_k_orbit_reps, normalizer_classes, t_orbit_reps

    ko = good_k_orbit_reps(cfg.G, cfg.v, cfg.k, cfg.t)
    km = build_km(cfg.G, t_orbit_reps(cfg.G, cfg.v, cfg.t), ko)
    return encode(km, normalizer_classes(cfg.N, ko, cfg.G), cfg.encoding).problem


def test_solve_rebuilds_the_library_problem(c19c_cfg):
    # solve records the counts of the problem it built, the library's
    cfg = JobConfig.load(c19c_cfg)
    run_stages(c19c_cfg, ["orbits", "km", "encode", "solve"])
    stages = cli._check_record(cfg, "classify")
    problem = cli._problem(cfg, stages)
    assert problem == _library_problem(cfg)
    assert stages["encode"]["counts"] == {"classes": 3}
    counts = stages["solve"]["counts"]
    assert (counts["primary"], counts["secondary"], counts["options"]) == (
        len(problem.primary), len(problem.secondary), problem.n_options)


def test_xcc_export(c19c_cfg, tmp_path, capsys):
    from kmsteiner.xcc import export_text

    cfg = JobConfig.load(c19c_cfg)
    assert main(["xcc", "export", "--config", c19c_cfg]) == EXIT_VALIDATION  # nothing encoded yet
    run_stages(c19c_cfg, ["orbits", "km", "encode"])
    text = export_text(_library_problem(cfg))
    capsys.readouterr()
    assert main(["xcc", "export", "--config", c19c_cfg]) == EXIT_OK
    assert capsys.readouterr().out == text
    path = tmp_path / "c19c.xcc"
    assert main(["xcc", "export", "--config", c19c_cfg, str(path)]) == EXIT_OK
    assert path.read_text() == text
    assert main(["xcc", "solve", str(path)]) == EXIT_OK
    assert capsys.readouterr().out.startswith("solutions=8 nodes=")


@pytest.mark.parametrize("stage", ["km", "encode", "classify"])
def test_stage_seconds_include_reading_inputs(sts13_cfg, monkeypatch, stage):
    run_stages(sts13_cfg, ["orbits", "km", "encode", "solve", "classify"])
    load = cli._load_orbits

    def slow_load(*args):
        time.sleep(0.2)
        return load(*args)

    monkeypatch.setattr(cli, "_load_orbits", slow_load)
    assert main([stage, "--config", sts13_cfg]) == EXIT_OK
    with open(JobConfig.load(sts13_cfg).out("run.json")) as fh:
        assert json.load(fh)["stages"][stage]["seconds"] >= 0.2


@pytest.mark.parametrize(
    "text, where, message",
    [
        ("A | X\nA X:x\n", ":2", "malformed color 'x'"),
        ("A | X\nA\nA X:1 A\n", ":3", "item 'A' repeated within the option"),
        ("A A | X\nA\n", ":1", "duplicate item name"),
        ("", "", "empty problem text"),
    ],
)
def test_xcc_file_errors_name_file_and_line(tmp_path, caplog, text, where, message):
    path = tmp_path / "p.xcc"
    path.write_text(text)
    assert main(["xcc", "solve", str(path)]) == EXIT_VALIDATION
    expect_one_error(caplog, f"{path}{where}: {message}")


def test_xcc_passthrough(tmp_path):
    from kmsteiner.xcc import XCCProblem, export_text

    p = XCCProblem(["A", "B"], [], [((0,), ()), ((1,), ()), ((0, 1), ())])
    path = tmp_path / "toy.xcc"
    path.write_text(export_text(p))
    proc = subprocess.run(
        [sys.executable, "-m", "kmsteiner.cli", "xcc", "solve", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    out = proc.stdout.strip()
    assert out.startswith("solutions=2 nodes=")
    assert "seconds=" in out


def test_cli_subprocess_smoke(tmp_path, fixtures_dir):
    cfgp = write_config(
        tmp_path / "s.cfg",
        v=13,
        k=3,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "C13.grp"),
        output_dir=str(tmp_path / "run"),
    )
    for stage in ("orbits", "km", "encode", "solve", "classify"):
        proc = subprocess.run(
            [sys.executable, "-m", "kmsteiner.cli", stage, "--config", cfgp],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, (stage, proc.stderr)
    assert os.path.exists(tmp_path / "run" / "classes.txt")


@pytest.mark.parametrize("key, value", [("node_cap", "-1"), ("time_cap", "-0.5"),
                                        ("time_cap", "nan"), ("solution_limit", "0"),
                                        ("solution_limit", "-3")])
def test_bad_cap_in_config_rejected(tmp_path, fixtures_dir, key, value):
    path = write_config(
        tmp_path / "cap.cfg",
        v=13,
        k=3,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "C13.grp"),
        output_dir=str(tmp_path / "out"),
        **{key: value},
    )
    with pytest.raises(ValidationError, match=key):
        JobConfig.load(path)
    assert main(["orbits", "--config", path]) == EXIT_VALIDATION


def test_solve_logs_progress(tmp_path, caplog, monkeypatch):
    # S(3,4,10) with the trivial group: the solve passes 256 nodes early
    (tmp_path / "trivial.grp").write_text("degree 10\n")
    cfgp = write_config(
        tmp_path / "s3410.cfg",
        v=10,
        k=4,
        t=3,
        group_file=str(tmp_path / "trivial.grp"),
        node_cap=600,
        output_dir=str(tmp_path / "run"),
    )
    for stage in ("orbits", "km", "encode"):
        assert main([stage, "--config", cfgp]) == EXIT_OK
    monkeypatch.setattr(cli, "PROGRESS_SECONDS", 0.0)
    with caplog.at_level("INFO", logger="kmsteiner"):
        assert main(["solve", "--config", cfgp]) == EXIT_RESOURCE
    lines = [r.getMessage() for r in caplog.records if "root branch" in r.getMessage()]
    assert [ln.split(",")[0] for ln in lines] == ["256 nodes", "512 nodes"]
    for ln in lines:
        _, rate, depth, branch = ln.split(", ")
        assert rate.endswith(" nodes/s") and float(rate.split()[0]) > 0
        assert depth.startswith("depth ") and 0 < int(depth.split()[1]) <= 30
        # every one of the 120 triples lies in 7 of the 210 4-subsets
        assert branch == "root branch 1 of 7"


def test_orbits_logs_progress_and_nodes(tmp_path, fixtures_dir, caplog, monkeypatch):
    # G8: 2,443 good orbits in 40,249 nodes, so the kernel returns once, at the end
    cfgp = write_config(
        tmp_path / "g8.cfg",
        v=91,
        k=6,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "G08.grp"),
        output_dir=str(tmp_path / "run"),
    )
    monkeypatch.setattr(cli, "PROGRESS_SECONDS", 0.0)
    with caplog.at_level("INFO", logger="kmsteiner"):
        assert main(["orbits", "--config", cfgp]) == EXIT_OK
    messages = [r.getMessage() for r in caplog.records]
    lines = [m for m in messages if "second point" in m]
    assert len(lines) == 1
    nodes, rate, reps, second = lines[0].split(", ")
    assert (nodes, reps) == ("40249 nodes", "2443 representatives")
    assert rate.endswith(" nodes/s") and float(rate.split()[0]) > 0
    words = second.split()
    assert words[:2] == ["second", "point"] and words[3:] == ["of", "91"]
    assert 2 <= int(words[2]) <= 87  # a second point leaves room for four more
    assert "good k-orbits: 2443, 40249 search nodes" in messages
    with open(os.path.join(tmp_path, "run", "run.json")) as fh:
        counts = json.load(fh)["stages"]["orbits"]["counts"]
    assert (counts["good_orbits"], counts["search_nodes"]) == (2443, 40249)


def test_missing_compiler_exits_1(sts13_cfg, tmp_path, monkeypatch, caplog):
    # no gcc on PATH and no cached kernel: orbits, solve and classify log
    # the loader's message and exit 1 instead of raising out of main
    from kmsteiner import _native

    for stage in ("orbits", "km", "encode", "solve"):
        assert main([stage, "--config", sts13_cfg]) == EXIT_OK
    kernels = tmp_path / "kernels"
    kernels.mkdir()
    for name in ("_orbits.c", "_refine.c", "_xcc.c"):
        shutil.copy(os.path.join(os.path.dirname(_native.__file__), name), kernels)
    monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    monkeypatch.setattr(_native, "_loaded", {})
    monkeypatch.setattr(_native, "__file__", str(kernels / "_native.py"))
    for stage, source in (("orbits", "_orbits.c"), ("solve", "_xcc.c"),
                          ("classify", "_refine.c")):
        caplog.clear()
        assert main([stage, "--config", sts13_cfg]) == EXIT_VALIDATION
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].exc_info is None
        assert errors[0].getMessage() == (
            f"building the C kernel {source} needs gcc, found none on PATH"
        )
    assert not (kernels / "__pycache__").exists()


@pytest.mark.parametrize("key, value, error", [
    pytest.param("v", "thirteen", "invalid literal for int() with base 10: 'thirteen'",
                 id="v-word"),
    pytest.param("v", "", "invalid literal for int() with base 10: ''", id="v-empty"),
    pytest.param("node_cap", "1e3", "invalid literal for int() with base 10: '1e3'",
                 id="node_cap-float"),
    pytest.param("time_cap", "soon", "could not convert string to float: 'soon'",
                 id="time_cap-word"),
])
def test_bad_value_in_config_names_its_line(tmp_path, fixtures_dir, caplog, key, value, error):
    keys = dict(v=13, k=3, t=2, group_file=os.path.join(fixtures_dir, "groups", "C13.grp"),
                output_dir=tmp_path / "out", node_cap=5, time_cap=1.5)
    keys[key] = value
    path = write_config(tmp_path / "bad.cfg", **keys)
    line = list(keys).index(key) + 1
    message = f"{path}:{line}: key {key!r}: {error}"
    with pytest.raises(ValidationError) as exc:
        JobConfig.load(path)
    assert str(exc.value) == message
    caplog.clear()
    assert main(["orbits", "--config", path]) == EXIT_VALIDATION
    assert caplog.records[-1].getMessage() == message
    assert not os.path.exists(tmp_path / "out")


@pytest.mark.parametrize("missing", ["v", "k", "t", "group_file", "output_dir"])
def test_missing_required_key_rejected(tmp_path, fixtures_dir, missing):
    keys = dict(
        v=13,
        k=3,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "C13.grp"),
        output_dir=str(tmp_path / "out"),
        encoding="a",
    )
    del keys[missing]
    path = write_config(tmp_path / "short.cfg", **keys)
    with pytest.raises(ValidationError, match=f"missing required key '{missing}'"):
        JobConfig.load(path)


def test_config_keys_are_the_documented_ones(tmp_path, fixtures_dir):
    # every documented key loads; the path field is not a key
    cfg = JobConfig.load(write_config(
        tmp_path / "all.cfg",
        v=13,
        k=3,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "C13.grp"),
        normalizer_file=os.path.join(fixtures_dir, "normalizers", "C13.grp"),
        encoding="c",
        node_cap=5,
        time_cap=1.5,
        solution_limit=2,
        label="C13",
        output_dir=str(tmp_path / "out"),
    ))
    assert (cfg.encoding, cfg.node_cap, cfg.time_cap, cfg.solution_limit, cfg.label) == (
        "c", 5, 1.5, 2, "C13"
    )
    with open(cfg.path, "a") as fh:
        fh.write("path = elsewhere.cfg\n")
    with pytest.raises(ValidationError, match="unknown key 'path'"):
        JobConfig.load(cfg.path)
