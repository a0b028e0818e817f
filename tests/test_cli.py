import json
import os
import shutil
import subprocess
import sys

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
        "torbits.txt",
        "korbits.txt",
        "km.txt",
        "xcc.txt",
        "copymap.txt",
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


@pytest.mark.parametrize(
    "edit",
    [
        lambda head: head.replace(" 13 3 2", " 14 3 2"),  # v
        lambda head: f"{int(head.split()[0]) + 1} " + head.split(" ", 1)[1],  # m
    ],
)
def test_km_file_disagreeing_with_orbits_rejected(sts13_cfg, edit):
    cfg = JobConfig.load(sts13_cfg)
    cmd_orbits(cfg)
    cmd_km(cfg)
    with open(cfg.out("km.txt")) as fh:
        head, rest = fh.readline(), fh.read()
    with open(cfg.out("km.txt"), "w") as fh:
        fh.write(edit(head) + rest)
    assert main(["encode", "--config", sts13_cfg]) == EXIT_VALIDATION
    assert not os.path.exists(cfg.out("xcc.txt"))


@pytest.mark.parametrize(
    "name,line",
    [
        ("korbits.txt", "1 2 size=13"),  # a 2-point rep among 3-point reps
        ("korbits.txt", "0 1 2 size=13"),
        ("korbits.txt", "1 2 14 size=13"),
        ("korbits.txt", "1 2 4 size=0"),
        ("korbits.txt", "1 2 99999999999999999999 size=13"),
        ("torbits.txt", "1 2 3 size=13"),
        ("korbits.txt", "1 2 5 size=26"),  # a KM entry that is not an integer
    ],
)
def test_tampered_orbit_file_rejected(sts13_cfg, name, line):
    cfg = JobConfig.load(sts13_cfg)
    cmd_orbits(cfg)
    with open(cfg.out(name)) as fh:
        lines = fh.read().splitlines()
    lines[1] = line
    with open(cfg.out(name), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    assert main(["km", "--config", sts13_cfg]) == EXIT_VALIDATION
    assert not os.path.exists(cfg.out("km.txt"))


@pytest.mark.parametrize(
    "name,i,line",
    [
        ("solutions.txt", 0, "-6 1"),  # a negative orbit index
        ("solutions.txt", 0, "1 99"),  # an option the problem does not have
        ("copymap.txt", 1, "copy 17 = orbit 500"),
        ("copymap.txt", 1, "copy 16 = orbit 500"),  # copy option 17 unmapped
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


def test_solution_limit_flag(tmp_path, fixtures_dir):
    cfgp = write_config(
        tmp_path / "lim.cfg",
        v=13,
        k=3,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "C13.grp"),
        output_dir=str(tmp_path / "run"),
    )
    assert main(["orbits", "--config", cfgp]) == EXIT_OK
    assert main(["km", "--config", cfgp]) == EXIT_OK
    assert main(["encode", "--config", cfgp]) == EXIT_OK
    assert main(["solve", "--config", cfgp, "--limit", "1"]) == EXIT_RESOURCE
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
    assert main(["solve", "--config", cfgp, "--limit", "1"]) == EXIT_RESOURCE
    caplog.clear()
    assert main(["classify", "--config", cfgp]) == EXIT_OK
    assert "stopped at a cap" in caplog.text
    # the design files of the earlier, complete classification are gone
    assert os.listdir(cfg.out("designs")) == ["design_01.txt"]
    lines = cmd_report([cfgp]).splitlines()
    assert lines[1].split()[-1] == "1+"  # designs
    assert lines[-1].split()[4] == "1+"  # sols


def test_jobs_flag_is_deterministic(tmp_path, fixtures_dir):
    out1 = str(tmp_path / "r1")
    out2 = str(tmp_path / "r2")
    base = dict(
        v=19,
        k=3,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "C19.grp"),
    )
    c1 = JobConfig.load(write_config(tmp_path / "a.cfg", output_dir=out1, **base))
    c2 = JobConfig.load(write_config(tmp_path / "b.cfg", output_dir=out2, **base))
    cmd_orbits(c1, jobs=1)
    cmd_orbits(c2, jobs=2)
    assert open(c1.out("korbits.txt")).read() == open(c2.out("korbits.txt")).read()


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
    assert canon_nodes() == 1004
    cmd_classify(cfg, jobs=2)
    assert canon_nodes() == 1004


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


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_bad_limit_flag_rejected(tmp_path, fixtures_dir, limit):
    cfgp = write_config(
        tmp_path / "lim.cfg",
        v=13,
        k=3,
        t=2,
        group_file=os.path.join(fixtures_dir, "groups", "C13.grp"),
        output_dir=str(tmp_path / "run"),
    )
    for stage in ("orbits", "km", "encode"):
        assert main([stage, "--config", cfgp]) == EXIT_OK
    assert main(["solve", "--config", cfgp, "--limit", limit]) == EXIT_VALIDATION
    assert not os.path.exists(tmp_path / "run" / "solutions.txt")


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


def test_missing_compiler_exits_1(sts13_cfg, tmp_path, monkeypatch, caplog):
    # no gcc on PATH and no cached kernel: solve and classify log the
    # loader's message and exit 1 instead of raising out of main
    from kmsteiner import _native

    for stage in ("orbits", "km", "encode", "solve"):
        assert main([stage, "--config", sts13_cfg]) == EXIT_OK
    kernels = tmp_path / "kernels"
    kernels.mkdir()
    for name in ("_refine.c", "_xcc.c"):
        shutil.copy(os.path.join(os.path.dirname(_native.__file__), name), kernels)
    monkeypatch.setattr(_native.shutil, "which", lambda name: None)
    monkeypatch.setattr(_native, "_loaded", {})
    monkeypatch.setattr(_native, "__file__", str(kernels / "_native.py"))
    for stage, source in (("solve", "_xcc.c"), ("classify", "_refine.c")):
        caplog.clear()
        assert main([stage, "--config", sts13_cfg]) == EXIT_VALIDATION
        errors = [r for r in caplog.records if r.levelname == "ERROR"]
        assert len(errors) == 1 and errors[0].exc_info is None
        assert errors[0].getMessage() == (
            f"building the C kernel {source} needs gcc, found none on PATH"
        )
    assert not (kernels / "__pycache__").exists()


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
