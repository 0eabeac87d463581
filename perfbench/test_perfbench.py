"""Checks that the benchmark itself works: every workload's smoke size runs
clean, traced and untraced, and every output check fails when the value it
expects is corrupted.

    python -m pytest perfbench

It lives outside the repository's tier-1 ``testpaths`` and takes a couple of
minutes, most of it CLI start-up.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
import time

import pytest

import run
import workloads as wl

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _result(capsys, *args) -> dict:
    assert run.main(["--seed", "3", "--seconds", "0", "--smoke", *args]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    header, result = json.loads(lines[-2]), json.loads(lines[-1])
    assert set(header["machine"]) == {"nproc", "ram_gb", "python", "numpy", "scipy", "l3"}
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_smoke_run_is_correct_and_reports_end_to_end_metrics(capsys, workload):
    result = _result(capsys, "--workload", workload, "--trace", "0")
    assert result["failed"] == 0 and result["correct"] and result["attempted"] >= 2
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", sorted(wl.WORKLOADS))
def test_smoke_traced_run_reports_every_layer_metric(capsys, workload):
    result = _result(capsys, "--workload", workload, "--trace", "1")
    assert result["failed"] == 0 and result["correct"]
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert metrics["cli.startup_ms"] > 0 and metrics["cli.import_ms"] > 0
    assert metrics["io.read_mb_per_s"] > 0
    if workload == "mask_eval":
        assert metrics["projection.project_study.calls"] == 0
        assert metrics["metrics.evaluate_class_set.peak_mb"] > 0
    else:
        assert metrics["projection.project_study.calls"] > 0
        assert metrics["projection.project_study.peak_mb"] > 0


def test_missing_source_exits_nonzero_without_a_result(tmp_path):
    bench = tmp_path / "perfbench"
    shutil.copytree(run.ROOT / "perfbench", bench,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    res = subprocess.run([sys.executable, str(bench / "run.py"), "--workload", "mask_eval",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert res.returncode != 0 and res.stdout == ""


# ---------------------------------------------------------------------------
# corrupted expectations must fail their checks


@pytest.fixture(scope="module")
def cohort(tmp_path_factory):
    """A smoke cohort_chain set up once; passes run in-process. The outputs
    of a clean pass are kept under ``clean/`` for the read-only checks."""
    sys.path.insert(0, str(run.SRC))
    from drrkit import cli

    def in_process(args):
        start = time.perf_counter()
        return cli.main(args), time.perf_counter() - start, 0.0

    root = tmp_path_factory.mktemp("cohort")
    workload = wl.CohortChain(smoke=True)
    run.setup_inputs(workload, root / "inputs", seed=5, repeats=1)

    def one_pass(reference=None):
        return run.run_pass(workload, root / "inputs", root / "out", in_process, reference)

    clean = one_pass()
    assert clean.problems and not any(clean.problems), clean.problems
    shutil.copytree(root / "out", root / "clean")
    return workload, one_pass, clean, root


def _failed_commands(result: run.Pass) -> set[str]:
    return {cmd for cmd, problems in zip(result.commands, result.problems) if problems}


@pytest.mark.parametrize("corrupt, command", [
    (lambda t: t.measures["s00"]["cardiomegaly"].update(grade="severe"), "measure"),
    (lambda t: t.measures["s00"]["scoliosis"].update(value=99.0), "measure"),
    (lambda t: t.measures["s01"]["cardiomegaly"].update(reason="too few vertebrae"), "measure"),
    (lambda t: t.overlaps["s00"].update({1: (t.overlaps["s00"][1][0] + 1e-9,
                                             t.overlaps["s00"][1][1])}), "evaluate"),
    (lambda t: t.n_labels.update(s00=t.n_labels["s00"] + 1), "project"),
])
def test_corrupted_expected_value_fails_its_check(cohort, corrupt, command):
    workload, one_pass, _, _ = cohort
    saved = copy.deepcopy(workload.truth)
    try:
        corrupt(workload.truth)
        assert command in _failed_commands(one_pass())
    finally:
        workload.truth = saved


def test_output_differing_from_first_pass_fails(cohort):
    _, one_pass, clean, _ = cohort
    reference = copy.deepcopy(clean)
    reference.digests[0] = "0" * 64
    result = one_pass(reference)
    assert result.problems[0] == ["output differs from the first pass"]
    assert not any(result.problems[1:])


def test_nonzero_exit_code_fails(cohort):
    _, one_pass, _, root = cohort
    roles = root / "inputs" / "roles.json"
    saved = roles.read_text()
    try:
        roles.write_text(json.dumps({"heart": [1], "lungs": [2]}))
        result = one_pass()
    finally:
        roles.write_text(saved)
    measure = [p for c, p in zip(result.commands, result.problems) if c == "measure"]
    assert measure and all(p and p[0] == "exit code 1" for p in measure)


def test_stats_checks_fail_on_wrong_expected_counts(cohort):
    workload, _, _, root = cohort
    stats = root / "clean" / "stats"
    assert not wl.check_pairwise(stats / "pairwise.json", len(wl.MODELS))
    assert wl.check_pairwise(stats / "pairwise.json", len(wl.MODELS) + 1)
    graded = sum(not exp["excluded"] for study in workload.truth.measures.values()
                 for exp in study.values())
    assert not wl.check_ordinal(stats / "ordinal.json", graded)
    assert wl.check_ordinal(stats / "ordinal.json", graded + 1)


def test_projection_check_fails_on_constant_image_or_empty_mask(cohort, tmp_path):
    workload, _, _, root = cohort
    proj = tmp_path / "projected"
    shutil.copytree(root / "clean" / "projected", proj)
    assert not wl.check_projection(proj, workload.truth.n_labels)
    mask = next((proj / "s00" / "PA").glob("*.pgm"))
    h, w = wl.read_pgm(mask).shape
    mask.write_bytes(f"P5\n{w} {h}\n255\n".encode() + bytes(w * h))
    image = proj / "s00" / "LL.pgm"
    h, w = wl.read_pgm(image).shape
    image.write_bytes(f"P5\n{w} {h}\n255\n".encode() + bytes([7]) * (w * h))
    problems = wl.check_projection(proj, workload.truth.n_labels)
    assert any("is empty" in p for p in problems)
    assert any("LL image is constant" in p for p in problems)
