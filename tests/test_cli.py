"""End-to-end command-line behavior: layouts, exit codes, determinism."""

import builtins
import collections
import dataclasses
import hashlib
import io
import json
import os
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import drrkit
from drrkit import (LabelVolume, Mask2D, View, Volume, cli, projection, save_label_volume,
                    save_mask, save_volume)


def _collect_bytes(root):
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def _write_study_inputs(root, n_labels=0):
    """A small volume plus optional box labels; returns the manifest path."""
    rng = np.random.default_rng(0)
    vol = rng.integers(-1000, 1500, size=(6, 5, 4)).astype(np.int16)
    save_volume(Volume(data=vol, spacing=(1.0, 1.5, 2.0)), root / "vol.json")
    labels = []
    for i in range(n_labels):
        lab = np.zeros((6, 5, 4), dtype=np.uint8)
        lab[1 + i:4 + i, 1:4, 1:3] = 1
        save_label_volume(LabelVolume(data=lab, label_id=i + 1),
                          root / f"lab{i + 1}.json")
        labels.append({"label_id": i + 1, "path": f"lab{i + 1}.json"})
    manifest = {"studies": [{"id": "case01", "volume": "vol.json",
                             "labels": labels}]}
    path = root / "manifest.json"
    path.write_text(json.dumps(manifest))
    return path


def _save_pgm_mask(arr, path, view=View.PA):
    path.parent.mkdir(parents=True, exist_ok=True)
    save_mask(Mask2D(data=np.asarray(arr, dtype=np.uint8), view=view,
                     spacing=(1, 1)), path)


def _rect(shape, r0, r1, c0, c1):
    out = np.zeros(shape, dtype=np.uint8)
    out[r0:r1, c0:c1] = 1
    return out


def _block(shape, cy, cx):
    out = np.zeros(shape, dtype=np.uint8)
    out[cy - 1:cy + 2, cx - 1:cx + 2] = 1
    return out


# --- project ---------------------------------------------------------------

def test_project_no_labels_writes_images_only(tmp_path):
    manifest = _write_study_inputs(tmp_path, n_labels=0)
    out = tmp_path / "out"
    rc = cli.main(["project", "--manifest", str(manifest), "--out", str(out)])
    assert rc == 0
    study = out / "case01"
    assert (study / "PA.pgm").is_file()
    assert (study / "LL.pgm").is_file()
    assert (study / "provenance.json").is_file()
    assert not (study / "PA").exists()
    assert not (study / "LL").exists()


def test_project_with_labels_layout(tmp_path):
    manifest = _write_study_inputs(tmp_path, n_labels=2)
    out = tmp_path / "out"
    assert cli.main(["project", "--manifest", str(manifest), "--out", str(out)]) == 0
    study = out / "case01"
    for view in ("PA", "LL"):
        assert (study / f"{view}.pgm").is_file()
        assert (study / view / "1.pgm").is_file()
        assert (study / view / "2.pgm").is_file()


def test_project_rerun_byte_identical(tmp_path):
    manifest = _write_study_inputs(tmp_path, n_labels=1)
    out = tmp_path / "out"
    argv = ["project", "--manifest", str(manifest), "--out", str(out)]
    assert cli.main(argv) == 0
    first = _collect_bytes(out)
    assert cli.main(argv) == 0
    assert _collect_bytes(out) == first


def test_project_missing_label_exits_2_without_partial_study(tmp_path):
    manifest_path = _write_study_inputs(tmp_path, n_labels=0)
    doc = json.loads(manifest_path.read_text())
    doc["studies"][0]["labels"] = ["missing_label.json"]
    manifest_path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    rc = cli.main(["project", "--manifest", str(manifest_path), "--out", str(out)])
    assert rc == 2
    assert not (out / "case01").exists()
    assert not list(out.glob(".case01.tmp-*"))


@pytest.mark.parametrize("bad,code,message", [
    ("missing.json", 2, "missing.json"),
    ({"label_id": 9, "path": "lab2.json"}, 1, "study case01: manifest says label_id 9"),
    ("short.json", 1, "do not match volume dims"),
    ("lab1.json", 1, "study case01: duplicate label id 1"),
], ids=["missing", "wrong_id", "wrong_dims", "duplicate_id"])
def test_project_bad_label_keeps_earlier_study(tmp_path, capsys, bad, code, message):
    manifest = _write_study_inputs(tmp_path, n_labels=2)
    save_label_volume(LabelVolume(data=np.zeros((6, 5, 3), dtype=np.uint8), label_id=7),
                      tmp_path / "short.json")
    out = tmp_path / "out"
    argv = ["project", "--manifest", str(manifest), "--out", str(out)]
    assert cli.main(argv) == 0
    before = _collect_bytes(out)
    # The bad label follows a good one, which is already projected when it is read.
    doc = json.loads(manifest.read_text())
    doc["studies"][0]["labels"] = [{"label_id": 1, "path": "lab1.json"}, bad]
    manifest.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(argv) == code
    assert message in capsys.readouterr().err
    assert _collect_bytes(out) == before
    assert [p.name for p in out.iterdir()] == ["case01"]


def test_project_failed_swap_keeps_previous_study(tmp_path, monkeypatch):
    manifest = _write_study_inputs(tmp_path, n_labels=1)
    out = tmp_path / "out"
    argv = ["project", "--manifest", str(manifest), "--out", str(out)]
    assert cli.main(argv) == 0
    before = _collect_bytes(out)
    real_replace = os.replace
    failed = []

    def replace(src, dst):
        # Fail the first move onto the study path: the new study's swap.
        if Path(dst) == out / "case01" and not failed:
            failed.append(src)
            raise OSError("simulated failure swapping in the study")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    assert cli.main(argv + ["--target-spacing", "2.0"]) == 2
    assert failed
    assert _collect_bytes(out) == before
    assert [p.name for p in out.iterdir()] == ["case01"]


def test_stats_failed_replace_keeps_earlier_report(tmp_path, monkeypatch, capsys):
    # The rerun's report is written beside the earlier one and moved into
    # place; when the move fails, the temporary file goes and the report stays.
    argv, path, doc = _cli_input(tmp_path, "pairwise")
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(argv) == 0
    before = out.read_bytes()
    path.write_text(json.dumps({"a": [0.1, 0.2, 0.3], "b": [0.5, 0.4, 0.6]}))

    def replace(src, dst):
        raise OSError("simulated failure replacing the report")
    monkeypatch.setattr(os, "replace", replace)
    assert cli.main(argv) == 2
    assert "simulated failure" in capsys.readouterr().err
    assert out.read_bytes() == before
    assert not list(tmp_path.glob(".tmp-*"))


def _write_cohort(root, n_studies=3):
    """Studies s01, s02, ... each with its own volume and one box label. Each
    volume's 37 rows make two full line-integral slabs and part of a third."""
    rng = np.random.default_rng(1)
    studies = []
    for i in range(1, n_studies + 1):
        sid = f"s{i:02d}"
        vol = rng.integers(-1000, 1500, size=(37, 5, 4)).astype(np.int16)
        save_volume(Volume(data=vol, spacing=(1.0, 1.5, 2.0)), root / f"{sid}.json")
        lab = np.zeros((37, 5, 4), dtype=np.uint8)
        lab[1:4, 1:4, i % 4] = 1
        save_label_volume(LabelVolume(data=lab, label_id=1), root / f"{sid}_lab.json")
        studies.append({"id": sid, "volume": f"{sid}.json", "labels": [f"{sid}_lab.json"]})
    path = root / "manifest.json"
    path.write_text(json.dumps({"studies": studies}))
    return path


def test_project_jobs_changes_nothing_but_speed(tmp_path):
    manifest = _write_cohort(tmp_path)
    trees = []
    before = set(threading.enumerate())
    for jobs in ("1", "2"):
        out = tmp_path / f"out{jobs}"
        assert cli.main(["project", "--manifest", str(manifest), "--out", str(out),
                         "--jobs", jobs]) == 0
        assert set(threading.enumerate()) == before
        trees.append(_collect_bytes(out))
    assert sorted({Path(name).parts[0] for name in trees[0]}) == ["s01", "s02", "s03"]
    assert trees[0] == trees[1]


def test_project_failure_leaves_same_studies_for_any_jobs(tmp_path):
    manifest = _write_cohort(tmp_path)
    (tmp_path / "s01_lab.json").unlink()
    left = []
    for jobs in ("1", "2"):
        out = tmp_path / f"out{jobs}"
        assert cli.main(["project", "--manifest", str(manifest), "--out", str(out),
                         "--jobs", jobs]) == 2
        left.append(sorted(p.name for p in out.iterdir()))
    # Every other study is still attempted, and no temp or set-aside dir stays.
    assert left[0] == left[1] == ["s02", "s03"]


@pytest.mark.parametrize("kind", ["file", "symlink"])
def test_project_leaves_a_file_or_link_at_a_study_s_path_as_it_is(tmp_path, capsys, kind):
    # No earlier study is at out/s01 but the user's own file, or a link to
    # their directory: it is refused untouched, and the other studies written.
    manifest = _write_cohort(tmp_path)
    out, theirs = tmp_path / "out", tmp_path / "theirs"
    out.mkdir()
    theirs.mkdir()
    (theirs / "notes.txt").write_text("keep")
    if kind == "file":
        (out / "s01").write_bytes(b"not a study")
    else:
        (out / "s01").symlink_to(theirs, target_is_directory=True)
    assert cli.main(["project", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"i/o error: [Errno 17] not a study directory, left as it is: '{out / 's01'}'\n")
    if kind == "file":
        assert (out / "s01").read_bytes() == b"not a study"
    else:
        assert os.readlink(out / "s01") == str(theirs)
    assert _collect_bytes(theirs) == {"notes.txt": b"keep"}
    assert sorted(p.name for p in out.iterdir()) == ["s01", "s02", "s03"]
    assert (out / "s02" / "provenance.json").is_file()


def test_project_dotted_volume_names_hash_their_own_files(tmp_path):
    manifest = _write_study_inputs(tmp_path, n_labels=0)
    for suffix in (".json", ".raw"):
        (tmp_path / f"vol{suffix}").rename(tmp_path / f"case.01{suffix}")
    doc = json.loads(manifest.read_text())
    doc["studies"][0]["volume"] = "case.01.json"
    manifest.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert cli.main(["project", "--manifest", str(manifest), "--out", str(out)]) == 0
    prov = json.loads((out / "case01" / "provenance.json").read_text())
    assert sorted(prov["inputs"]) == ["case.01.json", "case.01.raw"]
    for name, digest in prov["inputs"].items():
        assert digest == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()


def test_project_label_stored_as_0_1_or_0_n_gives_the_same_masks(tmp_path):
    # A 0/1 payload is viewed and any other is binarized; the masks must not
    # tell the two apart, and each digest is of the file as stored.
    manifest = _write_study_inputs(tmp_path, n_labels=2)
    trees = {}
    for high in (1, 255, 7):
        for i in (1, 2):
            raw = tmp_path / f"lab{i}.raw"
            payload = np.frombuffer(raw.read_bytes(), dtype=np.uint8)
            raw.write_bytes((payload != 0).astype(np.uint8) * np.uint8(high))
        out = tmp_path / f"out{high}"
        assert cli.main(["project", "--manifest", str(manifest), "--out", str(out)]) == 0
        tree = _collect_bytes(out / "case01")
        prov = json.loads(tree.pop("provenance.json"))
        assert sorted(prov["inputs"]) == ["lab1.json", "lab1.raw", "lab2.json", "lab2.raw",
                                          "vol.json", "vol.raw"]
        for name, digest in prov["inputs"].items():
            assert digest == hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        trees[high] = tree
    assert {"PA/1.pgm", "PA/2.pgm", "LL/1.pgm", "LL/2.pgm"} <= set(trees[1])
    assert trees[1] == trees[255] == trees[7]


def _slow_hashes(monkeypatch):
    # Every hash outlasts the work after it, so a hash thread the command did
    # not end would still be alive when cli.main returns.
    real = hashlib.sha256

    class Slow:
        def __init__(self):
            self._h = real()

        def update(self, blob):
            time.sleep(0.02)
            self._h.update(blob)

        def hexdigest(self):
            return self._h.hexdigest()

    monkeypatch.setattr(hashlib, "sha256", Slow)


def _shrink_after_fstat(monkeypatch, path, size):
    """``path`` shrinks to ``size`` bytes once the reader has opened it and
    checked its size, just before its first read."""
    real_open = builtins.open

    class Shrinking:
        def __init__(self, f):
            self._f = f

        def readinto(self, buf):
            os.truncate(path, size)
            return self._f.readinto(buf)

        def __getattr__(self, name):
            return getattr(self._f, name)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self._f.close()

    def opener(file, *args, **kwargs):
        f = real_open(file, *args, **kwargs)
        return Shrinking(f) if Path(file) == path else f

    monkeypatch.setattr(drrkit.io, "open", opener, raising=False)


def _fail_hashes_of(monkeypatch, nbytes):
    # hashlib.sha256 whose update fails on any buffer of nbytes bytes.
    real = hashlib.sha256

    class Failing:
        def __init__(self):
            self._h = real()

        def update(self, blob):
            if memoryview(blob).nbytes == nbytes:
                raise MemoryError("simulated")
            self._h.update(blob)

        def hexdigest(self):
            return self._h.hexdigest()

    monkeypatch.setattr(hashlib, "sha256", Failing)


@pytest.mark.parametrize("bad,code,message", [
    (None, 0, ""),
    ({"label_id": 9, "path": "lab2.json"}, 1, "manifest says label_id 9"),
    ("missing.json", 2, "missing.json"),
    ("truncated", 1, "lab2.raw: payload ended after 50 bytes, sidecar dims imply 120"),
    ("hash_fails", 3, "internal error: RuntimeError: hashing lab1.raw failed"),
], ids=["success", "exit_1", "exit_2", "truncated", "hash_fails"])
def test_project_leaves_no_thread_behind(tmp_path, monkeypatch, capsys, bad, code, message):
    manifest = _write_study_inputs(tmp_path, n_labels=2)
    if isinstance(bad, dict) or bad == "missing.json":
        doc = json.loads(manifest.read_text())
        doc["studies"][0]["labels"] = [{"label_id": 1, "path": "lab1.json"}, bad]
        manifest.write_text(json.dumps(doc))
    _slow_hashes(monkeypatch)
    if bad == "truncated":
        # Its size passes the check, then it shrinks while being read.
        _shrink_after_fstat(monkeypatch, tmp_path / "lab2.raw", 50)
    elif bad == "hash_fails":
        # Both label payloads (120 bytes) fail to hash; the first is reported.
        _fail_hashes_of(monkeypatch, 120)
    before = set(threading.enumerate())
    out = tmp_path / "out"
    assert cli.main(["project", "--manifest", str(manifest), "--out", str(out)]) == code
    assert set(threading.enumerate()) == before
    assert message in capsys.readouterr().err
    assert (out / "case01").exists() == (code == 0)


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_project_reports_the_volume_error_though_a_label_worker_failed_first(
        tmp_path, monkeypatch, capsys, jobs):
    # The label workers start before the volume is read, and here the missing
    # label has failed before the volume is opened; the volume's own error is
    # still the one reported, as load_volume raised it, with no study prefix.
    manifest = _write_study_inputs(tmp_path, n_labels=1)
    doc = json.loads(manifest.read_text())
    doc["studies"][0]["labels"] = ["missing.json", "lab1.json"]
    manifest.write_text(json.dumps(doc))
    raw = tmp_path / "vol.raw"
    raw.write_bytes(raw.read_bytes()[:-2])
    failed = threading.Event()
    real_read, real_load = cli._read_label, cli.load_volume

    def read_label(entry):
        try:
            return real_read(entry)
        except OSError:
            failed.set()
            raise

    def load_volume(*args, **kwargs):
        assert failed.wait(10)
        return real_load(*args, **kwargs)

    monkeypatch.setattr(cli, "_read_label", read_label)
    monkeypatch.setattr(cli, "load_volume", load_volume)
    before = set(threading.enumerate())
    out = tmp_path / "out"
    assert cli.main(["project", "--manifest", str(manifest), "--out", str(out),
                     "--jobs", jobs]) == 1
    assert set(threading.enumerate()) == before
    err = capsys.readouterr().err
    assert err == f"error: {raw}: payload is 238 bytes, sidecar dims imply 240\n"
    assert not out.exists()


# The io functions that read an input file; every hash runs in _file_chunks.
_READERS = {"_file_chunks", "_read_input", "_read_pair", "_payload_slabs"}


@pytest.mark.parametrize("command", ["project", "measure", "evaluate", "stats"])
def test_each_command_hashes_each_file_on_the_thread_that_reads_it(tmp_path, monkeypatch,
                                                                   command):
    # No hash worker: every SHA-256 runs inside the reader of its file, so on
    # the thread that read it, and measure and stats start no thread at all.
    if command == "project":
        argv = ["project", "--manifest", str(_write_study_inputs(tmp_path, n_labels=2)),
                "--out", str(tmp_path / "out")]
        # The two reads meet before either ends, so the first worker is still
        # busy when the second read is queued, however fast a label is read.
        meet, real_read = threading.Barrier(2, timeout=10), cli._read_label

        def read_label(entry):
            meet.wait()
            return real_read(entry)

        monkeypatch.setattr(cli, "_read_label", read_label)
    else:
        argv = _hashing_run(tmp_path, command, 0)
    real_sha256, real_start = hashlib.sha256, threading.Thread.start
    hashed_in, started = [], []

    class Recording:
        def __init__(self):
            self._h = real_sha256()

        def update(self, blob):
            frame, callers = sys._getframe(1), set()
            while frame is not None:
                callers.add(frame.f_code.co_name)
                frame = frame.f_back
            hashed_in.append(callers & _READERS)
            self._h.update(blob)

        def hexdigest(self):
            return self._h.hexdigest()

    def start(thread):
        started.append(thread)
        real_start(thread)

    monkeypatch.setattr(hashlib, "sha256", Recording)
    monkeypatch.setattr(threading.Thread, "start", start)
    assert cli.main(argv) == 0
    monkeypatch.undo()
    assert hashed_in and all(hashed_in)
    if command in ("measure", "stats"):
        assert started == []
    elif command == "evaluate":
        assert len(started) == 1        # the one reader
    else:
        assert len(started) == 3        # the study pool and two label workers
    out = tmp_path / "out"
    report = out / "case01" / "provenance.json" if command == "project" else (
        out / "provenance.json" if command == "measure" else out)
    inputs = json.loads(report.read_text())["inputs"]
    assert len(inputs) == {"project": 6, "measure": 13, "evaluate": 4, "stats": 1}[command]
    base = {"measure": tmp_path / "study"}.get(command, tmp_path)
    for name, digest in inputs.items():
        path = tmp_path / name if name == "mapping.json" else base / name
        assert digest == hashlib.sha256(path.read_bytes()).hexdigest(), name


def test_project_cancels_the_label_reads_queued_behind_a_failure(tmp_path, monkeypatch,
                                                                  capsys):
    # The first of eight labels is missing. Every other read waits until the
    # label pool shuts down, which is after project_study has raised and the
    # reads not yet begun were cancelled: only those the two workers had
    # begun by then are read.
    manifest = _write_study_inputs(tmp_path, n_labels=8)
    doc = json.loads(manifest.read_text())
    doc["studies"][0]["labels"][0] = "missing.json"
    manifest.write_text(json.dumps(doc))
    shut = threading.Event()
    real_read, begun = cli._read_label, []

    def read_label(entry):
        begun.append(entry[1])
        if entry[1] != "missing.json":
            assert shut.wait(10)
        return real_read(entry)

    class Pool(cli.ThreadPoolExecutor):
        def shutdown(self, *args, **kwargs):
            shut.set()
            super().shutdown(*args, **kwargs)

    monkeypatch.setattr(cli, "_read_label", read_label)
    monkeypatch.setattr(cli, "ThreadPoolExecutor", Pool)
    out = tmp_path / "out"
    assert cli.main(["project", "--manifest", str(manifest), "--out", str(out)]) == 2
    assert "missing.json" in capsys.readouterr().err
    # The first two or three in manifest order, whichever worker began which.
    first = ["missing.json", "lab2.json", "lab3.json"]
    assert sorted(begun) in (sorted(first[:2]), sorted(first))
    assert not (out / "case01").exists()


@pytest.mark.parametrize("jobs", ["1", "2"])
@pytest.mark.parametrize("labels,message", [
    (["lab1.json", "lab1.json", "missing.json"], "duplicate label id 1"),
    (["short.json", "missing.json"], "label 7 dims (6, 5, 3) do not match volume dims (6, 5, 4)"),
    ([{"label_id": 9, "path": "lab1.json"}, "missing.json"],
     "manifest says label_id 9 but lab1.json holds 1"),
], ids=["repeated_id_before_missing_file", "bad_dims_before_missing_label",
        "wrong_id_before_missing_label"])
def test_project_reports_the_first_failing_label_in_manifest_order(tmp_path, monkeypatch,
                                                                   capsys, labels, message,
                                                                   jobs):
    # Every hash is slow, so the missing file, read by the other label
    # worker, fails before the earlier label's fault is found; the earlier
    # label's error is still the one reported.
    manifest = _write_study_inputs(tmp_path, n_labels=1)
    save_label_volume(LabelVolume(data=np.ones((6, 5, 3), dtype=np.uint8), label_id=7),
                      tmp_path / "short.json")
    doc = json.loads(manifest.read_text())
    doc["studies"][0]["labels"] = labels
    manifest.write_text(json.dumps(doc))
    _slow_hashes(monkeypatch)
    out = tmp_path / "out"
    assert cli.main(["project", "--manifest", str(manifest), "--out", str(out),
                     "--jobs", jobs]) == 1
    assert capsys.readouterr().err == f"error: study case01: {message}\n"
    assert not (out / "case01").exists()


def test_project_same_error_and_studies_for_any_jobs(tmp_path, capsys):
    # s01 repeats a label before a missing one, s03 misses its only label:
    # the first failure in manifest order is reported, and s02 is written.
    manifest = _write_cohort(tmp_path)
    doc = json.loads(manifest.read_text())
    doc["studies"][0]["labels"] = ["s01_lab.json", "s01_lab.json", "missing.json"]
    doc["studies"][2]["labels"] = ["missing.json"]
    manifest.write_text(json.dumps(doc))
    runs = []
    for jobs in ("1", "2"):
        out = tmp_path / f"out{jobs}"
        code = cli.main(["project", "--manifest", str(manifest), "--out", str(out),
                         "--jobs", jobs])
        runs.append((code, capsys.readouterr().err, _collect_bytes(out)))
    assert runs[0] == runs[1]
    code, err, tree = runs[0]
    assert (code, err) == (1, "error: study s01: duplicate label id 1\n")
    assert {Path(name).parts[0] for name in tree} == {"s02"}


def _tall_study(root, n_labels):
    """A 128 x 48 x 48 volume with n_labels box labels of its size, each
    label payload 8 slabs of 16 rows; returns the manifest path."""
    dims = (128, 48, 48)
    rng = np.random.default_rng(4)
    save_volume(Volume(data=rng.integers(-1000, 1500, size=dims).astype(np.int16),
                       spacing=(1.0, 1.0, 1.0)), root / "vol.json")
    labels = []
    for i in range(1, n_labels + 1):
        lab = np.zeros(dims, dtype=np.uint8)
        lab[8 * i:8 * i + 40, 4 + i:30 + i, 10:30] = 1
        save_label_volume(LabelVolume(data=lab, label_id=i), root / f"lab{i}.json")
        labels.append(f"lab{i}.json")
    path = root / "manifest.json"
    path.write_text(json.dumps({"studies": [{"id": "s", "volume": "vol.json",
                                             "labels": labels}]}))
    return path


def test_project_memory_does_not_grow_with_the_label_count(tmp_path):
    # Each label is read, hashed and reduced one 16-row slab at a time, so
    # more labels add less than a label payload to the peak, and the first
    # two, read at once by the two label workers, less than half of one.
    peaks = {}
    for n in (0, 2, 8):
        root = tmp_path / str(n)
        root.mkdir()
        argv = ["project", "--manifest", str(_tall_study(root, n)), "--out", str(root / "out")]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            peaks[n] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    payload = 128 * 48 * 48
    assert peaks[8] - peaks[2] < payload, peaks
    assert peaks[2] - peaks[0] < payload // 2, peaks


def _hashing_run(tmp_path, command, code):
    """argv of one measure, evaluate or stats call that exits ``code`` after
    at least one input has gone to be hashed."""
    out = tmp_path / "out"
    if command == "measure":
        study, mapping = _make_measure_study(tmp_path)
        thorax = study / "PA" / "2.pgm"     # read after the mapping and the heart
        if code == 1:
            _save_pgm_mask(_rect((32, 32), 5, 20, 5, 20), thorax)
        elif code == 2:
            thorax.unlink()
            thorax.mkdir()
        return ["measure", "--study", str(study), "--mapping", str(mapping), "--out", str(out)]
    if command == "evaluate":
        manifest = _make_eval_inputs(tmp_path, ref2_shape=(16, 17) if code == 1 else (16, 16))
        if code == 2:
            (tmp_path / "ref2.pgm").unlink()
        return ["evaluate", "--manifest", str(manifest), "--out", str(out), "--resamples", "50"]
    scores = tmp_path / "scores.csv"
    scores.write_text("a,b\n0.9,0.5\n0.8,0.4\n" + ("0.7,x\n" if code == 1 else "0.7,0.6\n"))
    if code == 2:
        out.write_text("")     # a file where the report's directory would go
        out = out / "report"
    return ["stats", "--mode", "pairwise", "--scores", str(scores), "--out", str(out)]


@pytest.mark.parametrize("code", [0, 1, 2], ids=["success", "exit_1", "exit_2"])
@pytest.mark.parametrize("command", ["measure", "evaluate", "stats"])
def test_hashing_commands_leave_no_thread_behind(tmp_path, monkeypatch, command, code):
    argv = _hashing_run(tmp_path, command, code)
    _slow_hashes(monkeypatch)
    before = set(threading.enumerate())
    assert cli.main(argv) == code
    assert set(threading.enumerate()) == before


@pytest.mark.parametrize("command,name", [
    ("measure", "PA/1.pgm"), ("evaluate", "pred1.pgm"), ("stats", "scores.csv")])
def test_a_failed_hash_is_an_error_that_names_the_file(tmp_path, monkeypatch, command, name):
    argv = _hashing_run(tmp_path, command, 0)
    path = (tmp_path / "study" if command == "measure" else tmp_path) / name
    _fail_hashes_of(monkeypatch, path.stat().st_size)
    args = cli.build_parser().parse_args(argv)
    before = set(threading.enumerate())
    with pytest.raises(RuntimeError, match=f"^hashing {name} failed$") as failed:
        args.func(args)
    assert isinstance(failed.value.__cause__, MemoryError)
    assert set(threading.enumerate()) == before
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("umask", [0o022, 0o077], ids=["022", "077"])
def test_outputs_take_the_modes_a_plain_create_gets(tmp_path, monkeypatch, umask):
    # Every file and directory a command writes is 0666 or 0777 less the
    # umask, as with a plain create; an interrupted rerun keeps all of them.
    out = tmp_path / "out"

    def writing_to(argv, name):
        argv[argv.index("--out") + 1] = str(out / name)
        return argv

    runs = [writing_to(["project", "--manifest", str(_write_study_inputs(tmp_path, 2)),
                        "--out", ""], "projected"),
            writing_to(_hashing_run(tmp_path, "measure", 0), "measured"),
            writing_to(_hashing_run(tmp_path, "evaluate", 0), "evaluation.json"),
            writing_to(_hashing_run(tmp_path, "stats", 0), "pairwise.json")]

    def modes():
        return {p: stat.S_IMODE(p.stat().st_mode) for p in [out, *out.rglob("*")]}

    old = os.umask(umask)
    try:
        for argv in runs:
            assert cli.main(argv) == 0
        first = modes()
        assert first == {p: (0o777 if p.is_dir() else 0o666) & ~umask for p in first}
        assert len(first) == 19
        written = _collect_bytes(out)

        def interrupted(src, dst):
            raise KeyboardInterrupt

        monkeypatch.setattr(os, "replace", interrupted)
        for argv in runs:
            with pytest.raises(KeyboardInterrupt):
                cli.main(argv)
    finally:
        os.umask(old)
    assert modes() == first
    assert _collect_bytes(out) == written


@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_project_jobs_below_one_exits_1(tmp_path, capsys, jobs):
    manifest = _write_study_inputs(tmp_path)
    out = tmp_path / "out"
    assert cli.main(["project", "--manifest", str(manifest), "--out", str(out),
                     "--jobs", jobs]) == 1
    assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flags,grid", [
    (["--target-spacing", "1e-300"], "6e+300 x 8e+300"),
    (["--output-size", "100000", "100000"], "100000 x 100000"),
], ids=["tiny_spacing", "huge_output_size"])
def test_project_refuses_a_huge_grid_before_allocating_it(tmp_path, capsys, monkeypatch,
                                                          flags, grid):
    def never(arr, shape):
        raise AssertionError(f"a {shape} grid was allocated")

    monkeypatch.setattr(projection, "_resample_bilinear", never)
    monkeypatch.setattr(projection, "_resample_nearest", never)
    manifest = _write_study_inputs(tmp_path, n_labels=1)
    out = tmp_path / "out"
    assert cli.main(["project", "--manifest", str(manifest), "--out", str(out)]
                    + flags) == 1
    err = capsys.readouterr().err
    assert f"study case01: PA view: a {grid} pixel grid" in err
    assert "above the limit of 67,108,864 pixels" in err
    assert not (out / "case01").exists()


def test_project_missing_manifest_exits_2(tmp_path):
    rc = cli.main(["project", "--manifest", str(tmp_path / "nope.json"),
                   "--out", str(tmp_path / "out")])
    assert rc == 2


def test_project_malformed_manifest_exits_1(tmp_path, capsys):
    bad = tmp_path / "manifest.json"
    bad.write_text("{not json")
    rc = cli.main(["project", "--manifest", str(bad), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("field,value", [
    ("volume", ""), ("volume", 5), ("labels", [""]), ("labels", [{"path": 5}])])
def test_project_bad_manifest_path_exits_1(tmp_path, field, value):
    manifest_path = _write_study_inputs(tmp_path, n_labels=0)
    doc = json.loads(manifest_path.read_text())
    doc["studies"][0][field] = value
    manifest_path.write_text(json.dumps(doc))
    rc = cli.main(["project", "--manifest", str(manifest_path),
                   "--out", str(tmp_path / "out")])
    assert rc == 1


def test_project_duplicate_study_id_exits_1(tmp_path):
    manifest_path = _write_study_inputs(tmp_path, n_labels=0)
    doc = json.loads(manifest_path.read_text())
    doc["studies"].append(dict(doc["studies"][0]))
    manifest_path.write_text(json.dumps(doc))
    rc = cli.main(["project", "--manifest", str(manifest_path),
                   "--out", str(tmp_path / "out")])
    assert rc == 1


def test_project_flag_echoed_in_provenance(tmp_path):
    manifest = _write_study_inputs(tmp_path, n_labels=0)
    out = tmp_path / "out"
    rc = cli.main(["project", "--manifest", str(manifest), "--out", str(out),
                   "--target-spacing", "2.0"])
    assert rc == 0
    prov = json.loads((out / "case01" / "provenance.json").read_text())
    assert prov["config"] == {"projection": {"target_pixel_spacing": 2.0, "output_size": None}}
    assert prov["command"] == "project"
    assert "vol.json" in prov["inputs"] and "vol.raw" in prov["inputs"]


def test_project_flag_beats_config_file(tmp_path):
    manifest = _write_study_inputs(tmp_path, n_labels=0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"projection": {"target_pixel_spacing": 4.0}}))
    out = tmp_path / "out"
    rc = cli.main(["project", "--manifest", str(manifest), "--out", str(out),
                   "--config", str(cfg), "--target-spacing", "2.0"])
    assert rc == 0
    prov = json.loads((out / "case01" / "provenance.json").read_text())
    assert prov["config"]["projection"]["target_pixel_spacing"] == 2.0


def test_project_unknown_config_key_exits_1(tmp_path):
    manifest = _write_study_inputs(tmp_path, n_labels=0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"projection": {"pixel_pitch": 4.0}}))
    rc = cli.main(["project", "--manifest", str(manifest),
                   "--out", str(tmp_path / "out"), "--config", str(cfg)])
    assert rc == 1


@pytest.mark.parametrize("config,message", [
    ({"projecton": {"target_pixel_spacing": 2.0}}, "unknown config section 'projecton'"),
    ([{"projection": {"target_pixel_spacing": 2.0}}], "config file must be a JSON object"),
    ({"projection": [2.0]}, "section 'projection' must be an object"),
], ids=["misspelt-section", "config-not-object", "section-not-object"])
def test_project_config_not_sections_of_settings_exits_1(tmp_path, capsys, config, message):
    manifest = _write_study_inputs(tmp_path, n_labels=0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    rc = cli.main(["project", "--manifest", str(manifest), "--out", str(out),
                   "--config", str(cfg)])
    assert rc == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_one_config_file_serves_every_command(tmp_path):
    # Another command's section is no unknown section.
    manifest = _write_study_inputs(tmp_path, n_labels=0)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({**{section: {} for section in cli._SETTINGS},
                               "projection": {"target_pixel_spacing": 2.0}}))
    out = tmp_path / "out"
    assert cli.main(["project", "--manifest", str(manifest), "--out", str(out),
                     "--config", str(cfg)]) == 0
    prov = json.loads((out / "case01" / "provenance.json").read_text())
    assert prov["config"]["projection"]["target_pixel_spacing"] == 2.0


def test_project_unknown_study_key_exits_1(tmp_path, capsys):
    # A misspelt "labels" would otherwise project the study without its labels.
    argv, path, doc = _cli_input(tmp_path, "project")
    doc["studies"][0]["lables"] = doc["studies"][0].pop("labels")
    path.write_text(json.dumps(doc))
    assert cli.main(argv) == 1
    assert "study 'case01' has unknown keys ['lables']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_project_unknown_manifest_key_exits_1(tmp_path, capsys):
    # A "labels" beside "studies" would otherwise project the study without them.
    argv, path, doc = _cli_input(tmp_path, "project")
    doc["labels"] = doc["studies"][0].pop("labels")
    path.write_text(json.dumps(doc))
    assert cli.main(argv) == 1
    assert "manifest has unknown keys ['labels']" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,doc,message", [
    # A class weight would otherwise be ignored.
    ("evaluate", [{"class_id": 1, "pred_path": "pred1.pgm", "ref_path": "ref1.pgm",
                   "weight": 2}], "class 1 entry has unknown keys ['weight']"),
    # Grade lists beside a matrix would otherwise be ignored as the matrix is scored.
    ("ordinal", {"matrix": [[1, 0], [0, 1]], "truth": [0, 1, 2], "pred": [3, 3, 3], "extra": 1},
     "ordinal input has unknown keys ['extra', 'pred', 'truth']"),
], ids=["evaluate", "ordinal"])
def test_unknown_input_key_exits_1_and_is_named(tmp_path, capsys, command, doc, message):
    argv, path, _ = _cli_input(tmp_path, command)
    path.write_text(json.dumps(doc))
    assert cli.main(argv) == 1
    assert f"error: {path}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_usage_error_exits_1(capsys):
    assert cli.main(["project", "--out", "somewhere"]) == 1
    assert "error:" in capsys.readouterr().err


# Flags that name inputs, outputs or how a command runs; every other flag sets
# a config value.
_NOT_SETTINGS = {"help", "config", "manifest", "study", "mapping", "scores", "out",
                 "conditions", "mode", "format", "jobs", "seed"}


def test_each_config_key_is_the_dest_of_its_flag():
    # One name per setting: a config key is the dest of the flag that sets it,
    # and no setting lives only in the config file or only on the command line.
    (subs,) = [a for a in cli.build_parser()._actions if a.dest == "command"]
    sections = {"project": "projection", "measure": "measure", "evaluate": "evaluate",
                "stats": "stats"}
    assert set(subs.choices) == set(sections)
    for command, sub in subs.choices.items():
        dests = {a.dest for a in sub._actions} - _NOT_SETTINGS
        assert dests == set(cli._SETTINGS[sections[command]]), command


def _scipy_loaded(argv=()):
    """Exit code and the scipy modules loaded by a fresh interpreter that
    imports drrkit.cli and, given argv, runs it through cli.main."""
    code = ("import json, sys; from drrkit import cli; "
            "rc = cli.main(sys.argv[1:]) if sys.argv[1:] else 0; "
            "print(json.dumps([rc, sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy')]))")
    env = dict(os.environ, PYTHONPATH=str(Path(drrkit.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env,
                          capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


def test_cli_import_leaves_scipy_unloaded():
    # Importing scipy would add about half a second to every CLI call's start-up.
    assert _scipy_loaded() == [0, []]


@pytest.mark.parametrize("command", ["project", "measure", "pairwise", "ordinal", "evaluate"])
def test_no_command_loads_scipy(tmp_path, command):
    # numpy is drrkit's only runtime dependency, boundary distances included.
    argv, path, doc = _cli_input(tmp_path, command)
    path.write_text(json.dumps(doc))
    assert _scipy_loaded(argv) == [0, []]


def test_all_names_every_public_name_the_package_binds():
    # __init__.py lists each name twice, in its imports and in __all__; the
    # two lists agree, with no name twice. Submodules are bound, not exported.
    bound = {name for name, value in vars(drrkit).items()
             if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(drrkit.__all__) == sorted(bound | {"__version__"})
    assert len(set(drrkit.__all__)) == len(drrkit.__all__)


# --- measure ---------------------------------------------------------------

def _make_measure_study(tmp_path):
    """Hand-built study: heart/thorax PA masks and straight spines both views."""
    study = tmp_path / "study"
    shape = (64, 128)
    _save_pgm_mask(_rect(shape, 20, 40, 40, 86), study / "PA" / "1.pgm")   # heart w=45
    _save_pgm_mask(_rect(shape, 10, 50, 10, 111), study / "PA" / "2.pgm")  # thorax w=100
    for i, label_id in enumerate(range(4, 9)):
        pa = _block(shape, 8 + 10 * i, 64)
        ll = _block(shape, 8 + 10 * i, 30)
        _save_pgm_mask(pa, study / "PA" / f"{label_id}.pgm")
        _save_pgm_mask(ll, study / "LL" / f"{label_id}.pgm", view=View.LL)
    mapping = tmp_path / "mapping.json"
    mapping.write_text(json.dumps(
        {"heart": [1], "thorax": [2], "vertebrae": [4, 5, 6, 7, 8]}))
    return study, mapping


def test_measure_ctr_negative(tmp_path):
    study, mapping = _make_measure_study(tmp_path)
    out = tmp_path / "reports"
    rc = cli.main(["measure", "--study", str(study), "--mapping", str(mapping),
                   "--conditions", "cardiomegaly", "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "cardiomegaly.json").read_text())
    assert rep["value"] == pytest.approx(0.45)
    assert rep["grade"] == "negative"
    assert rep["excluded"] is False
    assert rep["schema_version"] == 1


def test_measure_straight_spine_reports(tmp_path):
    study, mapping = _make_measure_study(tmp_path)
    out = tmp_path / "reports"
    rc = cli.main(["measure", "--study", str(study), "--mapping", str(mapping),
                   "--out", str(out)])
    assert rc == 0
    sco = json.loads((out / "scoliosis.json").read_text())
    kyp = json.loads((out / "kyphosis.json").read_text())
    assert sco["value"] == pytest.approx(0.0, abs=1e-9)
    assert sco["grade"] == "negative"
    assert kyp["value"] == pytest.approx(0.0, abs=1e-6)
    assert kyp["grade"] == "negative"
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["config"]["mapping"]["vertebrae"] == [4, 5, 6, 7, 8]
    assert "mapping.json" in prov["inputs"]


def test_measure_missing_heart_mask_is_excluded(tmp_path):
    study, mapping = _make_measure_study(tmp_path)
    (study / "PA" / "1.pgm").unlink()
    out = tmp_path / "reports"
    rc = cli.main(["measure", "--study", str(study), "--mapping", str(mapping),
                   "--conditions", "cardiomegaly", "--out", str(out)])
    assert rc == 0
    rep = json.loads((out / "cardiomegaly.json").read_text())
    assert rep["excluded"] is True
    assert rep["value"] is None


def test_measure_unknown_condition_exits_1(tmp_path, capsys):
    study, mapping = _make_measure_study(tmp_path)
    rc = cli.main(["measure", "--study", str(study), "--mapping", str(mapping),
                   "--conditions", "gout", "--out", str(tmp_path / "r")])
    assert rc == 1
    assert "gout" in capsys.readouterr().err


def test_measure_missing_study_dir_exits_2(tmp_path):
    _, mapping = _make_measure_study(tmp_path)
    rc = cli.main(["measure", "--study", str(tmp_path / "ghost"),
                   "--mapping", str(mapping), "--out", str(tmp_path / "r")])
    assert rc == 2


def test_measure_rerun_byte_identical(tmp_path):
    study, mapping = _make_measure_study(tmp_path)
    out = tmp_path / "reports"
    argv = ["measure", "--study", str(study), "--mapping", str(mapping),
            "--out", str(out)]
    assert cli.main(argv) == 0
    first = _collect_bytes(out)
    assert cli.main(argv) == 0
    assert _collect_bytes(out) == first


def test_measure_refuses_an_out_holding_a_report_it_would_not_rewrite(tmp_path, capsys):
    study, mapping = _make_measure_study(tmp_path)
    out = tmp_path / "reports"
    argv = ["measure", "--study", str(study), "--mapping", str(mapping), "--out", str(out)]
    assert cli.main(argv) == 0
    first = _collect_bytes(out)
    # Scoliosis alone would leave the other two reports beside its own.
    assert cli.main(argv + ["--conditions", "scoliosis"]) == 1
    assert (f"{out} holds cardiomegaly.json, kyphosis.json, which this run would not "
            "rewrite") in capsys.readouterr().err
    assert _collect_bytes(out) == first
    # The same set again rewrites them all; so does a larger set.
    assert cli.main(argv) == 0
    assert _collect_bytes(out) == first
    one = tmp_path / "one"
    assert cli.main(argv[:-1] + [str(one), "--conditions", "kyphosis"]) == 0
    assert cli.main(argv[:-1] + [str(one)]) == 0
    assert _collect_bytes(one) == first


def test_measure_conditions_case_insensitive_and_collapsed(tmp_path):
    study, mapping = _make_measure_study(tmp_path)
    out = tmp_path / "reports"
    rc = cli.main(["measure", "--study", str(study), "--mapping", str(mapping),
                   "--conditions", "Kyphosis", "CARDIOMEGALY", "kyphosis",
                   "--out", str(out)])
    assert rc == 0
    prov = json.loads((out / "provenance.json").read_text())
    assert prov["config"]["conditions"] == ["kyphosis", "cardiomegaly"]
    assert sorted(p.name for p in out.iterdir()) == [
        "cardiomegaly.json", "kyphosis.json", "provenance.json"]


@pytest.mark.parametrize("label_id,condition", [
    (1, "cardiomegaly"),    # heart vs thorax
    (3, "cardiomegaly"),    # second heart part
    (4, "scoliosis"),       # one vertebra
    (2, "kyphosis"),        # not read by kyphosis: no error
])
def test_measure_masks_of_one_condition_share_a_grid(tmp_path, capsys, label_id,
                                                     condition):
    study, mapping = _make_measure_study(tmp_path)
    mapping.write_text(json.dumps(
        {"heart": [1, 3], "thorax": [2], "vertebrae": [4, 5, 6, 7, 8]}))
    _save_pgm_mask(_rect((64, 128), 20, 40, 40, 86), study / "PA" / "3.pgm")
    _save_pgm_mask(_rect((64, 120), 20, 40, 40, 86), study / "PA" / f"{label_id}.pgm")
    out = tmp_path / "reports"
    rc = cli.main(["measure", "--study", str(study), "--mapping", str(mapping),
                   "--conditions", condition, "--out", str(out)])
    if condition == "kyphosis":
        assert rc == 0
        return
    assert rc == 1
    err = capsys.readouterr().err
    assert f"{condition}: masks differ in shape" in err and "(64, 120)" in err
    assert not out.exists()


def test_measure_shape_mismatch_precedes_exclusion(tmp_path):
    # No heart mask would exclude cardiomegaly, but its thorax parts disagree.
    study, mapping = _make_measure_study(tmp_path)
    mapping.write_text(json.dumps({"heart": [], "thorax": [1, 2]}))
    _save_pgm_mask(_rect((64, 120), 20, 40, 40, 86), study / "PA" / "1.pgm")
    rc = cli.main(["measure", "--study", str(study), "--mapping", str(mapping),
                   "--conditions", "cardiomegaly", "--out", str(tmp_path / "r")])
    assert rc == 1


def test_measure_repeated_role_id_exits_1(tmp_path, capsys):
    # Mask 4 listed twice would read as two vertebrae, and three masks would
    # pass the four-vertebra minimum of scoliosis.
    study, mapping = _make_measure_study(tmp_path)
    argv = ["measure", "--study", str(study), "--mapping", str(mapping),
            "--conditions", "scoliosis", "--out", str(tmp_path / "r")]
    mapping.write_text(json.dumps({"vertebrae": [4, 4, 5, 6]}))
    assert cli.main(argv) == 1
    assert "role 'vertebrae' repeats label ids [4]" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()
    mapping.write_text(json.dumps({"vertebrae": [4, 5, 6]}))
    assert cli.main(argv) == 0
    report = json.loads((tmp_path / "r" / "scoliosis.json").read_text())
    assert report["excluded"] and "only 3 usable" in report["exclusion_reason"]


def test_measure_label_in_two_roles_of_a_condition_exits_1(tmp_path, capsys):
    # Mask 1 as both heart and thorax would grade cardiomegaly severe at 1.0.
    study, mapping = _make_measure_study(tmp_path)
    mapping.write_text(json.dumps({"heart": [1], "thorax": [2, 1], "vertebrae": [4, 5, 6, 7]}))
    assert cli.main(["measure", "--study", str(study), "--mapping", str(mapping),
                     "--out", str(tmp_path / "r")]) == 1
    assert "label ids [1] fill more than one role of cardiomegaly" in capsys.readouterr().err
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize("command,text,key", [
    ("measure", '{"heart": [1], "thorax": [2], "vertebrae": [4, 5, 6, 7], "vertebrae": [8]}',
     "vertebrae"),
    ("stats", '{"a": [0.9, 0.8, 0.7], "a": [0.1, 0.2, 0.3], "b": [0.5, 0.4, 0.6]}', "a"),
], ids=["mapping", "pairwise"])
def test_json_input_repeating_a_key_exits_1(tmp_path, capsys, command, text, key):
    # json.loads alone keeps the last value: one vertebra, or the second "a".
    doc = tmp_path / "doc.json"
    doc.write_text(text)
    out = tmp_path / "out"
    if command == "measure":
        study, _ = _make_measure_study(tmp_path)
        argv = ["measure", "--study", str(study), "--mapping", str(doc), "--out", str(out)]
    else:
        argv = ["stats", "--mode", "pairwise", "--scores", str(doc), "--out", str(out)]
    assert cli.main(argv) == 1
    assert f"invalid JSON: repeated keys [{key!r}]" in capsys.readouterr().err
    assert not out.exists()


# --- evaluate ----------------------------------------------------------------

def _make_eval_inputs(tmp_path, ref2_shape=(16, 16)):
    pred1 = _rect((16, 16), 2, 8, 2, 8)
    ref1 = _rect((16, 16), 3, 9, 2, 8)
    pred2 = _rect((16, 16), 5, 10, 5, 10)
    ref2 = _rect(ref2_shape, 5, 10, 5, 10)
    _save_pgm_mask(pred1, tmp_path / "pred1.pgm")
    _save_pgm_mask(ref1, tmp_path / "ref1.pgm")
    _save_pgm_mask(pred2, tmp_path / "pred2.pgm")
    _save_pgm_mask(ref2, tmp_path / "ref2.pgm")
    manifest = tmp_path / "eval.json"
    manifest.write_text(json.dumps([
        {"class_id": 1, "pred_path": "pred1.pgm", "ref_path": "ref1.pgm"},
        {"class_id": 2, "pred_path": "pred2.pgm", "ref_path": "ref2.pgm"},
    ]))
    return manifest


def test_evaluate_report_structure(tmp_path):
    manifest = _make_eval_inputs(tmp_path)
    out = tmp_path / "report.json"
    rc = cli.main(["evaluate", "--manifest", str(manifest), "--out", str(out),
                   "--resamples", "200"])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert set(rep["per_class"]) == {"1", "2"}
    assert rep["per_class"]["2"]["dice"] == 1.0
    assert 0.0 < rep["per_class"]["1"]["dice"] < 1.0
    for metric in ("dice", "iou", "hd95", "asd", "nsd"):
        agg = rep["aggregate"][metric]
        assert agg["lower"] <= agg["mean"] <= agg["upper"]
    assert rep["config"] == {"evaluate": {"match_iou": 0.5, "n_resamples": 200,
                                          "nsd_tolerance_px": 2.0}}
    assert len(rep["inputs"]) == 4


def test_evaluate_rerun_byte_identical(tmp_path):
    manifest = _make_eval_inputs(tmp_path)
    out = tmp_path / "report.json"
    argv = ["evaluate", "--manifest", str(manifest), "--out", str(out),
            "--resamples", "100", "--seed", "5"]
    assert cli.main(argv) == 0
    first = out.read_bytes()
    assert cli.main(argv) == 0
    assert out.read_bytes() == first


@pytest.mark.parametrize("seed", ["-1", "-100"])
def test_evaluate_negative_seed_exits_1(tmp_path, capsys, seed):
    manifest = _make_eval_inputs(tmp_path)
    out = tmp_path / "report.json"
    assert cli.main(["evaluate", "--manifest", str(manifest), "--out", str(out),
                     "--seed", seed]) == 1
    assert f"seed must be a nonnegative integer, got {seed}" in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_geometry_mismatch_names_class(tmp_path, capsys):
    manifest = _make_eval_inputs(tmp_path, ref2_shape=(16, 18))
    rc = cli.main(["evaluate", "--manifest", str(manifest),
                   "--out", str(tmp_path / "report.json")])
    assert rc == 1
    assert "class 2" in capsys.readouterr().err


def test_evaluate_empty_manifest_exits_1(tmp_path):
    manifest = tmp_path / "eval.json"
    manifest.write_text("[]")
    rc = cli.main(["evaluate", "--manifest", str(manifest),
                   "--out", str(tmp_path / "r.json")])
    assert rc == 1


def _write_eval_manifest(tmp_path, entries):
    manifest = tmp_path / "eval.json"
    manifest.write_text(json.dumps([
        {"class_id": class_id, "pred_path": pred, "ref_path": ref}
        for class_id, pred, ref in entries]))
    return manifest


def test_evaluate_checks_settings_before_reading_a_mask(tmp_path, capsys):
    manifest = _write_eval_manifest(tmp_path, [(1, "missing.pgm", "missing.pgm")])
    out = tmp_path / "r.json"
    assert cli.main(["evaluate", "--manifest", str(manifest), "--out", str(out),
                     "--match-iou", "7"]) == 1
    assert "match_iou must be in [0, 1], got 7.0" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("second,error", [
    ((2, "pred2.pgm", "ref2.pgm"), "class 2: mask geometry mismatch"),
    ((1, "pred1.pgm", "ref1.pgm"), "duplicate class id 1"),
], ids=["shape-mismatch", "repeated-class"])
def test_evaluate_reports_errors_in_manifest_order(tmp_path, capsys, second, error):
    # The bad second class exits 1 before the third class's missing file is read.
    _make_eval_inputs(tmp_path, ref2_shape=(16, 18))
    manifest = _write_eval_manifest(
        tmp_path, [(1, "pred1.pgm", "ref1.pgm"), second, (3, "missing.pgm", "ref1.pgm")])
    out = tmp_path / "r.json"
    assert cli.main(["evaluate", "--manifest", str(manifest), "--out", str(out)]) == 1
    assert error in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("third", [
    {"class_id": 3, "pred_path": "missing.pgm", "ref_path": "ref1.pgm"},
    {"class_id": 3, "pred_path": "bad.pgm", "ref_path": "ref1.pgm"},
    {"class_id": 3, "pred_path": "pred1.pgm"},
    {"class_id": True, "pred_path": "pred1.pgm", "ref_path": "ref1.pgm"},
], ids=["missing-file", "bad-file", "malformed-entry", "bad-id"])
@pytest.mark.parametrize("second,error", [
    ((2, "pred2.pgm", "ref2.pgm"), "class 2: mask geometry mismatch"),
    ((1, "pred1.pgm", "ref1.pgm"), "duplicate class id 1"),
], ids=["shape-mismatch", "repeated-class"])
def test_evaluate_reports_a_class_fault_before_the_next_entry_s(tmp_path, monkeypatch,
                                                                 capsys, second, error, third):
    # Hashes are slow and each pair reaches the scoring 0.1 s late, so the
    # reader, one class ahead, meets the third entry's fault before the second
    # class is scored; the second class's fault is still the one reported.
    _make_eval_inputs(tmp_path, ref2_shape=(16, 18))
    (tmp_path / "bad.pgm").write_bytes(b"P5\n4 4\n255\n")
    manifest = _write_eval_manifest(tmp_path, [(1, "pred1.pgm", "ref1.pgm"), second])
    manifest.write_text(json.dumps(json.loads(manifest.read_text()) + [third]))
    real_evaluate = cli.evaluate_class_set

    def late(pairs):
        for pair in pairs:
            time.sleep(0.1)
            yield pair

    monkeypatch.setattr(cli, "evaluate_class_set",
                        lambda pairs, **kwargs: real_evaluate(late(pairs), **kwargs))
    _slow_hashes(monkeypatch)
    before = set(threading.enumerate())
    out = tmp_path / "r.json"
    assert cli.main(["evaluate", "--manifest", str(manifest), "--out", str(out)]) == 1
    assert set(threading.enumerate()) == before
    assert error in capsys.readouterr().err
    assert not out.exists()


def test_evaluate_reads_each_pair_after_dropping_the_previous(tmp_path, monkeypatch):
    manifest = _make_eval_inputs(tmp_path)
    loaded, alive_at_load = [], []

    def load_mask(*args, **kwargs):
        alive_at_load.append({i for i, mask in enumerate(loaded) if mask() is not None})
        mask = real_load_mask(*args, **kwargs)
        loaded.append(weakref.ref(mask))
        return mask

    real_load_mask = cli.load_mask
    monkeypatch.setattr(cli, "load_mask", load_mask)
    assert cli.main(["evaluate", "--manifest", str(manifest),
                     "--out", str(tmp_path / "r.json"), "--resamples", "10"]) == 0
    # The reader frees each mask's pixels once it has found the mask's runs,
    # before it loads the next: no earlier mask is alive when one is loaded.
    assert alive_at_load == [set()] * 4


def test_evaluate_finds_each_masks_runs_on_the_thread_that_reads_it(tmp_path, monkeypatch):
    # The reader reduces each mask it loads to its row runs, so the scoring
    # on the main thread never scans a mask's pixels.
    manifest = _make_eval_inputs(tmp_path)
    loaded_on, scanned_on = [], []
    real_load_mask = cli.load_mask

    def load_mask(*args, **kwargs):
        loaded_on.append(threading.current_thread())
        return real_load_mask(*args, **kwargs)

    monkeypatch.setattr(cli, "load_mask", load_mask)
    for module in [m for name, m in sys.modules.items()
                   if name.startswith("drrkit") and hasattr(m, "_runs")]:
        monkeypatch.setattr(module, "_runs", lambda fg, real=module._runs: (
            scanned_on.append(threading.current_thread()) or real(fg)))
    assert cli.main(["evaluate", "--manifest", str(manifest),
                     "--out", str(tmp_path / "r.json"), "--resamples", "10"]) == 0
    assert len(scanned_on) == 4
    assert scanned_on == loaded_on
    assert threading.current_thread() not in scanned_on


def test_evaluate_holds_one_class_pair_at_a_time(tmp_path):
    side = 512
    yy, xx = np.mgrid[:side, :side]
    entries = []
    for class_id in range(12):
        for kind, shift in (("pred", 0), ("ref", 3)):
            cy, cx = 150 + 15 * class_id + shift, 250
            disc = (yy - cy) ** 2 + (xx - cx) ** 2 < 90 ** 2
            disc[cy - 10:cy + 10, :] = False    # two components per mask
            _save_pgm_mask(disc, tmp_path / f"{kind}{class_id}.pgm")
        entries.append((class_id, f"pred{class_id}.pgm", f"ref{class_id}.pgm"))

    def peak(n_classes):
        manifest = _write_eval_manifest(tmp_path, entries[:n_classes])
        argv = ["evaluate", "--manifest", str(manifest), "--out", str(tmp_path / "r.json"),
                "--resamples", "100"]
        tracemalloc.start()
        try:
            assert cli.main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2)     # the first run pays one-off allocations
    mask_bytes = side * side    # one bool mask
    two, twelve = peak(2), peak(12)
    assert twelve - two < 2 * mask_bytes
    # Only the mask being read holds pixels; the scorer holds row runs. With
    # the pair's pixels held while scoring as well, the peak is 3.7 masks.
    assert twelve < 2.5 * mask_bytes, twelve


# --- stats ----------------------------------------------------------------------

def test_stats_pairwise_json(tmp_path):
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps({
        "unet": [0.91, 0.88, 0.93, 0.90, 0.87],
        "vnet": [0.81, 0.78, 0.83, 0.80, 0.77],
    }))
    out = tmp_path / "pairwise.json"
    rc = cli.main(["stats", "--mode", "pairwise", "--scores", str(scores),
                   "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["n_comparisons"] == 1
    (c,) = rep["comparisons"]
    assert (c["first"], c["second"]) == ("unet", "vnet")
    assert c["rank_biserial"] == 1.0
    assert c["p_bonferroni"] == pytest.approx(min(1.0, c["p_value"]))


def test_stats_pairwise_csv(tmp_path):
    scores = tmp_path / "scores.csv"
    scores.write_text("class,modelA,modelB\n"
                      "1,0.9,0.8\n2,0.85,0.7\n3,0.92,0.81\n4,0.88,0.79\n")
    out = tmp_path / "pairwise.csv"
    rc = cli.main(["stats", "--mode", "pairwise", "--scores", str(scores),
                   "--out", str(out), "--format", "csv"])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("first,second,n_effective")
    assert lines[1].startswith("modelA,modelB")
    assert len(lines) == 2


def test_stats_pairwise_csv_holds_the_json_records(tmp_path):
    scores = tmp_path / "scores.json"
    scores.write_text(json.dumps({"a": [0.9, 0.8, 0.7, 0.6], "b": [0.5, 0.8, 0.6, 0.1],
                                  "c": [0.9, 0.8, 0.7, 0.6]}))
    argv = ["stats", "--mode", "pairwise", "--scores", str(scores), "--out"]
    assert cli.main(argv + [str(tmp_path / "p.json")]) == 0
    assert cli.main(argv + [str(tmp_path / "p.csv"), "--format", "csv"]) == 0
    records = json.loads((tmp_path / "p.json").read_text())["comparisons"]
    lines = (tmp_path / "p.csv").read_text().splitlines()
    header = [f.name for f in dataclasses.fields(drrkit.PairwiseComparison)]
    assert lines[0].split(",") == header
    cell = {True: "true", False: "false", None: ""}
    assert lines[1:] == [",".join(cell[v] if v is None or isinstance(v, bool) else
                                  repr(v) if isinstance(v, float) else str(v)
                                  for v in map(rec.get, header)) for rec in records]
    assert {rec["cohens_d"] for rec in records} >= {None}     # a, c tie on every case


@pytest.mark.parametrize("blob", [
    b"class,a,b\n1,0.9,\xff\n",
    b"a,b\n1,\"" + b"9" * 200_000 + b"\"\n",     # past csv's field size limit
], ids=["not-utf8", "field-over-limit"])
def test_stats_unreadable_csv_exits_1(tmp_path, blob):
    scores = tmp_path / "scores.csv"
    scores.write_bytes(blob)
    rc = cli.main(["stats", "--mode", "pairwise", "--scores", str(scores),
                   "--out", str(tmp_path / "p.json")])
    assert rc == 1


@pytest.mark.parametrize("cell", ["1_0", "\u0661\u0662", "nan", "inf", "0x10", "1e", "."])
def test_stats_non_decimal_csv_score_exits_1(tmp_path, capsys, cell):
    # float() reads "1_0" as 10 and Arabic-Indic "12" as 12; a score must be
    # an ASCII decimal number.
    scores = tmp_path / "scores.csv"
    scores.write_text(f"a,b\n0.9,0.5\n0.8,{cell}\n0.7,0.6\n", encoding="utf-8")
    rc = cli.main(["stats", "--mode", "pairwise", "--scores", str(scores),
                   "--out", str(tmp_path / "p.json")])
    assert rc == 1
    assert "non-numeric score" in capsys.readouterr().err


def test_stats_csv_scores_take_every_decimal_form(tmp_path):
    values = {"a": [" 1 ", "+.5", "-2.", "1e-3", "3E+2", "\t0.25"],
              "b": ["0", "0.5", "-1.5", "2e-3", "299.5", "0.2"]}
    scores = tmp_path / "scores.csv"
    scores.write_text("a,b\n" + "".join(f"{x},{y}\n" for x, y in zip(*values.values())))
    as_json = tmp_path / "scores.json"
    as_json.write_text(json.dumps({k: [float(v) for v in vs] for k, vs in values.items()}))
    # Excel's "CSV UTF-8" starts with a byte-order mark, which is no part of
    # the first column's name.
    with_bom = tmp_path / "bom.csv"
    with_bom.write_bytes(b"\xef\xbb\xbf" + scores.read_bytes())
    for path in (scores, as_json, with_bom):
        assert cli.main(["stats", "--mode", "pairwise", "--scores", str(path),
                         "--out", str(path.with_suffix(".out"))]) == 0
    assert (json.loads(scores.with_suffix(".out").read_text())["comparisons"]
            == json.loads(as_json.with_suffix(".out").read_text())["comparisons"]
            == json.loads(with_bom.with_suffix(".out").read_text())["comparisons"])


def test_stats_reads_scores_and_config_through_pipes(tmp_path):
    # A pipe reports no size, so it is read to its end: scores on stdin and a
    # config on a pipe of its own give the report their files give.
    scores = json.dumps({"a": [0.9, 0.85, 0.92, 0.88], "b": [0.8, 0.7, 0.81, 0.79]})
    config = json.dumps({"stats": {"alpha": 0.1}})
    (tmp_path / "scores.json").write_text(scores)
    (tmp_path / "config.json").write_text(config)
    env = dict(os.environ, PYTHONPATH=str(Path(drrkit.__file__).parents[1]))

    def stats(scores_path, config_path, out, **kwargs):
        subprocess.run([sys.executable, "-m", "drrkit.cli", "stats", "--mode", "pairwise",
                        "--scores", scores_path, "--config", config_path, "--out", str(out)],
                       env=env, check=True, **kwargs)
        return json.loads(out.read_text())

    from_files = stats(str(tmp_path / "scores.json"), str(tmp_path / "config.json"),
                       tmp_path / "files.out")
    r, w = os.pipe()
    try:
        os.write(w, config.encode())
        os.close(w)
        piped = stats("/dev/stdin", f"/dev/fd/{r}", tmp_path / "piped.out",
                      input=scores.encode(), pass_fds=(r,))
    finally:
        os.close(r)
    assert from_files["config"]["stats"]["alpha"] == 0.1
    # Each input is named by its file name: stdin's is "stdin".
    assert piped.pop("inputs") == {"stdin": from_files.pop("inputs")["scores.json"]}
    assert piped == from_files


def test_stats_repeated_csv_model_exits_1(tmp_path, capsys):
    # Each pair of columns would merge into one model of twice the scores.
    scores = tmp_path / "scores.csv"
    scores.write_text("a,a,b,b\n0.9,0.8,0.5,0.4\n0.7,0.6,0.3,0.2\n0.9,0.7,0.1,0.2\n")
    out = tmp_path / "p.json"
    assert cli.main(["stats", "--mode", "pairwise", "--scores", str(scores),
                     "--out", str(out)]) == 1
    assert "repeated model columns ['a', 'b']" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name,text,message", [
    ("scores.csv", ",a,b\n1,0.9,0.8\n2,0.7,0.6\n3,0.9,0.7\n", "column 1 has no name"),
    ("scores.csv", "class, ,b\n1,0.9,0.8\n2,0.7,0.6\n3,0.9,0.7\n",
     "column 2 has no name"),
    ("scores.json", '{"": [0.9, 0.7, 0.9], "a": [0.8, 0.6, 0.7]}',
     "a model name is empty or blank"),
], ids=["csv_index_column", "csv_blank_column", "json_empty_key"])
def test_stats_unnamed_model_exits_1(tmp_path, capsys, name, text, message):
    # The header pandas writes for an index column: its row numbers would be
    # compared with each model as the scores of a model named ''.
    scores = tmp_path / name
    scores.write_text(text)
    out = tmp_path / "p.json"
    assert cli.main(["stats", "--mode", "pairwise", "--scores", str(scores),
                     "--out", str(out)]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_stats_ordinal_from_grades(tmp_path):
    scores = tmp_path / "grades.json"
    scores.write_text(json.dumps({
        "truth": [0, 1, 2, 3, "negative", "severe"],
        "pred": [0, 1, 2, 3, 0, 3],
    }))
    out = tmp_path / "ordinal.json"
    rc = cli.main(["stats", "--mode", "ordinal", "--scores", str(scores),
                   "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["ordinal"]["accuracy"] == 1.0
    assert rep["kappa_linear"]["kappa"] == pytest.approx(1.0)
    assert rep["kappa_quadratic"]["kappa"] == pytest.approx(1.0)
    assert np.asarray(rep["confusion"]).shape == (4, 4)


def test_stats_ordinal_matrix_input(tmp_path):
    scores = tmp_path / "matrix.json"
    scores.write_text(json.dumps(
        {"matrix": [[5, 1, 0, 0], [1, 4, 1, 0], [0, 1, 3, 1], [0, 0, 1, 2]]}))
    out = tmp_path / "ordinal.json"
    rc = cli.main(["stats", "--mode", "ordinal", "--scores", str(scores),
                   "--out", str(out)])
    assert rc == 0
    rep = json.loads(out.read_text())
    assert rep["ordinal"]["off_by_one"] == 1.0


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_stats_ordinal_matrix_echoes_its_own_class_count(tmp_path, k):
    scores = tmp_path / "matrix.json"
    scores.write_text(json.dumps({"matrix": np.eye(k, dtype=int).tolist()}))
    out = tmp_path / "ordinal.json"
    assert cli.main(["stats", "--mode", "ordinal", "--scores", str(scores),
                     "--out", str(out)]) == 0
    assert json.loads(out.read_text())["config"] == {"stats": {"n_classes": k}}


def test_stats_ordinal_bad_grade_exits_1(tmp_path, capsys):
    scores = tmp_path / "grades.json"
    scores.write_text(json.dumps({"truth": ["huge"], "pred": [0]}))
    rc = cli.main(["stats", "--mode", "ordinal", "--scores", str(scores),
                   "--out", str(tmp_path / "o.json")])
    assert rc == 1
    assert "huge" in capsys.readouterr().err


def test_stats_reports_do_not_depend_on_how_the_input_path_is_typed(tmp_path, monkeypatch):
    # The input is named by its file name in provenance, so an absolute path
    # and a relative one from another directory give the same bytes.
    inputs = tmp_path / "in"
    inputs.mkdir()
    (inputs / "scores.csv").write_text("class,a,b\n1,0.9,0.8\n2,0.85,0.7\n3,0.92,0.81\n")
    (inputs / "grades.json").write_text(json.dumps({"truth": [0, 1, 2, 3], "pred": [0, 1, 3, 3]}))
    (tmp_path / "elsewhere").mkdir()
    reports = []
    runs = ((tmp_path, inputs, tmp_path / "out1"),
            (tmp_path / "elsewhere", Path("..", "in"), tmp_path / "out2"))
    for cwd, base, out in runs:
        monkeypatch.chdir(cwd)
        for mode, name in (("pairwise", "scores.csv"), ("ordinal", "grades.json")):
            assert cli.main(["stats", "--mode", mode, "--scores", str(base / name),
                             "--out", str(out / f"{mode}.json")]) == 0
            report = (out / f"{mode}.json").read_bytes()
            assert list(json.loads(report)["inputs"]) == [name]
            reports.append(report)
    assert reports[:2] == reports[2:]


# --- config values ----------------------------------------------------------

_BAD_CONFIG_VALUES = [
    {"projection": {"output_size": [1]}},
    {"projection": {"target_pixel_spacing": "x"}},
    {"measure": {"min_component_px": "x"}},
    {"measure": {"min_component_px": float("inf")}},
    {"evaluate": {"n_resamples": "x"}},
    {"evaluate": {"match_iou": None}},
    {"stats": {"alpha": "x"}},
    # A number of the wrong kind is refused, not converted: an int key takes
    # only a JSON integer, a float key any JSON number, and neither a bool.
    {"measure": {"min_component_px": 8.0}},
    {"measure": {"min_component_px": True}},
    {"evaluate": {"n_resamples": 2.5}},
    {"evaluate": {"n_resamples": True}},
    {"evaluate": {"n_resamples": "200"}},
    {"evaluate": {"n_resamples": 1e300}},
    {"evaluate": {"match_iou": False}},
    {"evaluate": {"nsd_tolerance_px": "2"}},
    {"evaluate": {"nsd_tolerance_px": 10 ** 400}},
    {"projection": {"target_pixel_spacing": True}},
    {"stats": {"alpha": [0.05]}},
    # The size takes two integers, not what a cast makes of other values.
    {"projection": {"output_size": [64.9, True]}},
    {"projection": {"output_size": ["64", "32"]}},
    {"projection": {"output_size": [64.0, 32.0]}},
    {"projection": {"output_size": [64, 32, 16]}},
    {"projection": {"output_size": 64}},
    # Settings that are gone are unknown keys, whatever their value: every
    # study is projected into both views, and every CI is a 95% one.
    {"projection": {"views": ["AP"]}},
    {"projection": {"views": None}},
    {"projection": {"views": "PA"}},
    {"projection": {"views": [1]}},
    {"projection": {"views": ["PA", "LL"]}},
    {"evaluate": {"level": 0.9}},
]
_GONE_KEYS = ("views", "level")


@pytest.mark.parametrize("config", _BAD_CONFIG_VALUES,
                         ids=[json.dumps(c) for c in _BAD_CONFIG_VALUES])
def test_bad_config_value_exits_1(tmp_path, capsys, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    (section,) = config
    if section == "projection":
        argv = ["project", "--manifest", str(_write_study_inputs(tmp_path)),
                "--out", str(tmp_path / "out")]
    elif section == "measure":
        study, mapping = _make_measure_study(tmp_path)
        argv = ["measure", "--study", str(study), "--mapping", str(mapping),
                "--out", str(tmp_path / "r")]
    elif section == "evaluate":
        argv = ["evaluate", "--manifest", str(_make_eval_inputs(tmp_path)),
                "--out", str(tmp_path / "r.json")]
    else:
        scores = tmp_path / "scores.json"
        scores.write_text(json.dumps({"a": [0.9, 0.8, 0.7], "b": [0.5, 0.4, 0.6]}))
        argv = ["stats", "--mode", "pairwise", "--scores", str(scores),
                "--out", str(tmp_path / "p.json")]
    assert cli.main(argv + ["--config", str(cfg)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    (key,) = config[section]
    if key in _GONE_KEYS:
        assert f"unknown config key {key!r}" in err
    else:
        assert f"{section}.{key}" in err
    if key not in (*_GONE_KEYS, "output_size"):     # the numeric keys
        assert f"config {section}.{key} " in err


# (command, config key, flag, value); the stats modes share the section "stats".
_OUT_OF_RANGE = [
    ("evaluate", "match_iou", "--match-iou", -0.1),
    ("evaluate", "match_iou", "--match-iou", 1.5),
    ("evaluate", "match_iou", "--match-iou", float("nan")),
    ("evaluate", "nsd_tolerance_px", "--nsd-tolerance", -1.0),
    ("evaluate", "nsd_tolerance_px", "--nsd-tolerance", float("inf")),
    ("evaluate", "nsd_tolerance_px", "--nsd-tolerance", float("nan")),
    ("pairwise", "alpha", "--alpha", 0.0),
    ("pairwise", "alpha", "--alpha", 1.0),
    ("pairwise", "alpha", "--alpha", 2.0),
    ("pairwise", "alpha", "--alpha", float("nan")),
    ("evaluate", "n_resamples", "--resamples", 10 ** 20),
    # Cleaning would apply 1 and provenance record -1.
    ("measure", "min_component_px", "--min-component-px", -1),
    # Ordinal mode reads no alpha, but takes none out of range either.
    ("ordinal", "alpha", "--alpha", 7),
]


@pytest.mark.parametrize("source", ["config", "flag"])
@pytest.mark.parametrize("command,key,flag,value", _OUT_OF_RANGE,
                         ids=[f"{k}={v}" for _, k, _, v in _OUT_OF_RANGE])
def test_out_of_range_setting_exits_1(tmp_path, capsys, command, key, flag, value,
                                      source):
    out = tmp_path / "out"
    if command == "evaluate":      # without the --resamples that _cli_input passes
        argv = ["evaluate", "--manifest", str(_make_eval_inputs(tmp_path)), "--out", str(out)]
    else:
        argv, path, doc = _cli_input(tmp_path, command)
        path.write_text(json.dumps(doc))
    if source == "config":
        section = "stats" if command in ("pairwise", "ordinal") else command
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({section: {key: value}}))    # NaN/Infinity literals
        argv += ["--config", str(cfg)]
    else:
        argv += [flag, str(value)]
    assert cli.main(argv) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


# --- bad documents ------------------------------------------------------------

def _cli_input(tmp_path, command):
    """argv, the input document's path and a valid document for one command."""
    out = tmp_path / "out"
    if command in ("project", "sidecar"):
        manifest = _write_study_inputs(tmp_path, n_labels=1)
        path = manifest if command == "project" else tmp_path / "vol.json"
        return (["project", "--manifest", str(manifest), "--out", str(out)], path,
                json.loads(path.read_text()))
    if command == "measure":
        study, path = _make_measure_study(tmp_path)
        return (["measure", "--study", str(study), "--mapping", str(path),
                 "--out", str(out)], path, json.loads(path.read_text()))
    if command == "evaluate":
        path = _make_eval_inputs(tmp_path)
        return (["evaluate", "--manifest", str(path), "--out", str(out),
                 "--resamples", "50"], path, json.loads(path.read_text()))
    path = tmp_path / "scores.json"
    if command == "pairwise":
        doc = {"a": [0.9, 0.8, 0.7], "b": [0.5, 0.4, 0.6]}
    else:
        doc = {"truth": [0, 1, 2, 3], "pred": [0, 1, 3, 3]}
    return ["stats", "--mode", command, "--scores", str(path), "--out", str(out)], path, doc


def _studies(**fields):
    return lambda doc: doc["studies"][0].update(fields)


def _entry(**fields):
    return lambda doc: doc[0].update(fields)


# (command, the bad document: raw bytes, a whole document, or an edit of the
# valid one). Without the shared field checks each of these exits 2 or 3, or
# is accepted.
_BAD_DOCUMENTS = {
    "labels-scalar": ("project", _studies(labels=5)),
    "labels-null": ("project", _studies(labels=None)),
    "label-id-bool": ("project", _studies(labels=[{"label_id": True, "path": "lab1.json"}])),
    "study-id-dotdot": ("project", _studies(id="..")),
    "volume-nul": ("project", _studies(volume="vol\0.json")),
    "volume-lone-surrogate": ("project", _studies(volume="\ud800.json")),
    "manifest-not-utf8": ("project", b'{"studies": "\xff"}'),
    "role-id-bool": ("measure", {"heart": [True], "thorax": [2], "vertebrae": [4, 5]}),
    "pred-path-int": ("evaluate", _entry(pred_path=5)),
    "pred-path-empty": ("evaluate", _entry(pred_path="")),
    "class-id-bool": ("evaluate", _entry(class_id=True)),
    "scores-scalar": ("pairwise", {"a": 5, "b": [0.5, 0.4, 0.6]}),
    # Models map straight to their scores; no wrapper object is unwrapped.
    "scores-wrapped": ("pairwise", {"models": {"a": [0.9, 0.8, 0.7], "b": [0.5, 0.4, 0.6]}}),
    "scores-string": ("pairwise", {"a": "abc", "b": "def"}),
    # A score is a JSON number, not text that float() would read as one.
    "scores-text": ("pairwise", {"a": ["0.9", "0.8", "0.7"], "b": [0.5, 0.4, 0.6]}),
    "scores-underscore": ("pairwise", {"a": [" 1_0 ", 0.8, 0.7], "b": [0.5, 0.4, 0.6]}),
    "scores-ragged": ("pairwise", {"a": [[0.9, 0.8], [0.7]], "b": [0.5, 0.4]}),
    "scores-overflow": ("pairwise", {"a": [10 ** 400, 1, 2], "b": [0.5, 0.4, 0.6]}),
    "differences-overflow": ("pairwise", {"a": [1e308, -1e308, 1e308],
                                          "b": [-1e308, 1e308, -1e308]}),
    "mean-overflow": ("pairwise", {"a": [1e308] * 3, "b": [-5e307, -5e307, -4e307]}),
    "sd-overflow": ("pairwise", {"a": [1.7e308, 0, 1.7e308], "b": [0, 1.7e308, 0]}),
    "matrix-ragged": ("ordinal", {"matrix": [[1, 2], [3]]}),
    "matrix-fraction": ("ordinal", {"matrix": [[1.7, 1], [1, 1]]}),
    "matrix-text": ("ordinal", {"matrix": [["a", 1], [1, 1]]}),
    "matrix-nan": ("ordinal", {"matrix": [[float("nan"), 1], [1, 1]]}),
    "truth-scalar": ("ordinal", {"truth": 3, "pred": [3]}),
    "truth-huge": ("ordinal", {"truth": [10 ** 30], "pred": [3]}),
    # A key no one reads is refused, not ignored.
    "entry-unknown-key": ("evaluate", _entry(weight=2)),
    "matrix-beside-grades": ("ordinal", {"matrix": [[1, 0], [0, 1]], "truth": [0, 1, 2],
                                         "pred": [3, 3, 3], "extra": 1}),
    "grades-unknown-key": ("ordinal", {"truth": [0, 1], "pred": [0, 1], "weights": [1, 1]}),
}


@pytest.mark.parametrize("command,bad", _BAD_DOCUMENTS.values(), ids=_BAD_DOCUMENTS)
def test_bad_document_exits_1(tmp_path, capsys, command, bad):
    argv, path, doc = _cli_input(tmp_path, command)
    if callable(bad):
        bad(doc)
        bad = doc
    path.write_bytes(bad if isinstance(bad, bytes) else json.dumps(bad).encode())
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith("error:")
    assert not (tmp_path / "out").exists()


# JSON true is not 1 and 1.0 is not a count, though numpy reads them so.
@pytest.mark.parametrize("command,doc", [
    ("ordinal", {"matrix": [[True, False], [False, True]]}),
    ("ordinal", {"matrix": [[1.0, 0], [0, 2]]}),
    ("pairwise", {"a": [True, 0.5, 0.2], "b": [False, 0.4, 0.1]}),
], ids=["matrix-bool", "matrix-integral-float", "scores-bool"])
def test_stats_refuses_a_bool_or_float_read_as_a_number(tmp_path, capsys, command, doc):
    argv, path, _ = _cli_input(tmp_path, command)
    path.write_text(json.dumps(doc))
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("spacing", ["abc", [1.0, -2.0, 1.0], [1.0, 1.0]])
def test_bad_volume_spacing_names_its_sidecar(tmp_path, capsys, spacing):
    argv, path, doc = _cli_input(tmp_path, "sidecar")
    doc["spacing_mm"] = spacing
    path.write_text(json.dumps(doc))
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not (tmp_path / "out").exists()


def test_huge_label_dims_exit_1(tmp_path, capsys):
    # Dims implying 256 TiB beside an 8-byte payload are a format error
    # (exit 1), found before anything of that size is allocated (exit 3).
    argv, _, _ = _cli_input(tmp_path, "project")
    sidecar = tmp_path / "lab1.json"
    sidecar.write_text(json.dumps({**json.loads(sidecar.read_text()), "dims": [65536] * 3}))
    (tmp_path / "lab1.raw").write_bytes(bytes(8))
    assert cli.main(argv) == 1
    assert capsys.readouterr().err == (f"error: study case01: {tmp_path / 'lab1.raw'}: "
                                       f"payload is 8 bytes, sidecar dims imply {65536 ** 3}\n")
    assert not (tmp_path / "out" / "case01").exists()


_ORIENTATION_CONFIGS = [
    {"PA": ""},
    {"PA": "transpose"},
    {"PA": [None]},
    {"XX": []},
    ["transpose"],
]


@pytest.mark.parametrize("orientation", _ORIENTATION_CONFIGS,
                         ids=[json.dumps({"projection": {"orientation": o}})
                              for o in _ORIENTATION_CONFIGS])
def test_projection_orientation_key_is_gone(tmp_path, capsys, orientation):
    # Every view is transposed so rows run superior to inferior, the one
    # orientation measure reads; no config key changes it.
    manifest = _write_study_inputs(tmp_path)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"projection": {"orientation": orientation}}))
    out = tmp_path / "out"
    argv = ["project", "--manifest", str(manifest), "--out", str(out)]
    assert cli.main(argv + ["--config", str(cfg)]) == 1
    assert "unknown config key 'orientation'" in capsys.readouterr().err
    assert not out.exists()
    assert cli.main(argv) == 0
    prov = json.loads(next(out.glob("*/provenance.json")).read_text())
    assert "orientation" not in prov["config"]["projection"]


def test_stats_n_classes_key_is_gone(tmp_path, capsys):
    # Ordinal grades are the 4-level Grade scale; the knob that restated it is gone.
    argv, path, doc = _cli_input(tmp_path, "ordinal")
    path.write_text(json.dumps(doc))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"stats": {"n_classes": 4}}))
    assert cli.main(argv + ["--config", str(cfg)]) == 1
    assert "unknown config key 'n_classes'" in capsys.readouterr().err
    assert cli.main(argv) == 0
    prov = json.loads((tmp_path / "out").read_text())
    assert prov["config"] == {"stats": {"n_classes": 4}}


# --- input reads ----------------------------------------------------------------

def test_each_input_is_read_once_and_hashed_as_read(tmp_path, monkeypatch):
    # Every command opens each input file once, and provenance.json holds the
    # SHA-256 of the bytes that one read returned.
    opened = collections.Counter()
    real_open = io.open

    def counting_open(file, mode="r", *args, **kwargs):
        if not isinstance(file, int) and not set(mode) & set("wax+"):
            opened[Path(file).resolve()] += 1
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(io, "open", counting_open)
    monkeypatch.setattr(builtins, "open", counting_open)

    (tmp_path / "p").mkdir()
    manifest = _write_study_inputs(tmp_path / "p", n_labels=2)
    study, mapping = _make_measure_study(tmp_path / "m")
    # Label 1 is both the heart and a vertebra, so two conditions list it.
    shared = tmp_path / "m" / "shared.json"
    shared.write_text(json.dumps({"heart": [1], "thorax": [2], "vertebrae": [4, 5, 6, 7, 8, 1]}))
    (tmp_path / "e").mkdir()
    eval_manifest = _make_eval_inputs(tmp_path / "e")
    scores = tmp_path / "scores.csv"
    scores.write_text("class,a,b\n1,0.9,0.8\n2,0.85,0.7\n3,0.92,0.81\n")
    out = tmp_path / "out"
    # argv, its provenance.json, where a provenance input name points, and
    # the inputs read but not hashed.
    runs = [
        (["project", "--manifest", str(manifest), "--out", str(out / "p")],
         out / "p" / "case01" / "provenance.json", lambda name: tmp_path / "p" / name,
         [manifest]),
        (["measure", "--study", str(study), "--mapping", str(mapping), "--out", str(out / "m")],
         out / "m" / "provenance.json",
         lambda name: mapping if name == "mapping.json" else study / name, []),
        (["measure", "--study", str(study), "--mapping", str(shared), "--out", str(out / "m2")],
         out / "m2" / "provenance.json",
         lambda name: shared if name == "mapping.json" else study / name, []),
        (["evaluate", "--manifest", str(eval_manifest), "--out", str(out / "e.json"),
          "--resamples", "50"],
         out / "e.json", lambda name: tmp_path / "e" / name, [eval_manifest]),
        (["stats", "--mode", "pairwise", "--scores", str(scores), "--out", str(out / "s.json")],
         out / "s.json", lambda name: tmp_path / name, []),
    ]
    for argv, provenance, where, unhashed in runs:
        opened.clear()
        assert cli.main(argv) == 0
        reads = dict(opened)
        inputs = json.loads(provenance.read_bytes())["inputs"]
        files = [where(name) for name in inputs] + unhashed
        assert inputs and reads == {path.resolve(): 1 for path in files}, argv[0]
        for name, digest in inputs.items():
            assert digest == hashlib.sha256(where(name).read_bytes()).hexdigest()


# --- fuzzed documents ---------------------------------------------------------

# Any JSON value, lone surrogates and NUL included in its strings.
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(st.characters(exclude_categories=()), max_size=8),
    lambda kids: (st.lists(kids, max_size=4)
                  | st.dictionaries(st.text(max_size=6), kids, max_size=4)),
    max_leaves=12)


def _or_json(*values):
    """One of the given well-formed values, or any JSON value."""
    return st.sampled_from(values) | _JSON


def _fuzzed_study():
    label = _or_json("lab1.json", "missing.json") | st.fixed_dictionaries(
        {"label_id": _or_json(0, 1, 2), "path": _or_json("lab1.json", "vol.json")})
    return st.fixed_dictionaries({
        "id": _or_json("case01", "c.2"), "volume": _or_json("vol.json", "vol", "lab1.json"),
        "labels": st.lists(label, max_size=3) | _JSON})


def _square_counts():
    return st.integers(1, 5).flatmap(lambda k: st.lists(
        st.lists(st.integers(0, 9) | _JSON, min_size=k, max_size=k), min_size=k, max_size=k))


def _paired_scores():
    return st.integers(1, 8).flatmap(lambda n: st.dictionaries(
        st.text(max_size=4), st.lists(st.floats() | st.integers() | _JSON,
                                      min_size=n, max_size=n) | _JSON,
        min_size=1, max_size=4))


_ROLES = ["heart", "thorax", "vertebrae"]
_ROLE_IDS = st.lists(_or_json(1, 2, 4, 5, 6, 7, 8), max_size=6) | _JSON
_GRADES = st.lists(_or_json(0, 1, 2, 3, "mild", "Severe"), min_size=1, max_size=6)

_FUZZED_DOCUMENTS = {
    "project": _JSON | st.lists(_fuzzed_study(), max_size=2)
    | st.fixed_dictionaries({"studies": st.lists(_fuzzed_study(), max_size=2) | _JSON}),
    "sidecar": _JSON | st.fixed_dictionaries({
        "dims": st.just([6, 5, 4]) | st.lists(_or_json(6, 5, 4), min_size=3, max_size=3),
        "dtype": _or_json("i16"),
        "spacing_mm": st.lists(_or_json(1.0, 2), min_size=3, max_size=3) | _JSON}),
    "measure": _JSON | st.fixed_dictionaries({role: _ROLE_IDS for role in _ROLES})
    | st.dictionaries(st.sampled_from(_ROLES) | st.text(max_size=6), _ROLE_IDS, max_size=3),
    "evaluate": _JSON | st.lists(st.fixed_dictionaries({
        "class_id": _or_json(1, 2), "pred_path": _or_json("pred1.pgm", "ref2.pgm"),
        "ref_path": _or_json("ref1.pgm", "eval.json")}), max_size=3),
    "pairwise": _JSON | _paired_scores(),
    "ordinal": _JSON | st.fixed_dictionaries({"matrix": _square_counts() | _JSON})
    | st.fixed_dictionaries({"truth": _GRADES | _JSON, "pred": _GRADES | _JSON}),
}

# Derandomized, so the suite runs the same examples every time.
_FUZZ_SETTINGS = settings(max_examples=40, deadline=None, database=None, derandomize=True)


@pytest.mark.parametrize("command", _FUZZED_DOCUMENTS)
def test_fuzzed_document_exits_0_1_or_2(tmp_path, command):
    argv, path, _ = _cli_input(tmp_path, command)

    @_FUZZ_SETTINGS
    @given(_FUZZED_DOCUMENTS[command])
    def run(doc):
        path.write_text(json.dumps(doc))
        assert cli.main(argv) in (0, 1, 2)

    run()


def _pgm_header(which, token, separators):
    """The header of a valid 16 x 16 mask with its ``which``-th token (if
    any) replaced and each token followed by its separator."""
    tokens = [b"P5", b"16", b"16", b"255"]
    if which:
        tokens[which - 1] = token
    return b"".join(t + sep for t, sep in zip(tokens, separators))


# Fuzzed PGM files stay near a valid one, which has exactly one whitespace
# byte after its last header token and a 256-byte payload. Separators include
# comments, and a header may also be any bytes.
_PGM_SEPARATOR = st.sampled_from([b" ", b"\n", b"\t", b"\r\n", b"", b"#", b"#c\n", b"# 1 2\r"])
_PGM_HEADER = st.builds(
    _pgm_header, st.integers(0, 4),
    st.sampled_from([b"P2", b"p5", b"0", b"-16", b"+16", b"1_6", b"16.0", b"1", b"256",
                     b"65535", b"9" * 30]) | st.binary(max_size=6),
    st.lists(_PGM_SEPARATOR, min_size=4, max_size=4)) | st.binary(max_size=24)
_PGM_PAYLOAD = (st.sampled_from([0, 1, 255, 256, 257]).map(lambda n: b"\x01" * n)
                | st.binary(max_size=300))


def test_fuzzed_pgm_header_exits_0_1_or_2(tmp_path):
    # The predicted mask of class 1 (16 x 16 in the valid inputs) gets a
    # fuzzed header and payload. Derandomized, so the suite runs the same
    # examples every time.
    argv, _, _ = _cli_input(tmp_path, "evaluate")

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(_PGM_HEADER, _PGM_PAYLOAD)
    def run(header, payload):
        (tmp_path / "pred1.pgm").write_bytes(header + payload)
        assert cli.main(argv) in (0, 1, 2)

    run()


# Fuzzed CSV score files: a header of model names, with or without an id
# column, over rows of scores; or rows of any cells, ragged or not; joined by
# either line end. Or any bytes at all.
_CSV_SCORE = st.floats(-1e3, 1e3).map(repr) | st.integers(-5, 5).map(str)
_CSV_CELL = _CSV_SCORE | st.text(max_size=4) | st.sampled_from(
    ["", " ", "x", "class", "1_0", "nan", "inf", "-inf", "1e308", "-1e308", '"', '"a,b"', "\x00"])
_CSV_NAMES = st.lists(st.sampled_from(["a", "b", "c"]) | st.text(max_size=3),
                      min_size=2, max_size=4)


def _csv_table(id_column, names, n_rows):
    header = ["class"] * id_column + names
    return st.lists(st.lists(_CSV_SCORE, min_size=len(header), max_size=len(header)),
                    min_size=n_rows, max_size=n_rows).map(lambda rows: [header] + rows)


_CSV_ROWS = (st.tuples(st.booleans(), _CSV_NAMES, st.integers(1, 6)).flatmap(
    lambda t: _csv_table(*t)) | st.lists(st.lists(_CSV_CELL, max_size=5), max_size=6))
_CSV_FILE = st.builds(lambda rows, end: end.join(",".join(row) for row in rows).encode(),
                      _CSV_ROWS, st.sampled_from(["\n", "\r\n", "\r"])) | st.binary(max_size=40)


def test_fuzzed_csv_scores_exit_0_1_or_2(tmp_path):
    scores, out = tmp_path / "scores.csv", tmp_path / "out"

    @settings(max_examples=200, deadline=None, database=None, derandomize=True)
    @given(_CSV_FILE, st.sampled_from(["json", "csv"]))
    def run(blob, fmt):
        scores.write_bytes(blob)
        assert cli.main(["stats", "--mode", "pairwise", "--scores", str(scores),
                         "--out", str(out), "--format", fmt]) in (0, 1, 2)

    run()
