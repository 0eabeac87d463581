"""Command-line front end: project studies, measure, evaluate, run stats.

Every command is deterministic given its inputs and config (and evaluate's
seed). Study outputs are built in a temp directory and moved into place
atomically, so a failure never leaves a half-written study behind. Each output
carries a provenance record: the effective config after precedence (flags >
config file > defaults) plus SHA-256 hashes of every input file.

Exit codes: 0 success, 1 validation error, 2 I/O failure, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import errno
import io as _io
import json
import os
import re
import shutil
import sys
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .io import (FormatError, Mask2D, ValidationError, View, _load_json_file,
                 _nonneg_int, _read_input, _read_pair, _repeated, load_mask, load_volume,
                 save_mask, save_projection)
from .measurement import (Condition, Grade, _excluded, cardiothoracic_ratio,
                          compose_thorax, kyphosis_angle, scoliosis_angle)
from .metrics import _mask_runs, evaluate_class_set
from .projection import _SLAB_ROWS, ProjectionConfig, _Footprints, _label_footprints, project_study
from .stats import (_MAX_RESAMPLES, PairwiseComparison, _check_alpha, confusion_from_labels,
                    ordinal_metrics, pairwise_model_comparison, weighted_kappa)

SCHEMA_VERSION = 1

_ID_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract reserves 2
    # for I/O, so route usage problems through the validation path instead.
    def error(self, message):
        raise ValidationError(message)


def _dump_json(obj) -> str:
    # A NaN or infinity that slipped past the checks fails here, not in the file.
    return json.dumps(obj, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _provenance(command: str, **fields) -> dict:
    return {"schema_version": SCHEMA_VERSION, "tool": "drrkit",
            "version": __version__, "command": command, **fields}


def _create_fresh(parent: Path, prefix: str, create):
    """A new path in ``parent`` under a random name, and what ``create(path)``
    returns. ``create`` makes it as a plain create would, so the umask sets
    its mode, where mkstemp makes a file 0600 and mkdtemp a directory 0700."""
    for _ in range(100):
        path = parent / f"{prefix}{os.urandom(6).hex()}"
        try:
            return path, create(path)
        except FileExistsError:
            continue
    raise FileExistsError(f"no free temporary name in {parent}")


def _atomic_write_text(text: str, target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    tmp, f = _create_fresh(target.parent, ".tmp-", lambda path: open(path, "xb"))
    try:
        with f:
            f.write(text.encode("utf-8"))
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _replace_dir(new: Path, target: Path) -> None:
    """Move directory new into place as target. An existing target is renamed
    aside first and only deleted once new is in place, so a failed swap
    leaves the earlier output where it was. A target that is a file or a
    symbolic link is no earlier output: it is refused, and left as it is."""
    if not os.path.lexists(target):
        os.replace(new, target)
        return
    if target.is_symlink() or not target.is_dir():
        raise FileExistsError(errno.EEXIST, "not a study directory, left as it is", str(target))
    aside = new.with_name(new.name + ".old")
    os.replace(target, aside)
    try:
        os.replace(new, target)
    except BaseException:
        os.replace(aside, target)
        raise
    shutil.rmtree(aside)


# One check per kind of field read from a manifest, mapping or score file;
# ids go through io._nonneg_int, which sidecars share.

def _path_str(value, what: str) -> str:
    if not isinstance(value, str) or not value or "\0" in value:
        raise ValidationError(f"{what} must be a nonempty path, got {value!r}")
    return value


def _json_list(value, what: str, *, nonempty: bool = False) -> list:
    if not isinstance(value, list) or (nonempty and not value):
        kind = "a nonempty JSON list" if nonempty else "a JSON list"
        raise ValidationError(f"{what} must be {kind}, got {type(value).__name__}")
    return value


# Each config section's settings and their defaults. A setting has one name:
# its config key is also the dest of the one flag that sets it.
_SETTINGS = {
    "projection": ProjectionConfig().to_json_dict(),
    "measure": {"min_component_px": 8},
    "evaluate": {"nsd_tolerance_px": 2.0, "match_iou": 0.5, "n_resamples": 10000},
    "stats": {"alpha": 0.05},
}


def _effective_config(args, section: str) -> dict:
    # Precedence: CLI flags > config file > defaults. argparse leaves a flag
    # None unless the user passed it, and types it when passed. A file value
    # for a numeric default must be a JSON number of its kind: an integer for
    # an int (not a bool), any number for a float, which it becomes here, so
    # no command casts again.
    cfg = _load_json_file(args.config) if args.config else {}
    if not isinstance(cfg, dict):
        raise ValidationError(f"{args.config}: config file must be a JSON object")
    for name in cfg:
        if name not in _SETTINGS:
            raise ValidationError(f"{args.config}: unknown config section {name!r}")
    sect = cfg.get(section, {})
    if not isinstance(sect, dict):
        raise ValidationError(f"{args.config}: section {section!r} must be an object")
    defaults = _SETTINGS[section]
    out = dict(defaults)
    for key, value in sect.items():
        if key not in defaults:
            raise ValidationError(f"unknown config key {key!r}")
        kind = type(defaults[key])
        if kind in (int, float):
            what = "an integer" if kind is int else "a number"
            if isinstance(value, bool) or not isinstance(value, (int, kind)):
                raise ValidationError(f"config {section}.{key} must be {what}, got {value!r}")
            try:
                value = kind(value)
            except OverflowError:       # an integer too large for a float
                raise ValidationError(f"config {section}.{key} must be {what}, "
                                      f"got {value!r}") from None
        out[key] = value
    out.update({key: getattr(args, key) for key in defaults
                if getattr(args, key) is not None})
    return out


# ---------------------------------------------------------------------------
# project


def _check_study_id(study_id) -> str:
    if not isinstance(study_id, str) or study_id in ("", ".", ".."):
        raise ValidationError(f"study id must be a nonempty name, got {study_id!r}")
    if not set(study_id) <= _ID_CHARS:
        raise ValidationError(f"study id {study_id!r} has characters outside [A-Za-z0-9._-]")
    return study_id


def _parse_label_entry(entry) -> tuple[int | None, str]:
    if isinstance(entry, str):
        return None, _path_str(entry, "label path")
    if not isinstance(entry, dict) or set(entry) - {"label_id", "path"}:
        raise ValidationError(f"label entry must be a path or {{label_id, path}}, got {entry!r}")
    lid = entry.get("label_id")
    return (None if lid is None else _nonneg_int(lid, "label_id"),
            _path_str(entry.get("path"), "label path"))


def _load_manifest(path: Path) -> list[dict]:
    doc = _load_json_file(path)
    if isinstance(doc, dict) and (unknown := sorted(set(doc) - {"studies"})):
        raise ValidationError(f"{path}: manifest has unknown keys {unknown}")
    studies = _json_list(doc.get("studies") if isinstance(doc, dict) else doc,
                         f"{path}: manifest 'studies'", nonempty=True)
    seen = set()
    base = path.parent
    out = []
    for entry in studies:
        if not isinstance(entry, dict):
            raise ValidationError(f"{path}: each study must be an object")
        study_id = _check_study_id(entry.get("id"))
        unknown = sorted(set(entry) - {"id", "volume", "labels"})
        if unknown:
            raise ValidationError(f"{path}: study {study_id!r} has unknown keys {unknown}")
        if study_id in seen:
            raise ValidationError(f"{path}: duplicate study id {study_id!r}")
        seen.add(study_id)
        volume = _path_str(entry.get("volume"), f"study {study_id!r} volume")
        labels = [_parse_label_entry(e) for e in
                  _json_list(entry.get("labels", []), f"study {study_id!r} labels")]
        out.append({"id": study_id,
                    "volume": volume,
                    "volume_path": base / volume,
                    "labels": [(lid, rel, base / rel) for lid, rel in labels]})
    return out


def _read_label(entry) -> tuple[_Footprints, dict[str, str]]:
    """One label file end to end, on a label worker: its sidecar is checked,
    then its payload is read in row slabs, each hashed and reduced to both
    footprints before the next is read, so the payload is never whole in
    memory. Returns the footprints and the two files' digests under their
    manifest names."""
    declared_id, rel, lpath = entry
    digests: dict[str, str] = {}
    meta, slabs = _read_pair(lpath, "u8", _SLAB_ROWS, digests, rel)
    label_id = meta["label_id"]
    if declared_id is not None and declared_id != label_id:
        raise ValidationError(f"manifest says label_id {declared_id} but {rel} holds {label_id}")
    return _Footprints(label_id, tuple(meta["dims"]), _label_footprints(slabs)), digests


def _project_one_study(study: dict, out_root: Path, config: ProjectionConfig) -> None:
    # Every label read of the study is queued on two label workers before the
    # volume is read and hashed, and project_study sums the line integrals on
    # this thread meanwhile. It takes the footprints in manifest order, so the
    # volume's error comes first, then the line integrals', then the first
    # failing label's in manifest order. A read that has finished holds only
    # its footprints until then. Nothing is written before project_study
    # returns, so a missing or bad file leaves no partial output.
    inputs: dict[str, str] = {}

    def labels(pending):
        while pending:
            footprints, digests = pending.popleft().result()
            inputs.update(digests)
            yield footprints

    with ThreadPoolExecutor(max_workers=2) as workers:
        pending = deque(workers.submit(_read_label, e) for e in study["labels"])
        try:
            vol = load_volume(study["volume_path"], _digests=inputs, _name=study["volume"])
            try:
                result = project_study(vol, labels(pending), config)
            except ValidationError as exc:
                raise ValidationError(f"study {study['id']}: {exc}") from exc
        finally:
            for fut in pending:     # after a failure, the reads not yet begun
                fut.cancel()

    provenance = _provenance("project", study_id=study["id"],
                             config={"projection": config.to_json_dict()}, inputs=inputs)

    target = out_root / study["id"]
    out_root.mkdir(parents=True, exist_ok=True)
    tmp, _ = _create_fresh(out_root, f".{study['id']}.tmp-", os.mkdir)
    try:
        for view, proj in result.images.items():
            save_projection(proj, tmp / f"{view.value}.pgm")
            if result.masks[view]:
                view_dir = tmp / view.value
                view_dir.mkdir(exist_ok=True)
                for label_id in sorted(result.masks[view]):
                    save_mask(result.masks[view][label_id], view_dir / f"{label_id}.pgm")
        (tmp / "provenance.json").write_text(_dump_json(provenance))
        _replace_dir(tmp, target)
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        raise


def cmd_project(args) -> int:
    if args.jobs < 1:
        raise ValidationError(f"--jobs must be at least 1, got {args.jobs}")
    manifest = _load_manifest(Path(args.manifest))
    config = ProjectionConfig.from_dict(_effective_config(args, "projection"))

    out_root = Path(args.out)
    # Every study runs and results are read in manifest order, so --jobs cannot
    # change the outputs or the error; Executor.map would cancel pending studies.
    with ThreadPoolExecutor(max_workers=args.jobs) as pool:
        futures = [pool.submit(_project_one_study, study, out_root, config)
                   for study in manifest]
        for fut in futures:
            fut.result()
    return 0


# ---------------------------------------------------------------------------
# measure


# What each condition reads: its view and the mapping roles whose masks it needs.
_CONDITION_INPUTS = {
    Condition.CARDIOMEGALY: (View.PA, ("heart", "thorax")),
    Condition.SCOLIOSIS: (View.PA, ("vertebrae",)),
    Condition.KYPHOSIS: (View.LL, ("vertebrae",)),
}
_ROLE_KEYS = {role for _, roles in _CONDITION_INPUTS.values() for role in roles}


def _load_mapping(path: Path, hashes: dict[str, str]) -> dict[str, list[int]]:
    doc = _load_json_file(path, hashes, "mapping.json")
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: mapping must be a JSON object")
    unknown = set(doc) - _ROLE_KEYS
    if unknown:
        raise ValidationError(f"{path}: unknown roles {sorted(unknown)}")
    mapping = {role: [_nonneg_int(i, f"{path}: role {role!r} label id")
                      for i in _json_list(ids, f"{path}: role {role!r}")]
               for role, ids in doc.items()}
    # A mask listed twice would count twice, say toward the vertebra minimum.
    for role, ids in mapping.items():
        if twice := _repeated(ids):
            raise ValidationError(f"{path}: role {role!r} repeats label ids {twice}")
    # One mask as two structures of a condition, say heart and thorax, would
    # grade it on a ratio of the mask to itself.
    for condition, (_, roles) in _CONDITION_INPUTS.items():
        if shared := _repeated(i for role in roles for i in mapping.get(role, ())):
            raise ValidationError(
                f"{path}: label ids {shared} fill more than one role of {condition.value}")
    return mapping


def _measure_condition(condition: Condition, study_dir: Path,
                       mapping: dict[str, list[int]], min_component_px: int,
                       hashes: dict[str, str], loaded: dict[tuple[View, int], Mask2D]) -> dict:
    view, roles = _CONDITION_INPUTS[condition]
    for role in roles:
        if role not in mapping:
            raise ValidationError(
                f"condition {condition.value!r} needs role {role!r} in the mapping")
    # Every mask the condition reads must share the first one's grid; a
    # missing mask file is skipped, and a role left empty excludes below.
    # A mask another condition or role already read comes from ``loaded``.
    masks: dict[str, list[Mask2D]] = {}
    shape = None
    for role in roles:
        masks[role] = []
        for label_id in mapping[role]:
            p = study_dir / view.value / f"{label_id}.pgm"
            mask = loaded.get((view, label_id))
            if mask is None:
                if not p.exists():
                    continue
                mask = loaded[view, label_id] = load_mask(
                    p, view=view, label_id=label_id, _digests=hashes,
                    _name=p.relative_to(study_dir))
            shape = shape or mask.data.shape
            if mask.data.shape != shape:
                raise ValidationError(
                    f"{condition.value}: masks differ in shape: "
                    f"{p.relative_to(study_dir)} is {mask.data.shape}, not {shape}")
            masks[role].append(mask)

    if condition is Condition.CARDIOMEGALY:
        if not masks["heart"]:
            return _excluded(condition, "no heart mask found in study").to_json_dict()
        if not masks["thorax"]:
            return _excluded(condition, "no thorax masks found in study").to_json_dict()
        heart = np.logical_or.reduce([m.data for m in masks["heart"]])
        result = cardiothoracic_ratio(heart, compose_thorax(masks["thorax"]),
                                      min_component_px=min_component_px)
    elif not masks["vertebrae"]:
        reason = f"no vertebral masks found in {view.value} view"
        return _excluded(condition, reason).to_json_dict()
    elif condition is Condition.SCOLIOSIS:
        result = scoliosis_angle(masks["vertebrae"], min_component_px=min_component_px)
    else:
        result = kyphosis_angle(masks["vertebrae"], min_component_px=min_component_px)
    return result.to_json_dict()


def cmd_measure(args) -> int:
    study_dir = Path(args.study)
    if not study_dir.is_dir():
        raise FileNotFoundError(f"study directory not found: {study_dir}")
    inputs: dict[str, str] = {}
    mapping = _load_mapping(Path(args.mapping), inputs)

    min_px = _nonneg_int(_effective_config(args, "measure")["min_component_px"],
                         "min_component_px")
    # argparse lower-cased and checked each name; a repeated one counts once.
    conditions = [Condition(name) for name in
                  dict.fromkeys(args.conditions or [c.value for c in Condition])]
    # --out holds one run's reports: a report of another condition there
    # would sit beside this run's as if the two were one run.
    out_dir = Path(args.out)
    if stale := [f"{c.value}.json" for c in Condition
                 if c not in conditions and (out_dir / f"{c.value}.json").exists()]:
        raise ValidationError(f"{out_dir} holds {', '.join(stale)}, which this run "
                              "would not rewrite; measure into another directory")

    loaded: dict[tuple[View, int], Mask2D] = {}
    reports = {c: _measure_condition(c, study_dir, mapping, min_px, inputs, loaded)
               for c in conditions}

    provenance = _provenance(
        "measure",
        config={"measure": {"min_component_px": min_px},
                "conditions": [c.value for c in conditions],
                "mapping": {k: mapping[k] for k in sorted(mapping)}},
        inputs=inputs)
    for condition, report in reports.items():
        report["schema_version"] = SCHEMA_VERSION
        _atomic_write_text(_dump_json(report), out_dir / f"{condition.value}.json")
    _atomic_write_text(_dump_json(provenance), out_dir / "provenance.json")
    return 0


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args) -> int:
    manifest_path = Path(args.manifest)
    doc = _json_list(_load_json_file(manifest_path),
                     f"{manifest_path}: manifest of {{class_id, pred_path, ref_path}}",
                     nonempty=True)
    eff = _effective_config(args, "evaluate")

    base = manifest_path.parent
    inputs: dict[str, str] = {}

    def read_class(entry):
        # Runs on the reader: an entry's faults surface only when its class is
        # due, after every earlier class's. Its masks become row runs here.
        if (not isinstance(entry, dict)
                or not {"class_id", "pred_path", "ref_path"} <= set(entry)):
            raise ValidationError(
                f"{manifest_path}: each entry needs class_id, pred_path, ref_path: {entry}")
        class_id = _nonneg_int(entry["class_id"], f"{manifest_path}: class_id")
        if unknown := sorted(set(entry) - {"class_id", "pred_path", "ref_path"}):
            raise ValidationError(
                f"{manifest_path}: class {class_id} entry has unknown keys {unknown}")

        def runs(key):
            rel = _path_str(entry[key], f"class {class_id}: {key}")
            try:
                return _mask_runs(load_mask(base / rel, view=View.PA, label_id=class_id,
                                            _digests=inputs, _name=rel))
            except ValidationError as exc:
                raise ValidationError(f"class {class_id}: {exc}") from exc

        return class_id, runs("pred_path"), runs("ref_path")

    def pairs(reader):      # the next class is read while this one is scored, no further
        ahead = reader.submit(read_class, doc[0])
        for entry in doc[1:]:
            current, ahead = ahead, reader.submit(read_class, entry)
            yield current.result()
        yield ahead.result()

    with ThreadPoolExecutor(max_workers=1) as reader:
        report = evaluate_class_set(pairs(reader), **eff, seed=args.seed)

    out = _provenance("evaluate", seed=args.seed,
                      config={"evaluate": {k: eff[k] for k in sorted(eff)}},
                      inputs=inputs, **report.to_json_dict())
    _atomic_write_text(_dump_json(out), Path(args.out))
    return 0


# ---------------------------------------------------------------------------
# stats


# A score cell is an ASCII decimal number. float() alone would also take
# "1_0", non-ASCII digits, "nan" and "inf".
_DECIMAL = re.compile(r"\s*[+-]?([0-9]+\.?[0-9]*|\.[0-9]+)([eE][+-]?[0-9]+)?\s*", re.ASCII)


def _read_scores(path: str, hashes: dict[str, str]) -> dict:
    # The input is named by its file name, so the report does not change with
    # the working directory or the way the path was typed.
    if Path(path).suffix.lower() == ".csv":
        blob = _read_input(path, hashes, Path(path).name)
        try:
            # utf-8-sig drops the byte-order mark spreadsheets write, which
            # would otherwise make the class column a model named '\ufeffclass'.
            rows = list(csv.reader(_io.StringIO(str(blob, "utf-8-sig"), newline="")))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise FormatError(f"{path}: unreadable CSV: {exc}") from exc
        if len(rows) < 2:
            raise ValidationError(f"{path}: CSV needs a header and at least one row")
        header = rows[0]
        start = 1 if header and header[0].strip().lower() in ("class", "class_id", "id") else 0
        names = [h.strip() for h in header[start:]]
        if not names:
            raise ValidationError(f"{path}: no model columns found")
        if "" in names:     # as pandas heads an index column, whose row numbers are no model
            raise ValidationError(f"{path}: column {start + names.index('') + 1} has no name")
        if twice := _repeated(names):
            raise ValidationError(f"{path}: repeated model columns {twice}")
        scores: dict[str, list[float]] = {name: [] for name in names}
        for row in rows[1:]:
            if len(row) != len(header):
                raise ValidationError(f"{path}: ragged CSV row: {row}")
            for name, cell in zip(names, row[start:]):
                if not _DECIMAL.fullmatch(cell):
                    raise ValidationError(f"{path}: non-numeric score {cell!r}")
                scores[name].append(float(cell))
        return scores
    doc = _load_json_file(path, hashes, Path(path).name)
    if not isinstance(doc, dict) or not doc:
        raise ValidationError(f"{path}: expected a model -> scores mapping")
    if any(not name.strip() for name in doc):
        raise ValidationError(f"{path}: a model name is empty or blank")
    # A score is a JSON number: numpy would also read true as 1, "0.9" as
    # 0.9 and " 1_0 " as 10.
    for name, values in doc.items():
        if isinstance(values, list) and (bad := [v for v in values
                                                 if type(v) not in (int, float)]):
            raise ValidationError(f"{path}: model {name!r} has a score that is not "
                                  f"a JSON number: {bad[0]!r}")
    return doc      # stats checks each score list


_GRADE_NAMES = {g.label: int(g) for g in Grade}


def _parse_grade_list(values, name: str) -> list[int]:
    out = []
    for v in _json_list(values, name):
        if isinstance(v, str) and v.lower() in _GRADE_NAMES:
            out.append(_GRADE_NAMES[v.lower()])
        elif type(v) is int and 0 <= v < len(Grade):     # bool is not a grade
            out.append(v)
        else:
            raise ValidationError(
                f"{name}: grades must be integers 0-{len(Grade) - 1} or one of "
                f"{sorted(_GRADE_NAMES)}, got {v!r}")
    return out


def _read_ordinal(path: str, hashes: dict[str, str]) -> np.ndarray:
    """Truth-by-prediction counts: a given matrix, or tallied from grade lists.
    The input is named by its file name, as in _read_scores."""
    doc = _load_json_file(path, hashes, Path(path).name)
    # A key beside the input read, say grade lists beside a matrix, is refused.
    if isinstance(doc, dict) and (unknown := sorted(
            set(doc) - ({"matrix"} if "matrix" in doc else {"truth", "pred"}))):
        raise ValidationError(f"{path}: ordinal input has unknown keys {unknown}")
    if isinstance(doc, dict) and "matrix" in doc:
        try:
            cells = np.asarray(doc["matrix"], dtype=object)
            # JSON integers only: true is not 1, and 1.0 is not a count.
            if all(type(v) is int for v in cells.flat):
                return cells.astype(np.int64)
        except (ValueError, OverflowError):
            pass
        raise ValidationError(f"{path}: 'matrix' must be a table of integer counts")
    if isinstance(doc, dict) and {"truth", "pred"} <= set(doc):
        return confusion_from_labels(_parse_grade_list(doc["truth"], "truth"),
                                     _parse_grade_list(doc["pred"], "pred"), len(Grade))
    raise ValidationError(f"{path}: ordinal input needs either 'matrix' or 'truth'+'pred'")


def _csv_cell(value):
    # Floats are written with repr so they round-trip, bools as JSON writes
    # them; csv writes None empty.
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else value


def _csv_text(header: list[str], rows) -> str:
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_cell(v) for v in row])
    return buf.getvalue()


def cmd_stats(args) -> int:
    alpha = _effective_config(args, "stats")["alpha"]
    _check_alpha(alpha)     # in ordinal mode too, where nothing else reads it
    inputs: dict[str, str] = {}
    if args.mode == "pairwise":
        scores = _read_scores(args.scores, inputs)
    else:
        matrix = _read_ordinal(args.scores, inputs)

    # Each mode builds its report fields, echoed config and CSV table; one
    # writer below emits whichever --format asks for.
    if args.mode == "pairwise":
        comparisons = pairwise_model_comparison(scores, alpha=alpha)
        config = {"alpha": alpha}
        fields = {"n_comparisons": len(comparisons),
                  "comparisons": [c.to_json_dict() for c in comparisons]}
        header = [f.name for f in dataclasses.fields(PairwiseComparison)]
        rows = [c.values() for c in fields["comparisons"]]
    else:
        metrics = ordinal_metrics(matrix)
        kappa_lin = weighted_kappa(matrix, "linear")
        kappa_quad = weighted_kappa(matrix, "quadratic")
        config = {"n_classes": len(matrix)}
        fields = {"confusion": matrix.tolist(), "ordinal": metrics.to_json_dict(),
                  "kappa_linear": kappa_lin.to_json_dict(),
                  "kappa_quadratic": kappa_quad.to_json_dict()}
        header = ["metric", "value"]
        rows = [("accuracy", metrics.accuracy), ("off_by_one", metrics.off_by_one),
                ("macro_f1", metrics.macro_f1), ("weighted_f1", metrics.weighted_f1),
                ("kappa_linear", kappa_lin.kappa), ("kappa_quadratic", kappa_quad.kappa)]

    if args.format == "csv":
        text = _csv_text(header, rows)
    else:
        text = _dump_json(_provenance("stats", mode=args.mode, config={"stats": config},
                                      inputs=inputs, **fields))
    _atomic_write_text(text, Path(args.out))
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="drrkit",
                     description="Project CT volumes to PA/LL radiographs, "
                                 "measure chest geometry, evaluate masks.")
    parser.add_argument("--version", action="version", version=f"drrkit {__version__}")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("project", help="project volumes and labels into 2D studies")
    p.add_argument("--manifest", required=True, help="study manifest JSON")
    p.add_argument("--out", required=True, help="output root directory")
    p.add_argument("--target-spacing", type=float, dest="target_pixel_spacing",
                   help="isotropic output pixel spacing in mm")
    p.add_argument("--output-size", type=int, nargs=2, metavar=("W", "H"),
                   help="final resize, width height")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker threads for independent studies (default 1)")
    p.set_defaults(func=cmd_project)

    m = subs.add_parser("measure", help="derive graded measurements from a projected study")
    m.add_argument("--study", required=True, help="projected study directory")
    m.add_argument("--mapping", required=True,
                   help="JSON mapping of roles (heart/thorax/vertebrae) to label ids")
    m.add_argument("--conditions", nargs="*", type=str.lower,
                   choices=[c.value for c in Condition],
                   help="subset of: cardiomegaly scoliosis kyphosis (default all)")
    m.add_argument("--out", required=True, help="output directory for report JSONs")
    m.add_argument("--min-component-px", type=int, help="mask cleaning threshold in pixels")
    m.set_defaults(func=cmd_measure)

    e = subs.add_parser("evaluate", help="score predicted masks against references")
    e.add_argument("--manifest", required=True,
                   help="JSON list of {class_id, pred_path, ref_path}")
    e.add_argument("--out", required=True, help="output report JSON path")
    e.add_argument("--nsd-tolerance", type=float, dest="nsd_tolerance_px",
                   help="NSD tolerance in pixels (default 2)")
    e.add_argument("--match-iou", type=float, help="component match threshold (default 0.5)")
    e.add_argument("--resamples", type=int, dest="n_resamples",
                   help=f"bootstrap resample count, 1 to {_MAX_RESAMPLES:,} (default 10000)")
    e.add_argument("--seed", type=int, default=0, help="bootstrap seed (default 0)")
    e.set_defaults(func=cmd_evaluate)

    s = subs.add_parser("stats", help="pairwise model comparison or ordinal agreement")
    s.add_argument("--mode", required=True, choices=["pairwise", "ordinal"])
    s.add_argument("--scores", required=True,
                   help="pairwise: CSV/JSON of per-class scores per model; "
                        "ordinal: JSON with truth/pred grades or a confusion matrix")
    s.add_argument("--out", required=True, help="output path")
    s.add_argument("--alpha", type=float,
                   help="significance level after correction (default 0.05)")
    s.add_argument("--format", choices=["json", "csv"], default="json",
                   help="output format (default json)")
    s.set_defaults(func=cmd_stats)
    for sub in subs.choices.values():
        sub.add_argument("--config", help="JSON config file; flags override its values")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:    # pragma: no cover - safety net
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
