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
import io as _io
import json
import os
import re
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .io import (FormatError, Mask2D, ValidationError, View, _Digests, _load_json_file,
                 _nonneg_int, _read_input, _repeated, load_label_volume, load_mask, load_volume,
                 save_mask, save_projection)
from .measurement import (Condition, Grade, _excluded, cardiothoracic_ratio,
                          compose_thorax, kyphosis_angle, scoliosis_angle)
from .metrics import evaluate_class_set
from .projection import ProjectionConfig, project_study
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


def _atomic_write_text(text: str, target: Path) -> None:
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=target.parent, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(text.encode("utf-8"))
        os.replace(tmp, target)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _replace_dir(new: Path, target: Path) -> None:
    """Move directory new into place as target. An existing target is renamed
    aside first and only deleted once new is in place, so a failed swap
    leaves the earlier output where it was."""
    if not target.exists():
        os.replace(new, target)
        return
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
    studies = _json_list(doc.get("studies") if isinstance(doc, dict) else doc,
                         f"{path}: manifest 'studies'", nonempty=True)
    seen = set()
    base = path.parent
    out = []
    for entry in studies:
        if not isinstance(entry, dict):
            raise ValidationError(f"{path}: each study must be an object")
        study_id = _check_study_id(entry.get("id"))
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


def _project_one_study(study: dict, out_root: Path, config: ProjectionConfig) -> None:
    # Labels are loaded, hashed and checked one at a time as project_study
    # consumes them. Nothing is written before it returns, so a missing or bad
    # file leaves no partial output.
    def labels(hashes):
        for declared_id, rel, lpath in study["labels"]:
            lab = load_label_volume(lpath, _digests=hashes, _name=rel)
            if declared_id is not None and declared_id != lab.label_id:
                raise ValidationError(
                    f"manifest says label_id {declared_id} but {rel} holds {lab.label_id}")
            yield lab
            del lab     # release it before the next label is read

    with _Digests() as hashes:
        vol = load_volume(study["volume_path"], _digests=hashes, _name=study["volume"])
        try:
            result = project_study(vol, labels(hashes), config)
        except ValidationError as exc:
            raise ValidationError(f"study {study['id']}: {exc}") from exc
        inputs = hashes.to_dict()

    provenance = _provenance("project", study_id=study["id"],
                             config={"projection": config.to_json_dict()}, inputs=inputs)

    target = out_root / study["id"]
    out_root.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f".{study['id']}.tmp-", dir=out_root))
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


def _load_mapping(path: Path, hashes: _Digests) -> dict[str, list[int]]:
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
                       hashes: _Digests, loaded: dict[tuple[View, int], Mask2D]) -> dict:
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
    with _Digests() as hashes:
        mapping = _load_mapping(Path(args.mapping), hashes)

        min_px = _nonneg_int(_effective_config(args, "measure")["min_component_px"],
                             "min_component_px")
        # argparse lower-cased and checked each name; a repeated one counts once.
        conditions = [Condition(name) for name in
                      dict.fromkeys(args.conditions or [c.value for c in Condition])]

        loaded: dict[tuple[View, int], Mask2D] = {}
        reports = {c: _measure_condition(c, study_dir, mapping, min_px, hashes, loaded)
                   for c in conditions}
        inputs = hashes.to_dict()

    out_dir = Path(args.out)
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
    pairs = []
    with _Digests() as hashes:
        for entry in doc:
            if (not isinstance(entry, dict)
                    or not {"class_id", "pred_path", "ref_path"} <= set(entry)):
                raise ValidationError(
                    f"{manifest_path}: each entry needs class_id, pred_path, ref_path: {entry}")
            class_id = _nonneg_int(entry["class_id"], f"{manifest_path}: class_id")
            masks = []
            for key in ("pred_path", "ref_path"):
                rel = _path_str(entry[key], f"class {class_id}: {key}")
                try:
                    masks.append(load_mask(base / rel, view=View.PA, label_id=class_id,
                                           _digests=hashes, _name=rel))
                except ValidationError as exc:
                    raise ValidationError(f"class {class_id}: {exc}") from exc
            pairs.append((class_id, *masks))
        inputs = hashes.to_dict()

    report = evaluate_class_set(pairs, **eff, seed=args.seed)

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


def _read_scores(path: str, hashes: _Digests) -> dict:
    if Path(path).suffix.lower() == ".csv":
        blob = _read_input(path, hashes)
        try:
            rows = list(csv.reader(_io.StringIO(blob.decode("utf-8"), newline="")))
        except (UnicodeDecodeError, csv.Error) as exc:
            raise FormatError(f"{path}: unreadable CSV: {exc}") from exc
        if len(rows) < 2:
            raise ValidationError(f"{path}: CSV needs a header and at least one row")
        header = rows[0]
        start = 1 if header and header[0].strip().lower() in ("class", "class_id", "id") else 0
        names = [h.strip() for h in header[start:]]
        if not names:
            raise ValidationError(f"{path}: no model columns found")
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
    doc = _load_json_file(path, hashes)
    if not isinstance(doc, dict) or not doc:
        raise ValidationError(f"{path}: expected a model -> scores mapping")
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


def _read_ordinal(path: str, hashes: _Digests) -> np.ndarray:
    """Truth-by-prediction counts: a given matrix, or tallied from grade lists."""
    doc = _load_json_file(path, hashes)
    if isinstance(doc, dict) and "matrix" in doc:
        try:
            matrix = np.asarray(doc["matrix"], dtype=np.int64)
            exact = np.array_equal(matrix, np.asarray(doc["matrix"], dtype=np.float64))
        except (TypeError, ValueError, OverflowError):
            exact = False
        if not exact:
            raise ValidationError(f"{path}: 'matrix' must be a table of integer counts")
        return matrix
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
    with _Digests() as hashes:
        if args.mode == "pairwise":
            scores = _read_scores(args.scores, hashes)
        else:
            matrix = _read_ordinal(args.scores, hashes)
        inputs = hashes.to_dict()

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
        config = {"n_classes": len(Grade)}
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
