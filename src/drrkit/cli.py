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
import hashlib
import io as _io
import json
import os
import shutil
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import __version__
from .io import (FormatError, Mask2D, ValidationError, View, _sidecar_paths,
                 load_label_volume, load_mask, load_volume, save_mask, save_projection)
from .measurement import (Condition, Grade, _excluded, cardiothoracic_ratio,
                          compose_thorax, kyphosis_angle, scoliosis_angle)
from .metrics import evaluate_class_set
from .projection import ProjectionConfig, project_study
from .stats import (confusion_from_labels, ordinal_metrics,
                    pairwise_model_comparison, weighted_kappa)

SCHEMA_VERSION = 1

_ID_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on usage errors; the contract reserves 2
    # for I/O, so route usage problems through the validation path instead.
    def error(self, message):
        raise ValidationError(message)


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def _dump_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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


def _load_json_file(path: Path):
    try:
        return json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: invalid JSON: {exc}") from exc


def _load_config_section(config_path: str | None, section: str) -> dict:
    if not config_path:
        return {}
    cfg = _load_json_file(Path(config_path))
    if not isinstance(cfg, dict):
        raise ValidationError(f"{config_path}: config file must be a JSON object")
    sect = cfg.get(section, {})
    if not isinstance(sect, dict):
        raise ValidationError(f"{config_path}: section {section!r} must be an object")
    return sect


def _effective_config(config_path: str | None, section: str, defaults: dict,
                      flags: dict) -> dict:
    # Precedence: CLI flags > config file > defaults. argparse leaves a flag
    # None unless the user passed it, and types it when passed; a file value
    # takes the type of a numeric default here, so no command casts again.
    out = dict(defaults)
    for key, value in _load_config_section(config_path, section).items():
        if key not in defaults:
            raise ValidationError(f"unknown config key {key!r}")
        kind = type(defaults[key])
        try:
            out[key] = kind(value) if kind in (int, float) else value
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"config {section}.{key} must be a number, "
                                  f"got {value!r}") from None
    out.update({key: value for key, value in flags.items() if value is not None})
    return out


# ---------------------------------------------------------------------------
# project


def _check_study_id(study_id) -> str:
    if not isinstance(study_id, str) or not study_id:
        raise ValidationError("study id must be a nonempty string")
    if not set(study_id) <= _ID_CHARS:
        raise ValidationError(f"study id {study_id!r} has characters outside [A-Za-z0-9._-]")
    return study_id


def _parse_label_entry(entry) -> tuple[int | None, str]:
    if isinstance(entry, str) and entry:
        return None, entry
    if isinstance(entry, dict):
        extra = set(entry) - {"label_id", "path"}
        if extra or not isinstance(entry.get("path"), str) or not entry["path"]:
            raise ValidationError(f"label entry must be a path or {{label_id, path}}: {entry}")
        lid = entry.get("label_id")
        if lid is not None and (not isinstance(lid, int) or lid < 0):
            raise ValidationError(f"label_id must be a nonnegative integer: {entry}")
        return lid, entry["path"]
    raise ValidationError(f"label entry must be a nonempty path or object, got {entry!r}")


def _load_manifest(path: Path) -> list[dict]:
    doc = _load_json_file(path)
    if isinstance(doc, dict):
        studies = doc.get("studies")
    else:
        studies = doc
    if not isinstance(studies, list) or not studies:
        raise ValidationError(f"{path}: manifest must contain a nonempty 'studies' list")
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
        if not isinstance(entry.get("volume"), str) or not entry["volume"]:
            raise ValidationError(f"{path}: study {study_id!r} needs a nonempty volume path")
        labels = [_parse_label_entry(e) for e in entry.get("labels", [])]
        out.append({"id": study_id,
                    "volume": entry["volume"],
                    "volume_path": base / entry["volume"],
                    "labels": [(lid, rel, base / rel) for lid, rel in labels]})
    return out


def _hash_volume_inputs(declared: str, path: Path) -> dict[str, str]:
    # Declared names and the files read both come from io's sidecar naming.
    return {str(name): _sha256(file)
            for name, file in zip(_sidecar_paths(declared), _sidecar_paths(path))}


def _project_one_study(study: dict, out_root: Path, config: ProjectionConfig) -> None:
    # Labels are loaded, checked and hashed one at a time as project_study
    # consumes them. Nothing is written before it returns, so a missing or bad
    # file leaves no partial output.
    vol = load_volume(study["volume_path"])
    hashes = _hash_volume_inputs(study["volume"], study["volume_path"])

    def labels():
        for declared_id, rel, lpath in study["labels"]:
            lab = load_label_volume(lpath)
            if declared_id is not None and declared_id != lab.label_id:
                raise ValidationError(
                    f"study {study['id']}: manifest says label_id {declared_id} "
                    f"but {rel} holds {lab.label_id}")
            if lab.shape != vol.shape:
                raise ValidationError(
                    f"study {study['id']}: label {lab.label_id} dims {lab.shape} "
                    f"do not match volume dims {vol.shape}")
            hashes.update(_hash_volume_inputs(rel, lpath))
            yield lab
            del lab     # release it before the next label is read

    result = project_study(vol, labels(), config)

    provenance = _provenance("project", study_id=study["id"],
                             config={"projection": config.to_dict()}, inputs=hashes)

    target = out_root / study["id"]
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
    manifest = _load_manifest(Path(args.manifest))
    config = ProjectionConfig.from_dict(_effective_config(
        args.config, "projection", ProjectionConfig().to_dict(),
        {"target_pixel_spacing": args.target_spacing,
         "output_size": args.output_size}))

    out_root = Path(args.out)
    out_root.mkdir(parents=True, exist_ok=True)
    # Every study runs and results are read in manifest order, so --jobs cannot
    # change the outputs or the error; Executor.map would cancel pending studies.
    with ThreadPoolExecutor(max_workers=max(1, args.jobs)) as pool:
        futures = [pool.submit(_project_one_study, study, out_root, config)
                   for study in manifest]
        for fut in futures:
            fut.result()
    return 0


# ---------------------------------------------------------------------------
# measure


_ROLE_KEYS = {"heart", "thorax", "vertebrae"}
_CONDITION_ROLES = {
    Condition.CARDIOMEGALY: ("heart", "thorax"),
    Condition.SCOLIOSIS: ("vertebrae",),
    Condition.KYPHOSIS: ("vertebrae",),
}
_CONDITION_VIEW = {
    Condition.CARDIOMEGALY: View.PA,
    Condition.SCOLIOSIS: View.PA,
    Condition.KYPHOSIS: View.LL,
}


def _load_mapping(path: Path) -> dict[str, list[int]]:
    doc = _load_json_file(path)
    if not isinstance(doc, dict):
        raise ValidationError(f"{path}: mapping must be a JSON object")
    unknown = set(doc) - _ROLE_KEYS
    if unknown:
        raise ValidationError(f"{path}: unknown roles {sorted(unknown)}")
    out = {}
    for role, ids in doc.items():
        if not isinstance(ids, list) or not all(isinstance(i, int) and i >= 0 for i in ids):
            raise ValidationError(f"{path}: role {role!r} must list nonnegative label ids")
        out[role] = ids
    return out


def _load_role_masks(study_dir: Path, view: View, ids: list[int],
                     hashes: dict) -> list[Mask2D]:
    masks = []
    for label_id in ids:
        p = study_dir / view.value / f"{label_id}.pgm"
        if not p.exists():
            continue
        masks.append(load_mask(p, view=view, label_id=label_id))
        hashes[str(p.relative_to(study_dir))] = _sha256(p)
    return masks


def _union_mask(masks: list[Mask2D], view: View) -> Mask2D | None:
    if not masks:
        return None
    arr = masks[0].data.copy()
    for m in masks[1:]:
        if m.data.shape != arr.shape:
            raise ValidationError(
                f"mask shapes differ within a role: {m.data.shape} vs {arr.shape}")
        arr |= m.data
    return Mask2D(data=arr, view=view, spacing=masks[0].spacing)


def _measure_condition(condition: Condition, study_dir: Path,
                       mapping: dict[str, list[int]], min_component_px: int,
                       hashes: dict) -> dict:
    for role in _CONDITION_ROLES[condition]:
        if role not in mapping:
            raise ValidationError(
                f"condition {condition.value!r} needs role {role!r} in the mapping")
    view = _CONDITION_VIEW[condition]
    if condition is Condition.CARDIOMEGALY:
        heart = _union_mask(_load_role_masks(study_dir, view, mapping["heart"], hashes), view)
        thorax_parts = _load_role_masks(study_dir, view, mapping["thorax"], hashes)
        if heart is None:
            return _excluded(condition, "no heart mask found in study").to_json_dict()
        if not thorax_parts:
            return _excluded(condition, "no thorax masks found in study").to_json_dict()
        thorax = Mask2D(data=compose_thorax(thorax_parts), view=view,
                        spacing=thorax_parts[0].spacing)
        if heart.data.shape != thorax.data.shape:
            raise ValidationError(
                f"heart and thorax masks differ in shape: "
                f"{heart.data.shape} vs {thorax.data.shape}")
        result = cardiothoracic_ratio(heart, thorax, min_component_px=min_component_px)
        return result.to_json_dict()

    vertebrae = _load_role_masks(study_dir, view, mapping["vertebrae"], hashes)
    if not vertebrae:
        reason = f"no vertebral masks found in {view.value} view"
        return _excluded(condition, reason).to_json_dict()
    shapes = {m.data.shape for m in vertebrae}
    if len(shapes) > 1:
        raise ValidationError(f"vertebral masks differ in shape: {sorted(shapes)}")
    if condition is Condition.SCOLIOSIS:
        result = scoliosis_angle(vertebrae, min_component_px=min_component_px)
    else:
        result = kyphosis_angle(vertebrae, min_component_px=min_component_px)
    return result.to_json_dict()


def cmd_measure(args) -> int:
    study_dir = Path(args.study)
    if not study_dir.is_dir():
        raise FileNotFoundError(f"study directory not found: {study_dir}")
    mapping = _load_mapping(Path(args.mapping))

    eff = _effective_config(args.config, "measure", {"min_component_px": 8},
                            {"min_component_px": args.min_component_px})
    min_px = eff["min_component_px"]

    conditions = []
    for name in args.conditions or [c.value for c in Condition]:
        try:
            conditions.append(Condition(name.lower()))
        except ValueError:
            raise ValidationError(
                f"unknown condition {name!r}; expected one of "
                f"{[c.value for c in Condition]}") from None

    hashes: dict[str, str] = {}
    mapping_hash = _sha256(Path(args.mapping))
    reports = {}
    for condition in conditions:
        reports[condition] = _measure_condition(condition, study_dir, mapping,
                                                min_px, hashes)

    out_dir = Path(args.out)
    provenance = _provenance(
        "measure",
        config={"measure": {"min_component_px": min_px},
                "conditions": [c.value for c in conditions],
                "mapping": {k: mapping[k] for k in sorted(mapping)}},
        inputs={"mapping.json": mapping_hash, **hashes})
    for condition, report in reports.items():
        report["schema_version"] = SCHEMA_VERSION
        _atomic_write_text(_dump_json(report), out_dir / f"{condition.value}.json")
    _atomic_write_text(_dump_json(provenance), out_dir / "provenance.json")
    return 0


# ---------------------------------------------------------------------------
# evaluate


def cmd_evaluate(args) -> int:
    manifest_path = Path(args.manifest)
    doc = _load_json_file(manifest_path)
    if not isinstance(doc, list) or not doc:
        raise ValidationError(f"{manifest_path}: expected a nonempty JSON list of "
                              "{class_id, pred_path, ref_path}")
    eff = _effective_config(
        args.config, "evaluate",
        {"nsd_tolerance_px": 2.0, "match_iou": 0.5, "n_resamples": 10000, "level": 0.95},
        {"nsd_tolerance_px": args.nsd_tolerance, "match_iou": args.match_iou,
         "n_resamples": args.resamples})

    base = manifest_path.parent
    hashes = {}
    pairs = []
    for entry in doc:
        if not isinstance(entry, dict) or not {"class_id", "pred_path", "ref_path"} <= set(entry):
            raise ValidationError(
                f"{manifest_path}: each entry needs class_id, pred_path, ref_path: {entry}")
        class_id = entry["class_id"]
        if not isinstance(class_id, int) or class_id < 0:
            raise ValidationError(f"class_id must be a nonnegative integer: {entry}")
        pred_p, ref_p = base / entry["pred_path"], base / entry["ref_path"]
        try:
            pred = load_mask(pred_p, view=View.PA, label_id=class_id)
            ref = load_mask(ref_p, view=View.PA, label_id=class_id)
        except ValidationError as exc:
            raise ValidationError(f"class {class_id}: {exc}") from exc
        if pred.data.shape != ref.data.shape:
            raise ValidationError(
                f"class {class_id}: geometry mismatch, predicted "
                f"{pred.data.shape} vs reference {ref.data.shape}")
        hashes[entry["pred_path"]] = _sha256(pred_p)
        hashes[entry["ref_path"]] = _sha256(ref_p)
        pairs.append((class_id, pred, ref))

    report = evaluate_class_set(pairs, **eff, seed=args.seed)

    out = _provenance("evaluate", seed=args.seed,
                      config={"evaluate": {k: eff[k] for k in sorted(eff)}},
                      inputs=hashes, **report.to_json_dict())
    _atomic_write_text(_dump_json(out), Path(args.out))
    return 0


# ---------------------------------------------------------------------------
# stats


def _read_scores(path: Path) -> dict[str, list[float]]:
    if path.suffix.lower() == ".csv":
        with open(path, newline="") as f:
            rows = list(csv.reader(f))
        if len(rows) < 2:
            raise ValidationError(f"{path}: CSV needs a header and at least one row")
        header = rows[0]
        start = 1 if header and header[0].strip().lower() in ("class", "class_id", "id") else 0
        names = [h.strip() for h in header[start:]]
        if not names:
            raise ValidationError(f"{path}: no model columns found")
        scores: dict[str, list[float]] = {name: [] for name in names}
        for row in rows[1:]:
            if len(row) != len(header):
                raise ValidationError(f"{path}: ragged CSV row: {row}")
            for name, cell in zip(names, row[start:]):
                try:
                    scores[name].append(float(cell))
                except ValueError:
                    raise ValidationError(f"{path}: non-numeric score {cell!r}") from None
        return scores
    doc = _load_json_file(path)
    if isinstance(doc, dict) and isinstance(doc.get("models"), dict):
        doc = doc["models"]
    if not isinstance(doc, dict) or not doc:
        raise ValidationError(f"{path}: expected a model -> scores mapping")
    return {str(k): list(v) for k, v in doc.items()}


_GRADE_NAMES = {g.label: int(g) for g in Grade}


def _parse_grade_list(values, name: str) -> list[int]:
    out = []
    for v in values:
        if isinstance(v, bool):
            raise ValidationError(f"{name}: booleans are not grades")
        if isinstance(v, int):
            out.append(v)
        elif isinstance(v, str) and v.lower() in _GRADE_NAMES:
            out.append(_GRADE_NAMES[v.lower()])
        else:
            raise ValidationError(
                f"{name}: grades must be integers or one of {sorted(_GRADE_NAMES)}, got {v!r}")
    return out


def _csv_text(header: list[str], rows) -> str:
    # Floats are written with repr so they round-trip; csv writes None empty.
    buf = _io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else v for v in row])
    return buf.getvalue()


def cmd_stats(args) -> int:
    eff = _effective_config(args.config, "stats", {"alpha": 0.05, "n_classes": 4},
                            {"alpha": args.alpha})
    alpha = eff["alpha"]
    scores_path = Path(args.scores)
    scores_hash = _sha256(scores_path)

    if args.mode == "pairwise":
        scores = _read_scores(scores_path)
        comparisons = pairwise_model_comparison(scores, alpha=alpha)
        if args.format == "csv":
            _atomic_write_text(_csv_text(
                ["first", "second", "n_effective", "statistic", "p_value",
                 "p_bonferroni", "cohens_d", "rank_biserial", "significant", "method"],
                ([c.first, c.second, c.n_effective, c.statistic, c.p_value,
                  c.p_bonferroni, c.cohens_d, c.rank_biserial,
                  str(c.significant).lower(), c.method] for c in comparisons)),
                Path(args.out))
            return 0
        out = _provenance("stats", mode="pairwise", config={"stats": {"alpha": alpha}},
                          inputs={str(args.scores): scores_hash},
                          n_comparisons=len(comparisons),
                          comparisons=[c.to_json_dict() for c in comparisons])
        _atomic_write_text(_dump_json(out), Path(args.out))
        return 0

    # ordinal mode
    doc = _load_json_file(scores_path)
    n_classes = eff["n_classes"]
    if isinstance(doc, dict) and "matrix" in doc:
        matrix = np.asarray(doc["matrix"], dtype=np.int64)
    elif isinstance(doc, dict) and {"truth", "pred"} <= set(doc):
        truth = _parse_grade_list(doc["truth"], "truth")
        pred = _parse_grade_list(doc["pred"], "pred")
        matrix = confusion_from_labels(truth, pred, n_classes)
    else:
        raise ValidationError(
            f"{scores_path}: ordinal input needs either 'matrix' or 'truth'+'pred'")
    metrics = ordinal_metrics(matrix)
    kappa_lin = weighted_kappa(matrix, "linear")
    kappa_quad = weighted_kappa(matrix, "quadratic")
    if args.format == "csv":
        _atomic_write_text(_csv_text(
            ["metric", "value"],
            [("accuracy", metrics.accuracy), ("off_by_one", metrics.off_by_one),
             ("macro_f1", metrics.macro_f1), ("weighted_f1", metrics.weighted_f1),
             ("kappa_linear", kappa_lin.kappa), ("kappa_quadratic", kappa_quad.kappa)]),
            Path(args.out))
        return 0
    out = _provenance("stats", mode="ordinal", config={"stats": {"n_classes": n_classes}},
                      inputs={str(args.scores): scores_hash},
                      confusion=matrix.tolist(), ordinal=metrics.to_json_dict(),
                      kappa_linear=kappa_lin.to_json_dict(),
                      kappa_quadratic=kappa_quad.to_json_dict())
    _atomic_write_text(_dump_json(out), Path(args.out))
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
    p.add_argument("--target-spacing", type=float, default=None, dest="target_spacing",
                   help="isotropic output pixel spacing in mm")
    p.add_argument("--output-size", type=int, nargs=2, metavar=("W", "H"),
                   default=None, dest="output_size", help="final resize, width height")
    p.add_argument("--jobs", type=int, default=1,
                   help="worker threads for independent studies (default 1)")
    p.set_defaults(func=cmd_project)

    m = subs.add_parser("measure", help="derive graded measurements from a projected study")
    m.add_argument("--study", required=True, help="projected study directory")
    m.add_argument("--mapping", required=True,
                   help="JSON mapping of roles (heart/thorax/vertebrae) to label ids")
    m.add_argument("--conditions", nargs="*", default=None,
                   help="subset of: cardiomegaly scoliosis kyphosis (default all)")
    m.add_argument("--out", required=True, help="output directory for report JSONs")
    m.add_argument("--min-component-px", type=int, default=None, dest="min_component_px",
                   help="mask cleaning threshold in pixels")
    m.set_defaults(func=cmd_measure)

    e = subs.add_parser("evaluate", help="score predicted masks against references")
    e.add_argument("--manifest", required=True,
                   help="JSON list of {class_id, pred_path, ref_path}")
    e.add_argument("--out", required=True, help="output report JSON path")
    e.add_argument("--nsd-tolerance", type=float, default=None, dest="nsd_tolerance",
                   help="NSD tolerance in pixels (default 2)")
    e.add_argument("--match-iou", type=float, default=None, dest="match_iou",
                   help="component match threshold (default 0.5)")
    e.add_argument("--resamples", type=int, default=None,
                   help="bootstrap resample count (default 10000)")
    e.add_argument("--seed", type=int, default=0,
                   help="bootstrap seed (default 0)")
    e.set_defaults(func=cmd_evaluate)

    s = subs.add_parser("stats", help="pairwise model comparison or ordinal agreement")
    s.add_argument("--mode", required=True, choices=["pairwise", "ordinal"])
    s.add_argument("--scores", required=True,
                   help="pairwise: CSV/JSON of per-class scores per model; "
                        "ordinal: JSON with truth/pred grades or a confusion matrix")
    s.add_argument("--out", required=True, help="output path")
    s.add_argument("--alpha", type=float, default=None,
                   help="significance level after correction (default 0.05)")
    s.add_argument("--format", choices=["json", "csv"], default="json",
                   help="output format (default json)")
    s.set_defaults(func=cmd_stats)
    for sub in subs.choices.values():
        sub.add_argument("--config", default=None,
                         help="JSON config file; flags override its values")
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
