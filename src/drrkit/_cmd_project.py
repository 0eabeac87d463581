"""``drrkit project``: each manifest study to PA/LL images and mask footprints."""

from __future__ import annotations

import errno
import os
import shutil
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from ._cmd_common import (_create_fresh, _dump_json, _effective_config, _json_list, _path_str,
                          _provenance)
from .io import (ValidationError, _load_json_file, _nonneg_int, _read_pair, load_volume,
                 save_mask, save_projection)
from .projection import _SLAB_ROWS, ProjectionConfig, _Footprints, _label_footprints, project_study

_ID_CHARS = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789._-")


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


def run(args) -> int:
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
