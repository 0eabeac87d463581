"""``drrkit project``: each manifest study to PA/LL images and mask footprints."""

from __future__ import annotations

import errno
import os
import shutil
from concurrent.futures import ThreadPoolExecutor
from itertools import repeat
from pathlib import Path

from ._cmd_common import _create_fresh, _dump_json, _effective_config, _provenance
from .io import (_MAX_ID, ValidationError, _json_dict, _json_list, _load_json_file, _nonneg_int,
                 _path_str, _read_pair, load_volume, save_mask, save_projection)
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


def _check_study_id(study_id, what: str = "study id") -> str:
    if not isinstance(study_id, str) or study_id in ("", ".", ".."):
        raise ValidationError(f"{what} must be a nonempty name, got {study_id!r}")
    if not set(study_id) <= _ID_CHARS:
        raise ValidationError(f"{what} {study_id!r} has characters outside [A-Za-z0-9._-]")
    return study_id


def _parse_label_entry(entry, what: str) -> tuple[int | None, str]:
    if isinstance(entry, str):
        return None, _path_str(entry, f"{what} path")
    entry = _json_dict(entry, what, {"label_id", "path"}, required=("path",))
    lid = entry.get("label_id")
    return (None if lid is None else _nonneg_int(lid, f"{what} label_id", hi=_MAX_ID),
            _path_str(entry["path"], f"{what} path"))


def _load_manifest(path: Path) -> list[dict]:
    doc = _load_json_file(path)
    if not isinstance(doc, list):
        doc = _json_dict(doc, f"{path}: manifest", {"studies"}, required=("studies",))["studies"]
    studies = _json_list(doc, f"{path}: manifest 'studies'", nonempty=True)
    seen = set()
    base = path.parent
    out = []
    for i, entry in enumerate(studies):
        entry = _json_dict(entry, f"{path}: studies[{i}]", {"id", "volume", "labels"},
                           required=("id", "volume"))
        study_id = _check_study_id(entry["id"], f"{path}: studies[{i}] id")
        if study_id in seen:
            raise ValidationError(f"{path}: duplicate study id {study_id!r}")
        seen.add(study_id)
        what = f"{path}: study {study_id!r}"
        volume = _path_str(entry["volume"], f"{what} volume")
        labels = [_parse_label_entry(e, f"{what} labels[{j}]") for j, e in
                  enumerate(_json_list(entry.get("labels", []), f"{what} labels"))]
        out.append({"id": study_id,
                    "volume": volume,
                    "volume_path": base / volume,
                    "labels": [(lid, rel, base / rel) for lid, rel in labels]})
    return out


def _read_label(entry, inputs: dict[str, str]) -> _Footprints:
    """One label file end to end, on a label worker: its sidecar is checked,
    then its payload is read in row slabs, each hashed into ``inputs`` under
    its manifest name and reduced to both footprints before the next is read,
    so the payload is never whole in memory."""
    declared_id, rel, lpath = entry
    meta, slabs = _read_pair(lpath, "u8", _SLAB_ROWS, inputs, rel)
    label_id = meta["label_id"]
    if declared_id is not None and declared_id != label_id:
        raise ValidationError(f"manifest says label_id {declared_id} but {rel} holds {label_id}")
    return _Footprints(label_id, tuple(meta["dims"]), _label_footprints(slabs))


def _project_one_study(study: dict, out_root: Path, config: ProjectionConfig) -> None:
    # Every label read of the study is queued on two label workers before the
    # volume is read and hashed, and project_study sums the line integrals on
    # this thread meanwhile. It takes the footprints in manifest order, so the
    # volume's error comes first, then the line integrals', then the first
    # failing label's in manifest order. A read that has finished holds only
    # its footprints until then. Every read hashes into ``inputs``, whose keys
    # provenance.json sorts. Nothing is written before project_study returns,
    # so a missing or bad file leaves no partial output.
    inputs: dict[str, str] = {}
    with ThreadPoolExecutor(max_workers=2) as workers:
        labels = workers.map(_read_label, study["labels"], repeat(inputs))
        try:
            vol = load_volume(study["volume_path"], _digests=inputs, _name=study["volume"])
            try:
                result = project_study(vol, labels, config)
            except ValidationError as exc:
                raise ValidationError(f"study {study['id']}: {exc}") from exc
        finally:     # after a failure, the reads not yet begun are cancelled
            workers.shutdown(cancel_futures=True)

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
    jobs = _nonneg_int(args.jobs, "--jobs", lo=1)
    manifest = _load_manifest(Path(args.manifest))
    config = ProjectionConfig(**_effective_config(args, "projection"))

    out_root = Path(args.out)
    # Every study runs and results are read in manifest order, so --jobs cannot
    # change the outputs or the error; Executor.map would cancel pending studies.
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = [pool.submit(_project_one_study, study, out_root, config)
                   for study in manifest]
        for fut in futures:
            fut.result()
    return 0
