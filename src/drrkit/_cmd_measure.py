"""``drrkit measure``: graded reports from a projected study's masks, on one thread."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ._cmd_common import (SCHEMA_VERSION, _atomic_write_text, _dump_json, _effective_config,
                          _provenance)
from .io import (_MAX_ID, Mask2D, ValidationError, View, _json_dict, _json_list, _load_json_file,
                 _nonneg_int, _repeated, load_mask)
from .measurement import (Condition, _excluded, cardiothoracic_ratio, compose_thorax,
                          kyphosis_angle, scoliosis_angle)

# What each condition reads: its view and the mapping roles whose masks it needs.
_CONDITION_INPUTS = {
    Condition.CARDIOMEGALY: (View.PA, ("heart", "thorax")),
    Condition.SCOLIOSIS: (View.PA, ("vertebrae",)),
    Condition.KYPHOSIS: (View.LL, ("vertebrae",)),
}
_ROLE_KEYS = {role for _, roles in _CONDITION_INPUTS.values() for role in roles}


def _load_mapping(path: Path, hashes: dict[str, str],
                  conditions: list[Condition]) -> dict[str, list[int]]:
    # Each condition measured needs its roles; any other role may be left out.
    needed = dict.fromkeys(role for c in conditions for role in _CONDITION_INPUTS[c][1])
    doc = _json_dict(_load_json_file(path, hashes, "mapping.json"), f"{path}: mapping",
                     _ROLE_KEYS, required=needed)
    mapping = {role: [_nonneg_int(i, f"{path}: role {role!r} label id", hi=_MAX_ID)
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


def run(args) -> int:
    study_dir = Path(args.study)
    if not study_dir.is_dir():
        raise FileNotFoundError(f"study directory not found: {study_dir}")
    # argparse lower-cased and checked each name; a repeated one counts once.
    conditions = [Condition(name) for name in
                  dict.fromkeys(args.conditions or [c.value for c in Condition])]
    inputs: dict[str, str] = {}
    mapping = _load_mapping(Path(args.mapping), inputs, conditions)

    min_px = _effective_config(args, "measure")["min_component_px"]
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
