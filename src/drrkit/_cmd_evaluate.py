"""``drrkit evaluate``: predicted masks scored against references, read on one thread."""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from ._cmd_common import _atomic_write_text, _dump_json, _effective_config, _provenance
from .io import (_MAX_ID, ValidationError, View, _json_dict, _json_list, _load_json_file,
                 _nonneg_int, _path_str, load_mask)
from .metrics import _mask_runs, evaluate_class_set


def run(args) -> int:
    manifest_path = Path(args.manifest)
    doc = _json_list(_load_json_file(manifest_path),
                     f"{manifest_path}: manifest of {{class_id, pred_path, ref_path}}",
                     nonempty=True)
    eff = _effective_config(args, "evaluate")
    seed = _nonneg_int(args.seed, "--seed")

    base = manifest_path.parent
    inputs: dict[str, str] = {}

    def read_class(n):
        # Runs on the reader: an entry's faults surface only when its class is
        # due, after every earlier class's. Its masks become row runs here.
        what = f"{manifest_path}: entry {n}"
        keys = ("class_id", "pred_path", "ref_path")
        entry = _json_dict(doc[n], what, keys, required=keys)
        class_id = _nonneg_int(entry["class_id"], f"{what} class_id", hi=_MAX_ID)

        def runs(key):
            rel = _path_str(entry[key], f"{what} {key}")
            try:
                return _mask_runs(load_mask(base / rel, view=View.PA, label_id=class_id,
                                            _digests=inputs, _name=rel))
            except ValidationError as exc:
                raise ValidationError(f"class {class_id}: {exc}") from exc

        return class_id, runs("pred_path"), runs("ref_path")

    def pairs(reader):      # the next class is read while this one is scored, no further
        ahead = reader.submit(read_class, 0)
        for n in range(1, len(doc)):
            current, ahead = ahead, reader.submit(read_class, n)
            yield current.result()
        yield ahead.result()

    with ThreadPoolExecutor(max_workers=1) as reader:
        report = evaluate_class_set(pairs(reader), **eff, seed=seed)

    out = _provenance("evaluate", seed=seed,
                      config={"evaluate": eff},
                      inputs=inputs, **report.to_json_dict())
    _atomic_write_text(_dump_json(out), Path(args.out))
    return 0
