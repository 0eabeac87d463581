"""What every command shares: how it writes its outputs and reads its
settings. Every rule for a field read from an input, a setting's included,
lives in ``io``. No command module imports ``drrkit.cli``: under
``python -m drrkit.cli``, which runs cli.py as ``__main__``, it would run twice."""

from __future__ import annotations

import json
import os
from pathlib import Path

from . import __version__
from .io import ValidationError, _json_dict, _load_json_file, _nonneg_int, _real
from .projection import ProjectionConfig

SCHEMA_VERSION = 1


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


# Each config section's settings and their defaults. A setting has one name:
# its config key is also the dest of the one flag that sets it.
_SETTINGS = {
    "projection": ProjectionConfig().to_json_dict(),
    "measure": {"min_component_px": 8},
    "evaluate": {"nsd_tolerance_px": 2.0, "match_iou": 0.5, "n_resamples": 10000},
    "stats": {"alpha": 0.05},
}


def _effective_config(args, section: str, check=None) -> dict:
    # Precedence: CLI flags > config file > defaults. argparse leaves a flag
    # None unless the user passed it, and types it when passed. Every section
    # of the file is checked, whichever command reads it. A file value for a
    # numeric default follows the rule of its kind: io._nonneg_int for an int,
    # io._real for a float, which turns a JSON integer into the float it
    # echoes, so no command casts again. ``check``, when given, is the
    # section's own rule: it is called with each value a file or flag set,
    # alone, and its refusal is prefixed with that file or flag.
    cfg = _json_dict(_load_json_file(args.config) if args.config else {},
                     f"{args.config}: config file", _SETTINGS)
    for name, sect in cfg.items():
        _json_dict(sect, f"{args.config}: config section {name!r}", _SETTINGS[name])
    defaults = _SETTINGS[section]
    out, source = dict(defaults), {}
    for key, value in cfg.get(section, {}).items():
        if type(defaults[key]) is int:
            value = _nonneg_int(value, f"{args.config}: config {section}.{key}")
        elif type(defaults[key]) is float:
            value = _real(value, f"{args.config}: config {section}.{key}")
        out[key], source[key] = value, f"{args.config}: config"
    for key in defaults:
        if getattr(args, key) is not None:
            out[key], source[key] = getattr(args, key), f"{args.flags[key]}:"
    if check is not None:
        for key, where in source.items():
            try:
                check({key: out[key]})
            except ValidationError as exc:
                raise ValidationError(f"{where} {exc}") from None
    return out
