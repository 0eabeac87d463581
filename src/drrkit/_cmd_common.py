"""What every command shares. No command module imports ``drrkit.cli``: under
``python -m drrkit.cli``, which runs cli.py as ``__main__``, it would run twice."""

from __future__ import annotations

import json
import os
from pathlib import Path

from . import __version__
from .io import ValidationError, _load_json_file, _nonneg_int, _real
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


# One check per kind of field read from a manifest, mapping or score file;
# counts and ids go through io._nonneg_int and real numbers through io._real,
# the two rules that every library argument follows too.

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
    # for a numeric default follows the rule of its kind: io._nonneg_int for
    # an int, io._real for a float, which turns a JSON integer into the float
    # it echoes, so no command casts again.
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
        if type(defaults[key]) is int:
            value = _nonneg_int(value, f"config {section}.{key}")
        elif type(defaults[key]) is float:
            value = _real(value, f"config {section}.{key}")
        out[key] = value
    out.update({key: getattr(args, key) for key in defaults
                if getattr(args, key) is not None})
    return out
