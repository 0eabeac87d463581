"""What every command shares: how it writes its outputs and reads its
settings. Every rule for a field read from an input, a setting's included,
lives in ``io``. No command module imports ``drrkit.cli``: under
``python -m drrkit.cli``, which runs cli.py as ``__main__``, it would run twice."""

from __future__ import annotations

import json
import os
from pathlib import Path

from . import __version__
from .io import _SETTINGS, _json_dict, _load_json_file, _setting

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


# Each config section's settings and their defaults, from io._SETTINGS.
_SECTIONS = {section: {key: default for key, (name, default, *_) in _SETTINGS.items()
                       if name == section} for section, *_ in _SETTINGS.values()}


def _effective_config(args, section: str) -> dict:
    # Precedence: CLI flags > config file > defaults. argparse takes a flag
    # passed as its kind and leaves it None otherwise; a file value is taken
    # as its kind first too, so a JSON integer becomes the float it echoes.
    # Every value in every section, whichever command reads it, and every flag
    # passed then meets its setting's rule, and a refusal names its source.
    cfg = _json_dict(_load_json_file(args.config) if args.config else {},
                     f"{args.config}: config file", _SECTIONS)
    out = dict(_SECTIONS[section])
    for name, sect in cfg.items():
        for key, value in _json_dict(sect, f"{args.config}: config section {name!r}",
                                     _SECTIONS[name]).items():
            where = f"{args.config}: config {name}.{key}"
            value = _setting(key, _SETTINGS[key][2](value, where), where)
            if name == section:
                out[key] = value
    for key in out:
        if getattr(args, key) is not None:
            out[key] = _setting(key, getattr(args, key), f"{args.flags[key]}: {section}.{key}")
    return out
