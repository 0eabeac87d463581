"""``drrkit stats``: pairwise model comparison or ordinal agreement, on one thread."""

from __future__ import annotations

import csv
import dataclasses
import io as _io
import re
from pathlib import Path

import numpy as np

from ._cmd_common import _atomic_write_text, _dump_json, _effective_config, _provenance
from .io import (FormatError, ValidationError, _json_dict, _json_list, _load_json_file, _read_input,
                 _repeated)
from .measurement import Grade
from .stats import (PairwiseComparison, confusion_from_labels, ordinal_metrics,
                    pairwise_model_comparison, weighted_kappa)

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
    # Either a matrix or two grade lists; a key beside the input read, say
    # grade lists beside a matrix, is refused.
    keys = ("matrix",) if isinstance(doc, dict) and "matrix" in doc else ("truth", "pred")
    doc = _json_dict(doc, f"{path}: ordinal input", keys, required=keys)
    if "matrix" in doc:
        try:
            cells = np.asarray(doc["matrix"], dtype=object)
            # JSON integers only: true is not 1, and 1.0 is not a count.
            if all(type(v) is int for v in cells.flat):
                return cells.astype(np.int64)
        except (ValueError, OverflowError):
            pass
        raise ValidationError(f"{path}: 'matrix' must be a table of integer counts")
    return confusion_from_labels(*(_parse_grade_list(doc[key], f"{path}: {key!r}")
                                   for key in keys), len(Grade))


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


def run(args) -> int:
    alpha = _effective_config(args, "stats")["alpha"]      # checked in ordinal mode too
    inputs: dict[str, str] = {}
    # Each mode reads its input and builds its report fields, echoed config
    # and CSV table; one writer below emits whichever --format asks for.
    if args.mode == "pairwise":
        comparisons = pairwise_model_comparison(_read_scores(args.scores, inputs), alpha=alpha)
        config = {"alpha": alpha}
        fields = {"n_comparisons": len(comparisons),
                  "comparisons": [c.to_json_dict() for c in comparisons]}
        header = [f.name for f in dataclasses.fields(PairwiseComparison)]
        rows = [c.values() for c in fields["comparisons"]]
    else:
        matrix = _read_ordinal(args.scores, inputs)
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
