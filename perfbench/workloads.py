"""The benchmark's workloads: seeded inputs, the CLI calls of one pass, and
the checks that each call's outputs are correct.

A workload object is built for one size (``smoke`` shrinks every input),
then ``setup(inputs, seed)`` writes its inputs and keeps the ground truth,
and ``calls(inputs, out)`` yields the drrkit calls of one pass in order.
A later call may read what an earlier one wrote, so the runner executes
each call before asking for the next.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import phantoms as ph

# Evaluated predictions and the two competitor models of the pairwise stats:
# (maximum shift in pixels, maximum relative change of each semi-axis).
MODELS = {"model_a": (2.0, 0.08), "model_b": (1.0, 0.04), "model_c": (4.0, 0.15)}
DICE_TOLERANCE = 1e-12


@dataclass
class Call:
    """One drrkit invocation: its subcommand, arguments, output and check."""

    cmd: str
    args: list[str]
    output: Path
    check: Callable[[], list[str]]      # returns problems; empty means correct


# ---------------------------------------------------------------------------
# output checks


def read_pgm(path: Path) -> np.ndarray:
    blob = path.read_bytes()
    magic, w, h, maxval, payload = blob.split(maxsplit=4)
    if magic != b"P5" or maxval != b"255" or len(payload) != int(w) * int(h):
        raise ValueError(f"{path}: not an 8-bit binary PGM")
    return np.frombuffer(payload, dtype=np.uint8).reshape(int(h), int(w))


def digest(path: Path) -> str:
    """SHA-256 of a file, or of every file under a directory with its name."""
    h = hashlib.sha256()
    if not path.is_dir():
        h.update(path.read_bytes())
        return h.hexdigest()
    for p in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(p.relative_to(path)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def check_projection(root: Path, n_labels: dict) -> list[str]:
    """Images are non-constant; each view has every label mask, all nonempty."""
    problems = []
    for sid, n in n_labels.items():
        for view in ("PA", "LL"):
            img = read_pgm(root / sid / f"{view}.pgm")
            if img.min() == img.max():
                problems.append(f"{sid} {view} image is constant")
            masks = sorted((root / sid / view).glob("*.pgm"))
            if len(masks) != n:
                problems.append(f"{sid} {view}: {len(masks)} masks, expected {n}")
            problems += [f"{sid} {view} mask {m.name} is empty"
                         for m in masks if not read_pgm(m).any()]
    return problems


def check_measure(report_dir: Path, expected: dict) -> list[str]:
    """Grades, values and exclusions match what the phantom was built with."""
    problems = []
    for condition, exp in expected.items():
        rep = json.loads((report_dir / f"{condition}.json").read_text())
        if rep["excluded"] != exp["excluded"] or rep["grade"] != exp["grade"]:
            problems.append(f"{report_dir.name} {condition}: got {rep['grade']}/"
                            f"{rep['exclusion_reason']}, built {exp['grade']}/{exp['reason']}")
        elif exp["excluded"]:
            if rep["exclusion_reason"] != exp["reason"]:
                problems.append(f"{report_dir.name} {condition}: reason "
                                f"{rep['exclusion_reason']!r}, expected {exp['reason']!r}")
        elif abs(rep["value"] - exp["value"]) > ph.VALUE_TOLERANCE[condition]:
            problems.append(f"{report_dir.name} {condition}: value {rep['value']}, "
                            f"built {exp['value']}")
    return problems


def check_evaluate(path: Path, overlaps: dict) -> list[str]:
    """Per-class Dice and IoU equal the generator's direct pixel counts."""
    per_class = json.loads(path.read_text())["per_class"]
    problems = []
    if sorted(per_class) != sorted(str(c) for c in overlaps):
        problems.append(f"{path.name}: classes {sorted(per_class)}")
    for cid, (dice, iou) in overlaps.items():
        got = per_class.get(str(cid), {})
        if not (abs(got.get("dice", math.inf) - dice) <= DICE_TOLERANCE
                and abs(got.get("iou", math.inf) - iou) <= DICE_TOLERANCE):
            problems.append(f"{path.name} class {cid}: dice/iou {got.get('dice')}/"
                            f"{got.get('iou')}, counted {dice}/{iou}")
    return problems


def check_pairwise(path: Path, n_models: int) -> list[str]:
    doc = json.loads(path.read_text())
    pairs = n_models * (n_models - 1) // 2
    problems = [] if doc["n_comparisons"] == pairs == len(doc["comparisons"]) else [
        f"pairwise: {doc['n_comparisons']} comparisons, expected {pairs}"]
    return problems + [f"pairwise p-value {c['p_value']} outside [0, 1]"
                       for c in doc["comparisons"] if not 0.0 <= c["p_value"] <= 1.0]


def check_ordinal(path: Path, n: int) -> list[str]:
    """Measured grades equal the built ones, so agreement must be perfect."""
    doc = json.loads(path.read_text())
    total = int(np.sum(doc["confusion"]))
    if total != n or doc["ordinal"]["accuracy"] != 1.0 or doc["kappa_quadratic"]["kappa"] != 1.0:
        return [f"ordinal: {total} graded, accuracy {doc['ordinal']['accuracy']}, "
                f"quadratic kappa {doc['kappa_quadratic']['kappa']}"]
    return []


# ---------------------------------------------------------------------------
# workloads


def _project_args(manifest: Path, out: Path, jobs: int) -> list[str]:
    return ["project", "--manifest", str(manifest), "--out", str(out), "--jobs", str(jobs)]


class CtProject:
    """One ``project --jobs 1`` over two full-size chest phantoms of 20 labels."""

    name = "ct_project"

    def __init__(self, smoke: bool):
        self.dims, self.spacing = (((48, 48, 32), (6.4, 6.4, 9.6)) if smoke
                                   else ((384, 384, 256), (0.8, 0.8, 1.2)))

    def setup(self, inputs: Path, seed: int) -> None:
        self.truth = ph.Truth()
        ph.write_studies(inputs, np.random.default_rng(seed), ph.CT_PROFILES,
                         self.dims, self.spacing, 1.0, self.truth)

    def calls(self, inputs: Path, out: Path) -> Iterator[Call]:
        proj = out / "projected"
        yield Call("project", _project_args(inputs / "studies.json", proj, 1), proj,
                   lambda: check_projection(proj, self.truth.n_labels))


class CohortChain:
    """The whole pipeline on small anisotropic studies: project, measure and
    evaluate each study, then pairwise and ordinal stats."""

    name = "cohort_chain"

    def __init__(self, smoke: bool):
        # Physical side 192 mm in both sizes; output pixels are 1.2 or 2 mm.
        if smoke:
            self.dims, self.spacing, self.size = (48, 48, 32), (4.0, 4.0, 6.0), 96
            self.profiles = ph.COHORT_PROFILES[:3]
        else:
            self.dims, self.spacing, self.size = (96, 96, 64), (2.0, 2.0, 3.0), 160
            self.profiles = ph.COHORT_PROFILES

    def setup(self, inputs: Path, seed: int) -> None:
        rng = np.random.default_rng(seed)
        self.truth = truth = ph.Truth()
        pixel = self.dims[0] * self.spacing[0] / self.size
        shapes = ph.write_studies(inputs / "studies", rng, self.profiles, self.dims,
                                  self.spacing, pixel, truth)
        ph.write_json(inputs / "roles.json",
                      ph.role_mapping(max(p.n_vertebrae for p in self.profiles)))
        rows, scores = [], {m: [] for m in MODELS}
        for sid, classes in shapes.items():
            edir = inputs / "eval" / sid
            edir.mkdir(parents=True)
            entries = []
            for cid, ellipses in classes.items():
                ref_e = [(ci / pixel - 0.5, ck / pixel - 0.5, ai / pixel, ak / pixel)
                         for ci, ck, ai, ak in ellipses]
                ref = ph.paint_ellipses((self.size, self.size), ref_e)
                for model, (shift, scale) in MODELS.items():
                    pred = ph.paint_ellipses((self.size, self.size),
                                             ph.perturb(rng, ref_e, shift, scale))
                    dice_iou = ph.overlap(pred, ref)
                    scores[model].append(dice_iou[0])
                    if model == "model_a":
                        ph.write_pgm_mask(edir / f"{cid}_pred.pgm", pred)
                        truth.overlaps.setdefault(sid, {})[cid] = dice_iou
                ph.write_pgm_mask(edir / f"{cid}_ref.pgm", ref)
                entries.append({"class_id": cid, "pred_path": f"{cid}_pred.pgm",
                                "ref_path": f"{cid}_ref.pgm"})
                rows.append(f"{sid}-{cid}")
            ph.write_json(edir / "manifest.json", entries)
        lines = ["class," + ",".join(MODELS)]
        lines += [",".join([row] + [repr(scores[m][n]) for m in MODELS])
                  for n, row in enumerate(rows)]
        (inputs / "scores.csv").write_text("\n".join(lines) + "\n")

    def calls(self, inputs: Path, out: Path) -> Iterator[Call]:
        truth = self.truth
        proj = out / "projected"
        args = _project_args(inputs / "studies" / "studies.json", proj, 2)
        yield Call("project", args + ["--output-size", str(self.size), str(self.size)],
                   proj, lambda: check_projection(proj, truth.n_labels))
        for sid in truth.measures:
            rep = out / "measure" / sid
            yield Call("measure", ["measure", "--study", str(proj / sid), "--mapping",
                                   str(inputs / "roles.json"), "--out", str(rep)],
                       rep, lambda rep=rep, sid=sid: check_measure(rep, truth.measures[sid]))
        for sid in truth.overlaps:
            rep = out / "evaluate" / f"{sid}.json"
            yield Call("evaluate", ["evaluate", "--manifest",
                                    str(inputs / "eval" / sid / "manifest.json"),
                                    "--out", str(rep)],
                       rep, lambda rep=rep, sid=sid: check_evaluate(rep, truth.overlaps[sid]))
        pairwise = out / "stats" / "pairwise.json"
        yield Call("stats", ["stats", "--mode", "pairwise", "--scores",
                             str(inputs / "scores.csv"), "--out", str(pairwise)],
                   pairwise, lambda: check_pairwise(pairwise, len(MODELS)))
        # Built-in versus measured grades of every condition that was graded.
        built, measured = [], []
        for sid, conditions in truth.measures.items():
            for condition, exp in conditions.items():
                if exp["excluded"]:
                    continue
                report = out / "measure" / sid / f"{condition}.json"
                got = json.loads(report.read_text())["grade"] if report.exists() else None
                built.append(exp["grade"])
                measured.append(got or "missing")
        grades = out / "grades.json"
        ph.write_json(grades, {"truth": built, "pred": measured})
        ordinal = out / "stats" / "ordinal.json"
        yield Call("stats", ["stats", "--mode", "ordinal", "--scores", str(grades),
                             "--out", str(ordinal)],
                   ordinal, lambda: check_ordinal(ordinal, len(built)))


class MaskEval:
    """One ``evaluate`` over many large multi-component mask pairs with the
    default 10000 bootstrap resamples."""

    name = "mask_eval"

    def __init__(self, smoke: bool):
        self.n_classes, self.size = (4, 256) if smoke else (16, 2048)

    def setup(self, inputs: Path, seed: int) -> None:
        rng = np.random.default_rng(seed)
        size = self.size
        self.truth = ph.Truth()
        overlaps = self.truth.overlaps["evaluation"] = {}
        entries = []
        for cid in range(1, self.n_classes + 1):
            # One component per image quadrant, kept apart so none merge.
            quadrants = rng.permutation(4)
            k = int(rng.integers(1, 5))
            ref_e = [((0.25 + 0.5 * (q % 2) + rng.uniform(-0.06, 0.06)) * size,
                      (0.25 + 0.5 * (q // 2) + rng.uniform(-0.06, 0.06)) * size,
                      rng.uniform(0.06, 0.14) * size, rng.uniform(0.06, 0.14) * size)
                     for q in quadrants[:k]]
            pred_e = ph.perturb(rng, ref_e, 0.003 * size, 0.06)
            if k > 1 and rng.random() < 0.25:
                pred_e = pred_e[1:]                         # a missed component
            elif k < 4 and rng.random() < 0.25:
                q = quadrants[k]                            # a false positive
                pred_e.append(((0.25 + 0.5 * (q % 2)) * size, (0.25 + 0.5 * (q // 2)) * size,
                               0.03 * size, 0.03 * size))
            ref = ph.paint_ellipses((size, size), ref_e)
            pred = ph.paint_ellipses((size, size), pred_e)
            ph.write_pgm_mask(inputs / f"{cid}_ref.pgm", ref)
            ph.write_pgm_mask(inputs / f"{cid}_pred.pgm", pred)
            overlaps[cid] = ph.overlap(pred, ref)
            entries.append({"class_id": cid, "pred_path": f"{cid}_pred.pgm",
                            "ref_path": f"{cid}_ref.pgm"})
        ph.write_json(inputs / "manifest.json", entries)

    def calls(self, inputs: Path, out: Path) -> Iterator[Call]:
        rep = out / "evaluation.json"
        yield Call("evaluate", ["evaluate", "--manifest", str(inputs / "manifest.json"),
                                "--out", str(rep)],
                   rep, lambda: check_evaluate(rep, self.truth.overlaps["evaluation"]))


WORKLOADS = {w.name: w for w in (CtProject, CohortChain, MaskEval)}
