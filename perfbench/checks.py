"""Checkers the benchmark applies to the program's outputs.

Every function here recomputes its answer from first principles (numpy,
``csv``, ``hashlib``) instead of calling into ``repro``, so a fault in the
program cannot also hide in the check.  ``tests/test_checks.py`` covers
them without running any workload.
"""

from __future__ import annotations

import csv
import hashlib
import json
import re
import statistics
from pathlib import Path

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's own answer."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- detection quality ---------------------------------------------------
def prf(pred: np.ndarray, truth: np.ndarray) -> tuple[float, float, float]:
    """Cell-level precision, recall and F1 of ``pred`` against ``truth``."""
    pred = np.asarray(pred, dtype=bool)
    truth = np.asarray(truth, dtype=bool)
    if pred.shape != truth.shape:
        raise CheckFailed(f"mask shape {pred.shape} != truth {truth.shape}")
    tp = int(np.count_nonzero(pred & truth))
    n_pred = int(np.count_nonzero(pred))
    n_true = int(np.count_nonzero(truth))
    p = tp / n_pred if n_pred else 0.0
    r = tp / n_true if n_true else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def flag_all_f1(truth: np.ndarray) -> float:
    """F1 of the detector that flags every cell: 2e / (1 + e)."""
    e = float(np.mean(np.asarray(truth, dtype=bool)))
    return 2 * e / (1 + e)


def check_beats_flag_all(
    pred: np.ndarray, truth: np.ndarray, what: str
) -> tuple[float, float, float]:
    p, r, f1 = prf(pred, truth)
    floor = flag_all_f1(truth)
    require(
        f1 > floor,
        f"{what}: F1 {f1:.4f} does not beat flag-every-cell F1 {floor:.4f}",
    )
    return p, r, f1


# --- LLM accounting ------------------------------------------------------
def recount_tokens(text: str) -> int:
    """The documented estimate: max(words, chars / 4), 0 for empty text."""
    if not text:
        return 0
    return max(len(text.split()), len(text) // 4)


# --- streamed masks ------------------------------------------------------
def count_csv_rows(path: str | Path) -> int:
    """Data rows of a CSV file, header excluded (quoted newlines count once)."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader, None)
        return sum(1 for _ in reader)


def mask_from_file(path: str | Path) -> tuple[list[str], np.ndarray]:
    """Parse a mask JSON file (schema + flagged cells) into a bool matrix."""
    payload = json.loads(Path(path).read_text())
    attributes = list(payload["attributes"])
    col = {a: j for j, a in enumerate(attributes)}
    matrix = np.zeros((int(payload["n_rows"]), len(attributes)), dtype=bool)
    for i, attr in payload["errors"]:
        matrix[int(i), col[attr]] = True
    return attributes, matrix


def mask_sha256(matrix: np.ndarray) -> str:
    """SHA-256 of a bool mask's row-major bytes (one byte per cell)."""
    data = np.ascontiguousarray(np.asarray(matrix, dtype=bool)).tobytes()
    return hashlib.sha256(data).hexdigest()


def schema_fingerprint(attributes: list[str]) -> str:
    """SHA-256 of the attribute names joined by the unit separator."""
    return hashlib.sha256("\x1f".join(attributes).encode("utf-8")).hexdigest()


# --- Prometheus text scrape ----------------------------------------------
_SAMPLE = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})?\s+(\S+)(?:\s+\d+)?$"
)
_LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\]|\\.)*)"')


def parse_prometheus(text: str) -> dict[tuple[str, frozenset], float]:
    """Samples of a text-format exposition: (name, labels) -> value."""
    out: dict[tuple[str, frozenset], float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        m = _SAMPLE.match(line)
        if m is None:
            raise CheckFailed(f"unparseable metrics line: {line!r}")
        name, labels, value = m.groups()
        pairs = frozenset(_LABEL.findall(labels or ""))
        out[(name, pairs)] = float(value)
    return out


def metric_sum(samples: dict, name: str, **labels: str) -> float:
    """Sum of every sample of ``name`` whose labels include ``labels``."""
    want = set(labels.items())
    return sum(
        v for (n, pairs), v in samples.items() if n == name and want <= pairs
    )


# --- statistics over runs ------------------------------------------------
def spread(values: list[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med) if med else float("inf")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100) of a non-empty sample."""
    ordered = sorted(values)
    k = max(0, min(len(ordered) - 1, int(np.ceil(q / 100 * len(ordered))) - 1))
    return ordered[k]
