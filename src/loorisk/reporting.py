"""Persistent outputs: results.csv, report.json and a digest manifest.

Reals are serialized with 17 significant digits in the CSV and native
repr precision in JSON, so both round-trip bit-faithfully.  The manifest
is always written last and records a sha256 digest per output file.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import asdict
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .bounds import BoundReport
from .experiments import ExperimentResult
from .risk import RiskReport
from .solver import FitResult

EXPERIMENT_COLUMNS = ("n", "p", "lambda", "estimator", "mse", "mse_se", "bound_over_n")
RISK_COLUMNS = ("index", "per_sample", "h_diag")
BOUND_COLUMNS = ("quantity", "value")
FIT_COLUMNS = ("index", "beta_hat")


def format_real(x):
    if x is None:
        return ""
    return f"{float(x):.17g}"


def _experiment_rows(result):
    keys = ("n", "p", "lam", "estimator", "mse", "mse_se", "bound_over_n")
    return [tuple(row[key] for key in keys) for row in result.rows]


def _risk_rows(result):
    h = result.h_diag
    return [
        (i, value, None if h is None else h[i])
        for i, value in enumerate(result.per_sample)
    ]


def _bound_rows(result):
    names = ("rho", "delta", "c0", "c1", "nu", "C_b", "C_v", "bound_over_n")
    rows = [(name, getattr(result, name)) for name in names]
    if result.audit is not None:
        rows.append(("c0_emp", result.audit.c0_emp))
        rows.append(("nu_emp", result.audit.nu_emp))
        rows.extend(result.audit.tilde_moments.items())
    return rows


def _fit_rows(result):
    return list(enumerate(result.beta_hat))


# each result dataclass: its "type" tag in report.json, its CSV columns and
# the builder of its CSV rows, whose cells are text or numbers
_RESULT_TYPES = {
    ExperimentResult: ("experiment", EXPERIMENT_COLUMNS, _experiment_rows),
    RiskReport: ("risk", RISK_COLUMNS, _risk_rows),
    BoundReport: ("bound", BOUND_COLUMNS, _bound_rows),
    FitResult: ("fit", FIT_COLUMNS, _fit_rows),
}


def to_jsonable(obj):
    """Recursively convert a result object to JSON-serializable structures.

    A result dataclass becomes its tag and its fields, in declaration order.
    """
    if type(obj) in _RESULT_TYPES:
        return {"type": _RESULT_TYPES[type(obj)][0], **to_jsonable(asdict(obj))}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _sha256(path):
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def write_results(result, out_dir, manifest_info=None):
    """Write results.csv and report.json, then manifest.json; return paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()

    if type(result) not in _RESULT_TYPES:
        raise TypeError(f"cannot serialize {type(result).__name__}")
    _, header, build_rows = _RESULT_TYPES[type(result)]
    csv_path = out_dir / "results.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in build_rows(result):
            # text stays text; every number, int or real, goes through format_real
            writer.writerow([c if isinstance(c, str) else format_real(c) for c in row])

    json_path = out_dir / "report.json"
    with open(json_path, "w") as fh:
        json.dump(to_jsonable(result), fh, indent=2)
        fh.write("\n")

    manifest = dict(manifest_info or {})
    manifest.setdefault("command", "library")
    manifest.setdefault("seed", None)
    from . import __version__

    manifest["version"] = __version__
    manifest["started"] = manifest.get("started", started)
    manifest["finished"] = datetime.now(timezone.utc).isoformat()
    manifest["outputs"] = [
        {"path": p.name, "sha256": _sha256(p), "bytes": p.stat().st_size}
        for p in (csv_path, json_path)
    ]
    manifest_path = out_dir / "manifest.json"
    with open(manifest_path, "w") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return [csv_path, json_path, manifest_path]
