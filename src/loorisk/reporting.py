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


# the "type" tag of each result dataclass in report.json
_RESULT_TYPES = {
    ExperimentResult: "experiment",
    RiskReport: "risk",
    BoundReport: "bound",
    FitResult: "fit",
}


def to_jsonable(obj):
    """Recursively convert a result object to JSON-serializable structures.

    A result dataclass becomes its tag and its fields, in declaration order.
    """
    if type(obj) in _RESULT_TYPES:
        return {"type": _RESULT_TYPES[type(obj)], **to_jsonable(asdict(obj))}
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [to_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


def _csv_rows(result):
    if isinstance(result, ExperimentResult):
        rows = [
            (
                str(r["n"]),
                str(r["p"]),
                format_real(r["lam"]),
                r["estimator"],
                format_real(r["mse"]),
                format_real(r["mse_se"]),
                format_real(r["bound_over_n"]),
            )
            for r in result.rows
        ]
        return EXPERIMENT_COLUMNS, rows
    if isinstance(result, RiskReport):
        h = result.h_diag
        rows = [
            (
                str(i),
                format_real(result.per_sample[i]),
                format_real(h[i]) if h is not None else "",
            )
            for i in range(result.per_sample.size)
        ]
        return RISK_COLUMNS, rows
    if isinstance(result, BoundReport):
        rows = [
            (name, format_real(getattr(result, name)))
            for name in ("rho", "delta", "c0", "c1", "nu", "C_b", "C_v", "bound_over_n")
        ]
        if result.audit is not None:
            rows.append(("c0_emp", format_real(result.audit.c0_emp)))
            rows.append(("nu_emp", format_real(result.audit.nu_emp)))
            for key, value in result.audit.tilde_moments.items():
                rows.append((key, format_real(value)))
        return BOUND_COLUMNS, rows
    if isinstance(result, FitResult):
        rows = [
            (str(j), format_real(result.beta_hat[j]))
            for j in range(result.beta_hat.size)
        ]
        return FIT_COLUMNS, rows
    raise TypeError(f"cannot serialize {type(result).__name__}")


def _sha256(path):
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def write_results(result, out_dir, manifest_info=None):
    """Write results.csv and report.json, then manifest.json; return paths."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    started = datetime.now(timezone.utc).isoformat()

    csv_path = out_dir / "results.csv"
    header, rows = _csv_rows(result)
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)

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
