"""File formats: CSV ingestion with delimiter/header detection, report and
dataset persistence, tidy benchmark exports."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from .consensus import ConsensusMatrix
from .errors import CsvFormatError, DataError
from .simgen import LabeledDataset, ScenarioSpec

__all__ = [
    "read_data_csv",
    "read_labels_csv",
    "write_consensus_csv",
    "render_report_text",
    "save_dataset",
    "load_dataset",
    "write_rows_csv",
]

_DELIMITERS = (",", ";", "\t")


def _detect_delimiter(first_line: str) -> str:
    counts = {d: first_line.count(d) for d in _DELIMITERS}
    best = max(counts, key=counts.get)
    return best if counts[best] > 0 else ","


def _is_number(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def read_data_csv(path, header: str | bool = "auto") -> np.ndarray:
    """Read a numeric matrix from CSV.

    The delimiter is auto-detected among comma/semicolon/tab;
    ``header="auto"`` treats the first row as a header iff any of its cells
    is non-numeric.  A non-numeric data cell is fatal, reported with its
    1-based row and column.
    """
    path = Path(path)
    text = path.read_text().splitlines()
    lines = [(i + 1, ln) for i, ln in enumerate(text) if ln.strip()]
    if not lines:
        raise CsvFormatError(f"{path}: file is empty")
    delimiter = _detect_delimiter(lines[0][1])

    reader = list(csv.reader((ln for _, ln in lines), delimiter=delimiter))
    first = [c.strip() for c in reader[0]]
    if header == "auto":
        has_header = any(not _is_number(c) for c in first if c != "")
    else:
        has_header = bool(header)
    body = reader[1:] if has_header else reader
    line_nos = [no for no, _ in (lines[1:] if has_header else lines)]
    if not body:
        raise CsvFormatError(f"{path}: no data rows")

    width = len(body[0])
    out = np.empty((len(body), width), dtype=float)
    for r, row in enumerate(body):
        if len(row) != width:
            raise CsvFormatError(
                f"{path}: ragged row with {len(row)} cells, expected {width}",
                row=line_nos[r],
            )
        for c, cell in enumerate(row):
            cell = cell.strip()
            try:
                out[r, c] = float(cell)
            except ValueError:
                raise CsvFormatError(
                    f"{path}: non-numeric cell {cell!r}", row=line_nos[r], col=c + 1
                ) from None
    return out


def read_labels_csv(path) -> np.ndarray:
    """Read ground-truth labels: one column, arbitrary tokens encoded to
    integer codes by first appearance."""
    path = Path(path)
    tokens = []
    for raw in path.read_text().splitlines():
        raw = raw.strip()
        if not raw:
            continue
        if any(d in raw for d in _DELIMITERS):
            raw = raw.split(_detect_delimiter(raw))[0].strip()
        tokens.append(raw)
    if not tokens:
        raise CsvFormatError(f"{path}: no labels found")
    # numeric column with a header: drop the header row; fully textual
    # columns are taken verbatim as categorical labels
    if len(tokens) > 1 and not _is_number(tokens[0]) and all(_is_number(t) for t in tokens[1:]):
        tokens = tokens[1:]
    codes: dict[str, int] = {}
    out = np.empty(len(tokens), dtype=np.int64)
    for i, tok in enumerate(tokens):
        out[i] = codes.setdefault(tok, len(codes))
    return out


def write_consensus_csv(consensus: ConsensusMatrix, path) -> None:
    """Dense row-major export, 6 significant digits per entry."""
    m = np.asarray(consensus)
    with open(path, "w", newline="") as fh:
        for row in m:
            fh.write(",".join(f"{v:.6g}" for v in row))
            fh.write("\n")


def render_report_text(report) -> str:
    """Human-readable summary of a pipeline report."""
    lines = [
        f"method={report.method}  n={report.n}  runs={report.runs}  seed={report.seed}",
        f"bandwidth sigma2={report.sigma2_hat:.6g}  s={report.s:g}  "
        f"preprocessing={report.preprocessing}",
        f"chosen: K={report.k_hat}  threshold={report.threshold}  merged={report.merged}  "
        f"alpha={report.alpha:.6g}",
    ]
    if report.ari is not None:
        lines.append(
            f"vs truth: ARI={report.ari:.4f}  RN={report.rn_signed:+.4f}  "
            f"K_true={report.k_true}"
        )
    lines.append("")
    lines.append(f"{'theta':>7} {'K':>4} {'W_V':>12} {'B_tilde':>12} {'KVI':>12} {'SR':>10}  note")
    for c in report.candidates:
        theta = f"{c.threshold:.2f}" if c.threshold is not None else "-"
        b_tilde = f"{c.b_tilde:.6g}" if c.b_tilde is not None else "-"
        kvi_s = f"{c.kvi:.6g}" if c.kvi is not None else "-"
        sr_s = f"{c.sr:.4f}" if c.sr is not None else "-"
        note = c.reason if c.excluded else ("chosen" if c.threshold == report.threshold and c.k == report.k_hat else "")
        lines.append(f"{theta:>7} {c.k:>4} {c.w_v:>12.6g} {b_tilde:>12} {kvi_s:>12} {sr_s:>10}  {note}")
    t = report.timings
    if t:
        lines.append("")
        lines.append("timings: " + "  ".join(f"{k}={v:.2f}s" for k, v in t.items()))
    return "\n".join(lines)


def save_dataset(dataset: LabeledDataset, outdir, scenario: ScenarioSpec | None = None, seed=None) -> None:
    """Persist a simulated dataset: features.csv + labels.csv + meta.json."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    np.savetxt(outdir / "features.csv", dataset.data, fmt="%.17g", delimiter=",")
    np.savetxt(outdir / "labels.csv", dataset.true_labels, fmt="%d")
    meta = {
        "n": dataset.n,
        "p": dataset.p,
        "k": dataset.k,
        "seed": seed,
        "scenario": None
        if scenario is None
        else {
            "id": scenario.scenario_id,
            "n": scenario.n,
            "p_level": scenario.p_level,
            "k_level": scenario.k_level,
            "max_pairwise_overlap": scenario.max_pairwise_overlap,
            "replicas": scenario.replicas,
        },
    }
    (outdir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")


def load_dataset(indir) -> tuple[np.ndarray, np.ndarray, dict]:
    """Load a dataset saved by save_dataset: (features, labels, meta)."""
    indir = Path(indir)
    features = read_data_csv(indir / "features.csv")
    labels = read_labels_csv(indir / "labels.csv")
    if labels.size != features.shape[0]:
        raise DataError(
            f"{indir}: {features.shape[0]} feature rows but {labels.size} labels"
        )
    meta_path = indir / "meta.json"
    meta = json.loads(meta_path.read_text()) if meta_path.exists() else {}
    return features, labels, meta


def write_rows_csv(rows: list[dict], path) -> None:
    """Write a list of homogeneous dicts as a tidy CSV with a header row."""
    path = Path(path)
    if not rows:
        path.write_text("")
        return
    fields = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        writer.writerows(rows)
