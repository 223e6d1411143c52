"""Command-line interface.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 numerical
failure (including exhausted resampling/generation and empty candidate sets).
"""

from __future__ import annotations

import functools
import json
import sys
from dataclasses import replace
from pathlib import Path

import click

from . import io as pkgio
from .bench import benchmark, diversity_series
from .consensus import ConsensusConfig
from .errors import ConfigError, DataError, NumericalError, checked_int
from .pipeline import METHODS, PipelineConfig, run_pipeline
from .preprocess import PREPROCESSORS
from .rng import RngStream
from .simgen import ScenarioSpec, generate_mixture, parse_scenario_id, scenario_grid

EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4


def _fail(message: str, code: int):
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _mapped_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except click.ClickException:
            raise
        except ConfigError as exc:
            _fail(str(exc), EXIT_CONFIG)
        except (DataError, OSError) as exc:
            _fail(str(exc), EXIT_DATA)
        except NumericalError as exc:
            _fail(str(exc), EXIT_NUMERIC)

    return wrapper


def _parse_thresholds(text: str | None) -> tuple[float, ...] | None:
    if text is None:
        return None
    try:
        return tuple(float(v) for v in text.split(",") if v.strip())
    except ValueError as exc:
        raise ConfigError(f"bad threshold list {text!r}") from exc


@click.group()
def main():
    """Consensus clustering with determinantal sampling of Voronoi generators."""


@main.command()
@click.argument("data_csv", type=click.Path(path_type=Path))
@click.option("--labels", "labels_csv", type=click.Path(path_type=Path), default=None,
              help="Ground-truth labels CSV for ARI/RN scoring.")
@click.option("--method", type=click.Choice(list(METHODS)), default="dpp",
              show_default=True)
@click.option("--runs", default=200, show_default=True, help="Number of partition runs R.")
@click.option("--tau", default=0.6, show_default=True, help="Minimum consensus threshold.")
@click.option("--thresholds", default=None,
              help="Comma-separated threshold grid (default: tau..0.95 step 0.05).")
@click.option("--min-size-exp", "min_size_exp", default=0.5, show_default=True,
              help="Exponent a of the minimal cluster size ceil(n^a).")
@click.option("--s", "s", default=1.0, show_default=True, help="Bandwidth tuning factor.")
@click.option("--kmax", default=None, type=int,
              help="Cluster-count cap for the uniform/kmeans size draw "
                   "(default: 2*ceil(sqrt(n/2)) clipped to [2, n]).")
@click.option("--seed", default=0, show_default=True)
@click.option("--preprocess", type=click.Choice(list(PREPROCESSORS)),
              default="none", show_default=True)
@click.option("--workers", default=1, show_default=True, help="Parallel run workers.")
@click.option("--out", "out_path", type=click.Path(path_type=Path), default=None,
              help="Write the JSON report here.")
@click.option("--consensus-out", type=click.Path(path_type=Path), default=None,
              help="Also export the consensus matrix as CSV.")
@_mapped_errors
def cluster(data_csv, labels_csv, method, runs, tau, thresholds, min_size_exp, s, kmax,
            seed, preprocess, workers, out_path, consensus_out):
    """Cluster DATA_CSV and report the selected configuration."""
    data = pkgio.read_data_csv(data_csv)
    truth = pkgio.read_labels_csv(labels_csv) if labels_csv else None
    cfg = PipelineConfig(
        method=method,
        consensus=ConsensusConfig(
            runs=runs, tau=tau, thresholds=_parse_thresholds(thresholds), a=min_size_exp
        ),
        s=s,
        k_max=kmax,
        seed=seed,
        preprocessing=preprocess,
        workers=workers,
    )
    report = run_pipeline(data, cfg, truth=truth)
    click.echo(pkgio.render_report_text(report))
    if out_path is not None:
        Path(out_path).write_text(report.to_json() + "\n")
        click.echo(f"report written to {out_path}")
    if consensus_out is not None:
        pkgio.write_consensus_csv(report.consensus, consensus_out)
        click.echo(f"consensus matrix written to {consensus_out}")


@main.command()
@click.option("--scenario-id", default=None, help="Single scenario, e.g. n150-pmedium-klow.")
@click.option("--grid", "use_grid", is_flag=True, help="Generate the whole 24-scenario grid.")
@click.option("--replicas", default=10, show_default=True)
@click.option("--max-overlap", default=0.01, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--out", "out_dir", type=click.Path(path_type=Path), required=True)
@_mapped_errors
def simulate(scenario_id, use_grid, replicas, max_overlap, seed, out_dir):
    """Generate synthetic benchmark datasets."""
    if (scenario_id is None) == (not use_grid):
        raise ConfigError("choose exactly one of --scenario-id or --grid")
    checked_int("replicas", replicas, 1)
    if use_grid:
        scenarios = [replace(sp, max_pairwise_overlap=max_overlap) for sp in scenario_grid()]
    else:
        scenarios = [replace(parse_scenario_id(scenario_id), max_pairwise_overlap=max_overlap)]
    failures = []
    written = 0
    for s_idx, spec in enumerate(scenarios):
        for rep in range(replicas):
            stream = RngStream(seed, (s_idx, rep))
            try:
                ds = generate_mixture(spec, stream)
            except NumericalError as exc:
                failures.append({"scenario": spec.scenario_id, "replica": rep, "error": str(exc)})
                click.echo(f"warning: {spec.scenario_id} replica {rep} failed: {exc}", err=True)
                continue
            target = Path(out_dir) / spec.scenario_id / f"rep{rep:02d}"
            pkgio.save_dataset(ds, target, scenario=spec, seed=seed)
            written += 1
    if failures:
        Path(out_dir).mkdir(parents=True, exist_ok=True)
        (Path(out_dir) / "failures.json").write_text(json.dumps(failures, indent=2) + "\n")
    click.echo(f"wrote {written} datasets under {out_dir}")
    if written == 0:
        _fail("no dataset could be generated", EXIT_NUMERIC)


@main.command(name="benchmark")
@click.option("--scenarios", "scenarios_file", type=click.Path(path_type=Path), required=True,
              help="JSON list of scenario ids or spec objects.")
@click.option("--methods", default="dpp,uniform", show_default=True)
@click.option("--runs", default=200, show_default=True)
@click.option("--replicas", default=None, type=int,
              help="Override the per-scenario replica count.")
@click.option("--seed", default=0, show_default=True)
@click.option("--workers", default=1, show_default=True,
              help="Worker processes per dataset, for the runs and the prefix "
                   "selections alike; results are identical at every count.")
@click.option("--out", "out_dir", type=click.Path(path_type=Path), required=True)
@_mapped_errors
def benchmark_cmd(scenarios_file, methods, runs, replicas, seed, workers, out_dir):
    """Benchmark methods over scenarios; writes tidy CSV tables."""
    method_list = [m.strip() for m in methods.split(",") if m.strip()]
    try:
        raw = json.loads(Path(scenarios_file).read_text())
    except json.JSONDecodeError as exc:
        raise DataError(f"{scenarios_file}: invalid JSON ({exc})") from exc
    if not isinstance(raw, list) or not raw:
        raise DataError(f"{scenarios_file}: expected a nonempty JSON list")
    scenarios = []
    for item in raw:
        if isinstance(item, str):
            scenarios.append(parse_scenario_id(item))
        elif isinstance(item, dict):
            try:
                scenarios.append(ScenarioSpec(**item))
            except TypeError as exc:  # unknown or missing keys
                raise DataError(f"{scenarios_file}: bad scenario entry {item!r} ({exc})") from exc
        else:
            raise DataError(f"{scenarios_file}: bad scenario entry {item!r}")
    cfg = PipelineConfig(
        consensus=ConsensusConfig(runs=runs), seed=seed, workers=workers
    )
    result = benchmark(scenarios, method_list, cfg, replicas=replicas)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = result.summary_rows()
    pkgio.write_rows_csv(summary, out / "summary.csv")
    pkgio.write_rows_csv(result.trajectory_rows(), out / "trajectories.csv")
    pkgio.write_rows_csv(result.histogram_rows(), out / "histograms.csv")
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    for row in summary:
        am = "-" if row["ari_mean"] is None else f"{row['ari_mean']:.3f}"
        click.echo(
            f"{row['scenario']:>24} {row['method']:>8}  ARI={am}  "
            f"ok={row['replicas_ok']} failed={row['replicas_failed']}"
        )
    click.echo(f"tables written under {out_dir}")


@main.command(name="diagnose-diversity")
@click.argument("data_csv", type=click.Path(path_type=Path))
@click.option("--runs", default=200, show_default=True)
@click.option("--seed", default=0, show_default=True)
@click.option("--s", "s", default=1.0, show_default=True)
@click.option("--kmax", default=None, type=int)
@click.option("--out", "out_path", type=click.Path(path_type=Path), required=True)
@_mapped_errors
def diagnose_diversity(data_csv, runs, seed, s, kmax, out_path):
    """Emit per-run subset log-likelihoods for the determinantal and uniform
    samplers (histogram source data)."""
    data = pkgio.read_data_csv(data_csv)
    cfg = PipelineConfig(
        consensus=ConsensusConfig(runs=runs), seed=seed, s=s, k_max=kmax
    )
    rows = diversity_series(data, cfg)
    pkgio.write_rows_csv(rows, out_path)
    click.echo(f"wrote {len(rows)} rows to {out_path}")


if __name__ == "__main__":  # pragma: no cover
    main()
