"""Command-line interface: deterministic numerical checks and evaluations."""

from __future__ import annotations

import csv
import io
import json
import sys

import click
import numpy as np

from .checks import REGISTRY, RunConfig
from .embedding import ProjectivePoint, injectivity_scan, phi, projective_rank
from .errors import KThetaError
from .manifold import KTPoint
from .symplectic import (
    BasisTorus,
    MAP_IDS,
    TORUS_AXES,
    chern_via_multiplicators,
    fs_pullback,
    integrate_over_torus,
)


def _load_config_file(path):
    """Read ``key=value`` lines; blank lines and #-comments are ignored."""
    values = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise click.UsageError(f"{path}:{lineno}: expected key=value, got {raw!r}")
            key, _, val = line.partition("=")
            values[key.strip()] = val.strip()
    return values


_CONFIG_TYPES = {
    "k": int,
    "epsilon": float,
    "samples": int,
    "seed": int,
    "grid": int,
    "fd_step": float,
    "max_terms": int,
}


def _build_config(config_path, **overrides) -> RunConfig:
    merged = {}
    if config_path:
        for key, raw in _load_config_file(config_path).items():
            if key not in _CONFIG_TYPES:
                raise click.UsageError(f"unknown config key {key!r}")
            try:
                merged[key] = _CONFIG_TYPES[key](raw)
            except ValueError as exc:
                raise click.UsageError(f"bad value for {key!r}: {raw!r}") from exc
    for key, val in overrides.items():
        if val is not None:
            merged[key] = val
    try:
        return RunConfig(**merged)
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _emit(rows, fieldnames, fmt, out):
    """Write rows as JSON (list of objects) or CSV to ``out`` or stdout."""
    if fmt == "json":
        text = json.dumps(rows, indent=2, default=str) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fieldnames)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: row.get(k, "") for k in fieldnames})
        text = buf.getvalue()
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)


def _point_from_coords(coords) -> KTPoint:
    return KTPoint(*(float(c) for c in coords))


_shared = [
    click.option("--k", type=int, default=None, help="Bundle degree (default 3)."),
    click.option("--eps", "epsilon", type=float, default=None, help="Series tail tolerance."),
    click.option("--samples", type=int, default=None, help="Sample-count override."),
    click.option("--seed", type=int, default=None, help="RNG seed (default 42)."),
    click.option("--grid", type=int, default=None, help="Torus quadrature grid (default 64)."),
    click.option("--fd-step", type=float, default=None, help="Finite-difference step."),
    click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                 default=None, help="key=value config file; flags override it."),
    click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json"),
    click.option("--out", type=click.Path(dir_okay=False), default=None,
                 help="Write output to a file instead of stdout."),
]


def shared_options(fn):
    for opt in reversed(_shared):
        fn = opt(fn)
    return fn


@click.group()
def main():
    """Theta functions and projective embeddings on the Kodaira-Thurston manifold."""


@main.command()
@shared_options
@click.option("--only", multiple=True, help="Run only the named checks (repeatable).")
def check(only, fmt, out, config_path, **overrides):
    """Run the registered verification suites; exit 1 if any fails."""
    cfg = _build_config(config_path, **overrides)
    names = list(only) if only else list(REGISTRY)
    unknown = [n for n in names if n not in REGISTRY]
    if unknown:
        raise click.UsageError(f"unknown checks: {', '.join(unknown)}")
    rows = []
    all_passed = True
    for name in names:
        try:
            report = REGISTRY[name](cfg)
        except KThetaError as exc:
            click.echo(f"error in {name}: {exc}", err=True)
            sys.exit(1)
        rows.append(report.to_dict())
        all_passed = all_passed and report.passed
    fields = ["check", "samples", "max_residual", "threshold", "pass", "ms"]
    if fmt == "csv":
        rows = [{k: r[k] for k in fields} for r in rows]
    _emit(rows, fields, fmt, out)
    sys.exit(0 if all_passed else 1)


def _display_normalize(point: ProjectivePoint) -> np.ndarray:
    """Unit norm with the first nonzero coordinate real positive.

    Presentation only: projective points have no canonical lift, this just
    makes output deterministic across runs.
    """
    vec = point.normalized()
    nz = np.flatnonzero(np.abs(vec) > 1e-12)
    if nz.size:
        pivot = vec[nz[0]]
        vec = vec * (abs(pivot) / pivot)
    return vec


@main.command()
@shared_options
@click.argument("coords", nargs=4, type=float)
def embed(coords, fmt, out, config_path, **overrides):
    """Projective image of the point (x y z t) under phi_k."""
    cfg = _build_config(config_path, **overrides)
    try:
        point = phi(cfg.k, _point_from_coords(coords), cfg.policy)
    except KThetaError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    lift = _display_normalize(point)
    rows = [
        {"index": i, "re": float(c.real), "im": float(c.imag)}
        for i, c in enumerate(lift)
    ]
    _emit(rows, ["index", "re", "im"], fmt, out)


@main.command()
@shared_options
@click.argument("coords", nargs=4, type=float)
def rank(coords, fmt, out, config_path, **overrides):
    """Rank of the differential of phi_k at the point (x y z t)."""
    cfg = _build_config(config_path, **overrides)
    try:
        r = projective_rank(cfg.k, _point_from_coords(coords), tol=1e-6, policy=cfg.policy)
    except KThetaError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    _emit([{"k": cfg.k, "rank": r}], ["k", "rank"], fmt, out)


@main.command()
@shared_options
def injectivity(fmt, out, config_path, **overrides):
    """Seeded image-collision scan for phi_k; exit 1 on a near-collision."""
    cfg = _build_config(config_path, **overrides)
    n = cfg.samples if cfg.samples > 0 else 2000
    try:
        report = injectivity_scan(cfg.k, n, cfg.seed, cfg.policy)
    except KThetaError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    row = {
        "k": report.k,
        "n_samples": report.n_samples,
        "seed": report.seed,
        "min_image_distance": report.min_image_distance,
        "witness_i": report.witness_indices[0],
        "witness_j": report.witness_indices[1],
        "witness_quotient_distance": report.witness_quotient_distance,
        "pass": report.passed,
    }
    _emit([row], list(row), fmt, out)
    sys.exit(0 if report.passed else 1)


@main.command()
@shared_options
@click.option("--map", "map_id", type=click.Choice(MAP_IDS), default="phi_k")
@click.argument("coords", nargs=4, type=float)
def pullback(map_id, coords, fmt, out, config_path, **overrides):
    """Fubini-Study pullback matrix of a map at the point (x y z t)."""
    cfg = _build_config(config_path, **overrides)
    try:
        form = fs_pullback(map_id, cfg.k, _point_from_coords(coords), cfg.policy)
    except KThetaError as exc:
        click.echo(f"error: {exc}", err=True)
        sys.exit(1)
    axes = ["x", "y", "z", "t"]
    rows = [
        {"component": f"d{axes[i]}^d{axes[j]}", "value": float(form.matrix[i, j])}
        for i in range(4)
        for j in range(i + 1, 4)
    ]
    _emit(rows, ["component", "value"], fmt, out)


@main.command()
@shared_options
@click.option("--torus", "torus_id", type=click.Choice(sorted(TORUS_AXES)), default=None,
              help="Restrict to one torus (default: all four).")
def chern(torus_id, fmt, out, config_path, **overrides):
    """First Chern numbers on the basis tori, from the branch functions."""
    cfg = _build_config(config_path, **overrides)
    ids = [torus_id] if torus_id else sorted(TORUS_AXES)
    rows = []
    for tid in ids:
        try:
            rows.append({"torus": tid, "c1": chern_via_multiplicators(tid)})
        except KThetaError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
    _emit(rows, ["torus", "c1"], fmt, out)


@main.command()
@shared_options
@click.option("--map", "map_id", type=click.Choice(MAP_IDS), default="phi_k")
@click.option("--torus", "torus_id", type=click.Choice(sorted(TORUS_AXES)), default=None,
              help="Restrict to one torus (default: all four).")
def integrate(map_id, torus_id, fmt, out, config_path, **overrides):
    """Integral of the pulled-back form over the basis tori."""
    cfg = _build_config(config_path, **overrides)
    ids = [torus_id] if torus_id else sorted(TORUS_AXES)
    rows = []
    for tid in ids:
        try:
            val = integrate_over_torus(map_id, cfg.k, BasisTorus(tid), cfg.grid, cfg.policy)
        except KThetaError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)
        rows.append({"torus": tid, "map": map_id, "k": cfg.k, "integral": val})
    _emit(rows, ["torus", "map", "k", "integral"], fmt, out)


if __name__ == "__main__":
    main()
