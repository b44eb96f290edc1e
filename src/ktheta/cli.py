"""Command-line interface: deterministic numerical checks and evaluations."""

from __future__ import annotations

import csv
import dataclasses
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


# config-file keys are RunConfig's constructor fields, each typed as its default
_CONFIG_TYPES = {f.name: type(f.default) for f in dataclasses.fields(RunConfig) if f.init}


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


_DEFAULTS = RunConfig()

_shared = [
    click.option("--k", type=int, default=None, help=f"Bundle degree (default {_DEFAULTS.k})."),
    click.option("--eps", "epsilon", type=float, default=None, help="Series tail tolerance."),
    click.option("--samples", type=int, default=None, help="Sample-count override."),
    click.option("--seed", type=int, default=None, help=f"RNG seed (default {_DEFAULTS.seed})."),
    click.option("--grid", type=int, default=None,
                 help=f"Torus quadrature grid (default {_DEFAULTS.grid})."),
    click.option("--fd-step", type=float, default=None, help="Finite-difference step."),
    click.option("--config", "config_path", type=click.Path(exists=True, dir_okay=False),
                 default=None, help="key=value config file; flags override it."),
    click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json"),
    click.option("--out", type=click.Path(dir_okay=False), default=None,
                 help="Write output to a file instead of stdout."),
]


def _point(ctx, param, coords) -> KTPoint:
    """The point of a command's four coordinates; a non-finite one is bad usage."""
    try:
        return KTPoint(*coords)
    except ValueError as exc:
        raise click.BadParameter(str(exc), ctx, param) from exc


point_argument = click.argument("point", metavar="X Y Z T", nargs=4, type=float, callback=_point)


def shared_options(fn):
    for opt in reversed(_shared):
        fn = opt(fn)
    return fn


class _Group(click.Group):
    """Reports a library error of any command as ``error: ...`` and exit 1."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except KThetaError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group(cls=_Group)
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
    _emit(rows, ["check", "samples", "max_residual", "threshold", "pass", "ms"], fmt, out)
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
@point_argument
def embed(point, fmt, out, config_path, **overrides):
    """Projective image of the point (x y z t) under phi_k."""
    cfg = _build_config(config_path, **overrides)
    lift = _display_normalize(phi(cfg.k, point, cfg.policy))
    rows = [
        {"index": i, "re": float(c.real), "im": float(c.imag)}
        for i, c in enumerate(lift)
    ]
    _emit(rows, ["index", "re", "im"], fmt, out)


@main.command()
@shared_options
@point_argument
def rank(point, fmt, out, config_path, **overrides):
    """Rank of the differential of phi_k at the point (x y z t)."""
    cfg = _build_config(config_path, **overrides)
    r = projective_rank(cfg.k, point, policy=cfg.policy)
    _emit([{"k": cfg.k, "rank": r}], ["k", "rank"], fmt, out)


@main.command()
@shared_options
def injectivity(fmt, out, config_path, **overrides):
    """Seeded image-collision scan for phi_k; exit 1 on a near-collision."""
    cfg = _build_config(config_path, **overrides)
    report = injectivity_scan(cfg.k, cfg.count(2000), cfg.seed, cfg.policy)
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
@point_argument
def pullback(map_id, point, fmt, out, config_path, **overrides):
    """Fubini-Study pullback matrix of a map at the point (x y z t)."""
    cfg = _build_config(config_path, **overrides)
    form = fs_pullback(map_id, cfg.k, point, cfg.policy)
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
    _build_config(config_path, **overrides)
    ids = [torus_id] if torus_id else sorted(TORUS_AXES)
    rows = [{"torus": tid, "c1": chern_via_multiplicators(tid)} for tid in ids]
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
    rows = [
        {"torus": tid, "map": map_id, "k": cfg.k,
         "integral": integrate_over_torus(map_id, cfg.k, BasisTorus(tid), cfg.grid, cfg.policy)}
        for tid in ids
    ]
    _emit(rows, ["torus", "map", "k", "integral"], fmt, out)


if __name__ == "__main__":
    main()
