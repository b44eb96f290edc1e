"""Command-line interface: deterministic numerical checks and evaluations."""

from __future__ import annotations

import csv
import io
import json
import sys

import click
import numpy as np

from .checks import REGISTRY, RunConfig
from .embedding import ProjectivePoint, phi, projective_rank
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


def _build_config(**fields) -> RunConfig:
    try:
        return RunConfig(**fields)
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

# the flag of each RunConfig field; a command declares the fields it reads
_FIELD_OPTIONS = {
    "k": click.option("--k", type=int, default=_DEFAULTS.k,
                      help=f"Bundle degree (default {_DEFAULTS.k})."),
    "epsilon": click.option("--eps", "epsilon", type=float, default=_DEFAULTS.epsilon,
                            help=f"Series tail tolerance (default {_DEFAULTS.epsilon:g})."),
    "samples": click.option("--samples", type=int, default=_DEFAULTS.samples,
                            help="Sample count (default 0: each suite's own)."),
    "seed": click.option("--seed", type=int, default=_DEFAULTS.seed,
                         help=f"RNG seed (default {_DEFAULTS.seed})."),
}
_OUTPUT_OPTIONS = [
    click.option("--format", "fmt", type=click.Choice(["json", "csv"]), default="json"),
    click.option("--out", type=click.Path(dir_okay=False), default=None,
                 help="Write output to a file instead of stdout."),
]


def options(*fields):
    """The flags of the named RunConfig fields, then --format and --out."""
    def decorate(fn):
        for opt in reversed([_FIELD_OPTIONS[f] for f in fields] + _OUTPUT_OPTIONS):
            fn = opt(fn)
        return fn
    return decorate


def _point(ctx, param, coords) -> KTPoint:
    """The point of a command's four coordinates; a non-finite one is bad usage."""
    try:
        return KTPoint(*coords)
    except ValueError as exc:
        raise click.BadParameter(str(exc), ctx, param) from exc


point_argument = click.argument("point", metavar="X Y Z T", nargs=4, type=float, callback=_point)
# a point command reads an option-like token such as -0.5 as a coordinate, so
# an unknown option is reported as a coordinate that is not a number
_COORDINATES = {"ignore_unknown_options": True}


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
@options("k", "epsilon", "samples", "seed")
@click.option("--only", multiple=True, help="Run only the named checks (repeatable).")
def check(only, fmt, out, **fields):
    """Run the registered verification suites; exit 1 if any fails."""
    cfg = _build_config(**fields)
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
        except ValueError as exc:  # a degree the suites do not take
            raise click.UsageError(str(exc)) from exc
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


@main.command(context_settings=_COORDINATES)
@options("k", "epsilon")
@point_argument
def embed(point, fmt, out, **fields):
    """Projective image of the point (x y z t) under phi_k."""
    cfg = _build_config(**fields)
    lift = _display_normalize(phi(cfg.k, point, cfg.policy))
    rows = [
        {"index": i, "re": float(c.real), "im": float(c.imag)}
        for i, c in enumerate(lift)
    ]
    _emit(rows, ["index", "re", "im"], fmt, out)


@main.command(context_settings=_COORDINATES)
@options("k", "epsilon")
@point_argument
def rank(point, fmt, out, **fields):
    """Rank of the differential of phi_k at the point (x y z t)."""
    cfg = _build_config(**fields)
    r = projective_rank(cfg.k, point, policy=cfg.policy)
    _emit([{"k": cfg.k, "rank": r}], ["k", "rank"], fmt, out)


@main.command(context_settings=_COORDINATES)
@options("k", "epsilon")
@click.option("--map", "map_id", type=click.Choice(MAP_IDS), default="phi_k")
@point_argument
def pullback(map_id, point, fmt, out, **fields):
    """Fubini-Study pullback matrix of a map at the point (x y z t)."""
    cfg = _build_config(**fields)
    form = fs_pullback(map_id, cfg.k, point, cfg.policy)
    axes = ["x", "y", "z", "t"]
    rows = [
        {"component": f"d{axes[i]}^d{axes[j]}", "value": float(form.matrix[i, j])}
        for i in range(4)
        for j in range(i + 1, 4)
    ]
    _emit(rows, ["component", "value"], fmt, out)


@main.command()
@options()
@click.option("--torus", "torus_id", type=click.Choice(sorted(TORUS_AXES)), default=None,
              help="Restrict to one torus (default: all four).")
def chern(torus_id, fmt, out):
    """First Chern numbers on the basis tori, from the branch functions."""
    ids = [torus_id] if torus_id else sorted(TORUS_AXES)
    rows = [{"torus": tid, "c1": chern_via_multiplicators(tid)} for tid in ids]
    _emit(rows, ["torus", "c1"], fmt, out)


@main.command()
@options("k", "epsilon")
@click.option("--map", "map_id", type=click.Choice(MAP_IDS), default="phi_k")
@click.option("--torus", "torus_id", type=click.Choice(sorted(TORUS_AXES)), default=None,
              help="Restrict to one torus (default: all four).")
def integrate(map_id, torus_id, fmt, out, **fields):
    """Integral of the pulled-back form over the basis tori."""
    cfg = _build_config(**fields)
    ids = [torus_id] if torus_id else sorted(TORUS_AXES)
    rows = [
        {"torus": tid, "map": map_id, "k": cfg.k,
         "integral": integrate_over_torus(map_id, cfg.k, BasisTorus(tid), policy=cfg.policy)}
        for tid in ids
    ]
    _emit(rows, ["torus", "map", "k", "integral"], fmt, out)


if __name__ == "__main__":
    main()
