"""Command-line surface.

Subcommands: analyze, generate, hadamard, encode, isrank2, complete, sweep.
JSON goes to stdout; structured errors go to stderr with exit codes 1
(internal fault), 2 (input format), 3 (genericity), 4 (resource guard).

Guard override: MONORANK_MAX_GROUND (completion-search ground set, default
10).
"""

from __future__ import annotations

import functools
import json
import os
import sys
from pathlib import Path

import click

from . import arrangements as arr
from . import omatroid, report, signs, spectral
from .errors import FormatError, MonorankError
from .matrices import check_generic, format_matrix_csv, parse_matrix, perturb_ties


def _ground_guard() -> int:
    raw = os.environ.get("MONORANK_MAX_GROUND", omatroid.DEFAULT_GROUND_GUARD)
    try:
        return int(raw)
    except ValueError:
        raise FormatError(f"MONORANK_MAX_GROUND is not an integer: {raw!r}") from None


def _emit(payload: dict) -> None:
    click.echo(json.dumps(payload, indent=2))


def _handle_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except MonorankError as exc:
            payload = {"error": {"kind": type(exc).__name__, "message": str(exc)}}
            ties = getattr(exc, "ties", ())
            if ties:
                payload["error"]["ties"] = [list(t) for t in ties]
            click.echo(json.dumps(payload, indent=2), err=True)
            sys.exit(exc.exit_code)

    return wrapper


@click.group()
def main():
    """Combinatorial lower bounds on the monotone rank of a real matrix."""


@main.command()
@click.argument("matrix_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--complete", "complete_d_max", type=int, default=None,
              help="Also run the completion-rank search up to this rank.")
@click.option("--svd", is_flag=True, help="Include singular values.")
@click.option("--topes", is_flag=True, help="Include the tope sets.")
@click.option("--perturb-ties", "perturb", is_flag=True,
              help="Break tied column entries (at --tol) by row order "
                   "(deterministic jitter) instead of failing; exploratory "
                   "use only.")
@click.option("--tol", type=click.FloatRange(min=0), default=0.0, show_default=True,
              help="Tie tolerance for the genericity check.")
@_handle_errors
def analyze(matrix_file, complete_d_max, svd, topes, perturb, tol):
    """Emit a JSON rank report for a CSV matrix."""
    matrix = parse_matrix(Path(matrix_file).read_text())
    perturbed = False
    if perturb and not check_generic(matrix, tol).is_generic:
        matrix = perturb_ties(matrix, tol)
        perturbed = True
    rep = report.build_report(
        matrix,
        complete_d_max=complete_d_max,
        with_svd=svd,
        with_topes=topes,
        max_ground=_ground_guard(),
        tie_tolerance=tol,
        perturbed=perturbed,
    )
    _emit(rep.as_dict())


@main.command()
@click.argument("m", type=int)
@click.argument("n", type=int)
@click.argument("d", type=int)
@click.option("--seed", type=int, required=True)
@click.option("--distortion", type=click.Choice(["random", "identity"]),
              default="random", show_default=True)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
              help="Write the matrix CSV here instead of stdout.")
@click.option("--provenance", type=click.Path(dir_okay=False), default=None,
              help="Write the generating points/normals/distortions as JSON.")
@_handle_errors
def generate(m, n, d, seed, distortion, output, provenance):
    """Sample a random rank-d representation and write its matrix."""
    rep = arr.random_representation(
        m, n, d, seed, identity_distortions=(distortion == "identity")
    )
    csv_text = format_matrix_csv(rep.matrix)
    if output:
        Path(output).write_text(csv_text)
    else:
        click.echo(csv_text, nl=False)
    if provenance:
        payload = {
            "seed": seed,
            "m": m,
            "n": n,
            "d": d,
            "distortion_mode": distortion,
            "points": [[repr(float(x)) for x in row] for row in rep.points.points],
            "normals": [[repr(float(x)) for x in row] for row in rep.normals.normals],
            "distortions": [f.as_dict() for f in rep.distortions],
        }
        Path(provenance).write_text(json.dumps(payload, indent=2) + "\n")


@main.command()
@click.argument("n", type=int)
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None)
@_handle_errors
def hadamard(n, output):
    """Write the 2^n-by-2^n ±1 Hadamard matrix as CSV."""
    h = spectral.hadamard(n)
    text = "\n".join(",".join(str(int(x)) for x in row) for row in h) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        click.echo(text, nl=False)


@main.command()
@click.argument("signs_file", type=click.Path(exists=True, dir_okay=False))
@click.option("-o", "--output", type=click.Path(dir_okay=False), default=None,
              help="Write the encoded matrix CSV here.")
@click.option("--json", "as_json", is_flag=True,
              help="Emit a JSON report (with the matrix) instead of bare CSV.")
@_handle_errors
def encode(signs_file, output, as_json):
    """Encode sign vectors into a matrix whose threshold topes contain them.

    The report carries the Forster bound of the input set and the implied
    monotone-rank lower bound of the encoded matrix.
    """
    vectors = signs.parse_sign_file(Path(signs_file).read_text())
    matrix = spectral.encode_signs_as_matrix(vectors)
    csv_text = format_matrix_csv(matrix)
    if output:
        Path(output).write_text(csv_text)
    if as_json:
        payload = report.encode_report(vectors)
        payload["matrix"] = [[float(x) for x in row] for row in matrix]
        _emit(payload)
    elif not output:
        click.echo(csv_text, nl=False)


@main.command()
@click.argument("signs_file", type=click.Path(exists=True, dir_okay=False))
@_handle_errors
def isrank2(signs_file):
    """Decide rank-two oriented-matroid completability of a sign file."""
    vectors = signs.parse_sign_file(Path(signs_file).read_text())
    _emit({"rank2": omatroid.is_rank2_topes(vectors)})


@main.command()
@click.argument("signs_file", type=click.Path(exists=True, dir_okay=False))
@click.argument("rank", type=int)
@_handle_errors
def complete(signs_file, rank):
    """Run the uniform completion search at one rank.

    The JSON carries the outcome and `nodes`, the number of candidate
    circuits the search placed.
    """
    vectors = signs.parse_sign_file(Path(signs_file).read_text())
    result = omatroid.uniform_completion(vectors, rank, max_ground=_ground_guard())
    payload: dict = {"rank": rank, "feasible": result.feasible}
    if result.witness is not None:
        payload["witness"] = result.witness.circuits.strings()
    if result.violation is not None:
        payload["violation"] = result.violation.as_dict()
    if result.missing_support is not None:
        payload["missing_support"] = sorted(result.missing_support)
    payload["nodes"] = result.nodes
    _emit(payload)


@main.command()
@click.argument("points_file", type=click.Path(exists=True, dir_okay=False))
@click.option("--json", "as_json", is_flag=True, help="Emit JSON instead of text.")
@_handle_errors
def sweep(points_file, as_json):
    """Sweep permutations of a planar point set (CSV, one point per row)."""
    pts = arr.parse_points_csv(Path(points_file).read_text())
    seq = arr.sweep_permutations(pts)
    if as_json:
        _emit({
            "length": len(seq),
            "simple": seq.is_simple,
            "permutations": [list(p) for p in seq],
        })
    else:
        click.echo(arr.format_allowable_file(seq), nl=False)


if __name__ == "__main__":
    main()
