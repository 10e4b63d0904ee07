"""Command-line surface.

Subcommands: analyze, generate, hadamard, encode, isrank2, complete, sweep.
JSON goes to stdout.  Every input file is read as UTF-8 through _read,
which drops a leading byte-order mark, and every output file is written
through _write.  Click only parses: paths reach _read and _write
unchecked, and --tol reaches the library's tolerance check, so a missing
or directory input, an output that cannot be written and a negative
tolerance all take the one error path.
The group is the one error boundary: a MonorankError from any subcommand
becomes a JSON error on stderr and the exit code of its class, 1
(internal fault), 2 (input format), 3 (genericity) or 4 (resource guard);
an OSError (an input that cannot be read, an output that cannot be
written) becomes the same JSON with exit code 2.

Guard override: MONORANK_MAX_GROUND (completion-search ground set, default
10).
"""

from __future__ import annotations

import dataclasses
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


def _read(path: str) -> str:
    """The text of an input file, decoded as UTF-8, without a leading
    byte-order mark.  (The utf-8-sig codec would drop it too, but would
    count the byte offset of an undecodable byte from after the mark.)"""
    try:
        return Path(path).read_text(encoding="utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 at byte {exc.start} ({exc.reason})") from None


def _write(text: str, output: str | None) -> None:
    """Write text to the file `output`, or to stdout when it is None."""
    if output:
        Path(output).write_text(text)
    else:
        click.echo(text, nl=False)


class _ErrorBoundary(click.Group):
    """A group that reports a MonorankError or an OSError from any
    subcommand as JSON on stderr, with the tied positions of a
    GenericityError, and exits with the error's code (2 for an OSError,
    an input or output problem)."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (MonorankError, OSError) as exc:
            error = {"kind": type(exc).__name__, "message": str(exc)}
            if getattr(exc, "ties", ()):
                error["ties"] = [list(t) for t in exc.ties]
            click.echo(json.dumps({"error": error}, indent=2), err=True)
            sys.exit(getattr(exc, "exit_code", 2))


@click.group(cls=_ErrorBoundary)
def main():
    """Combinatorial lower bounds on the monotone rank of a real matrix."""


@main.command()
@click.argument("matrix_file")
@click.option("--complete", "complete_d_max", type=int, default=None,
              help="Also run the completion-rank search up to this rank.")
@click.option("--svd", is_flag=True, help="Include singular values.")
@click.option("--topes", is_flag=True, help="Include the tope sets.")
@click.option("--perturb-ties", "perturb", is_flag=True,
              help="Break tied column entries (at --tol) by row order "
                   "(deterministic jitter) instead of failing; exploratory "
                   "use only.")
@click.option("--tol", type=float, default=0.0, show_default=True,
              help="Tie tolerance for the genericity check.")
def analyze(matrix_file, complete_d_max, svd, topes, perturb, tol):
    """Emit a JSON rank report for a CSV matrix."""
    matrix = parse_matrix(_read(matrix_file))
    perturbed = perturb and not check_generic(matrix, tol).is_generic
    if perturbed:
        matrix = perturb_ties(matrix, tol)
    rep = report.build_report(
        matrix,
        complete_d_max=complete_d_max,
        with_svd=svd,
        with_topes=topes,
        max_ground=_ground_guard(),
        tie_tolerance=tol,
    )
    _emit(dataclasses.replace(rep, perturbed_ties=perturbed).as_dict())


@main.command()
@click.argument("m", type=int)
@click.argument("n", type=int)
@click.argument("d", type=int)
@click.option("--seed", type=int, required=True)
@click.option("--distortion", type=click.Choice(["random", "identity"]),
              default="random", show_default=True)
@click.option("-o", "--output", metavar="PATH", default=None,
              help="Write the matrix CSV here instead of stdout.")
@click.option("--provenance", metavar="PATH", default=None,
              help="Write the generating points/normals/distortions as JSON.")
def generate(m, n, d, seed, distortion, output, provenance):
    """Sample a random rank-d representation and write its matrix."""
    rep = arr.random_representation(
        m, n, d, seed, identity_distortions=(distortion == "identity")
    )
    # provenance first, so a provenance path that cannot be written leaves
    # stdout empty
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
        _write(json.dumps(payload, indent=2) + "\n", provenance)
    _write(format_matrix_csv(rep.matrix), output)


@main.command()
@click.argument("n", type=int)
@click.option("-o", "--output", metavar="PATH", default=None)
def hadamard(n, output):
    """Write the 2^n-by-2^n ±1 Hadamard matrix as CSV."""
    h = spectral.hadamard(n)
    _write("\n".join(",".join(str(int(x)) for x in row) for row in h) + "\n", output)


@main.command()
@click.argument("signs_file")
@click.option("-o", "--output", metavar="PATH", default=None,
              help="Write the encoded matrix CSV here.")
@click.option("--json", "as_json", is_flag=True,
              help="Emit a JSON report (with the matrix) instead of bare CSV.")
def encode(signs_file, output, as_json):
    """Encode sign vectors into a matrix whose threshold topes contain them.

    The report carries the Forster bound of the input set and the implied
    monotone-rank lower bound of the encoded matrix.
    """
    vectors = signs.parse_sign_file(_read(signs_file))
    matrix = spectral.encode_signs_as_matrix(vectors)
    if output or not as_json:
        _write(format_matrix_csv(matrix), output)
    if as_json:
        payload = report.encode_report(vectors)
        payload["matrix"] = [[float(x) for x in row] for row in matrix]
        _emit(payload)


@main.command()
@click.argument("signs_file")
def isrank2(signs_file):
    """Decide rank-two oriented-matroid completability of a sign file."""
    vectors = signs.parse_sign_file(_read(signs_file))
    _emit({"rank2": omatroid.is_rank2_topes(vectors)})


@main.command()
@click.argument("signs_file")
@click.argument("rank", type=int)
def complete(signs_file, rank):
    """Run the uniform completion search at one rank.

    The JSON carries the outcome and `nodes`, the number of candidate
    circuits the search tried.
    """
    vectors = signs.parse_sign_file(_read(signs_file))
    result = omatroid.uniform_completion(vectors, rank, max_ground=_ground_guard())
    payload = report._attempt_dict(rank, result)
    if result.witness is not None:  # only a feasible result has one
        payload["witness"] = result.witness.circuits.strings()
    payload["nodes"] = result.nodes
    _emit(payload)


@main.command()
@click.argument("points_file")
@click.option("--json", "as_json", is_flag=True, help="Emit JSON instead of text.")
def sweep(points_file, as_json):
    """Sweep permutations of a planar point set (CSV, one point per row)."""
    pts = arr.parse_points_csv(_read(points_file))
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
