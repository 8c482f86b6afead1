"""Command-line front end: JSON in, JSON/CSV/SVG out, deterministic byte-for-byte.

Exit codes: 0 success, 1 domain error, 2 usage or input error.  ``main`` is
the one place that picks the code, and every error is one JSON line on stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile

from .errors import AnalysisError
from .families import permutation_family, similarity_transform
from .matrices import (
    SquareMatrix,
    _symmetric_eigenvalues,
    ones_axis_rotation,
    permutation_matrix,
    validate_iso_transform,
)
from .mobility import integrate_connectivity_change, mirror_moves
from .render import render_configuration_svg, render_matrix_svg
from .spectral import _spectra_agree, algebraic_connectivity
from .topology import AgentConfiguration, build_laplacian
from .zones import (
    GridSpec,
    _validity_check,
    dense_family_laplacian,
    dense_family_spectrum,
    iso_connectivity_zone,
)


class CliInputError(Exception):
    """Unreadable, unparsable, or schema-invalid input: exit status 2."""


def _load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
        raise CliInputError(f"invalid JSON in {path}: {exc}") from exc


def _load_matrix(path: str) -> SquareMatrix:
    data = _load_json(path)
    try:
        return SquareMatrix.from_json_dict(data)
    except (AnalysisError, ValueError, TypeError, KeyError) as exc:
        raise CliInputError(f"invalid matrix file {path}: {exc}") from exc


def _load_config(path: str) -> AgentConfiguration:
    data = _load_json(path)
    try:
        return AgentConfiguration.from_json_dict(data)
    except (AnalysisError, ValueError, TypeError, KeyError) as exc:
        raise CliInputError(f"invalid configuration file {path}: {exc}") from exc


def _single_matrix(args) -> SquareMatrix:
    paths = args.matrix or []
    if args.input and paths:
        raise CliInputError("give either --input or --matrix, not both")
    if args.input:
        return build_laplacian(_load_config(args.input))
    if len(paths) != 1:
        raise CliInputError("expected exactly one --matrix file (or an --input configuration)")
    return _load_matrix(paths[0])


def _parse_numbers(text: str, count: int, what: str, convert=float) -> list:
    parts = text.split(",")
    if len(parts) != count:
        raise CliInputError(f"{what} needs {count} comma-separated values, got {text!r}")
    try:
        return [convert(p) for p in parts]
    except ValueError as exc:
        raise CliInputError(f"{what}: {exc}") from exc


def _check_numbers(args) -> None:
    """Every float flag must be finite, and ``--tol`` positive."""
    for name in ("tol", "target", "rotation", "alpha", "beta"):
        value = getattr(args, name, None)
        if value is not None and not math.isfinite(value):
            raise CliInputError(f"--{name} must be finite, got {value}")
    if not args.tol > 0:
        raise CliInputError(f"--tol must be positive, got {args.tol}")


def _display(value, precision: str):
    """Round floats for display; matrix 'rows' payloads stay at full precision."""
    if isinstance(value, dict):
        return {
            k: (v if k == "rows" else _display(v, precision)) for k, v in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [_display(v, precision) for v in value]
    if isinstance(value, float):
        if precision == "full":
            return value
        rounded = round(value, 4)
        return 0.0 if rounded == 0 else rounded
    return value


def _flatten(value, prefix=""):
    if isinstance(value, dict):
        for k, v in value.items():
            yield from _flatten(v, f"{prefix}.{k}" if prefix else str(k))
    elif isinstance(value, (list, tuple)):
        for i, v in enumerate(value):
            yield from _flatten(v, f"{prefix}[{i}]")
    else:
        yield prefix, value


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)


def _to_csv(command: str, payload) -> str:
    rows: list[list[str]] = []
    if command == "spectrum":
        rows.append(["index", "eigenvalue"])
        for i, w in enumerate(payload["spectrum"]):
            rows.append([str(i), _csv_cell(w)])
    elif command == "zone":
        rows.append(["x", "y", "lambda2"])
        for p in payload["accepted"]:
            rows.append([_csv_cell(p["x"]), _csv_cell(p["y"]), _csv_cell(p["lambda2"])])
    elif command == "isospectral" and isinstance(payload, list):
        rows.append(["index", "perm", "laplacian_structured", "distinct_from_base"])
        for i, entry in enumerate(payload):
            perm = " ".join(str(p) for p in entry["perm"]) if entry["perm"] else ""
            rows.append(
                [
                    str(i),
                    perm,
                    _csv_cell(entry["laplacian_structured"]),
                    _csv_cell(entry["distinct_from_base"]),
                ]
            )
    else:
        rows.append(["key", "value"])
        for key, value in _flatten(payload):
            rows.append([key, _csv_cell(value)])
    return "\n".join(",".join(cell for cell in row) for row in rows) + "\n"


def _write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".isoconn-tmp-")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
        if isinstance(exc, OSError):  # name the target, not the random temporary file
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def _emit(args, payload) -> None:
    if isinstance(payload, str):  # render's SVG
        text = payload
    else:
        shown = _display(payload, args.precision)
        if args.format == "csv":
            text = _to_csv(args.command, shown)
        else:
            text = json.dumps(shown, indent=2, sort_keys=True) + "\n"
    if args.output:
        _write_text(args.output, text)
    else:
        sys.stdout.write(text)


def _cmd_spectrum(args):
    matrix = _single_matrix(args)
    return {"order": matrix.order, "spectrum": [float(w) for w in _symmetric_eigenvalues(matrix)]}


def _cmd_connectivity(args):
    return algebraic_connectivity(_single_matrix(args), tol=args.tol).to_json_dict()


def _cmd_isospectral(args):
    paths = args.matrix or []
    if args.enumerate:
        if len(paths) != 1:
            raise CliInputError("--enumerate needs exactly one --matrix file")
        entries = permutation_family(
            _load_matrix(paths[0]),
            limit=args.limit,
            dedupe=args.dedupe,
            sample=args.sample,
            seed=args.seed,
        )
        return [e.to_json_dict() for e in entries]
    if len(paths) != 2:
        raise CliInputError("comparison needs exactly two --matrix files")
    a, b = _load_matrix(paths[0]), _load_matrix(paths[1])
    wa, wb = _symmetric_eigenvalues(a), _symmetric_eigenvalues(b)
    return {
        "isospectral": _spectra_agree(wa, wb, args.tol),
        "tol": args.tol,
        "spectra": [[float(x) for x in wa], [float(x) for x in wb]],
    }


def _cmd_transform(args):
    base = _single_matrix(args)
    chosen = [x is not None for x in (args.transform, args.permutation, args.rotation)]
    if sum(chosen) != 1:
        raise CliInputError("give exactly one of --transform, --permutation, --rotation")
    if args.transform is not None:
        q = _load_matrix(args.transform)
    elif args.permutation is not None:
        try:
            perm = [int(p) for p in args.permutation.split(",")]
            q = permutation_matrix(perm)
        except (ValueError, AnalysisError) as exc:
            raise CliInputError(f"bad --permutation: {exc}") from exc
    else:
        q = ones_axis_rotation(base.order, args.rotation)
    entry = similarity_transform(base, q, tol=args.tol)
    payload = entry.to_json_dict()
    payload["transform"] = q.to_json_dict()
    payload["validation"] = validate_iso_transform(q, args.tol).to_json_dict()
    return payload


def _cmd_moves(args):
    config = _load_config(args.input)
    mobile = config.index_of(args.mobile)
    solution = mirror_moves(config, mobile)
    ids = config.ids()
    return {
        "mobile": args.mobile,
        "original": list(solution.original),
        "free": solution.free,
        "preserved_neighbors": [ids[j] for j in solution.preserved_neighbors],
        "alternatives": [list(p) for p in solution.alternatives],
        "circle": (
            {"center": list(solution.circle.center), "radius": solution.circle.radius}
            if solution.circle
            else None
        ),
    }


def _cmd_integrate(args):
    config = _load_config(args.input)
    data = _load_json(args.path)
    try:
        mobile = config.index_of(str(data["mobile"]))
        waypoints = [(float(p[0]), float(p[1])) for p in data["waypoints"]]
        steps = int(data["steps"])
    except (KeyError, TypeError, ValueError, IndexError, OverflowError) as exc:
        raise CliInputError(f"invalid path file {args.path}: {exc}") from exc
    result = integrate_connectivity_change(config, mobile, waypoints, steps)
    return result.to_json_dict()


def _cmd_zone(args):
    config = _load_config(args.input)
    mobile = config.index_of(args.mobile)
    xmin, xmax, ymin, ymax = _parse_numbers(args.bounds, 4, "--bounds")
    nx, ny = _parse_numbers(args.resolution, 2, "--resolution", int)
    try:
        grid = GridSpec(xmin, xmax, ymin, ymax, nx, ny)
    except AnalysisError as exc:
        raise CliInputError(str(exc)) from exc
    sample = iso_connectivity_zone(config, mobile, grid, target=args.target, tol=args.tol)
    return sample.to_json_dict()


def _cmd_parametric(args):
    matrix = dense_family_laplacian(args.alpha, args.beta)
    spectrum = _symmetric_eigenvalues(matrix).tolist()
    return {
        "alpha": args.alpha,
        "beta": args.beta,
        "matrix": matrix.to_json_dict(),
        "closed_form_spectrum": list(dense_family_spectrum(args.alpha, args.beta)),
        "numeric_spectrum": spectrum,
        "validity": _validity_check(args.alpha, args.beta, args.tol, spectrum[1]).to_json_dict(),
    }


def _cmd_render(args):
    if args.input and not args.matrix:
        return render_configuration_svg(_load_config(args.input))
    return render_matrix_svg(_single_matrix(args))


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "connectivity": _cmd_connectivity,
    "isospectral": _cmd_isospectral,
    "transform": _cmd_transform,
    "moves": _cmd_moves,
    "integrate": _cmd_integrate,
    "zone": _cmd_zone,
    "parametric": _cmd_parametric,
    "render": _cmd_render,
}


def _add_common(sub, formats=("json", "csv")):
    sub.add_argument("--output", help="write the result here (atomic tempfile+rename)")
    sub.add_argument("--format", choices=formats, default=formats[0])
    sub.add_argument(
        "--precision",
        choices=["4", "full"],
        default="4",
        help="display precision for report values (matrix payloads stay full)",
    )
    sub.add_argument("--tol", type=float, default=1e-9, help="comparison tolerance")


class _Parser(argparse.ArgumentParser):
    """argparse with its usage errors written as the same JSON line (exit 2)."""

    def error(self, message):
        _fail("InvalidInput", f"{self.prog}: {message}", 2)
        raise SystemExit(2)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="isoconn",
        description="Spectral connectivity analysis for planar multi-agent graphs.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("spectrum", help="full Laplacian spectrum")
    sub.add_argument("--input", help="configuration JSON (builds the Laplacian)")
    sub.add_argument("--matrix", action="append", help="matrix JSON file")
    _add_common(sub)

    sub = subs.add_parser("connectivity", help="connectivity level and Fiedler vector")
    sub.add_argument("--input")
    sub.add_argument("--matrix", action="append")
    _add_common(sub)

    sub = subs.add_parser("isospectral", help="compare spectra or enumerate relabelings")
    sub.add_argument("--matrix", action="append", help="one file with --enumerate, else two")
    sub.add_argument("--enumerate", action="store_true", help="list relabeling conjugates")
    sub.add_argument("--dedupe", action=argparse.BooleanOptionalAction, default=True)
    sub.add_argument("--limit", type=int, default=None)
    sub.add_argument("--sample", action=argparse.BooleanOptionalAction, default=None,
                     help="sample permutations instead of enumerating (auto above order 8)")
    sub.add_argument("--seed", type=int, default=0)
    _add_common(sub)

    sub = subs.add_parser("transform", help="conjugate a Laplacian by a transform")
    sub.add_argument("--input")
    sub.add_argument("--matrix", action="append", help="base matrix JSON")
    sub.add_argument("--transform", help="transform matrix JSON")
    sub.add_argument("--permutation", help="comma-separated image list, e.g. 3,2,1,0")
    sub.add_argument("--rotation", type=float, help="ones-axis rotation angle (radians)")
    _add_common(sub)

    sub = subs.add_parser("moves", help="distance-preserving alternative positions")
    sub.add_argument("--input", required=True)
    sub.add_argument("--mobile", required=True, help="agent id")
    _add_common(sub)

    sub = subs.add_parser("integrate", help="integrate connectivity change along a path")
    sub.add_argument("--input", required=True)
    sub.add_argument("--path", required=True, help='path JSON: {"mobile", "waypoints", "steps"}')
    _add_common(sub)

    sub = subs.add_parser("zone", help="grid-scan equal-connectivity positions")
    sub.add_argument("--input", required=True)
    sub.add_argument("--mobile", required=True, help="agent id")
    sub.add_argument("--bounds", required=True, help="xmin,xmax,ymin,ymax")
    sub.add_argument("--resolution", required=True, help="nx,ny")
    sub.add_argument("--target", type=float, default=None,
                     help="target connectivity (default: the configuration's own)")
    _add_common(sub)
    sub.set_defaults(tol=1e-6)

    sub = subs.add_parser("parametric", help="dense four-agent family analysis")
    sub.add_argument("--alpha", type=float, required=True)
    sub.add_argument("--beta", type=float, required=True)
    _add_common(sub)

    sub = subs.add_parser("render", help="render a graph as SVG")
    sub.add_argument("--input")
    sub.add_argument("--matrix", action="append")
    _add_common(sub, formats=("svg",))

    return parser


def _error_name(exc: Exception) -> str:
    name = type(exc).__name__
    return name[: -len("Error")] if name.endswith("Error") else name


def _fail(name: str, message: str, code: int) -> int:
    sys.stderr.write(json.dumps({"error": name, "message": message}) + "\n")
    return code


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_numbers(args)
        _emit(args, _HANDLERS[args.command](args))
    except (CliInputError, ValueError, OSError) as exc:
        return _fail("InvalidInput", str(exc), 2)
    except AnalysisError as exc:
        return _fail(_error_name(exc), str(exc), 1)
    except IndexError as exc:
        return _fail("IndexOutOfRange", str(exc), 1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
