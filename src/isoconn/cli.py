"""Command-line front end: JSON in, JSON/CSV/SVG out, deterministic byte-for-byte.

Exit codes: 0 success, 1 domain error (machine-readable JSON on stderr),
2 usage or input-parsing error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

from .errors import AnalysisError
from .families import permutation_family, similarity_transform
from .matrices import (
    SquareMatrix,
    ones_axis_rotation,
    permutation_matrix,
    symmetric_eigendecomposition,
    validate_iso_transform,
)
from .mobility import integrate_connectivity_change, mirror_moves
from .render import render_configuration_svg, render_matrix_svg
from .spectral import _spectra_agree, algebraic_connectivity
from .topology import AgentConfiguration, build_laplacian
from .zones import (
    GridSpec,
    dense_family_laplacian,
    dense_family_spectrum,
    dense_family_validity,
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
    except json.JSONDecodeError as exc:
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


def _resolve_mobile(config: AgentConfiguration, label: str) -> int:
    try:
        return config.index_of(label)
    except ValueError as exc:
        raise CliInputError(str(exc)) from exc


def _parse_floats(text: str, count: int, what: str) -> list[float]:
    parts = text.split(",")
    if len(parts) != count:
        raise CliInputError(f"{what} needs {count} comma-separated values, got {text!r}")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise CliInputError(f"{what}: {exc}") from exc


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
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".isoconn-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _emit(args, payload, text: str | None = None) -> None:
    if text is None:
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
    decomp = symmetric_eigendecomposition(matrix)
    return {"order": matrix.order, "spectrum": [float(w) for w in decomp.eigenvalues]}


def _cmd_connectivity(args):
    return algebraic_connectivity(_single_matrix(args), tol=args.tol).to_json_dict()


def _cmd_isospectral(args):
    paths = args.matrix or []
    if args.enumerate:
        if len(paths) != 1:
            raise CliInputError("--enumerate needs exactly one --matrix file")
        try:
            entries = permutation_family(
                _load_matrix(paths[0]),
                limit=args.limit,
                dedupe=args.dedupe,
                sample=args.sample,
                seed=args.seed,
            )
        except ValueError as exc:  # --limit below 1, or sampling without one
            raise CliInputError(str(exc)) from exc
        return [e.to_json_dict() for e in entries]
    if len(paths) != 2:
        raise CliInputError("comparison needs exactly two --matrix files")
    a, b = _load_matrix(paths[0]), _load_matrix(paths[1])
    wa = symmetric_eigendecomposition(a).eigenvalues
    wb = symmetric_eigendecomposition(b).eigenvalues
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
    mobile = _resolve_mobile(config, args.mobile)
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
        mobile = _resolve_mobile(config, str(data["mobile"]))
        waypoints = [(float(p[0]), float(p[1])) for p in data["waypoints"]]
        steps = int(data["steps"])
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        raise CliInputError(f"invalid path file {args.path}: {exc}") from exc
    result = integrate_connectivity_change(config, mobile, waypoints, steps)
    return result.to_json_dict()


def _cmd_zone(args):
    config = _load_config(args.input)
    mobile = _resolve_mobile(config, args.mobile)
    xmin, xmax, ymin, ymax = _parse_floats(args.bounds, 4, "--bounds")
    try:
        nx, ny = (int(v) for v in _parse_floats(args.resolution, 2, "--resolution"))
    except (ValueError, OverflowError) as exc:
        raise CliInputError(f"--resolution: {exc}") from exc
    try:
        grid = GridSpec(xmin, xmax, ymin, ymax, nx, ny)
    except AnalysisError as exc:
        raise CliInputError(str(exc)) from exc
    try:
        sample = iso_connectivity_zone(config, mobile, grid, target=args.target, tol=args.tol)
    except ValueError as exc:  # --tol not positive, or --tol/--target not finite
        raise CliInputError(str(exc)) from exc
    return sample.to_json_dict()


def _cmd_parametric(args):
    matrix = dense_family_laplacian(args.alpha, args.beta)
    decomp = symmetric_eigendecomposition(matrix)
    return {
        "alpha": args.alpha,
        "beta": args.beta,
        "matrix": matrix.to_json_dict(),
        "closed_form_spectrum": list(dense_family_spectrum(args.alpha, args.beta)),
        "numeric_spectrum": [float(w) for w in decomp.eigenvalues],
        "validity": dense_family_validity(args.alpha, args.beta).to_json_dict(),
    }


def _cmd_render(args):
    if args.format != "svg":
        raise CliInputError("render only emits --format svg")
    paths = args.matrix or []
    if args.input and paths:
        raise CliInputError("give either --input or --matrix, not both")
    if args.input:
        text = render_configuration_svg(_load_config(args.input))
    elif len(paths) == 1:
        text = render_matrix_svg(_load_matrix(paths[0]))
    else:
        raise CliInputError("render needs --input or exactly one --matrix")
    return text


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
    sub.add_argument("--format", choices=["json", "csv", "svg"], default=formats[0])
    sub.add_argument(
        "--precision",
        choices=["4", "full"],
        default="4",
        help="display precision for report values (matrix payloads stay full)",
    )
    sub.add_argument("--tol", type=float, default=1e-9, help="comparison tolerance")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        result = _HANDLERS[args.command](args)
        if args.command == "render":
            _emit(args, None, text=result)
        else:
            _emit(args, result)
    except CliInputError as exc:
        sys.stderr.write(
            json.dumps({"error": "InvalidInput", "message": str(exc)}) + "\n"
        )
        return 2
    except AnalysisError as exc:
        sys.stderr.write(
            json.dumps({"error": _error_name(exc), "message": str(exc)}) + "\n"
        )
        return 1
    except IndexError as exc:
        sys.stderr.write(
            json.dumps({"error": "IndexOutOfRange", "message": str(exc)}) + "\n"
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
