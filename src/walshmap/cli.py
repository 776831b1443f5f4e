"""Command-line interface: parameter reports, map evaluation, grid and
boundary export, and the verification battery.

Exit codes: 0 success, 2 input error, 3 solver nonconvergence, 4 internal
consistency failure (the verify command exits 1 when a check fails); an
error's class sets its code (errors.InputError and its siblings), and a
plain ValueError is an input error.
"""

import argparse
import json
import sys

import numpy as np

from . import errors
from .api import solve
from .lemniscatic import trace_boundary
from .quadrature import QuadConfig
from .verify import CHECK_NAMES, run_checks

GRID_HEADER = "z_re,z_im,w_re,w_im,status,residual,error"


def _number(token: str, where: str) -> float:
    """float(token), or a ValueError that names where the token came from."""
    try:
        return float(token)
    except ValueError:
        raise ValueError(f"{where}: not a number: {token!r}") from None


def _parse_intervals_arg(text: str) -> list[list[float]]:
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        parts = chunk.split(",")
        if len(parts) != 2:
            raise ValueError(f"expected 'lo,hi' pairs separated by ';', got {chunk!r}")
        pairs.append([_number(p, "--intervals") for p in parts])
    if not pairs:
        raise ValueError("no intervals given")
    return pairs


def _read_input_file(path: str) -> list[list[float]]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:  # missing, a directory, unreadable
        raise ValueError(f"{path}: cannot read --input: {exc.strerror}") from None
    stripped = text.lstrip()
    if stripped.startswith("{"):
        doc = json.loads(text)
        if "intervals" not in doc:
            raise ValueError(f"{path}: missing 'intervals' key")
        try:
            return [[float(lo), float(hi)] for lo, hi in doc["intervals"]]
        except (TypeError, ValueError):  # not a list of two-number pairs
            raise ValueError(f"{path}: 'intervals' must be a list of [lo, hi] "
                             f"number pairs") from None
    pairs = []
    for number, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.replace(",", " ").split()
        if len(parts) != 2:
            raise ValueError(f"{path}: expected one 'lo hi' pair per line, got {line!r}")
        pairs.append([_number(p, f"{path}, line {number}") for p in parts])
    if not pairs:
        raise ValueError(f"{path}: no intervals found")
    return pairs


def _intervals_from(args) -> list[list[float]]:
    if args.intervals:
        return _parse_intervals_arg(args.intervals)
    if args.input:
        return _read_input_file(args.input)
    raise ValueError("provide --intervals or --input")


def _parse_z(text: str) -> complex:
    parts = text.split(",")
    if len(parts) in (1, 2):
        return complex(*(_number(p, "--z") for p in parts))
    raise ValueError(f"expected 're' or 're,im' for --z, got {text!r}")


def _emit(text: str, path: str | None):
    if path:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:  # no such directory, a directory, read-only
            raise ValueError(f"{path}: cannot write --output: {exc.strerror}") from None
    else:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")


def _params_report(wm) -> dict:
    E, data, m, dom = wm.domain, wm.green, wm.exponents, wm.lemniscatic
    inside = [lo <= aj <= hi for aj, (lo, hi) in zip(dom.centers, E.components)]
    warnings = [
        f"center a_{j + 1} = {aj!r} lies outside component {j + 1}"
        for j, (aj, ok) in enumerate(zip(dom.centers, inside)) if not ok
    ]
    return {
        "endpoints": list(E.endpoints),
        "component_count": E.ell,
        "numerator_coeffs": list(data.coeffs),
        "critical_points": list(data.roots),
        "green_at_critical": list(data.green_at_roots),
        "capacity": {"value": data.capacity,
                     "discrepancy": data.capacity_mismatch},
        "exponents": list(m.m),
        "normalization_defect": m.defect,
        "alpha": data.alpha,
        "centers": list(dom.centers),
        "critical_points_image": list(dom.crit_w),
        "boundary_abscissae": list(dom.boundary_c),
        "outer_iterations": dom.outer_iterations,
        "inner_residual": dom.inner_residual,
        "centers_in_components": inside,
        "warnings": warnings,
    }


def _pretty_params(report: dict) -> str:
    lines = []

    def row(label, value):
        if isinstance(value, list):
            value = "  ".join(f"{v!r}" for v in value)
        lines.append(f"{label:<24} {value}")

    row("endpoints", report["endpoints"])
    row("components", report["component_count"])
    row("numerator coeffs", report["numerator_coeffs"])
    row("critical points (E)", report["critical_points"])
    row("green at critical", report["green_at_critical"])
    row("capacity", repr(report["capacity"]["value"]))
    row("  formula discrepancy", repr(report["capacity"]["discrepancy"]))
    row("exponents", report["exponents"])
    row("alpha", repr(report["alpha"]))
    row("centers", report["centers"])
    row("critical points (L)", report["critical_points_image"])
    row("boundary abscissae", report["boundary_abscissae"])
    row("outer iterations", report["outer_iterations"])
    row("inner residual", repr(report["inner_residual"]))
    row("centers in components", report["centers_in_components"])
    for w in report["warnings"]:
        lines.append(f"warning: {w}")
    return "\n".join(lines) + "\n"


def _cmd_params(args) -> int:
    wm = solve(_intervals_from(args), _quad_config(args))
    report = _params_report(wm)
    text = _pretty_params(report) if args.pretty else json.dumps(report, indent=2) + "\n"
    _emit(text, args.output)
    return 0


def _cmd_phi(args) -> int:
    z = _parse_z(args.z)
    wm = solve(_intervals_from(args), _quad_config(args))
    res = wm.map_point(z)
    report = {
        "z": [z.real, z.imag],
        "w": [res.w.real, res.w.imag],
        "residual": res.residual,
        "iterations": res.iterations,
        "branch": res.branch,
        "index": res.index,
        "near_boundary": res.near_boundary,
    }
    _emit(json.dumps(report, indent=2) + "\n", args.output)
    return 0


def _range(flag: str, text: str) -> tuple[float, float]:
    try:
        lo, hi = (float(v) for v in text.split(","))
    except ValueError:  # not two numbers
        raise ValueError(f"expected 'lo,hi' for {flag}, got {text!r}") from None
    if not hi > lo:
        raise ValueError(f"empty range for {flag}: {text!r}")
    return lo, hi


def grid_csv(points) -> str:
    """CSV text of map_grid points under GRID_HEADER; a failed point's error
    is quoted, since messages hold commas."""
    rows = [GRID_HEADER]
    for p in points:
        error = "" if p.error is None else '"' + p.error.replace('"', '""') + '"'
        if p.result is None:
            rows.append(f"{p.z.real!r},{p.z.imag!r},,,{p.status},,{error}")
        else:
            rows.append(f"{p.z.real!r},{p.z.imag!r},{p.result.w.real!r},"
                        f"{p.result.w.imag!r},{p.status},{p.result.residual!r},")
    return "\n".join(rows) + "\n"


def boundary_csv(traces) -> str:
    """CSV text of the sampled points of boundary traces, one row per point
    with its 1-based component; unsampled components have no rows."""
    rows = ["component,w_re,w_im"]
    for j, tr in enumerate(traces):
        if tr.sampled:
            rows += [f"{j + 1},{float(w.real)!r},{float(w.imag)!r}" for w in tr.points]
    return "\n".join(rows) + "\n"


def _cmd_grid(args) -> int:
    if args.nx < 1 or args.ny < 1:
        raise ValueError("grid counts must be >= 1")
    wm = solve(_intervals_from(args), _quad_config(args))
    xs = np.linspace(*_range("--x-range", args.x_range), args.nx)
    ys = np.linspace(*_range("--y-range", args.y_range), args.ny)
    zs = [complex(x, y) for y in ys for x in xs]  # row-major in y
    points = wm.map_grid(zs)
    if args.format == "csv":
        _emit(grid_csv(points), args.output)
    else:
        doc = [{"z": [p.z.real, p.z.imag], "status": p.status,
                "w": None if p.result is None else [p.result.w.real, p.result.w.imag],
                "residual": None if p.result is None else p.result.residual,
                "error": p.error}
               for p in points]
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return 0 if any(p.status == "converged" for p in points) else 3


def _cmd_boundary(args) -> int:
    wm = solve(_intervals_from(args), _quad_config(args))
    traces = trace_boundary(wm.lemniscatic, args.points)
    if args.format == "csv":
        _emit(boundary_csv(traces), args.output)
    else:
        doc = [{"center": float(tr.center), "sampled": tr.sampled,
                "points": None if tr.points is None else
                [[float(w.real), float(w.imag)] for w in tr.points],
                "reason": tr.reason}
               for tr in traces]
        _emit(json.dumps(doc, indent=2) + "\n", args.output)
    return 0


def _cmd_verify(args) -> int:
    names = args.only.split(",") if args.only else None
    results = run_checks(names, quad_tol=args.quad_tol, seed=args.seed)
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name:<18} "
              f"[{r.seconds:6.2f}s] {r.detail}")
    failed = [r.name for r in results if not r.passed]
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed: {', '.join(failed)}")
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def _quad_config(args) -> QuadConfig:
    return QuadConfig(tol=args.quad_tol)


def _add_common(parser):
    parser.add_argument("--intervals",
                        help="inline interval list 'b1,b2;b3,b4;...'")
    parser.add_argument("--input",
                        help="file with {'intervals': [[lo,hi],...]} or 'lo hi' lines")
    parser.add_argument("--quad-tol", type=float, default=1e-12,
                        help="quadrature tolerance (default 1e-12)")
    parser.add_argument("--output", help="write the report to this file")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="walshmap",
        description="Lemniscatic canonical domains and the normalized "
                    "conformal map for unions of real intervals.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("params", help="compute and report all domain parameters")
    _add_common(p)
    p.add_argument("--pretty", action="store_true", help="human-readable layout")
    p.set_defaults(func=_cmd_params)

    p = sub.add_parser("phi", help="evaluate the conformal map at one point")
    _add_common(p)
    p.add_argument("--z", required=True, help="evaluation point 're' or 're,im'")
    p.set_defaults(func=_cmd_phi)

    p = sub.add_parser("grid", help="map a rectangular grid and export the rows")
    _add_common(p)
    p.add_argument("--x-range", required=True, help="'lo,hi' real range")
    p.add_argument("--y-range", required=True, help="'lo,hi' imaginary range")
    p.add_argument("--nx", type=int, required=True)
    p.add_argument("--ny", type=int, required=True)
    p.add_argument("--format", choices=("csv", "doc"), default="csv")
    p.set_defaults(func=_cmd_grid)

    p = sub.add_parser("boundary", help="sample the boundary curves of L")
    _add_common(p)
    p.add_argument("--points", type=int, default=64, help="rays per component")
    p.add_argument("--format", choices=("csv", "doc"), default="doc")
    p.set_defaults(func=_cmd_boundary)

    p = sub.add_parser("verify", help="run the regression battery")
    p.add_argument("--only", help=f"comma-separated check names "
                                  f"({', '.join(CHECK_NAMES)})")
    p.add_argument("--quad-tol", type=float, default=1e-12)
    p.add_argument("--seed", type=int, default=2025,
                   help="seed for the random stress checks")
    p.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (errors.WalshMapError, ValueError) as exc:
        code = getattr(exc, "exit_code", 2)  # a plain ValueError is bad input
        print(json.dumps({"error": {"type": type(exc).__name__, "message": str(exc),
                                    "exit_code": code}}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
