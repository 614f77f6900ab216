"""Command-line front end: single values, sweeps, verification, fits.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3
computation error (message on stderr). Standard output carries only the
documented payload so it stays machine-parseable.
"""

from __future__ import annotations

import argparse
import csv
import functools
import math
import os
import sys
import tempfile
from dataclasses import dataclass
from pathlib import Path

from .bounds import bounds_hypercube, bounds_torus2, bounds_torusd
from .errors import GridResError, InsufficientData
from .families import GraphFamily, Hypercube, Ring, Torus, read_edge_list
from .resistance import (
    hypercube_ad_direct,
    hypercube_ad_recursive,
    rave,
    rave_hypercube_binomial,
)
from .spectrum import MAX_ROWS
from .summation import default_threads
from .verify import SUITES, criteria, least_squares_slope

CSV_HEADER = ("family", "d", "dims", "N", "rave", "lower", "upper", "method")

FIT_TARGETS = {
    "linear": ("ring", 1.0 / 12.0),
    "log2d": ("torus2", 1.0 / (2.0 * math.pi)),
    "inverse_d": ("torusd", 0.5),
}


@dataclass(frozen=True)
class SweepRow:
    family: str
    d: int
    dims: tuple[int, ...]
    n: int
    rave: float
    lower: float | None
    upper: float | None
    method: str

    def to_csv(self) -> list[str]:
        return [
            self.family,
            str(self.d),
            "x".join(str(m) for m in self.dims),
            str(self.n),
            _fmt17(self.rave),
            "" if self.lower is None else _fmt17(self.lower),
            "" if self.upper is None else _fmt17(self.upper),
            self.method,
        ]

    @classmethod
    def from_csv(cls, row: list[str]) -> "SweepRow":
        if len(row) != len(CSV_HEADER):
            raise ValueError(f"expected {len(CSV_HEADER)} fields, got {len(row)}")
        dims = tuple(int(m) for m in row[2].split("x")) if row[2] else ()
        d, n = int(row[1]), int(row[3])
        if len(dims) != d or math.prod(dims) != n:
            raise ValueError(f"d={d}, dims={row[2]!r} and N={n} disagree")
        return cls(
            family=row[0],
            d=d,
            dims=dims,
            n=n,
            rave=_finite(row[4]),
            lower=_finite(row[5]) if row[5] else None,
            upper=_finite(row[6]) if row[6] else None,
            method=row[7],
        )


def _fmt17(x: float) -> str:
    # 17 significant digits round-trip float64 exactly.
    return f"{x:.17g}"


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _int_list(text: str) -> list[int]:
    try:
        values = [int(part) for part in text.split(",") if part]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc
    if not values:
        raise argparse.ArgumentTypeError("empty integer list")
    return values


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from exc
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gridres",
        description="Average effective resistance of rings, toroidal grids and hypercubes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    compute = argparse.ArgumentParser(add_help=False)
    compute.add_argument(
        "--threads", type=_positive_int, default=1,
        help="integer >= 1, checked but unused: nothing here uses worker threads (default: 1)",
    )
    compute.add_argument(
        "--max-terms", type=_positive_int, default=MAX_ROWS,
        help="cap on the folded rows a torus sum builds, far fewer than its N nodes; "
        "rings, hypercubes and --graph ignore it (default: %(default)s)",
    )

    p_rave = sub.add_parser("rave", parents=[compute], help="compute one average-resistance value")
    p_rave.set_defaults(handler=_cmd_rave)
    which = p_rave.add_mutually_exclusive_group(required=True)
    which.add_argument("--ring", type=int, metavar="M")
    which.add_argument("--torus", type=_int_list, metavar="M1,M2,...")
    which.add_argument("--hypercube", type=int, metavar="D")
    which.add_argument("--graph", metavar="FILE", help="edge-list file")

    p_sweep = sub.add_parser("sweep", parents=[compute], help="write a parameter sweep as CSV")
    p_sweep.set_defaults(handler=_cmd_sweep)
    p_sweep.add_argument(
        "--family",
        required=True,
        choices=("ring", "torus2", "torus3", "torus4", "hypercube", "torusd"),
    )
    p_sweep.add_argument("--m", type=_int_list, metavar="M,...", help="side lengths")
    p_sweep.add_argument("--d", type=_int_list, metavar="D,...", help="dimensions")
    p_sweep.add_argument("--out", required=True, metavar="FILE")

    p_verify = sub.add_parser("verify", help="run cross-validation suites")
    p_verify.set_defaults(handler=_cmd_verify)
    p_verify.add_argument("--suite", required=True, choices=SUITES)
    p_verify.add_argument("--seed", type=int, default=42)
    p_verify.add_argument(
        "--threads", type=_positive_int, default=None,
        help="worker threads for the Monte Carlo estimates of the integral criteria; "
        "every other check is a serial sum (integer >= 1, default: CPUs this process may run on)",
    )
    p_verify.add_argument("--budget", type=int, default=10**6)

    p_fit = sub.add_parser("fit", help="fit an asymptotic model to sweep rows")
    p_fit.set_defaults(handler=_cmd_fit)
    p_fit.add_argument("--model", required=True, choices=tuple(FIT_TARGETS))
    p_fit.add_argument("--in", dest="infile", required=True, metavar="CSV")

    p_ad = sub.add_parser("hypercube-ad", help="growth-coefficient table")
    p_ad.set_defaults(handler=_cmd_hypercube_ad)
    p_ad.add_argument("--dmax", type=int, required=True)

    return parser


# Built on the first call and reused: parsing leaves a parser as it was.
_parser = functools.cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (GridResError, OSError, ValueError) as exc:
        print(f"gridres: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


def _cmd_rave(args: argparse.Namespace) -> int:
    if args.ring is not None:
        family: GraphFamily = Ring(args.ring)
    elif args.torus is not None:
        family = Torus(tuple(args.torus))
    elif args.hypercube is not None:
        family = Hypercube(args.hypercube)
    else:
        family = read_edge_list(args.graph)
    result = rave(family, max_terms=args.max_terms)
    print(f"{result.value:.15g} method={result.method} terms={result.terms}")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    # Each sweep point is its CSV dims, its descriptor and its bound report.
    if args.family == "ring":
        points = [((m,), Ring(m), None) for m in _require(args.m, "--m")]
    elif args.family == "hypercube":
        points = [((2,) * d, Hypercube(d), bounds_hypercube(d)) for d in _require(args.d, "--d")]
    else:  # equal sides: torusd has one side and a dimension range, torus2-4 a side range
        if args.family == "torusd":
            (m, *others), d_values = _require(args.m, "--m"), _require(args.d, "--d")
            if others:
                raise ValueError("torusd sweeps take exactly one --m value")
            sizes = [(m, d) for d in d_values]
        else:
            sizes = [(m, int(args.family[-1])) for m in _require(args.m, "--m")]
        points = []
        for m, d in sizes:  # the side's own checks and the bound come before the d sides are built
            Torus((m,))
            report = bounds_torus2(m, m) if args.family == "torus2" else bounds_torusd(m, d)
            dims = (m,) * d
            points.append((dims, Torus(dims), report))
    rows = []
    for dims, family, report in points:
        result = rave(family, max_terms=args.max_terms)
        lower, upper = (None, None) if report is None else (report.lower, report.upper)
        rows.append(SweepRow(args.family, len(dims), dims, family.node_count(), result.value,
                             lower, upper, result.method))
    _write_csv_atomic(Path(args.out), sorted(rows, key=lambda row: row.n))
    return 0


def _require(values: list[int] | None, flag: str) -> list[int]:
    if not values:
        raise ValueError(f"this family needs {flag}")
    return values


def _write_csv_atomic(path: Path, rows: list[SweepRow]) -> None:
    # Write to a sibling temp file and rename, so a failed sweep never
    # leaves a partial CSV behind.
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(dir=path.parent, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(CSV_HEADER)
            for row in rows:
                writer.writerow(row.to_csv())
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def read_sweep_csv(path: str | Path) -> list[SweepRow]:
    with open(path, newline="") as handle:
        reader = csv.reader(handle)
        header = next(reader, [])
        if tuple(header) != CSV_HEADER:
            raise ValueError(f"{path}:1: expected the header {','.join(CSV_HEADER)}")
        try:
            return [SweepRow.from_csv(row) for row in reader]
        except ValueError as exc:  # line_num is the line of the row that failed
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None


def _cmd_verify(args: argparse.Namespace) -> int:
    threads = args.threads or default_threads()  # None unless --threads is given
    groups = criteria(args.seed, threads, args.budget, args.budget, args.suite)
    results = [check for _, checks in groups for check in checks]
    for check in results:
        print(check.line())
    failed = sum(1 for check in results if not check.passed)
    print(f"{'FAIL' if failed else 'PASS'} suite={args.suite} checks={len(results)} failures={failed}")
    return 1 if failed else 0


def _cmd_fit(args: argparse.Namespace) -> int:
    family, target = FIT_TARGETS[args.model]
    rows = [row for row in read_sweep_csv(args.infile) if row.family == family]
    if len(rows) < 4:
        raise InsufficientData(
            f"model {args.model} needs >= 4 rows of family {family!r}, found {len(rows)}"
        )
    if any(row.d < 1 for row in rows):
        raise ValueError(f"model {args.model} needs rows with d >= 1")
    if args.model == "linear":
        coeff = least_squares_slope([float(r.n) for r in rows], [r.rave for r in rows])
    elif args.model == "log2d":
        coeff = least_squares_slope([math.log(r.dims[0]) for r in rows], [r.rave for r in rows])
    else:
        xs = [1.0 / r.d for r in rows]
        coeff = sum(x * r.rave for x, r in zip(xs, rows)) / sum(x * x for x in xs)
    rel = abs(coeff - target) / target
    print(f"model={args.model} coefficient={coeff:.15g} target={target:.15g} rel_deviation={rel:.6g}")
    return 0


def _cmd_hypercube_ad(args: argparse.Namespace) -> int:
    if args.dmax < 1:
        raise ValueError(f"--dmax must be >= 1, got {args.dmax}")
    # Every row is computed before any is printed, from d = dmax down and the
    # binomial route first, so its float-range gate refuses the largest d
    # before either O(d) route runs, and a refusal prints nothing.
    rows = []
    for d in range(args.dmax, -1, -1):
        d_rave = _fmt17(d * rave_hypercube_binomial(d).value)
        rows.append(f"{d} {_fmt17(hypercube_ad_recursive(d))} {_fmt17(hypercube_ad_direct(d))} {d_rave}")
    print("d a_recursive a_direct d_rave", *reversed(rows), sep="\n")
    return 0
