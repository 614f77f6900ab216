import math
import os
import time
import tracemalloc

import pytest

from gridres import cli, verify
from gridres.bounds import bounds_hypercube, bounds_torus2, bounds_torusd
from gridres.cli import SweepRow, build_parser, main, read_sweep_csv
from gridres.resistance import rave_hypercube_binomial, rave_ring_exact, rave_torus


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_rave_ring(capsys):
    code, out, err = run(capsys, "rave", "--ring", "3")
    assert code == 0 and err == ""
    assert out == "0.222222222222222 method=closed_form terms=1\n"


def test_rave_hypercube(capsys):
    code, out, _ = run(capsys, "rave", "--hypercube", "3")
    assert code == 0
    assert out.startswith("0.302083333333333 ")


def test_rave_torus(capsys):
    code, out, _ = run(capsys, "rave", "--torus", "4,4")
    assert code == 0
    value, method, terms = out.split()
    assert value == "0.268229166666667"
    assert method == "method=spectral"
    assert terms == "terms=15"


def test_rave_graph_file(capsys, tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text("3\n0 1\n1 2\n0 2\n")
    code, out, _ = run(capsys, "rave", "--graph", str(path))
    assert code == 0
    assert float(out.split()[0]) == pytest.approx(2.0 / 9.0, abs=1e-12)
    assert out.split()[1] == "method=green_trace"


def test_rave_disconnected_graph_exits_3(capsys, tmp_path):
    path = tmp_path / "two_edges.txt"
    path.write_text("4\n0 1\n2 3\n")
    code, out, err = run(capsys, "rave", "--graph", str(path))
    assert code == 3
    assert out == ""
    assert "disconnected" in err


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["rave"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["rave", "--ring", "3", "--hypercube", "2"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["rave", "--torus", "4,x"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["0", "-3", "2.0", "x"])
def test_threads_must_be_a_positive_integer(capsys, tmp_path, value):
    rave = ["rave", "--ring", "3"]
    sweep = ["sweep", "--family", "ring", "--m", "3", "--out", str(tmp_path / "rows.csv")]
    for argv, flag in (
        (rave, "--threads"),
        (sweep, "--threads"),
        (["verify", "--suite", "recursion"], "--threads"),
        (rave, "--max-terms"),
        (sweep, "--max-terms"),
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err
    assert not (tmp_path / "rows.csv").exists()


def test_computation_errors_exit_3(capsys, tmp_path):
    code, out, err = run(capsys, "rave", "--torus", "2,2")
    assert code == 3
    assert out == ""
    assert "gridres:" in err
    code, _, err = run(capsys, "rave", "--graph", "/nonexistent/file.txt")
    assert code == 3
    bad = tmp_path / "bad.txt"
    bad.write_text("3\n0 1.5\n")
    code, out, err = run(capsys, "rave", "--graph", str(bad))
    assert code == 3 and out == ""
    assert f"{bad}:2: expected integers" in err
    code, _, err = run(capsys, "sweep", "--family", "ring", "--out", "/tmp/x.csv")
    assert code == 3  # missing --m
    code, out, err = run(capsys, "rave", "--ring", "1" + "0" * 400)
    assert code == 3 and out == ""
    assert err == "gridres: the ring size leaves the float range\n"


def test_sweep_past_the_float_range_exits_3(capsys, tmp_path):
    # The bounds stay finite (M^-(d-2) underflows, M2/M1 is an exact
    # quotient), so the sum's own Overflow refuses the point; no traceback
    # and no CSV.
    out_file = tmp_path / "far.csv"
    for argv in (["--family", "torusd", "--m", "4", "--d", "600"], ["--family", "torus2", "--m", "1" + "0" * 400]):
        code, out, err = run(capsys, "sweep", *argv, "--out", str(out_file))
        assert code == 3 and out == ""
        assert err.startswith("gridres: ") and err.endswith("leaves the float range\n") and err.count("\n") == 1
    assert not out_file.exists()


def test_sweep_torusd_bound_refuses_before_the_sides_are_built(capsys, tmp_path):
    # The bound refuses 4^1000000 from (M, d) alone, so no million-long side
    # list (8 MB of pointers) is built before the refusal.
    out_file = tmp_path / "far.csv"
    tracemalloc.start()
    try:
        code, out, err = run(capsys, "sweep", "--family", "torusd", "--m", "4", "--d", "1000000",
                             "--out", str(out_file))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and out == ""
    assert err == "gridres: T3_torusd: a bound leaves the float range\n"
    assert peak < 2**20
    assert not out_file.exists()


def test_max_terms_caps_folded_torus_rows(capsys, tmp_path):
    path = tmp_path / "triangle.txt"
    path.write_text("3\n0 1\n1 2\n0 2\n")
    for family in (["--ring", "5"], ["--hypercube", "3"], ["--graph", str(path)]):
        code, _, err = run(capsys, "rave", *family, "--max-terms", "1")
        assert code == 0 and err == ""
    # 4 x 4 has N = 16 nodes; the other side's half table {0, 1, 2} gives the
    # 3 folded rows that the cap counts. terms still reports N - 1.
    code, out, _ = run(capsys, "rave", "--torus", "4,4", "--max-terms", "3")
    assert code == 0 and out == "0.268229166666667 method=spectral terms=15\n"
    code, out, err = run(capsys, "rave", "--torus", "4,4", "--max-terms", "2")
    assert code == 3 and out == ""
    assert err == "gridres: 3 folded rows exceed the cap 2\n"
    with pytest.raises(SystemExit):
        main(["rave", "--help"])
    help_text = " ".join(capsys.readouterr().out.split())
    assert "cap on the folded rows a torus sum builds, far fewer than its N nodes" in help_text
    assert "(default: 16777216)" in help_text


def test_sweep_roundtrip_bit_exact(capsys, tmp_path):
    out_file = tmp_path / "torus2.csv"
    code, _, _ = run(capsys, "sweep", "--family", "torus2", "--m", "4,8,16", "--out", str(out_file))
    assert code == 0
    rows = read_sweep_csv(out_file)
    assert [row.n for row in rows] == [16, 64, 256]
    for row in rows:
        recomputed = rave_torus(row.dims).value
        assert row.rave == recomputed  # 17-digit serialization round-trips exactly
        assert row.lower is not None and row.upper is not None
        assert row.lower - 1e-12 <= row.rave <= row.upper + 1e-12
    header = out_file.read_text().splitlines()[0]
    assert header == "family,d,dims,N,rave,lower,upper,method"


def test_sweep_ring_has_no_bounds(capsys, tmp_path):
    out_file = tmp_path / "ring.csv"
    code, _, _ = run(capsys, "sweep", "--family", "ring", "--m", "8,4", "--out", str(out_file))
    assert code == 0
    rows = read_sweep_csv(out_file)
    assert [row.n for row in rows] == [4, 8]  # ordered by size
    assert all(row.lower is None and row.upper is None for row in rows)


def test_sweep_torusd_ordered_by_dimension(capsys, tmp_path):
    out_file = tmp_path / "torusd.csv"
    code, _, _ = run(
        capsys, "sweep", "--family", "torusd", "--m", "4", "--d", "5,3,4", "--out", str(out_file)
    )
    assert code == 0
    rows = read_sweep_csv(out_file)
    assert [row.d for row in rows] == [3, 4, 5]
    assert all(row.dims == (4,) * row.d for row in rows)


def test_sweep_hypercube(capsys, tmp_path):
    out_file = tmp_path / "hc.csv"
    code, _, _ = run(capsys, "sweep", "--family", "hypercube", "--d", "2,3,4", "--out", str(out_file))
    assert code == 0
    rows = read_sweep_csv(out_file)
    assert [row.n for row in rows] == [4, 8, 16]
    for row in rows:
        assert 0.5 <= row.rave * (row.d + 1) <= 2.0


def expected_row(family, dims):
    d = len(dims)
    if family == "ring":
        result, report = rave_ring_exact(dims[0]), None
    elif family == "hypercube":
        result, report = rave_hypercube_binomial(d), bounds_hypercube(d)
    else:
        result = rave_torus(dims)
        report = bounds_torus2(*dims) if family == "torus2" else bounds_torusd(dims[0], d)
    lower, upper = (None, None) if report is None else (report.lower, report.upper)
    return SweepRow(family, d, dims, math.prod(dims), result.value, lower, upper, result.method)


@pytest.mark.parametrize(
    ("family", "argv", "dims"),
    [
        ("ring", ["--m", "8,4,100"], [(4,), (8,), (100,)]),
        ("torus2", ["--m", "4,8,16,5"], [(4, 4), (5, 5), (8, 8), (16, 16)]),
        ("torus3", ["--m", "3,4,5"], [(3,) * 3, (4,) * 3, (5,) * 3]),
        ("torus4", ["--m", "3,4"], [(3,) * 4, (4,) * 4]),
        ("hypercube", ["--d", "2,5,3,30"], [(2,) * 2, (2,) * 3, (2,) * 5, (2,) * 30]),
        ("torusd", ["--m", "4", "--d", "5,3,4,8"], [(4,) * 3, (4,) * 4, (4,) * 5, (4,) * 8]),
    ],
)
def test_sweep_rows_match_per_family_routes(capsys, tmp_path, family, argv, dims):
    out_file = tmp_path / f"{family}.csv"
    code, _, _ = run(capsys, "sweep", "--family", family, *argv, "--threads", "1", "--out", str(out_file))
    assert code == 0
    expected = [expected_row(family, point) for point in dims]
    assert out_file.read_text().splitlines()[1:] == [",".join(row.to_csv()) for row in expected]
    assert read_sweep_csv(out_file) == expected


def test_fit_linear_ring(capsys, tmp_path):
    out_file = tmp_path / "ring.csv"
    run(capsys, "sweep", "--family", "ring", "--m", "100,200,400,800,1600,3200,6400",
        "--out", str(out_file))
    code, out, _ = run(capsys, "fit", "--model", "linear", "--in", str(out_file))
    assert code == 0
    fields = dict(part.split("=") for part in out.split())
    assert float(fields["rel_deviation"]) <= 0.01
    assert abs(float(fields["target"]) - 1.0 / 12.0) <= 1e-12


def test_fit_log2d_torus(capsys, tmp_path):
    out_file = tmp_path / "torus2.csv"
    run(capsys, "sweep", "--family", "torus2", "--m", "64,128,256,512", "--out", str(out_file))
    code, out, _ = run(capsys, "fit", "--model", "log2d", "--in", str(out_file))
    assert code == 0
    fields = dict(part.split("=") for part in out.split())
    assert float(fields["rel_deviation"]) <= 0.15
    assert abs(float(fields["target"]) - 1.0 / (2.0 * math.pi)) <= 1e-12


def test_fit_inverse_d_torusd(capsys, tmp_path):
    out_file = tmp_path / "torusd.csv"
    run(capsys, "sweep", "--family", "torusd", "--m", "4", "--d", "5,6,7,8", "--out", str(out_file))
    code, out, _ = run(capsys, "fit", "--model", "inverse_d", "--in", str(out_file))
    assert code == 0
    fields = dict(part.split("=") for part in out.split())
    assert float(fields["rel_deviation"]) <= 0.30


HEADER = "family,d,dims,N,rave,lower,upper,method\n"


@pytest.mark.parametrize(
    ("model", "text", "error"),
    [
        ("linear", "", "{path}:1: expected the header"),
        ("linear", HEADER + "ring,1,4,4,0.3125,,\n", "{path}:2: expected 8 fields"),
        ("linear", HEADER + "ring,1,4,4,0.3125,,,closed_form\n" * 3 + "ring,1,8,8,nan,,,closed_form\n",
         "{path}:5: expected a finite number"),
        ("log2d", HEADER + "torus2,2,4x4,16,0.27,inf,,spectral\n", "{path}:2: expected a finite number"),
        ("linear", HEADER + "ring,1,4,5,0.3125,,,closed_form\n", "{path}:2: d=1, dims='4' and N=5 disagree"),
        ("inverse_d", HEADER + "torusd,0,,1,0.1,,,spectral\n" * 4, "model inverse_d needs rows with d >= 1"),
        ("linear", HEADER + "ring,1,8,8,0.65625,,,closed_form\n" * 4,
         "a least-squares slope needs at least two distinct x values"),
    ],
    ids=["empty", "short-row", "nan", "inf-bound", "dims-mismatch", "zero-d", "one-x-value"],
)
def test_fit_unusable_csv_exits_3(capsys, tmp_path, model, text, error):
    path = tmp_path / "rows.csv"
    path.write_text(text)
    code, out, err = run(capsys, "fit", "--model", model, "--in", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("gridres: " + error.format(path=path))


def test_fit_insufficient_data(capsys, tmp_path):
    out_file = tmp_path / "short.csv"
    run(capsys, "sweep", "--family", "ring", "--m", "4,8", "--out", str(out_file))
    code, _, err = run(capsys, "fit", "--model", "linear", "--in", str(out_file))
    assert code == 3
    assert "4 rows" in err


def test_verify_recursion_suite(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "recursion")
    assert code == 0
    lines = out.strip().splitlines()
    assert all(line.startswith("PASS") for line in lines)
    assert lines[-1].startswith("PASS suite=recursion")


def test_verify_bounds_suite_prints_growth_law_checks(capsys):
    code, out, _ = run(capsys, "verify", "--suite", "bounds", "--threads", "1")
    assert code == 0
    names = [line.split()[1] for line in out.strip().splitlines()[:-1]]
    for prefix in ("log-slope:", "conjecture-scale:", "sandwich:scenario1:", "sandwich:scenario3:",
                   "scenario1-linear-growth:"):
        assert any(name.startswith(prefix) for name in names), prefix
    assert out.strip().splitlines()[-1] == f"PASS suite=bounds checks={len(names)} failures=0"


def verify_lines(capsys, suite):
    code, out, _ = run(capsys, "verify", "--suite", suite, "--threads", "1", "--budget", "65536")
    lines = out.splitlines()
    assert code == 0 and lines[-1] == f"PASS suite={suite} checks={len(lines) - 1} failures=0"
    return lines[:-1]


def test_verify_suites_partition_all(capsys):
    every = verify_lines(capsys, "all")
    suites = {suite: verify_lines(capsys, suite) for suite in ("oracle", "bounds", "recursion", "integral")}
    owner = {line: suite for suite, lines in suites.items() for line in lines}
    assert len(owner) == sum(len(lines) for lines in suites.values())  # no record in two suites
    c1, rest = every[:39], every[39:]  # 5 ring and 34 closed-axis records
    assert all(line.split()[1].startswith(("ring:", "closed-axis:")) for line in c1)
    assert len(rest) == len(owner)
    for suite, lines in suites.items():
        assert [line for line in rest if owner.get(line) == suite] == lines
    with pytest.raises(ValueError, match="unknown suite"):
        next(verify.criteria(42, 1, 65536, 65536, "nope"))


def test_verify_skipped_criteria_compute_nothing(capsys, monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a skipped criterion was computed")

    for name in ("oracle_suite", "estimate_integral", "ring_suite", "hypercube_checks"):
        monkeypatch.setattr(verify, name, forbidden)
    code, out, _ = run(capsys, "verify", "--suite", "bounds", "--threads", "1")
    assert code == 0 and out.splitlines()[-1].startswith("PASS suite=bounds checks=87 ")


def test_verify_checks_budgets_before_any_criterion(capsys, monkeypatch):
    # --budget 65535 leaves a 3^8 midpoint grid at d = 8, which c8 refuses.
    def forbidden(*args, **kwargs):
        raise AssertionError("a criterion ran before the budget check")

    for name in ("ring_suite", "estimate_integral"):
        monkeypatch.setattr(verify, name, forbidden)
    for suite in ("all", "integral"):
        code, out, err = run(capsys, "verify", "--suite", suite, "--budget", "65535")
        assert code == 3 and out == ""
        assert err == "gridres: budget 65535 allows only a 3^8 midpoint grid; need >= 4 points per side\n"
        # 10^16 gives a 215,443^3 midpoint grid, whose folded rows exceed the cap.
        code, out, err = run(capsys, "verify", "--suite", suite, "--budget", "10000000000000000")
        assert code == 3 and out == ""
        assert err.startswith("gridres: ") and "folded rows exceed the cap 16777216" in err
        # Budgets past the float range take an exact integer root: 10^100 folds
        # to too many rows and 10^400 leaves the float range, each in well under a second.
        for budget, message in (("1" + "0" * 100, "folded rows exceed the cap"), ("1" + "0" * 400, "float range")):
            start = time.perf_counter()
            code, out, err = run(capsys, "verify", "--suite", suite, "--budget", budget)
            assert time.perf_counter() - start < 1.0
            assert code == 3 and out == ""
            assert err.startswith("gridres: ") and message in err
        # 5e11 passes every midpoint grid check but exceeds the Monte Carlo sample cap.
        code, out, err = run(capsys, "verify", "--suite", suite, "--budget", "500000000000")
        assert code == 3 and out == ""
        assert err == "gridres: 500000000000 Monte Carlo samples exceed the cap 4294967296\n"


def test_verify_failure_exits_1(capsys, monkeypatch):
    failing = verify.CheckResult("conjecture-scale:M=3,d=5", False, 2.0, 1.5)
    monkeypatch.setattr(verify, "conjecture_checks", lambda: [failing])
    code, out, _ = run(capsys, "verify", "--suite", "bounds", "--threads", "1")
    assert code == 1
    lines = out.strip().splitlines()
    assert "FAIL conjecture-scale:M=3,d=5 observed=2 limit=1.5" in lines
    assert lines[-1] == f"FAIL suite=bounds checks={len(lines) - 1} failures=1"


def test_hypercube_ad_table(capsys):
    code, out, _ = run(capsys, "hypercube-ad", "--dmax", "42")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "d a_recursive a_direct d_rave"
    table = {}
    for line in lines[1:]:
        d_str, a_rec, a_dir, d_rave = line.split()
        table[int(d_str)] = (float(a_rec), float(a_dir), float(d_rave))
    assert table[0][0] == 0.0
    for d, (a_rec, a_dir, _) in table.items():
        assert abs(a_rec - a_dir) <= 1e-12 * max(a_dir, 1.0)
        if d >= 3:
            assert a_rec > 1.0
        if 5 <= d < 42:
            assert table[d + 1][0] < a_rec
    assert 1.0 <= table[40][2] <= 1.05


def test_hypercube_ad_refusal_prints_no_rows(capsys):
    # Q_1024 leaves the float range: the whole table is refused with stdout
    # empty, and the gate meets the largest d before any O(d) route runs, so
    # a billion dimensions are refused at once.
    for dmax in ("1024", str(10**9)):
        start = time.perf_counter()
        code, out, err = run(capsys, "hypercube-ad", "--dmax", dmax)
        assert time.perf_counter() - start < 2.0
        assert code == 3 and out == ""
        assert err == f"gridres: 2^{dmax} hypercube nodes leave the float range\n"
    code, out, err = run(capsys, "hypercube-ad", "--dmax", "50")
    lines = out.splitlines()
    assert code == 0 and err == ""
    assert [line.split()[0] for line in lines] == ["d", *map(str, range(51))]


def test_hypercube_ad_validation(capsys):
    code, _, err = run(capsys, "hypercube-ad", "--dmax", "0")
    assert code == 3


def test_threads_default_is_affinity_size(tmp_path, monkeypatch):
    # Only verify uses worker threads: it defaults to the CPUs this process
    # may run on, resolved when it runs. rave and sweep check --threads but
    # use no threads, so they default to 1.
    if hasattr(os, "sched_getaffinity"):
        expected = len(os.sched_getaffinity(0))
    else:
        expected = os.cpu_count() or 1
    parser = build_parser()
    for argv in (
        ["rave", "--ring", "3"],
        ["sweep", "--family", "ring", "--m", "3", "--out", str(tmp_path / "rows.csv")],
    ):
        assert parser.parse_args(argv).threads == 1
    seen = []
    monkeypatch.setattr(cli, "criteria", lambda seed, threads, *args: seen.append(threads) or [])
    main(["verify", "--suite", "recursion"])
    main(["verify", "--suite", "recursion", "--threads", "3"])
    assert seen == [expected, 3]
