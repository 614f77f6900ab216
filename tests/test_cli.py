import math
import os

import pytest

from gridres import verify
from gridres.cli import build_parser, main, read_sweep_csv
from gridres.resistance import rave_torus


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


@pytest.mark.parametrize("threads", ["0", "-3", "2.0", "x"])
def test_threads_must_be_a_positive_integer(capsys, tmp_path, threads):
    for argv in (
        ["rave", "--ring", "3"],
        ["sweep", "--family", "ring", "--m", "3", "--out", str(tmp_path / "rows.csv")],
        ["verify", "--suite", "recursion"],
    ):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err


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


def test_verify_failure_exits_1(capsys, monkeypatch):
    failing = verify.CheckResult("conjecture-scale:M=3,d=5", False, 2.0, 1.5)
    monkeypatch.setattr(verify, "conjecture_checks", lambda threads=1: [failing])
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


def test_hypercube_ad_validation(capsys):
    code, _, err = run(capsys, "hypercube-ad", "--dmax", "0")
    assert code == 3


def test_threads_default_is_affinity_size(tmp_path):
    if hasattr(os, "sched_getaffinity"):
        expected = len(os.sched_getaffinity(0))
    else:
        expected = os.cpu_count() or 1
    parser = build_parser()
    for argv in (
        ["rave", "--ring", "3"],
        ["sweep", "--family", "ring", "--m", "3", "--out", str(tmp_path / "rows.csv")],
        ["verify", "--suite", "recursion"],
    ):
        assert parser.parse_args(argv).threads == expected
