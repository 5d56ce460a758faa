"""Command-line interface: subcommands, formats, config, exit codes."""
import json
import math
import shutil
import subprocess
import sys

import pytest

QUICK = ["--n-radial", "150", "--lebedev", "110"]


def run_cli(*argv, check=None):
    proc = subprocess.run([sys.executable, "-m", "entropart.cli", *argv],
                          capture_output=True, text=True)
    if check is not None:
        assert proc.returncode == check, proc.stderr
    return proc


def read_csv(path):
    comments, header, rows = [], None, []
    for line in path.read_text().splitlines():
        if line.startswith("# "):
            comments.append(line[2:])
        elif header is None:
            header = line.split(",")
        else:
            rows.append(dict(zip(header, line.split(","))))
    return comments, header, rows


def test_version_and_console_script():
    proc = run_cli("--version", check=0)
    assert "entropart" in proc.stdout
    script = shutil.which("entropart")
    assert script, "console script not installed"
    out = subprocess.run([script, "--version"], capture_output=True, text=True)
    assert out.returncode == 0


def test_sweep_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    run_cli("sweep", "--method", "fci", "--distances", "1.4,4", "--alphas",
            "2", *QUICK, "--out", str(out), check=0)
    comments, header, rows = read_csv(out)
    assert any("method = fci" in c for c in comments)
    assert any(c.startswith("reference atom:") for c in comments)
    assert any(c.startswith("reference limits:") for c in comments)
    assert header[:2] == ["R", "E_total"]
    assert "S_total" in header and "sigma_S_total" in header
    assert "renyi2_S_rho" in header and "p4_0.1.0.1" in header
    assert [float(r["R"]) for r in rows] == [1.4, 4.0]
    for row in rows:
        assert float(row["N"]) == pytest.approx(2.0, abs=1e-4)
        # closure identities hold row by row
        total = float(row["S_total"])
        assert float(row["S_add"]) - float(row["S_nadd"]) == pytest.approx(
            total, abs=1e-9)


def test_sweep_json_values_match_csv(tmp_path):
    args = ("sweep", "--method", "hf", "--distances", "1.4", "--alphas", "2",
            *QUICK)
    csv_path = tmp_path / "s.csv"
    json_path = tmp_path / "s.json"
    run_cli(*args, "--format", "csv", "--out", str(csv_path), check=0)
    run_cli(*args, "--format", "json", "--out", str(json_path), check=0)
    _, _, rows = read_csv(csv_path)
    doc = json.loads(json_path.read_text())
    jrow = doc["rows"][0]
    crow = rows[0]
    assert float(crow["S_total"]) == jrow["shannon"]["density"]["total"]
    assert float(crow["S_net_0"]) == jrow["shannon"]["density"]["net"]["0"]
    assert float(crow["S_overlap_0_1"]) == \
        jrow["shannon"]["density"]["overlap"]["0,1"]
    assert float(crow["renyi2_S_rho"]) == jrow["renyi"]["2"]["S_rho"]
    assert float(crow["p4_0.0.1.1"]) == jrow["renyi"]["2"]["p4"]["0,0,1,1"]
    assert doc["meta"]["command"] == "sweep"
    assert doc["meta"]["grid"]["n_radial"] == 150
    assert "reference" in doc and "limits" in doc["reference"]
    assert all(abs(v) < 1e-8 for v in jrow["identities"].values())


def test_sweep_without_alphas_is_shannon_only(tmp_path):
    out = tmp_path / "s.csv"
    run_cli("sweep", "--method", "hl", "--distances", "1.4", *QUICK,
            "--out", str(out), check=0)
    _, header, _ = read_csv(out)
    assert not any(c.startswith("renyi") or c.startswith("p4") for c in header)


def test_units_bits_scales_entropies_only(tmp_path):
    base = ("sweep", "--method", "hf", "--distances", "1.4", "--alphas", "2",
            *QUICK)
    nats = tmp_path / "nats.csv"
    bits = tmp_path / "bits.csv"
    run_cli(*base, "--out", str(nats), check=0)
    run_cli(*base, "--units", "bits", "--out", str(bits), check=0)
    _, _, (row_n,) = read_csv(nats)
    _, _, (row_b,) = read_csv(bits)
    ln2 = math.log(2.0)
    for col in ("S_total", "S_nadd", "sigma_S_total", "renyi2_S_rho"):
        assert float(row_b[col]) * ln2 == pytest.approx(float(row_n[col]),
                                                        rel=1e-13)
    # probabilities, counts and energies are unit free
    for col in ("N", "E_total", "renyi2_p_atom_0", "p4_0.0.0.0"):
        assert row_b[col] == row_n[col]


def test_parallel_sweep_is_deterministic(tmp_path):
    base = ("sweep", "--method", "fci", "--distances", "1.4,2,3", *QUICK)
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    run_cli(*base, "--out", str(serial), check=0)
    run_cli(*base, "--jobs", "3", "--out", str(parallel), check=0)
    assert serial.read_text() == parallel.read_text()


def test_config_file_and_cli_precedence(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "# sweep defaults\n"
        "method = hl\n"
        "distances = 1.4\n"
        "n_radial = 150\n"
        "lebedev = 110\n")
    from_cfg = tmp_path / "cfg.csv"
    run_cli("sweep", "--config", str(cfg), "--out", str(from_cfg), check=0)
    comments, _, _ = read_csv(from_cfg)
    assert any("method = hl" in c for c in comments)

    overridden = tmp_path / "cli.csv"
    run_cli("sweep", "--config", str(cfg), "--method", "hf",
            "--out", str(overridden), check=0)
    comments, _, (row,) = read_csv(overridden)
    assert any("method = hf" in c for c in comments)

    direct = tmp_path / "direct.csv"
    run_cli("sweep", "--method", "hf", "--distances", "1.4", *QUICK,
            "--out", str(direct), check=0)
    _, _, (drow,) = read_csv(direct)
    assert row == drow


def test_usage_errors_exit_2(tmp_path):
    cases = [
        ("sweep", "--method", "cc", "--distances", "1.4"),
        ("sweep", "--method", "hf", "--distances", "4,1.4"),
        ("sweep", "--method", "hf", "--distances", "-2"),
        ("sweep", "--method", "hf", "--distances", "1.4", "--alphas", "1.0"),
        ("sweep", "--method", "hf", "--distances", "1.4", "--alphas", "-2"),
        ("sweep", "--method", "hf", "--distances", "1.4", "--units", "kcal"),
        ("sweep", "--method", "hf", "--distances", "1.4",
         "--emit-plot-script"),
        ("sweep", "--method", "hf", "--distances", "1.4", "--lebedev", "93"),
        ("grid-dump", "--distances", "1.4,2.8"),
        ("analyze", str(tmp_path / "missing.wfn")),
    ]
    for argv in cases:
        proc = run_cli(*argv)
        assert proc.returncode == 2, argv
        assert "error:" in proc.stderr

    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_radail = 77\n")
    proc = run_cli("sweep", "--method", "hf", "--distances", "1.4",
                   "--config", str(cfg))
    assert proc.returncode == 2
    assert "n_radail" in proc.stderr


@pytest.mark.parametrize("argv", [
    ("sweep", "--method", "hf", "--distances={}"),
    ("sweep", "--method", "hf", "--distances", "1.4", "--alphas={}"),
    ("grid-dump", "--distances={}"),
], ids=["sweep-distances", "sweep-alphas", "grid-dump-distances"])
@pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
def test_non_finite_numbers_exit_2(argv, token):
    proc = run_cli(*(a.format(token) for a in argv), *QUICK)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1
    assert proc.stderr.startswith("error:") and "finite" in proc.stderr


def test_corrupt_wfn_exits_1_with_location(tmp_path, wfn_fixtures):
    src = wfn_fixtures["paths"]["h2_hf"].read_text()
    bad = tmp_path / "bad.wfn"
    bad.write_text(src.replace("TYPE ASSIGNMENTS        1",
                               "TYPE ASSIGNMENTS       99"))
    proc = run_cli("analyze", str(bad), *QUICK)
    assert proc.returncode == 1
    assert f"{bad}:6:" in proc.stderr
    assert "unknown type code" in proc.stderr


def test_inadequate_grid_exits_1(wfn_fixtures):
    proc = run_cli("analyze", str(wfn_fixtures["paths"]["h2_hf"]),
                   "--n-radial", "4", "--lebedev", "6")
    assert proc.returncode == 1
    assert "quadrature is inadequate" in proc.stderr


def test_analyze_matches_sweep_row(tmp_path, wfn_fixtures):
    sweep_out = tmp_path / "sweep.csv"
    run_cli("sweep", "--method", "fci", "--distances", "1.4", "--alphas", "2",
            *QUICK, "--out", str(sweep_out), check=0)
    analyze_out = tmp_path / "analyze.csv"
    run_cli("analyze", str(wfn_fixtures["paths"]["h2_fci"]), "--alphas", "2",
            *QUICK, "--out", str(analyze_out), check=0)
    _, _, (srow,) = read_csv(sweep_out)
    _, _, (arow,) = read_csv(analyze_out)
    shared = [c for c in srow if c in arow and c != "R"]
    assert "S_total" in shared and "renyi2_S_rho" in shared
    for col in shared:
        assert float(arow[col]) == pytest.approx(float(srow[col]), abs=1e-8), col


def test_analyze_single_center_file(tmp_path, wfn_fixtures):
    out = tmp_path / "atom.csv"
    run_cli("analyze", str(wfn_fixtures["paths"]["gaussian"]), *QUICK,
            "--out", str(out), check=0)
    _, header, (row,) = read_csv(out)
    assert "S_overlap" not in ",".join(header)
    assert float(row["S_nadd"]) == 0.0
    assert float(row["N"]) == pytest.approx(2.0, abs=1e-6)


def test_atom_subcommand_builtin(tmp_path):
    out = tmp_path / "atom.csv"
    run_cli("atom", "--alphas", "2", *QUICK, "--out", str(out), check=0)
    comments, header, (row,) = read_csv(out)
    assert any("built-in H" in c for c in comments)
    # one electron: shape values equal density values, bit for bit
    assert row["sigma_S"] == row["S_rho"]
    assert row["renyi2_S_sigma"] == row["renyi2_S_rho"]
    assert float(row["N"]) == pytest.approx(1.0, abs=1e-6)
    assert float(row["E"]) == pytest.approx(-0.4710390541780927, abs=1e-8)


def test_atom_subcommand_rejects_molecules(wfn_fixtures):
    proc = run_cli("atom", str(wfn_fixtures["paths"]["h2_hf"]), *QUICK)
    assert proc.returncode == 2
    assert "single-center" in proc.stderr


def test_grid_dump_single_atom(tmp_path):
    out = tmp_path / "grid.csv"
    run_cli("grid-dump", "--n-radial", "20", "--lebedev", "26",
            "--out", str(out), check=0)
    lines = out.read_text().splitlines()
    assert lines[2] == "x,y,z,weight,owner_atom"
    data = lines[3:]
    assert len(data) == 20 * 26
    assert all(r.endswith(",0") for r in data)


def test_grid_dump_h2(tmp_path):
    out = tmp_path / "grid.csv"
    run_cli("grid-dump", "--distances", "1.4", "--n-radial", "20",
            "--lebedev", "26", "--out", str(out), check=0)
    _, header, rows = read_csv(out)
    assert header == ["x", "y", "z", "weight", "owner_atom"]
    owners = {row["owner_atom"] for row in rows}
    assert owners == {"0", "1"}
    assert all(float(row["weight"]) > 0 for row in rows)


def test_plot_script_emission(tmp_path):
    out = tmp_path / "sweep.csv"
    run_cli("sweep", "--method", "fci", "--distances", "1.4,2", "--alphas",
            "2", *QUICK, "--out", str(out), "--emit-plot-script", check=0)
    script = tmp_path / "sweep.gp"
    assert script.exists()
    body = script.read_text()
    assert "sweep.csv" in body
    assert "plot" in body
    # horizontal reference lines carry the separated-atom limits
    assert "atom_limit" in body or "limit" in body


def test_strict_limits_failure_near_equilibrium(tmp_path):
    proc = run_cli("sweep", "--method", "fci", "--distances", "1.4",
                   "--strict-limits", *QUICK, "--out",
                   str(tmp_path / "s.csv"))
    assert proc.returncode == 4
    assert "strict-limits failure" in proc.stderr


def test_strict_limits_pass_when_separated(tmp_path):
    run_cli("sweep", "--method", "fci", "--distances", "50", "--alphas", "2",
            "--strict-limits", "--out", str(tmp_path / "s.csv"), check=0)
