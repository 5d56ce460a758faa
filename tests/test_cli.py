"""Command-line interface: subcommands, formats, config, exit codes."""
import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import pytest

import entropart

QUICK = ["--n-radial", "150", "--lebedev", "110"]


# the subprocess imports the package the tests import, installed or not
SRC = os.path.dirname(os.path.dirname(entropart.__file__))
ENV = dict(os.environ, PYTHONPATH=os.pathsep.join(
    [SRC] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def run_cli(*argv, check=None):
    proc = subprocess.run([sys.executable, "-m", "entropart.cli", *argv],
                          capture_output=True, text=True, env=ENV)
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


def json_path_of(column):
    """The JSON path of an analysis row's CSV column, by the rule in README."""
    if column in ("R", "E_total", "N"):
        return (column,)
    if column.startswith("p4_"):
        return ("renyi", "2", "p4", column[3:].replace(".", ","))
    if column.startswith("renyi"):
        label, rest = column[5:].split("_", 1)
        if rest.startswith("p_atom_"):
            return ("renyi", label, "p_atom", rest[7:])
        return ("renyi", label, rest)
    part, rest = (("shape", column[8:]) if column.startswith("sigma_S_")
                  else ("density", column[2:]))
    group, _, key = rest.partition("_")
    return ("shannon", part, group) + ((key.replace("_", ","),) if key else ())


def json_leaves(node, path=()):
    if not isinstance(node, dict):
        return {path: node}
    out = {}
    for key, value in node.items():
        out.update(json_leaves(value, path + (key,)))
    return out


def test_sweep_json_values_match_csv(tmp_path, wfn_fixtures):
    wfn = wfn_fixtures["paths"]
    # every CSV column equals its JSON leaf bit for bit; the Renyi moments
    # and the identity residuals are the JSON-only leaves, and atom rows
    # are flat
    cases = {
        "sweep": ("sweep", "--method", "hf", "--distances", "1.4,4",
                  "--alphas", "0.5,2,3", *QUICK),
        "analyze": ("analyze", str(wfn["h2_fci"]), "--alphas", "0.5,2,3",
                    *QUICK),
        "analyze-one-center": ("analyze", str(wfn["gaussian"]), "--alphas",
                               "2", *QUICK),
        "atom": ("atom", "--alphas", "0.5,2", *QUICK),
        "atom-wfn": ("atom", str(wfn["gaussian"]), "--alphas", "2,3", *QUICK),
    }
    for name, args in cases.items():
        csv_path = tmp_path / f"{name}.csv"
        json_path = tmp_path / f"{name}.json"
        run_cli(*args, "--format", "csv", "--out", str(csv_path), check=0)
        run_cli(*args, "--format", "json", "--out", str(json_path), check=0)
        _, header, rows = read_csv(csv_path)
        doc = json.loads(json_path.read_text())
        assert len(rows) == len(doc["rows"]), name
        for crow, jrow in zip(rows, doc["rows"]):
            leaves = json_leaves(jrow)
            paths = {c: (c,) if name.startswith("atom") else json_path_of(c)
                     for c in header}
            for column, path in paths.items():
                assert float(crow[column]) == leaves[path], (name, column)
            json_only = set(leaves) - set(paths.values())
            assert all(p[0] == "identities" or p[-1] == "moment"
                       for p in json_only), (name, json_only)
        if name.startswith("analyze"):
            assert "overlap" in jrow["shannon"]["density"]

    _, _, rows = read_csv(tmp_path / "sweep.csv")
    doc = json.loads((tmp_path / "sweep.json").read_text())
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
    base = ("sweep", "--method", "hl", "--distances", "1.4,2,3,4,6",
            "--alphas", "2", *QUICK)
    nats = tmp_path / "nats.csv"
    bits = tmp_path / "bits.csv"
    run_cli(*base, "--out", str(nats), check=0)
    run_cli(*base, "--units", "bits", "--out", str(bits), check=0)
    _, _, rows_n = read_csv(nats)
    _, _, rows_b = read_csv(bits)
    assert len(rows_n) == len(rows_b) == 5
    ln2 = math.log(2.0)
    for row_n, row_b in zip(rows_n, rows_b):
        for col in ("S_total", "S_nadd", "sigma_S_total", "renyi2_S_rho"):
            assert float(row_b[col]) * ln2 == pytest.approx(
                float(row_n[col]), rel=1e-13)
        # probabilities, counts and energies are unit free
        for col in ("N", "E_total", "renyi2_p_atom_0", "p4_0.0.0.0"):
            assert row_b[col] == row_n[col]
    # the other residuals are entropies
    docs = {}
    for units in ("nats", "bits"):
        proc = run_cli(*base, "--units", units, "--format", "json", check=0)
        docs[units] = [row["identities"]
                       for row in json.loads(proc.stdout)["rows"]]
    for ids_n, ids_b in zip(docs["nats"], docs["bits"], strict=True):
        assert ids_b["renyi2_p4_sum"] == ids_n["renyi2_p4_sum"]
        assert ids_b["renyi2_scaling"] * ln2 == pytest.approx(
            ids_n["renyi2_scaling"], rel=1e-12)


def test_units_bits_leaves_the_p4_sum_residual_unscaled():
    # the residual of the p4 sum is a probability, so it carries no unit;
    # one p4 entry is nudged so that the residual is not zero by rounding
    from entropart import AtomicGridSpec, analyze_model
    from entropart.cli import _analysis_leaves
    fa = analyze_model("hl", 1.4, AtomicGridSpec(150, 110),
                       alphas=(2.0,)).analysis
    dec = fa.renyi[2.0]
    pp = dec.pair_partition
    key = min(pp.p4)
    p4 = {**pp.p4, key: pp.p4[key] + 1e-9}
    fa = dataclasses.replace(fa, renyi={2.0: dataclasses.replace(
        dec, pair_partition=dataclasses.replace(pp, p4=p4))})

    def residuals(scale):
        return {path[1]: v for _, path, v in _analysis_leaves(fa, scale)
                if path[0] == "identities"}

    scale = 1.0 / math.log(2.0)
    nats, bits = residuals(1.0), residuals(scale)
    assert nats["renyi2_p4_sum"] == pytest.approx(1e-9, rel=1e-6)
    assert bits["renyi2_p4_sum"] == nats["renyi2_p4_sum"]
    assert bits["renyi2_scaling"] == nats["renyi2_scaling"] * scale


def test_parallel_sweep_is_deterministic(tmp_path):
    base = ("sweep", "--method", "fci", "--distances", "1.4,2,3", *QUICK)
    serial = tmp_path / "serial.csv"
    parallel = tmp_path / "parallel.csv"
    run_cli(*base, "--jobs", "1", "--out", str(serial), check=0)
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


@pytest.mark.parametrize("argv", [
    ("sweep", "--method", "hf", "--distances", "1.4"),
    ("analyze", "{h2_hf}"),
    ("atom",),
    ("grid-dump", "--distances", "1.4"),
], ids=["sweep", "analyze", "atom", "grid-dump"])
def test_grid_larger_than_memory_exits_2(argv, wfn_fixtures, monkeypatch,
                                         capsys):
    import entropart.cli
    import entropart.quadrature

    def no_allocation(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    # refused from the estimate alone, before any grid array exists
    monkeypatch.setattr(entropart.quadrature, "radial_grid", no_allocation)
    paths = {k: str(v) for k, v in wfn_fixtures["paths"].items()}
    code = entropart.cli.main([a.format(**paths) for a in argv]
                              + ["--n-radial", str(10**12)])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error:") and "physical memory" in err


@pytest.mark.parametrize("argv", [
    ("sweep", "--method", "hf", "--distances", "1.4"),
    ("analyze", "{h2_hf}"),
    ("atom",),
    ("grid-dump", "--distances", "1.4"),
], ids=["sweep", "analyze", "atom", "grid-dump"])
def test_grid_beyond_32_bit_indices_exits_2(argv, wfn_fixtures, monkeypatch,
                                            capsys):
    # memory enough for any grid: only the index bound refuses it
    import entropart.cli
    import entropart.quadrature

    def no_allocation(*args, **kwargs):
        raise AssertionError("the grid was allocated")

    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**40}
    monkeypatch.setattr(entropart.cli.os, "sysconf", pages.__getitem__)
    monkeypatch.setattr(entropart.quadrature, "radial_grid", no_allocation)
    paths = {k: str(v) for k, v in wfn_fixtures["paths"].items()}
    code = entropart.cli.main([a.format(**paths) for a in argv]
                              + ["--n-radial", "20000000"])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: a grid of ") and err.endswith(
        " points exceeds the 2147483647 that 32-bit point indices address\n")


def test_gram_partials_bytes_of_h20():
    from entropart.quadrature import AtomicGridSpec, grid_estimate
    from entropart.reductions import gram_partials_bytes

    # 210 pair terms, 22,155 Gram entries per chunk, 379 chunks, twice
    points, _ = grid_estimate(20, AtomicGridSpec())
    assert points == 1_552_000
    assert gram_partials_bytes(20, points) == 2 * 379 * 22_155 * 8
    assert gram_partials_bytes(1, 1) == 16


def _h20_wfn(tmp_path, types, admixture=0.0):
    """An H20 chain on the z axis, one primitive of the given types per
    atom and 10 doubly occupied orbitals, written as a .wfn file: orbital
    k is primitive k plus admixture times primitive k + 2."""
    import numpy as np

    from entropart import PrimitiveBasis, build_document, write_wfn
    from entropart.molecule import Molecule

    mol = Molecule([("H", (0.0, 0.0, 2.0 * i)) for i in range(20)])
    basis = PrimitiveBasis(mol, range(20), types, [0.8] * 20)
    eye = np.eye(20)
    mos = [(2.0, -0.5, eye[k] + admixture * eye[k + 2]) for k in range(10)]
    path = tmp_path / "h20.wfn"
    path.write_text(write_wfn(build_document(mol, basis, mos, title="H20")))
    return path


def _memory_check(monkeypatch, capsys, argv, memory):
    """The exit code and stderr of ``argv`` with ``memory`` bytes of
    physical memory (in whole pages), or None where the check passes and
    the grid build starts."""
    import entropart.cli
    import entropart.quadrature

    class Allocated(Exception):
        pass

    def no_allocation(*args, **kwargs):
        raise Allocated

    pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": memory // 4096}
    monkeypatch.setattr(entropart.cli.os, "sysconf", pages.__getitem__)
    monkeypatch.setattr(entropart.quadrature, "radial_grid", no_allocation)
    try:
        code = entropart.cli.main(argv)
    except Allocated:
        return None
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    return code, err


@pytest.mark.parametrize("alphas, refused", [("2", True), ("0.5,2,3", True),
                                             ("0.5,3", False)])
def test_gram_partials_count_in_the_memory_check(alphas, refused, tmp_path,
                                                 monkeypatch, capsys):
    # H20 on the default grid, a px primitive on one atom and a py on the
    # next, each in an orbital with an s primitive two atoms on, so that
    # no operation but the identity maps the field onto itself and the
    # walk evaluates every kept point: 2.2 MB of grid cells (8 bytes per
    # radial shell and orbit of the nuclei's 35 per shell) fit in 100 MB
    # of physical memory, the 134 MB of order-2 Gram partials do not
    path = _h20_wfn(tmp_path, [2, 3] + [1] * 18, admixture=0.5)
    got = _memory_check(monkeypatch, capsys,
                        ["analyze", str(path), "--alphas", alphas],
                        100_000_000)
    if refused:
        code, err = got
        assert code == 2
        assert err.startswith("error: a grid of 1552000 points with its "
                              "order-2 Gram partials needs at least 0.1 GiB")
        assert "physical memory" in err
    else:  # passes the check and goes on to build the grid
        assert got is None


def test_the_memory_check_counts_the_points_the_walk_evaluates(
        tmp_path, monkeypatch, capsys):
    # with s primitives the walk evaluates at most 35 of the 194
    # directions of each of the 20 x 400 shells, 280,000 points in 69
    # chunks: 2,240,000 bytes of grid cells, 8 per shell and orbit, and
    # 2 x 69 x 22,155 Gram entries of 8 bytes, 26,699,120 bytes in all,
    # where every direction would take 134 MB of Gram partials
    argv = ["analyze", str(_h20_wfn(tmp_path, [1] * 20)), "--alphas", "2"]
    need = 280_000 * 8 + 2 * 69 * 22_155 * 8
    assert need == 26_699_120
    code, err = _memory_check(monkeypatch, capsys, argv, need - 4096)
    assert code == 2 and err.startswith(
        "error: a grid of 1552000 points with its order-2 Gram partials "
        "needs at least 0.0 GiB, more than the 0.0 GiB of physical memory")
    assert _memory_check(monkeypatch, capsys, argv, need + 4096) is None


def test_the_memory_check_counts_grid_rows_unless_points_are_expanded(
        tmp_path, monkeypatch, capsys):
    # H2 on the z axis on the default grid: 155,200 product-grid points,
    # 1,862,400 bytes expanded, but 2 x 400 shells of 35 orbits held,
    # 224,000 bytes; analyze walks the cells, grid-dump expands the points
    import numpy as np

    from entropart import PrimitiveBasis, build_document, write_wfn
    from entropart.molecule import Molecule

    mol = Molecule.h2(1.4)
    basis = PrimitiveBasis(mol, [0, 1], [1, 1], [1.0, 1.0])
    path = tmp_path / "h2.wfn"
    path.write_text(write_wfn(build_document(
        mol, basis, [(2.0, -0.5, np.array([0.5, 0.5]))], title="H2")))
    memory = 1_000_000
    assert 224_000 < memory < 1_862_400
    assert _memory_check(monkeypatch, capsys, ["analyze", str(path)],
                         memory) is None
    code, err = _memory_check(monkeypatch, capsys,
                              ["grid-dump", "--distances", "1.4"], memory)
    assert code == 2 and err.startswith(
        "error: a grid of 155200 points needs at least 0.0 GiB, more than "
        "the 0.0 GiB of physical memory")


def _main(argv, capsys):
    """Run the CLI in this process: (exit code, stdout, stderr)."""
    import entropart.cli

    code = entropart.cli.main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


@pytest.mark.parametrize("argv", [
    ("sweep", "--method", "hf", "--distances", "1.4,1e7"),
    ("sweep", "--config", "{cfg}"),
    ("grid-dump", "--distances", "2e6"),
    ("grid-dump", "--config", "{cfg}"),
], ids=["sweep", "sweep-config", "grid-dump", "grid-dump-config"])
def test_distance_beyond_the_coordinate_bound_exits_2(argv, tmp_path, capsys):
    cfg = tmp_path / "far.cfg"
    cfg.write_text("method = hf\ndistances = 1e7\n")
    code, out, err = _main([a.format(cfg=cfg) for a in argv] + QUICK, capsys)
    assert code == 2 and out == ""
    assert err == "error: distances must be in (0, 1e+06] bohr\n"


@pytest.mark.parametrize("coordinate", ["2000000.000000", "1D999"])
def test_wfn_coordinate_beyond_the_bound_exits_1(coordinate, tmp_path,
                                                  wfn_fixtures, capsys):
    src = wfn_fixtures["paths"]["h2_hf"].read_text()
    far = tmp_path / "far.wfn"
    far.write_text(src.replace("1.400000000000  CHARGE",
                               f"{coordinate}  CHARGE"))
    assert far.read_text() != src
    code, out, err = _main(["analyze", str(far), *QUICK], capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: nucleus H at") and "at most 1e+06 bohr" in err


def test_distance_at_the_coordinate_bound_is_accepted(capsys):
    code, out, err = _main(["sweep", "--method", "hf", "--distances", "1e6",
                            "--n-radial", "60", "--lebedev", "50"], capsys)
    assert code == 0 and err == ""
    lines = out.splitlines()
    limits = next(line for line in lines if line.startswith("# reference limits:"))
    limit = float(limits.split("S_rho=")[1].split()[0])
    header, row = [line.split(",") for line in lines[-2:]]
    row = dict(zip(header, map(float, row)))
    assert row["R"] == 1e6
    assert row["N"] == pytest.approx(2.0, abs=1e-6)
    assert row["S_total"] == pytest.approx(limit, abs=1e-6)


@pytest.mark.parametrize("argv", [
    ("grid-dump", "--distances", "1.4", "--stiffness", "100000000"),
    ("grid-dump", "--distances", "1.4", "--config", "{cfg}"),
    ("sweep", "--config", "{cfg}"),
], ids=["grid-dump", "grid-dump-config", "sweep-config"])
def test_stiffness_beyond_the_bound_exits_2(argv, tmp_path, capsys):
    # each cell-function iteration is a pass over every atom pair, so an
    # unbounded count would never return
    cfg = tmp_path / "stiff.cfg"
    cfg.write_text("stiffness = 101\n")
    code, out, err = _main([a.format(cfg=cfg) for a in argv]
                           + ["--n-radial", "2", "--lebedev", "6"], capsys)
    assert code == 2 and out == ""
    assert err == "error: stiffness must be in [1, 100]\n"


def test_a_distance_too_short_for_the_models_exits_1(capsys):
    code, out, err = _main(["sweep", "--distances", "1e-4", *QUICK], capsys)
    assert code == 1 and out == ""
    assert err.count("\n") == 1
    assert err.startswith("error: at R=0.0001: the basis functions overlap "
                          "too closely (1 - S = 2.6e-09")


@pytest.mark.parametrize("jobs, cpus, distances, workers", [
    (5000, 4, "1.4,2", 3),
    (3, 4, "1.4,2,3,4", 3),
    (8, 2, "1.4,2,3", 2),
    (8, None, "1.4,2", 1),
    (4, 1, "1.4,2", 1),
    (1, 4, "1.4,2", 1),
], ids=["distances", "asked", "cpus", "cpus-unknown", "one-cpu", "serial"])
def test_jobs_pool_is_capped(jobs, cpus, distances, workers, monkeypatch,
                             capsys):
    # a sweep shares its rows and the reference atom among
    # min(--jobs, usable CPUs, tasks) workers, and the walks inside a
    # worker run serially
    from entropart import parallel

    started = []
    choose = parallel.workers

    def recording(*args, **kwargs):
        started.append(choose(*args, **kwargs))
        return started[-1]

    monkeypatch.setattr(parallel, "workers", recording)
    if cpus is None:  # no affinity call, and no CPU count either
        monkeypatch.delattr(parallel.os, "sched_getaffinity")
    else:
        monkeypatch.setattr(parallel.os, "sched_getaffinity",
                            lambda pid: set(range(cpus)))
    monkeypatch.setattr(parallel.os, "cpu_count", lambda: cpus)
    code, _, _ = _main(["sweep", "--method", "hf", "--distances", distances,
                        "--jobs", str(jobs), "--n-radial", "60",
                        "--lebedev", "50"], capsys)
    assert code == 0
    assert started[0] == workers
    assert started[1:] and set(started[1:]) == {1}


@pytest.mark.parametrize("error, line", [
    (MemoryError(), "error: MemoryError\n"),
    (MemoryError("Unable to allocate 7.2 GiB"),
     "error: Unable to allocate 7.2 GiB\n"),
])
def test_memory_error_exits_1(error, line, monkeypatch, capsys):
    import entropart.cli

    def out_of_memory(*args, **kwargs):
        raise error

    monkeypatch.setattr(entropart.cli, "analyze_model", out_of_memory)
    code, out, err = _main(["sweep", "--method", "hf", "--distances", "1.4",
                            *QUICK], capsys)
    assert code == 1 and out == ""
    assert err == line


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


@pytest.mark.parametrize("distances, n_radial, lebedev, screened", [
    (None, 300, 146, 6), ("1.4", 150, 110, 98)], ids=["atom", "h2"])
def test_grid_dump_rows_are_the_listed_grid(tmp_path, distances, n_radial,
                                            lebedev, screened):
    # every kept point of a grid that screens some, in order, each number
    # as the CSV writes it
    from entropart.cli import _fnum
    from entropart.molecule import Molecule
    from entropart.quadrature import AtomicGridSpec
    from references import listed_grid
    out = tmp_path / "grid.csv"
    where = () if distances is None else ("--distances", distances)
    run_cli("grid-dump", *where, "--n-radial", str(n_radial), "--lebedev",
            str(lebedev), "--out", str(out), check=0)
    molecule = (Molecule([("H", (0.0, 0.0, 0.0))]) if distances is None
                else Molecule.h2(float(distances)))
    points, weights, owners = listed_grid(
        molecule, AtomicGridSpec(n_radial=n_radial, lebedev_order=lebedev))
    assert len(points) == len(molecule) * n_radial * lebedev - screened
    want = [f"{_fnum(x)},{_fnum(y)},{_fnum(z)},{_fnum(w)},{o}"
            for (x, y, z), w, o in zip(points, weights, owners)]
    assert out.read_text().splitlines()[3:] == want


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


def test_plot_script_stays_beside_an_output_in_a_dotted_directory(tmp_path):
    folder = tmp_path / "plot.dir"
    folder.mkdir()
    out = folder / "curve"
    run_cli("sweep", "--method", "hf", "--distances", "1.4,2", "--n-radial",
            "60", "--lebedev", "50", "--out", str(out), "--emit-plot-script",
            check=0)
    assert sorted(os.listdir(tmp_path)) == ["plot.dir"]
    assert sorted(os.listdir(folder)) == ["curve", "curve.gp"]
    assert f'set output "{out}.png"' in (folder / "curve.gp").read_text()


@pytest.mark.parametrize("name", ["curve.gp", "curve.png"])
def test_plot_script_never_overwrites_the_output(name, tmp_path, monkeypatch,
                                                 capsys):
    # refused before any work: the script, or the plot it writes, would
    # replace the CSV it plots
    import entropart.cli

    def no_work(*args, **kwargs):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(entropart.cli, "analyze_model", no_work)
    out = tmp_path / name
    code, stdout, err = _main(["sweep", "--method", "hf", "--distances", "1.4",
                               "--out", str(out), "--emit-plot-script"], capsys)
    stem = tmp_path / "curve"
    assert (code, stdout, err) == (
        2, "", f"error: --emit-plot-script writes {stem}.gp and its plot "
               f"{stem}.png, so --out cannot be either of them\n")
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("target", ["missing directory", "directory"])
@pytest.mark.parametrize("argv", [
    ("sweep", "--method", "hf", "--distances", "1.4"),
    ("analyze", "{h2_fci}"),
    ("atom",),
    ("grid-dump",),
], ids=["sweep", "analyze", "atom", "grid-dump"])
def test_an_unwritable_output_exits_2(argv, target, tmp_path, wfn_fixtures,
                                      capsys):
    out = tmp_path / "missing" / "out.csv" if target == "missing directory" \
        else tmp_path
    argv = [a.format(h2_fci=wfn_fixtures["paths"]["h2_fci"]) for a in argv]
    code, stdout, err = _main([*argv, "--n-radial", "100", "--lebedev", "86",
                               "--out", str(out)], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot write {out}: ")
    assert err.count("\n") == 1 and err.endswith("\n")


def test_an_unwritable_plot_script_exits_2(tmp_path, capsys):
    (tmp_path / "curve.gp").mkdir()
    code, stdout, err = _main(["sweep", "--method", "hf", "--distances", "1.4",
                               "--n-radial", "60", "--lebedev", "50", "--out",
                               str(tmp_path / "curve.csv"),
                               "--emit-plot-script"], capsys)
    assert (code, stdout) == (2, "")
    assert err.startswith(f"error: cannot write {tmp_path / 'curve.gp'}: ")
    assert err.count("\n") == 1


def test_strict_limits_failure_near_equilibrium(tmp_path):
    proc = run_cli("sweep", "--method", "fci", "--distances", "1.4",
                   "--strict-limits", *QUICK, "--out",
                   str(tmp_path / "s.csv"))
    assert proc.returncode == 4
    assert "strict-limits failure" in proc.stderr


def test_strict_limits_pass_when_separated(tmp_path):
    run_cli("sweep", "--method", "fci", "--distances", "50", "--alphas", "2",
            "--strict-limits", "--out", str(tmp_path / "s.csv"), check=0)
