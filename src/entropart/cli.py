"""Command-line interface.

Subcommands: sweep (dissociation curves of the built-in H2 models),
analyze (one .wfn file), atom (isolated-atom reference constants), and
grid-dump (quadrature points and weights). Output is CSV or JSON with
bit-identical numeric values between the two formats.

Exit codes: 0 success, 1 runtime failure (bad file, inadequate grid),
2 usage or config error, 3 per-row identity violation, 4 asymptotic
check failure under --strict-limits.
"""

import argparse
import json
import math
import sys
from concurrent.futures import ProcessPoolExecutor

from . import __version__
from .analysis import (CLOSURE_TOLERANCE, LIMIT_TOLERANCE, SCALING_TOLERANCE,
                       analyze_field, analyze_model, hydrogen_reference)
from .models import METHODS
from .molecule import Molecule
from .quadrature import AtomicGridSpec, build_molecular_grid
from .wfnio import WfnParseError, field_from_document, parse_wfn

LN2 = math.log(2.0)

_DEFAULTS = {
    "method": "fci",
    "distances": (1.4, 2.0, 3.0, 4.0, 6.0, 10.0, 20.0, 50.0),
    "alphas": (),
    "n_radial": 400,
    "lebedev": 194,
    "stiffness": 3,
    "size_adjust": True,
    "units": "nats",
    "format": "csv",
    "out": "-",
    "jobs": 1,
    "emit_plot_script": False,
    "strict_limits": False,
    "raw_primitives": False,
}


class UsageError(Exception):
    """Bad flag or config value; maps to exit code 2."""


def _fnum(x) -> str:
    # repr round-trips exactly, which keeps CSV and JSON values identical
    return repr(float(x))


def _parse_floats(text, name):
    toks = [t for chunk in str(text).split(",") for t in chunk.split()]
    try:
        values = tuple(float(t) for t in toks)
    except ValueError:
        raise UsageError(f"{name}: cannot parse {text!r} as numbers") from None
    if not all(map(math.isfinite, values)):
        raise UsageError(f"{name}: values must be finite, got {text!r}")
    return values


def _parse_bool(text, name):
    low = str(text).strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise UsageError(f"{name}: expected a boolean, got {text!r}")


def load_config(path):
    """Flat key = value file; '#' starts a comment."""
    data = {}
    try:
        with open(path) as fh:
            for lineno, raw in enumerate(fh, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                data[key.strip().lower().replace("-", "_")] = value.strip()
    except OSError as e:
        raise UsageError(f"cannot read config file: {e}") from None
    unknown = set(data) - set(_DEFAULTS)
    if unknown:
        raise UsageError(f"{path}: unknown config keys: {', '.join(sorted(unknown))}")
    return data


def _merged(args, key, cast=None):
    """CLI flag > config file > default."""
    value = getattr(args, key, None)
    if value is None:
        raw = getattr(args, "_config", {}).get(key)
        if raw is None:
            return _DEFAULTS[key]
        try:
            value = cast(raw, key) if cast else raw
        except ValueError:
            raise UsageError(f"{key}: cannot parse config value {raw!r}") from None
    return value


class Settings:
    """Validated, merged options for one invocation."""

    def __init__(self, args, need_method=False, need_distances=False):
        args._config = load_config(args.config) if getattr(args, "config", None) else {}
        self.units = _merged(args, "units")
        if self.units not in ("nats", "bits"):
            raise UsageError(f"units must be nats or bits, got {self.units!r}")
        self.scale = 1.0 if self.units == "nats" else 1.0 / LN2
        self.format = _merged(args, "format")
        if self.format not in ("csv", "json"):
            raise UsageError(f"format must be csv or json, got {self.format!r}")
        self.out = _merged(args, "out")

        self.n_radial = int(_merged(args, "n_radial", lambda v, k: int(v)))
        self.lebedev = int(_merged(args, "lebedev", lambda v, k: int(v)))
        self.stiffness = int(_merged(args, "stiffness", lambda v, k: int(v)))
        if getattr(args, "no_size_adjust", None):
            size_adjust = False
        else:
            raw = args._config.get("size_adjust")
            size_adjust = _DEFAULTS["size_adjust"] if raw is None \
                else _parse_bool(raw, "size_adjust")
        try:
            self.grid_spec = AtomicGridSpec(
                n_radial=self.n_radial, lebedev_order=self.lebedev,
                stiffness=self.stiffness, size_adjust=size_adjust)
        except ValueError as e:
            raise UsageError(str(e)) from None

        self.alphas = _merged(args, "alphas", _parse_floats)
        if isinstance(self.alphas, str):
            self.alphas = _parse_floats(self.alphas, "alphas")
        for a in self.alphas:
            if a <= 0:
                raise UsageError(f"alphas must be positive, got {a:g}")
            if abs(a - 1.0) <= 1e-9:
                raise UsageError(
                    "alpha = 1 is the Shannon case; it is always computed")

        self.method = None
        if need_method:
            self.method = _merged(args, "method")
            if self.method not in METHODS:
                raise UsageError(f"method must be one of {'/'.join(METHODS)}, "
                                 f"got {self.method!r}")
        self.distances = None
        if need_distances:
            d = _merged(args, "distances", _parse_floats)
            if isinstance(d, str):
                d = _parse_floats(d, "distances")
            if not d:
                raise UsageError("at least one distance is required")
            if any(r <= 0 for r in d):
                raise UsageError("distances must be strictly positive")
            if any(b <= a for a, b in zip(d, d[1:])):
                raise UsageError("distances must be strictly increasing")
            self.distances = tuple(d)

        self.jobs = int(_merged(args, "jobs", lambda v, k: int(v)))
        if self.jobs < 1:
            raise UsageError("jobs must be >= 1")
        self.emit_plot_script = bool(getattr(args, "emit_plot_script", None)
                                     or _parse_bool(args._config.get(
                                         "emit_plot_script", "false"),
                                         "emit_plot_script"))
        self.strict_limits = bool(getattr(args, "strict_limits", None)
                                  or _parse_bool(args._config.get(
                                      "strict_limits", "false"),
                                      "strict_limits"))
        self.raw_primitives = bool(getattr(args, "raw_primitives", None)
                                   or _parse_bool(args._config.get(
                                       "raw_primitives", "false"),
                                       "raw_primitives"))

    def grid_comment(self):
        return (f"grid: n_radial={self.grid_spec.n_radial} "
                f"lebedev={self.grid_spec.lebedev_order} "
                f"stiffness={self.grid_spec.stiffness} "
                f"size_adjust={self.grid_spec.size_adjust}")


def _entropy_columns(fa, scale):
    """Flatten one FieldAnalysis into ordered (column, value) pairs."""
    cols = {"N": fa.n_grid}
    for prefix, terms in (("S", fa.shannon.density), ("sigma_S", fa.shannon.shape)):
        cols[f"{prefix}_total"] = terms.total * scale
        cols[f"{prefix}_add"] = terms.add * scale
        cols[f"{prefix}_nadd"] = terms.nadd * scale
        for a, v in sorted(terms.net.items()):
            cols[f"{prefix}_net_{a}"] = v * scale
        for (a, b), v in sorted(terms.overlap.items()):
            cols[f"{prefix}_overlap_{a}_{b}"] = v * scale
    for alpha, dec in sorted(fa.renyi.items()):
        lab = f"renyi{alpha:g}"
        cols[f"{lab}_S_rho"] = dec.totals.density * scale
        cols[f"{lab}_S_sigma"] = dec.totals.shape * scale
        for a, p in sorted(dec.net_terms.p_atom.items()):
            cols[f"{lab}_p_atom_{a}"] = p
        cols[f"{lab}_S_net"] = dec.net_terms.net * scale
        cols[f"{lab}_S_nadd_intra"] = dec.net_terms.nadd_intra * scale
        if dec.pair_partition is not None:
            cols[f"{lab}_S_add2"] = dec.pair_partition.add * scale
            cols[f"{lab}_S_nadd2"] = dec.pair_partition.nadd * scale
            for tup, p in sorted(dec.pair_partition.p4.items()):
                cols["p4_" + ".".join(str(i) for i in tup)] = p
    return cols


def _terms_json(terms, scale):
    return {
        "total": terms.total * scale,
        "add": terms.add * scale,
        "nadd": terms.nadd * scale,
        "net": {str(a): v * scale for a, v in sorted(terms.net.items())},
        "overlap": {f"{a},{b}": v * scale
                    for (a, b), v in sorted(terms.overlap.items())},
    }


def _row_json(fa, scale, head):
    obj = dict(head)
    obj["N"] = fa.n_grid
    obj["shannon"] = {"density": _terms_json(fa.shannon.density, scale),
                      "shape": _terms_json(fa.shannon.shape, scale)}
    renyi = {}
    for alpha, dec in sorted(fa.renyi.items()):
        entry = {
            "S_rho": dec.totals.density * scale,
            "S_sigma": dec.totals.shape * scale,
            "moment": dec.totals.moment,
            "p_atom": {str(a): p
                       for a, p in sorted(dec.net_terms.p_atom.items())},
            "S_net": dec.net_terms.net * scale,
            "S_nadd_intra": dec.net_terms.nadd_intra * scale,
        }
        if dec.pair_partition is not None:
            entry["S_add2"] = dec.pair_partition.add * scale
            entry["S_nadd2"] = dec.pair_partition.nadd * scale
            entry["p4"] = {",".join(str(i) for i in tup): p
                           for tup, p in sorted(dec.pair_partition.p4.items())}
        renyi[f"{alpha:g}"] = entry
    if renyi:
        obj["renyi"] = renyi
    obj["identities"] = {k: v * scale
                         for k, v in fa.identity_residuals().items()}
    return obj


def _open_out(path):
    if path in (None, "-"):
        return sys.stdout, False
    return open(path, "w"), True


def _write_csv(stream, comments, rows):
    for line in comments:
        stream.write(f"# {line}\n")
    cols = list(rows[0].keys())
    stream.write(",".join(cols) + "\n")
    for row in rows:
        stream.write(",".join(_fnum(row[c]) for c in cols) + "\n")


def _emit(settings, comments, rows, json_doc):
    stream, close = _open_out(settings.out)
    try:
        if settings.format == "csv":
            _write_csv(stream, comments, rows)
        else:
            json.dump(json_doc, stream, indent=2)
            stream.write("\n")
    finally:
        if close:
            stream.close()


def _meta(settings, command, extra=None):
    meta = {
        "tool": f"entropart {__version__}",
        "command": command,
        "units": settings.units,
        "grid": {
            "n_radial": settings.grid_spec.n_radial,
            "lebedev": settings.grid_spec.lebedev_order,
            "stiffness": settings.grid_spec.stiffness,
            "size_adjust": settings.grid_spec.size_adjust,
        },
    }
    if extra:
        meta.update(extra)
    return meta


def _reference_block(settings):
    """Isolated-atom constants and H2 infinite-separation limits."""
    ref = hydrogen_reference(spec=settings.grid_spec, alphas=settings.alphas)
    s = settings.scale
    d_lim, sig_lim = ref.shannon_limits(2)
    block = {
        "atom": {"E": ref.energy, "S_rho": ref.shannon * s},
        "limits": {"S_rho": d_lim * s, "sigma_S": sig_lim * s,
                   "E": 2.0 * ref.energy},
    }
    for alpha in sorted(ref.renyi):
        totals = ref.renyi[alpha]
        lab = f"{alpha:g}"
        block["atom"][f"renyi{lab}_S_rho"] = totals.density * s
        block["atom"][f"renyi{lab}_moment"] = totals.moment
        rd, rs = ref.renyi_limits(alpha, 2)
        block["limits"][f"renyi{lab}_S_rho"] = rd * s
        block["limits"][f"renyi{lab}_S_sigma"] = rs * s
    return block


def _reference_comments(block):
    out = []
    for section in ("atom", "limits"):
        body = " ".join(f"{k}={_fnum(v)}" for k, v in block[section].items())
        out.append(f"reference {section}: {body}")
    return out


def _sweep_worker(task):
    method, R, spec, alphas = task
    try:
        return analyze_model(method, R, spec=spec, alphas=alphas)
    except ValueError as e:
        raise ValueError(f"at R={R:g}: {e}") from None


def _check_identities(rows_fa, labels):
    failures = []
    for fa, label in zip(rows_fa, labels):
        if not fa.identities_ok():
            bad = {k: v for k, v in fa.identity_residuals().items()
                   if abs(v) > (CLOSURE_TOLERANCE if "closure" in k
                                else SCALING_TOLERANCE)}
            failures.append(f"{label}: {bad}")
    return failures


def _plot_script(csv_path, rows, block, settings):
    cols = list(rows[0].keys())

    def idx(name):
        return cols.index(name) + 1

    terms = [("S_total", "total"), ("S_net_0", "net (atom 1)"),
             ("S_overlap_0_1", "overlap"), ("S_nadd", "nonadditive")]
    available = [(c, t) for c, t in terms if c in cols]
    unit = settings.units
    lines = [
        "# gnuplot script; run as: gnuplot <this file>",
        'set datafile separator ","',
        'set datafile commentschars "#"',
        "set terminal pngcairo size 900,1100",
        f'set output "{csv_path.rsplit(".", 1)[0]}.png"',
        "set multiplot layout 2,1",
        'set xlabel "R (bohr)"',
        f'set ylabel "entropy ({unit})"',
        "set key outside right",
        f"atom_limit = {_fnum(block['limits']['S_rho'])}",
        "plot " + ", \\\n     ".join(
            [f'"{csv_path}" using {idx("R")}:{idx(c)} with linespoints title "{t}"'
             for c, t in available]
            + ['atom_limit with lines dashtype 2 title "isolated-atom limit"']),
        f"shape_limit = {_fnum(block['limits']['sigma_S'])}",
        "plot " + ", \\\n     ".join(
            [f'"{csv_path}" using {idx("R")}:{idx("sigma_S_total")} '
             'with linespoints title "shape total"',
             'shape_limit with lines dashtype 2 title "shape limit"']),
        "unset multiplot",
    ]
    return "\n".join(lines) + "\n"


def cmd_sweep(args):
    settings = Settings(args, need_method=True, need_distances=True)
    if settings.emit_plot_script and (settings.format != "csv"
                                      or settings.out in (None, "-")):
        raise UsageError("--emit-plot-script requires --format csv and --out FILE")
    tasks = [(settings.method, R, settings.grid_spec, settings.alphas)
             for R in settings.distances]
    if settings.jobs > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=settings.jobs) as pool:
            results = list(pool.map(_sweep_worker, tasks))
    else:
        results = [_sweep_worker(t) for t in tasks]

    block = _reference_block(settings)
    rows = []
    for res in results:
        row = {"R": res.separation, "E_total": res.energy}
        row.update(_entropy_columns(res.analysis, settings.scale))
        rows.append(row)
    comments = [f"entropart {__version__} sweep",
                f"method = {settings.method}",
                f"units = {settings.units}",
                settings.grid_comment()] + _reference_comments(block)
    json_doc = {
        "meta": _meta(settings, "sweep", {"method": settings.method}),
        "reference": block,
        "rows": [_row_json(res.analysis, settings.scale,
                           {"R": res.separation, "E_total": res.energy})
                 for res in results],
    }
    _emit(settings, comments, rows, json_doc)

    if settings.emit_plot_script:
        script_path = settings.out.rsplit(".", 1)[0] + ".gp"
        with open(script_path, "w") as fh:
            fh.write(_plot_script(settings.out, rows, block, settings))
        print(f"plot script written to {script_path}", file=sys.stderr)

    failures = _check_identities(
        [r.analysis for r in results],
        [f"R={r.separation:g}" for r in results])
    if failures:
        for f in failures:
            print(f"identity violation: {f}", file=sys.stderr)
        return 3

    if settings.strict_limits:
        last = results[-1]
        s = settings.scale
        checks = [
            ("S_rho", last.analysis.shannon.density.total * s,
             block["limits"]["S_rho"]),
            ("sigma_S", last.analysis.shannon.shape.total * s,
             block["limits"]["sigma_S"]),
        ]
        for alpha in sorted(last.analysis.renyi):
            lab = f"renyi{alpha:g}"
            dec = last.analysis.renyi[alpha]
            checks.append((f"{lab}_S_rho", dec.totals.density * s,
                           block["limits"][f"{lab}_S_rho"]))
            checks.append((f"{lab}_S_sigma", dec.totals.shape * s,
                           block["limits"][f"{lab}_S_sigma"]))
        tol = LIMIT_TOLERANCE * s
        bad = [(name, value, limit) for name, value, limit in checks
               if not abs(value - limit) <= tol]
        if bad:
            for name, value, limit in bad:
                print(f"strict-limits failure at R={last.separation:g}: "
                      f"{name} = {value!r}, limit {limit!r}, "
                      f"|diff| > {tol:g}", file=sys.stderr)
            return 4
    return 0


def _load_wfn_field(path, settings):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}") from None
    try:
        doc = parse_wfn(text)
    except WfnParseError as e:
        # surface parser diagnostics as file:line
        raise RuntimeError(f"{path}:{e.line_number}: {e.record} record: "
                           f"{e.args[0].split(': ', 1)[-1]}") from None
    field = field_from_document(
        doc, normalized_primitives=not settings.raw_primitives)
    return doc, field


def cmd_analyze(args):
    settings = Settings(args)
    doc, field = _load_wfn_field(args.wfn, settings)
    grid = build_molecular_grid(field.molecule, settings.grid_spec)
    fa = analyze_field(field, grid, alphas=settings.alphas)
    head = {}
    if doc.total_energy is not None:
        head["E_total"] = doc.total_energy
    row = dict(head)
    row.update(_entropy_columns(fa, settings.scale))
    comments = [f"entropart {__version__} analyze",
                f"input = {args.wfn}",
                f"title = {doc.title}",
                f"units = {settings.units}",
                settings.grid_comment()]
    json_doc = {
        "meta": _meta(settings, "analyze",
                      {"input": args.wfn, "title": doc.title}),
        "rows": [_row_json(fa, settings.scale, head)],
    }
    _emit(settings, comments, [row], json_doc)
    failures = _check_identities([fa], [args.wfn])
    if failures:
        for f in failures:
            print(f"identity violation: {f}", file=sys.stderr)
        return 3
    return 0


def cmd_atom(args):
    settings = Settings(args)
    if getattr(args, "wfn", None):
        doc, field = _load_wfn_field(args.wfn, settings)
        if len(field.molecule) != 1:
            raise UsageError(
                f"atom subcommand needs a single-center file; "
                f"{args.wfn} has {len(field.molecule)} nuclei")
        grid = build_molecular_grid(field.molecule, settings.grid_spec)
        fa = analyze_field(field, grid, alphas=settings.alphas)
        one_electron = abs(fa.n_declared - 1.0) < 1e-12
        row = {"N": fa.n_grid,
               "S_rho": fa.shannon.density.total * settings.scale}
        # for one electron the shape function equals the density exactly
        row["sigma_S"] = row["S_rho"] if one_electron \
            else fa.shannon.shape.total * settings.scale
        for alpha, dec in sorted(fa.renyi.items()):
            lab = f"renyi{alpha:g}"
            row[f"{lab}_S_rho"] = dec.totals.density * settings.scale
            row[f"{lab}_S_sigma"] = row[f"{lab}_S_rho"] if one_electron \
                else dec.totals.shape * settings.scale
            row[f"{lab}_moment"] = dec.totals.moment
        if doc.total_energy is not None:
            row["E"] = doc.total_energy
        source = args.wfn
    else:
        ref = hydrogen_reference(spec=settings.grid_spec, alphas=settings.alphas)
        row = {"N": ref.n_grid, "S_rho": ref.shannon * settings.scale}
        row["sigma_S"] = row["S_rho"]
        for alpha in sorted(ref.renyi):
            lab = f"renyi{alpha:g}"
            row[f"{lab}_S_rho"] = ref.renyi[alpha].density * settings.scale
            row[f"{lab}_S_sigma"] = row[f"{lab}_S_rho"]
            row[f"{lab}_moment"] = ref.renyi[alpha].moment
        row["E"] = ref.energy
        source = "built-in H (six-Gaussian s contraction)"
    comments = [f"entropart {__version__} atom",
                f"source = {source}",
                f"units = {settings.units}",
                settings.grid_comment()]
    json_doc = {"meta": _meta(settings, "atom", {"source": source}),
                "rows": [row]}
    _emit(settings, comments, [row], json_doc)
    return 0


def cmd_grid_dump(args):
    settings = Settings(args)
    d = getattr(args, "distances", None)
    if d is None:
        d = args._config.get("distances")
    if d is None:
        molecule = Molecule([("H", (0.0, 0.0, 0.0))])
        what = "single H atom at the origin"
    else:
        dist = _parse_floats(d, "distances") if isinstance(d, str) else d
        if len(dist) != 1:
            raise UsageError("grid-dump takes exactly one distance")
        if dist[0] <= 0:
            raise UsageError("distances must be strictly positive")
        molecule = Molecule.h2(dist[0])
        what = f"H2 at R={dist[0]:g} bohr"
    grid = build_molecular_grid(molecule, settings.grid_spec)
    stream, close = _open_out(settings.out)
    try:
        stream.write(f"# entropart {__version__} grid-dump: {what}\n")
        stream.write(f"# {settings.grid_comment()}\n")
        stream.write("x,y,z,weight,owner_atom\n")
        for p, w, o in zip(grid.points, grid.weights, grid.owner_atom):
            stream.write(f"{_fnum(p[0])},{_fnum(p[1])},{_fnum(p[2])},"
                         f"{_fnum(w)},{int(o)}\n")
    finally:
        if close:
            stream.close()
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="entropart",
        description="Shannon and Renyi entropy decomposition of molecular "
                    "electron densities over an atom-pair partition.")
    parser.add_argument("--version", action="version",
                        version=f"entropart {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="flat key = value options file")
    common.add_argument("--n-radial", type=int, dest="n_radial",
                        help="radial points per atom (default 400)")
    common.add_argument("--lebedev", type=int,
                        help="angular nodes per shell (default 194)")
    common.add_argument("--stiffness", type=int,
                        help="cell-function smoothing iterations (default 3)")
    common.add_argument("--no-size-adjust", action="store_true", default=None,
                        help="disable radius-based cell boundary shifts")
    common.add_argument("--out", help="output path (default stdout)")

    measure = argparse.ArgumentParser(add_help=False)
    measure.add_argument("--alphas",
                         help="comma-separated Renyi orders, e.g. 0.5,2,3")
    measure.add_argument("--units", choices=["nats", "bits"],
                         help="entropy units (default nats)")
    measure.add_argument("--format", choices=["csv", "json"],
                         help="output format (default csv)")

    p = sub.add_parser("sweep", parents=[common, measure],
                       help="dissociation sweep of a built-in H2 model")
    p.add_argument("--method", choices=list(METHODS),
                   help="wavefunction model (default fci)")
    p.add_argument("--distances",
                   help="comma-separated internuclear distances in bohr, "
                        "strictly increasing")
    p.add_argument("--jobs", type=int,
                   help="parallel workers over distances (default 1)")
    p.add_argument("--emit-plot-script", action="store_true", default=None,
                   help="write a gnuplot script next to the CSV output")
    p.add_argument("--strict-limits", action="store_true", default=None,
                   help="assert the largest-R row against the "
                        "infinite-separation references")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze", parents=[common, measure],
                       help="analyze a .wfn wavefunction file")
    p.add_argument("wfn", help="path to the .wfn file")
    p.add_argument("--raw-primitives", action="store_true", default=None,
                   help="treat MO coefficients as multiplying unnormalized "
                        "primitives")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("atom", parents=[common, measure],
                       help="isolated-atom reference constants")
    p.add_argument("wfn", nargs="?",
                   help="optional single-center .wfn (default: built-in H)")
    p.add_argument("--raw-primitives", action="store_true", default=None,
                   help="treat MO coefficients as multiplying unnormalized "
                        "primitives")
    p.set_defaults(func=cmd_atom)

    p = sub.add_parser("grid-dump", parents=[common],
                       help="write quadrature points and weights as CSV")
    p.add_argument("--distances",
                   help="one internuclear distance for H2; omit for one atom")
    p.set_defaults(func=cmd_grid_dump)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
