"""Command-line interface.

Subcommands: sweep (dissociation curves of the built-in H2 models),
analyze (one .wfn file), atom (isolated-atom reference constants), and
grid-dump (quadrature points and weights). Output is CSV or JSON with
bit-identical numeric values between the two formats.

Exit codes: 0 success, 1 runtime failure (bad file, inadequate grid, out
of memory), 2 usage or config error, 3 per-row identity violation,
4 asymptotic check failure under --strict-limits.
"""

import argparse
import contextlib
import functools
import json
import math
import os
import sys

from . import __version__, parallel
from .analysis import (LIMIT_TOLERANCE, analyze_field, analyze_model,
                       hydrogen_reference, separation_limits)
from .models import METHODS, atom_field, hydrogen_atom_energy
from .molecule import MAX_COORDINATE, Molecule
from .quadrature import (MAX_GRID_POINTS, MAX_STIFFNESS, AtomicGridSpec,
                         build_molecular_grid, direction_orbits,
                         grid_estimate, symmetry_operations)
from .reductions import gram_partials_bytes
from .renyi import ALPHA_ONE_GUARD
from .wfnio import WfnParseError, field_from_document, parse_wfn

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
    "jobs": parallel.usable_cpus(),
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


def _check_distances(distances):
    if not all(0 < r <= MAX_COORDINATE for r in distances):
        raise UsageError(f"distances must be in (0, {MAX_COORDINATE:g}] bohr")


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


# a string from the flag or the config file is cast to the default's type
_CASTS = {bool: _parse_bool, int: lambda text, name: int(text),
          tuple: _parse_floats}


def _merged(args, key):
    """CLI flag > config file > default."""
    value = getattr(args, key, None)
    if value is None:
        value = args._config.get(key, _DEFAULTS[key])
    cast = _CASTS.get(type(_DEFAULTS[key]))
    if cast is None or not isinstance(value, str):
        return value
    try:
        return cast(value, key)
    except ValueError:
        raise UsageError(f"{key}: cannot parse config value {value!r}") from None


class Settings:
    """Validated, merged options for one invocation."""

    def __init__(self, args, sweep=False):
        args._config = load_config(args.config) if getattr(args, "config", None) else {}
        self.units = _merged(args, "units")
        if self.units not in ("nats", "bits"):
            raise UsageError(f"units must be nats or bits, got {self.units!r}")
        self.scale = 1.0 if self.units == "nats" else 1.0 / math.log(2.0)
        self.format = _merged(args, "format")
        if self.format not in ("csv", "json"):
            raise UsageError(f"format must be csv or json, got {self.format!r}")
        self.out = _merged(args, "out")

        # the CSV grid comment and JSON meta.grid
        self.grid = g = {key: _merged(args, key) for key in
                         ("n_radial", "lebedev", "stiffness", "size_adjust")}
        try:
            self.grid_spec = AtomicGridSpec(
                n_radial=g["n_radial"], lebedev_order=g["lebedev"],
                stiffness=g["stiffness"], size_adjust=g["size_adjust"])
        except ValueError as e:
            raise UsageError(str(e)) from None

        self.alphas = _merged(args, "alphas")
        for a in self.alphas:
            if a <= 0:
                raise UsageError(f"alphas must be positive, got {a:g}")
            if abs(a - 1.0) <= ALPHA_ONE_GUARD:
                raise UsageError(
                    "alpha = 1 is the Shannon case; it is always computed")

        self.method = self.distances = None
        if sweep:
            self.method = _merged(args, "method")
            if self.method not in METHODS:
                raise UsageError(f"method must be one of {'/'.join(METHODS)}, "
                                 f"got {self.method!r}")
            self.distances = d = _merged(args, "distances")
            if not d:
                raise UsageError("at least one distance is required")
            _check_distances(d)
            if any(b <= a for a, b in zip(d, d[1:])):
                raise UsageError("distances must be strictly increasing")

        self.jobs = _merged(args, "jobs")
        if self.jobs < 1:
            raise UsageError("jobs must be >= 1")
        self.emit_plot_script = _merged(args, "emit_plot_script")
        self.strict_limits = _merged(args, "strict_limits")
        self.raw_primitives = _merged(args, "raw_primitives")

    def grid_comment(self):
        return "grid: " + " ".join(f"{k}={v}" for k, v in self.grid.items())

    def require_grid_fits(self, molecule, alphas=(), operations=None):
        """Refuse, before anything is allocated, a grid on the molecule's
        nuclei larger than memory or than the int32 ``index`` of its
        expanded kept points addresses (``MAX_GRID_POINTS``, counted
        before screening). An analysis walks the grid at one point per
        orbit of ``operations`` (operations that fix every nucleus, as
        ``PairDensityField.symmetry`` gives them) in each radial shell:
        it needs the grid's 8 bytes per (shell, orbit of the nuclei's
        ``symmetry_operations``) and, when it takes order 2 among alphas,
        the Gram partials that grow with the points it evaluates. Without
        operations the grid is not walked but its kept points are
        expanded, 12 bytes per product-grid point."""
        spec = self.grid_spec
        points, nbytes = grid_estimate(len(molecule), spec)
        what = f"a grid of {points} points"
        if operations is not None:
            order, shells = spec.lebedev_order, len(molecule) * spec.n_radial
            nuclear = symmetry_operations(molecule.positions)
            # a float64 per (shell, orbit), MolecularGrid.cells
            nbytes = 8 * shells * len(direction_orbits(order, nuclear)[0])
            if 2.0 in alphas:
                evaluated = shells * len(direction_orbits(order, operations)[0])
                nbytes += gram_partials_bytes(len(molecule), evaluated)
                what += " with its order-2 Gram partials"
        try:
            memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        except (AttributeError, OSError, ValueError):
            memory = None  # the platform does not say
        if memory is not None and nbytes > memory:
            raise UsageError(
                f"{what} needs at least {nbytes / 2**30:.1f} GiB, more than "
                f"the {memory / 2**30:.1f} GiB of physical memory")
        if points > MAX_GRID_POINTS:
            raise UsageError(f"a grid of {points} points exceeds the "
                             f"{MAX_GRID_POINTS} that 32-bit point indices "
                             "address")


def _leaf(column, path, key, value):
    """A value named key both after the CSV column prefix and under the JSON path."""
    return f"{column}_{key}", path + (key,), value


def _flat_leaves(row):
    """Leaves of a flat row, whose CSV columns are its JSON keys."""
    return [(key, (key,), value) for key, value in row.items()]


def _analysis_leaves(fa, scale):
    """Every number of one analysed row, once: (CSV column, JSON path, value).

    The column is None for the JSON-only leaves, the Renyi moments and the
    identity residuals.
    """
    yield "N", ("N",), fa.n_grid
    for part, prefix in (("density", "S"), ("shape", "sigma_S")):
        terms = getattr(fa.shannon, part)
        path = ("shannon", part)
        for key in ("total", "add", "nadd"):
            yield _leaf(prefix, path, key, getattr(terms, key) * scale)
        for a, v in sorted(terms.net.items()):
            yield _leaf(f"{prefix}_net", path + ("net",), str(a), v * scale)
        # JSON keeps the group for one centre, where it is empty
        yield None, path + ("overlap",), {}
        for (a, b), v in sorted(terms.overlap.items()):
            yield (f"{prefix}_overlap_{a}_{b}", path + ("overlap", f"{a},{b}"),
                   v * scale)
    for alpha, dec in sorted(fa.renyi.items()):
        lab = f"{alpha:g}"
        column, path = f"renyi{lab}", ("renyi", lab)
        yield _leaf(column, path, "S_rho", dec.totals.density * scale)
        yield _leaf(column, path, "S_sigma", dec.totals.shape * scale)
        yield None, path + ("moment",), dec.totals.moment
        for a, p in sorted(dec.net_terms.p_atom.items()):
            yield _leaf(f"{column}_p_atom", path + ("p_atom",), str(a), p)
        yield _leaf(column, path, "S_net", dec.net_terms.net * scale)
        yield _leaf(column, path, "S_nadd_intra",
                    dec.net_terms.nadd_intra * scale)
        pp = dec.pair_partition
        if pp is not None:
            yield _leaf(column, path, "S_add2", pp.add * scale)
            yield _leaf(column, path, "S_nadd2", pp.nadd * scale)
            for tup, p in sorted(pp.p4.items()):
                yield ("p4_" + ".".join(map(str, tup)),
                       path + ("p4", ",".join(map(str, tup))), p)
    for name, v in fa.identity_residuals().items():
        # p4 sums are probabilities, which carry no unit
        yield (None, ("identities", name),
               v if name.endswith("_p4_sum") else v * scale)


def _columns(leaves):
    """The CSV part of a row: column -> value, in column order."""
    return {column: value for column, _, value in leaves if column is not None}


def _nest(leaves):
    """The JSON part of a row: the leaves nested along their paths."""
    doc = {}
    for _, path, value in leaves:
        node = doc
        for key in path[:-1]:
            node = node.setdefault(key, {})
        node[path[-1]] = value
    return doc


@contextlib.contextmanager
def _output(path):
    """The stream to write to: stdout for "-", or the file, refused as a
    usage error when it cannot be written."""
    if path == "-":
        yield sys.stdout
        return
    try:
        with open(path, "w") as fh:
            yield fh
    except OSError as e:
        raise UsageError(f"cannot write {path}: {e}") from None


def _write_csv(stream, comments, columns, rows):
    for line in comments:
        stream.write(f"# {line}\n")
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(_fnum(row[c]) for c in columns) + "\n")


def _emit(settings, command, rows, extra, reference=None):
    """Write rows of leaves as CSV or JSON.

    Both formats carry the same provenance: the command, the extra
    key/value pairs, the units, the grid and the reference block, as
    comment lines above the CSV header or as JSON meta and reference.
    """
    with _output(settings.out) as stream:
        if settings.format == "csv":
            comments = [f"entropart {__version__} {command}",
                        *(f"{k} = {v}" for k, v in extra.items()),
                        f"units = {settings.units}", settings.grid_comment()]
            for section, values in (reference or {}).items():
                body = " ".join(f"{k}={_fnum(v)}" for k, v in values.items())
                comments.append(f"reference {section}: {body}")
            tables = [_columns(leaves) for leaves in rows]
            _write_csv(stream, comments, list(tables[0]), tables)
        else:
            doc = {"meta": {"tool": f"entropart {__version__}",
                            "command": command, "units": settings.units,
                            "grid": settings.grid, **extra}}
            if reference:
                doc["reference"] = reference
            doc["rows"] = [_nest(leaves) for leaves in rows]
            json.dump(doc, stream, indent=2)
            stream.write("\n")


def _reference_block(settings, atom):
    """Isolated-atom constants of atom (the hydrogen atom's
    ``FieldAnalysis``) and the H2 infinite-separation limits."""
    s = settings.scale
    energy = hydrogen_atom_energy()
    (d_lim, sig_lim), renyi = separation_limits([atom, atom])
    block = {
        "atom": {"E": energy, "S_rho": atom.shannon.density.total * s},
        "limits": {"S_rho": d_lim * s, "sigma_S": sig_lim * s,
                   "E": 2.0 * energy},
    }
    for alpha in sorted(atom.renyi):
        totals, limit = atom.renyi[alpha].totals, renyi[alpha]
        lab = f"{alpha:g}"
        block["atom"][f"renyi{lab}_S_rho"] = totals.density * s
        block["atom"][f"renyi{lab}_moment"] = totals.moment
        block["limits"][f"renyi{lab}_S_rho"] = limit.density * s
        block["limits"][f"renyi{lab}_S_sigma"] = limit.shape * s
    return block


def _sweep_task(settings, i):
    """Task i of a sweep: the row at the i-th distance, or after the last
    the reference atom. Its walk is serial: the sweep maps its tasks
    over the workers instead."""
    if i == len(settings.distances):
        return hydrogen_reference(spec=settings.grid_spec,
                                  alphas=settings.alphas, jobs=1)
    R = settings.distances[i]
    try:
        return analyze_model(settings.method, R, spec=settings.grid_spec,
                             alphas=settings.alphas, jobs=1)
    except ValueError as e:
        raise ValueError(f"at R={R:g}: {e}") from None


def _identity_exit(labelled):
    """Exit code 3, with one stderr line per row that fails an identity, or 0."""
    code = 0
    for label, fa in labelled:
        bad = fa.identity_violations()
        if bad:
            print(f"identity violation: {label}: {bad}", file=sys.stderr)
            code = 3
    return code


def _plot_script(csv_path, cols, block, units):

    def idx(name):
        return cols.index(name) + 1

    terms = [("S_total", "total"), ("S_net_0", "net (atom 1)"),
             ("S_overlap_0_1", "overlap"), ("S_nadd", "nonadditive")]
    lines = [
        "# gnuplot script; run as: gnuplot <this file>",
        'set datafile separator ","',
        'set datafile commentschars "#"',
        "set terminal pngcairo size 900,1100",
        f'set output "{os.path.splitext(csv_path)[0]}.png"',
        "set multiplot layout 2,1",
        'set xlabel "R (bohr)"',
        f'set ylabel "entropy ({units})"',
        "set key outside right",
        f"atom_limit = {_fnum(block['limits']['S_rho'])}",
        "plot " + ", \\\n     ".join(
            [f'"{csv_path}" using {idx("R")}:{idx(c)} with linespoints title "{t}"'
             for c, t in terms]
            + ['atom_limit with lines dashtype 2 title "isolated-atom limit"']),
        f"shape_limit = {_fnum(block['limits']['sigma_S'])}",
        "plot " + ", \\\n     ".join(
            [f'"{csv_path}" using {idx("R")}:{idx("sigma_S_total")} '
             'with linespoints title "shape total"',
             'shape_limit with lines dashtype 2 title "shape limit"']),
        "unset multiplot",
    ]
    return "\n".join(lines) + "\n"


# CSV columns of the entropy limits whose names differ; the energy limit
# "E" names no column and is not checked
_LIMIT_COLUMNS = {"S_rho": "S_total", "sigma_S": "sigma_S_total"}


def cmd_sweep(args):
    settings = Settings(args, sweep=True)
    if settings.emit_plot_script and (settings.format != "csv"
                                      or settings.out == "-"):
        raise UsageError("--emit-plot-script requires --format csv and --out FILE")
    stem = os.path.splitext(settings.out)[0]
    if settings.emit_plot_script and settings.out in (stem + ".gp",
                                                      stem + ".png"):
        raise UsageError(f"--emit-plot-script writes {stem}.gp and its plot "
                         f"{stem}.png, so --out cannot be either of them")
    h2 = Molecule.h2(settings.distances[0])
    # the models' s primitives keep every operation that fixes the nuclei
    settings.require_grid_fits(h2, settings.alphas,
                               symmetry_operations(h2.positions))
    *results, atom = parallel.map(functools.partial(_sweep_task, settings),
                                  len(settings.distances) + 1, settings.jobs)

    block = _reference_block(settings, atom)
    rows = [[*_flat_leaves({"R": res.separation, "E_total": res.energy}),
             *_analysis_leaves(res.analysis, settings.scale)]
            for res in results]
    _emit(settings, "sweep", rows, {"method": settings.method}, block)

    if settings.emit_plot_script:
        script_path = stem + ".gp"
        with _output(script_path) as fh:
            fh.write(_plot_script(settings.out, list(_columns(rows[0])),
                                  block, settings.units))
        print(f"plot script written to {script_path}", file=sys.stderr)

    code = _identity_exit((f"R={r.separation:g}", r.analysis) for r in results)
    if code or not settings.strict_limits:
        return code
    last = _columns(rows[-1])
    tol = LIMIT_TOLERANCE * settings.scale
    for name, limit in block["limits"].items():
        value = last.get(_LIMIT_COLUMNS.get(name, name))
        if value is not None and not abs(value - limit) <= tol:
            print(f"strict-limits failure at R={results[-1].separation:g}: "
                  f"{name} = {value!r}, limit {limit!r}, "
                  f"|diff| > {tol:g}", file=sys.stderr)
            code = 4
    return code


def _analyze_wfn(path, settings, single_center=False):
    """Read, check and analyse one .wfn file: (document, FieldAnalysis)."""
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
    if single_center and len(field.molecule) != 1:
        raise UsageError(
            f"atom subcommand needs a single-center file; "
            f"{path} has {len(field.molecule)} nuclei")
    return doc, _analyze(field, settings)


def _analyze(field, settings):
    """The FieldAnalysis of field on the settings' grid, once the grid is
    known to fit."""
    settings.require_grid_fits(field.molecule, settings.alphas,
                               field.symmetry()[0])
    grid = build_molecular_grid(field.molecule, settings.grid_spec)
    return analyze_field(field, grid, alphas=settings.alphas,
                         jobs=settings.jobs)


def cmd_analyze(args):
    settings = Settings(args)
    doc, fa = _analyze_wfn(args.wfn, settings)
    head = {} if doc.total_energy is None else {"E_total": doc.total_energy}
    row = [*_flat_leaves(head), *_analysis_leaves(fa, settings.scale)]
    _emit(settings, "analyze", [row], {"input": args.wfn, "title": doc.title})
    return _identity_exit([(args.wfn, fa)])


def cmd_atom(args):
    settings = Settings(args)
    if args.wfn:
        doc, fa = _analyze_wfn(args.wfn, settings, single_center=True)
        energy, source = doc.total_energy, args.wfn
    else:
        fa = _analyze(atom_field(), settings)
        energy = hydrogen_atom_energy()
        source = "built-in H (six-Gaussian s contraction)"
    # for one electron the shape function equals the density exactly
    one_electron = abs(fa.n_declared - 1.0) < 1e-12
    row = {"N": fa.n_grid, "S_rho": fa.shannon.density.total * settings.scale}
    row["sigma_S"] = row["S_rho"] if one_electron \
        else fa.shannon.shape.total * settings.scale
    for alpha, dec in sorted(fa.renyi.items()):
        totals, lab = dec.totals, f"renyi{alpha:g}"
        row[f"{lab}_S_rho"] = totals.density * settings.scale
        row[f"{lab}_S_sigma"] = row[f"{lab}_S_rho"] if one_electron \
            else totals.shape * settings.scale
        row[f"{lab}_moment"] = totals.moment
    if energy is not None:
        row["E"] = energy
    _emit(settings, "atom", [_flat_leaves(row)], {"source": source})
    return 0


def cmd_grid_dump(args):
    settings = Settings(args)
    if getattr(args, "distances", None) is None \
            and "distances" not in args._config:
        molecule = Molecule([("H", (0.0, 0.0, 0.0))])
        what = "single H atom at the origin"
    else:
        dist = _merged(args, "distances")
        if len(dist) != 1:
            raise UsageError("grid-dump takes exactly one distance")
        _check_distances(dist)
        molecule = Molecule.h2(dist[0])
        what = f"H2 at R={dist[0]:g} bohr"
    settings.require_grid_fits(molecule)
    grid = build_molecular_grid(molecule, settings.grid_spec)
    with _output(settings.out) as stream:
        stream.write(f"# entropart {__version__} grid-dump: {what}\n")
        stream.write(f"# {settings.grid_comment()}\n")
        stream.write("x,y,z,weight,owner_atom\n")
        weights, owners = grid.weights, grid.owner_atom
        for start, pts in grid.chunks():
            stop = start + len(pts)
            for p, w, o in zip(pts, weights[start:stop], owners[start:stop]):
                stream.write(f"{_fnum(p[0])},{_fnum(p[1])},{_fnum(p[2])},"
                             f"{_fnum(w)},{int(o)}\n")
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
                        help="cell-function smoothing iterations, 1 to "
                             f"{MAX_STIFFNESS} (default 3)")
    common.add_argument("--no-size-adjust", action="store_false", default=None,
                        dest="size_adjust",
                        help="disable radius-based cell boundary shifts")
    common.add_argument("--out", help="output path (default stdout)")

    measure = argparse.ArgumentParser(add_help=False)
    measure.add_argument("--alphas",
                         help="comma-separated Renyi orders, e.g. 0.5,2,3")
    measure.add_argument("--units", choices=["nats", "bits"],
                         help="entropy units (default nats)")
    measure.add_argument("--format", choices=["csv", "json"],
                         help="output format (default csv)")
    measure.add_argument("--jobs", type=int,
                         help="worker processes (default: every usable "
                              "CPU; 1 runs serially)")

    wfn_input = argparse.ArgumentParser(add_help=False)
    wfn_input.add_argument("--raw-primitives", action="store_true", default=None,
                           help="treat MO coefficients as multiplying "
                                "unnormalized primitives")

    p = sub.add_parser("sweep", parents=[common, measure],
                       help="dissociation sweep of a built-in H2 model")
    p.add_argument("--method", choices=list(METHODS),
                   help="wavefunction model (default fci)")
    p.add_argument("--distances",
                   help="comma-separated internuclear distances in bohr, "
                        "strictly increasing")
    p.add_argument("--emit-plot-script", action="store_true", default=None,
                   help="write a gnuplot script next to the CSV output")
    p.add_argument("--strict-limits", action="store_true", default=None,
                   help="assert the largest-R row against the "
                        "infinite-separation references")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("analyze", parents=[common, measure, wfn_input],
                       help="analyze a .wfn wavefunction file")
    p.add_argument("wfn", help="path to the .wfn file")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("atom", parents=[common, measure, wfn_input],
                       help="isolated-atom reference constants")
    p.add_argument("wfn", nargs="?",
                   help="optional single-center .wfn (default: built-in H)")
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
    except (UsageError, RuntimeError, ValueError, MemoryError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 2 if isinstance(e, UsageError) else 1


if __name__ == "__main__":
    sys.exit(main())
