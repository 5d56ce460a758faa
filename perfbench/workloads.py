"""Seeded inputs, operations and correctness records for each workload.

The package receives only what ``generate`` produces: an argv list for the
CLI workload and ``.wfn`` text for the file workloads. Neither entropart nor
NumPy is imported at module level, because the worker starts its set-up
clock before ``import entropart``.
"""
import hashlib
import json
import math
import os

SWEEP_ALPHAS = "0.5,2"
DENSE_SPEC = (1000, 434)
DEFAULT_SPEC = (400, 194)
# coarsest grid tried that still integrates every smoke input to 2e-5
SMOKE_SPEC = (120, 110)

WORKLOADS = ("sweep", "wfn_dense", "chain_h8")


def _h8_chain_wfn(spacing):
    """Linear H8 with the 4 lowest S-orthonormal Hueckel-type MOs doubly
    occupied, over STO-6G contractions expanded to primitives.

    The density matrix is dense: every atom pair carries a non-zero
    off-diagonal block, as in a real bonded molecule.
    """
    import numpy as np
    from entropart import (PrimitiveBasis, build_document, contracted_overlap,
                           sto6g_hydrogen, write_wfn)
    from entropart.molecule import Molecule

    n = 8
    phi = sto6g_hydrogen()
    mol = Molecule([("H", (0.0, 0.0, i * spacing)) for i in range(n)])
    S = np.array([[contracted_overlap(phi, phi, abs(i - j) * spacing)
                   for j in range(n)] for i in range(n)])
    # Wolfsberg-Helmholz off-diagonal elements over the H 1s energy
    h_aa = -0.5
    H = 1.75 * h_aa * S
    np.fill_diagonal(H, h_aa)
    w, V = np.linalg.eigh(S)
    X = V @ np.diag(w ** -0.5) @ V.T
    energies, C = np.linalg.eigh(X @ H @ X)
    C = X @ C
    nprim = len(phi.exponents)
    basis = PrimitiveBasis(mol, center_index=np.repeat(np.arange(n), nprim),
                           type_codes=np.ones(n * nprim, dtype=int),
                           exponents=np.tile(phi.exponents, n))
    mos = [(2.0, energies[k], np.kron(C[:, k], phi.coefficients))
           for k in range(n // 2)]
    return write_wfn(build_document(mol, basis, mos,
                                    title=f"H8 chain spacing={spacing!r}"))


def _h2_wfn(method, separation):
    from entropart import build_document, build_model, natural_orbitals, write_wfn

    model = build_model(method, separation)
    doc = build_document(model.molecule(), model.field().basis,
                         natural_orbitals(model),
                         title=f"H2 {method} R={separation!r}",
                         total_energy=model.energy, virial=2.0)
    return write_wfn(doc)


def _grid_points(molecule, spec):
    from entropart import AtomicGridSpec, build_molecular_grid

    return len(build_molecular_grid(molecule, AtomicGridSpec(*spec)))


def generate(workload, seed, smoke=False):
    """Inputs for one run, plus the grid points one operation analyses."""
    import numpy as np
    from entropart import parse_wfn
    from entropart.wfnio import molecule_from_document
    from entropart.molecule import Molecule

    rng = np.random.default_rng([seed, sorted(WORKLOADS).index(workload)])
    if workload == "sweep":
        spec = SMOKE_SPEC if smoke else DEFAULT_SPEC
        while True:
            # log-uniform, like the CLI's default distance set
            d = np.round(np.exp(rng.uniform(0.0, math.log(50.0), 8)), 4)
            d = np.unique(d)
            if len(d) == 8:
                break
        distances = [float(x) for x in d]
        argv = ["sweep", "--method", "fci",
                "--distances", ",".join(repr(x) for x in distances),
                "--alphas", SWEEP_ALPHAS, "--format", "json",
                "--n-radial", str(spec[0]), "--lebedev", str(spec[1])]
        npts = sum(_grid_points(Molecule.h2(R), spec) for R in distances)
        npts += _grid_points(Molecule([("H", (0.0, 0.0, 0.0))]), spec)
        return {"workload": workload, "kind": "cli", "argv": argv,
                "npts": npts, "params": {"distances": distances,
                                         "spec": list(spec)}}
    if workload == "wfn_dense":
        method = ("hf", "hl", "fci")[int(rng.integers(3))]
        separation = float(np.round(rng.uniform(1.0, 3.0), 4))
        text = _h2_wfn(method, separation)
        spec = SMOKE_SPEC if smoke else DENSE_SPEC
        alphas = [0.5, 2.0, 3.0]
        params = {"method": method, "R": separation, "spec": list(spec)}
    elif workload == "chain_h8":
        spacing = float(np.round(rng.uniform(1.6, 2.2), 4))
        text = _h8_chain_wfn(spacing)
        spec = SMOKE_SPEC if smoke else DEFAULT_SPEC
        alphas = [0.5, 2.0]
        params = {"spacing": spacing, "spec": list(spec)}
    else:
        raise ValueError(f"unknown workload {workload!r}")
    npts = _grid_points(molecule_from_document(parse_wfn(text)), spec)
    return {"workload": workload, "kind": "wfn", "text": text,
            "spec": list(spec), "alphas": alphas, "npts": npts,
            "params": params}


def _p4_sum(p4_values):
    return math.fsum(p4_values) if p4_values else None


def _sweep_fingerprint(doc):
    fp = {"ref.atom.S_rho": doc["reference"]["atom"]["S_rho"]}
    for i, row in enumerate(doc["rows"]):
        head = f"row{i}"
        fp[f"{head}.R"] = row["R"]
        fp[f"{head}.E_total"] = row["E_total"]
        fp[f"{head}.N"] = row["N"]
        fp[f"{head}.S_total"] = row["shannon"]["density"]["total"]
        fp[f"{head}.sigma_S_total"] = row["shannon"]["shape"]["total"]
        for label, entry in row.get("renyi", {}).items():
            fp[f"{head}.renyi{label}.S_rho"] = entry["S_rho"]
            fp[f"{head}.renyi{label}.S_sigma"] = entry["S_sigma"]
            if "p4" in entry:
                fp[f"{head}.renyi{label}.p4_sum"] = _p4_sum(entry["p4"].values())
    return fp


def _field_fingerprint(doc, fa):
    fp = {"N": fa.n_grid,
          "S_total": fa.shannon.density.total,
          "S_add": fa.shannon.density.add,
          "S_nadd": fa.shannon.density.nadd,
          "sigma_S_total": fa.shannon.shape.total}
    if doc.total_energy is not None:
        fp["E_total"] = doc.total_energy
    for alpha, dec in sorted(fa.renyi.items()):
        label = f"renyi{alpha:g}"
        fp[f"{label}.S_rho"] = dec.totals.density
        fp[f"{label}.S_sigma"] = dec.totals.shape
        if dec.pair_partition is not None:
            fp[f"{label}.p4_sum"] = _p4_sum(dec.pair_partition.p4.values())
    return fp


class Operation:
    """One workload operation bound to its inputs.

    ``run`` is the timed call into the package; ``record`` turns its
    result into a JSON-safe correctness record outside the timed region.
    """

    def __init__(self, inputs, workdir):
        from entropart import AtomicGridSpec, analysis, cli, quadrature, wfnio

        self.inputs = inputs
        self.workdir = workdir
        self._count = 0
        self._cli = cli
        self._wfnio = wfnio
        self._quadrature = quadrature
        self._analysis = analysis
        if inputs["kind"] == "wfn":
            self._spec = AtomicGridSpec(*inputs["spec"])
            self._alphas = tuple(inputs["alphas"])

    def run(self):
        """Module attributes are looked up on every call, so wrappers the
        tracer installs are seen."""
        self._count += 1
        if self.inputs["kind"] == "cli":
            out = os.path.join(self.workdir, f"out-{os.getpid()}-{self._count}.json")
            return self._cli.main(self.inputs["argv"] + ["--out", out]), out
        doc = self._wfnio.parse_wfn(self.inputs["text"])
        field = self._wfnio.field_from_document(doc)
        grid = self._quadrature.build_molecular_grid(field.molecule, self._spec)
        return doc, self._analysis.analyze_field(field, grid, alphas=self._alphas)

    def record(self, result):
        if self.inputs["kind"] == "cli":
            rc, out = result
            try:
                with open(out, "rb") as fh:
                    data = fh.read()
            except OSError:
                data = b""
            finally:
                if os.path.exists(out):
                    os.remove(out)
            if rc != 0:
                return {"error": f"exit code {rc}"}
            return {"ok": True, "bytes": hashlib.sha256(data).hexdigest(),
                    "fingerprint": _sweep_fingerprint(json.loads(data))}
        doc, fa = result
        return {"ok": bool(fa.identities_ok()),
                "fingerprint": _field_fingerprint(doc, fa)}
