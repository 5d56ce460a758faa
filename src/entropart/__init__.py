"""Information-theoretic analysis of molecular electron densities.

Shannon and Renyi entropies of densities and shape functions, decomposed
into atomic net, interatomic overlap, and nonadditive contributions
through a Mulliken-like atom-pair partition, on Becke-weighted
multicenter grids. Ships analytic H2 dissociation models and an
AIM .wfn ingestion path.
"""

from .analysis import (FieldAnalysis, ModelAnalysis, analyze_field,
                       analyze_model, hydrogen_reference, separation_limits)
from .backends import active_backend_name
from .density import (ClampDiagnostics, ContractedS, DensityMatrix,
                      PairDensityField, PrimitiveBasis, contracted_overlap,
                      primitive_norm)
from .models import (H2Model, METHODS, atom_field, build_model, fci_model,
                     hf_model, hl_model, hydrogen_atom_energy,
                     natural_orbitals, sto6g_hydrogen)
from .molecule import Atom, Molecule, bragg_radius
from .quadrature import (AtomicGridSpec, MolecularGrid, becke_weights,
                         build_molecular_grid, integrate, radial_grid)
from .lebedev import SUPPORTED_NODE_COUNTS, lebedev_grid
from .renyi import (Renyi2Partition, RenyiDecomposition, RenyiNetTerms,
                    RenyiTotals, renyi2_partition, renyi_net_nadd_intra,
                    renyi_total)
from .shannon import ShannonDecomposition, ShannonTerms, safe_log
from .wfnio import (WfnDocument, WfnParseError, build_document,
                    density_matrix_from_mos, field_from_document, parse_wfn,
                    write_wfn)

__version__ = "1.0.0"

__all__ = [
    "FieldAnalysis", "ModelAnalysis", "analyze_field", "analyze_model",
    "hydrogen_reference", "separation_limits", "active_backend_name",
    "ClampDiagnostics", "ContractedS", "DensityMatrix", "PairDensityField",
    "PrimitiveBasis", "contracted_overlap", "primitive_norm",
    "H2Model", "METHODS", "atom_field", "build_model", "fci_model",
    "hf_model", "hl_model", "hydrogen_atom_energy", "natural_orbitals",
    "sto6g_hydrogen", "Atom", "Molecule", "bragg_radius",
    "AtomicGridSpec", "MolecularGrid", "becke_weights",
    "build_molecular_grid", "integrate", "radial_grid",
    "SUPPORTED_NODE_COUNTS", "lebedev_grid",
    "Renyi2Partition", "RenyiDecomposition", "RenyiNetTerms", "RenyiTotals",
    "renyi2_partition", "renyi_net_nadd_intra", "renyi_total",
    "ShannonDecomposition", "ShannonTerms", "safe_log",
    "WfnDocument", "WfnParseError", "build_document",
    "density_matrix_from_mos", "field_from_document", "parse_wfn",
    "write_wfn", "__version__",
]
