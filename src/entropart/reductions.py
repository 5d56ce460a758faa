"""Every grid integral of an analysis, reduced chunk by chunk.

A decomposition needs over the quadrature grid: int rho and
int rho ln rho; for every unique pair term x = rho^AB the triple
int x ln|x|, int x ln|x / rho| and int x; for every order alpha
int rho**alpha and, per atom, int (rho^AA)**alpha; and at alpha = 2 the
Gram matrix int x_i x_j of the pair terms (kept as its upper triangle).
``GridSums`` serves ``analysis.analyze_field`` alone and takes all of
them, with no flags: the orders it is given fix the moments, and order 2
among them the Gram matrix. ``GridSums.chunk`` reduces the values at one
chunk of the grid to each integrand's chunk partial, its dot product
with the weights, and ``GridSums.take`` keeps them; each integral is the
exactly rounded sum (``math.fsum``) of its partials. The chunks are the
fixed integration chunks of ``quadrature.integrate``, so results do not
depend on how the values were evaluated, and repeated runs agree bit for
bit. ``chunk`` keeps nothing, so any worker may reduce a chunk; the
caller takes the chunks in grid order, so every check sees them as a
serial walk does. The array functions of ``shannon`` and ``renyi`` are
the direct reference: they take each integral with ``integrate`` over
whole arrays and share only the sign rules of ``_power`` and their
refusal message, and the tests hold the walk to them.

A non-finite density ends a walk at its chunk, as it ends ``integrate``;
the caller raises it before the chunk is reduced, so ``chunk`` is given
a finite density only. Two more checks run on every chunk but are raised
only by ``check``, after the walk, so that the caller can first check
normalization: a non-finite integrand (reported with its global point
index) and, at fractional orders, a density or atomic net density below
the clamp threshold.

``analysis.analyze_field`` makes one ``backends.Workspace`` for the
call; each worker of the walk fills its own copy, and this process's is
dropped when the call returns. Every array of a chunk is taken from it:
the arrays are allocated at the first chunk and reused, so a chunk's
values hold only until the next chunk. Beside the coordinates of the
whole shells a chunk spans (``MolecularGrid.chunk``, about 3 floats per
point of those shells), for nat atoms, nprim primitives, K orbitals, m_A
primitives on atom A and P = nat(nat+1)/2 pair terms it holds, in rows of
``_CHUNK`` = 4096 floats:

- ``eval_primitives``: r^2 and a scratch array per centre, plus dx, dy or
  dz for each axis on which a primitive has a power, (2 + axes) nat rows;
  the primitive values G, nprim rows; and, for primitives with powers,
  two arrays as tall as the most primitives with a power on one axis;
- ``PairDensityField.pair_block``: each atom's value rows,
  sum_A min(K, m_A); one projected atom's primitive rows, max_A m_A; the
  product M_AB V_B of ``quad_form_block``, max_A min(K, m_A); the pair
  terms, P; rho and 2x, 2;
- ``GridSums.chunk``: one stack of P rows that holds each pair integrand in
  turn, in the buffer of G, which grows to max(nprim, P) rows; one row for
  the integrands of rho; and bool masks of P + 1 rows.

With a bool row counted as 1/8 of a float row, that is 149.6 rows
(4.7 MiB) for an H8 chain of STO-6G atoms with 4 doubly occupied orbitals
(nprim 48, P 36), and 34.5 rows (1.1 MiB) for the H2 fci model, per
worker: a walk on W workers holds W workspaces, one in each process.
"""
import collections
import math

import numpy as np

from .density import NEGATIVE_CLAMP
from .quadrature import _CHUNK


def _log_abs(x, out, mask):
    """log|x| into out, with the value 0 assigned at x = 0; mask is a bool
    array of the same shape to hold |x| > 0."""
    np.abs(x, out=out)
    return np.log(out, out=out, where=np.greater(out, 0, out=mask))


def _power(x, alpha: float, out):
    """x**alpha into out, with the sign rules of the decomposition: integer
    orders keep the sign of negative lobes; fractional orders, undefined
    for negative values, take tiny negatives as zero (anything below the
    clamp threshold is reported by ``GridSums.check``). In-place ``**=``
    takes the same shortcuts as ``**`` (a square, a square root)."""
    if float(alpha).is_integer():
        np.copyto(out, x)
        out **= int(round(alpha))
    else:
        np.maximum(x, 0.0, out=out)
        out **= alpha
    return out


def gram_partials_bytes(n_atoms: int, points: int) -> int:
    """Bytes the order-2 Gram partials of an analysis hold at most, for
    nat atoms on a grid of at most ``points`` points: P(P+1)/2 floats per
    chunk for P = nat(nat+1)/2 pair terms, kept until the end, and twice
    that while ``GridSums.integral`` stacks them to sum."""
    n_pairs = n_atoms * (n_atoms + 1) // 2
    chunks = -(-points // _CHUNK)
    return 2 * chunks * (n_pairs * (n_pairs + 1) // 2) * 8


class GridSums:
    """Chunk partials of the grid integrals of one field on one grid.

    pair_keys orders the rows of the pair-term stacks given to ``chunk``, and
    alphas are the orders whose moments of rho and of the atomic net
    densities are taken. The Shannon integrals are always taken, and the
    Gram matrix of the pair terms when 2.0 is among the orders.
    """

    def __init__(self, pair_keys, alphas):
        self.pair_keys = list(pair_keys)
        self._diag = np.array([i for i, (a, b) in enumerate(self.pair_keys)
                               if a == b], dtype=np.intp)
        self.alphas = list(alphas)
        self.gram = 2.0 in self.alphas
        self._upper = np.triu_indices(len(self.pair_keys))
        self._partials = collections.defaultdict(list)
        self._failures = {}  # check key -> message, the first chunk's

    def chunk(self, start, weights, rho, terms, work):
        """The partials of the chunk whose first point is ``start``:
        weights (n,), the finite density rho (n,) and the pair terms
        (len(pair_keys), n). Returns (partials, failures): family ->
        chunk partial, and check key -> message. Each integrand is formed
        in ``work`` (a ``backends.Workspace``) and reduced before the
        next: a stack shaped like the pair terms, its bool mask, and one
        row and its mask for rho. Nothing is kept until ``take``, so a
        worker's copy of these sums can reduce its chunks for the
        caller's."""
        partials, failures = {}, {}

        def keep(family, values, keys):
            """The family's partial, one dot product with the weights per
            row (as ``integrate`` takes them); keys[i] is the check-order
            key of row i."""
            partials[family] = np.array([np.dot(r, weights) for r in values])
            if not np.isfinite(partials[family]).all():
                for key, bad in zip(keys, ~np.isfinite(values)):
                    if bad.any():
                        index = start + int(np.argmax(bad))
                        failures[key] = ("non-finite field value at point "
                                         f"index {index}")

        n_pairs = len(self.pair_keys)
        n = len(weights)
        row, row_mask = work.take("row", (1, n)), work.take("row_mask", (1, n), bool)
        # a chunk's primitive values G are spent once its pair terms are
        # formed, so their buffer holds each pair integrand in turn
        stack = work.take("G", terms.shape)
        mask = work.take("stack_mask", terms.shape, bool)
        keep("rho", rho[None], [(0,)])
        log_rho = _log_abs(rho, row, row_mask)
        keep("rho_log_rho", np.multiply(rho, log_rho, out=row), [(1,)])
        keys = [[(2, i, k) for i in range(n_pairs)] for k in range(3)]
        np.multiply(terms, _log_abs(terms, stack, mask), out=stack)
        keep(("pair", 0), stack, keys[0])
        positive = rho > 0  # x ln|x / rho|, the quotient 0 where rho = 0
        np.divide(terms, np.where(positive, rho, 1.0), out=stack)
        stack[:, ~positive] = 0.0
        np.multiply(terms, _log_abs(stack, stack, mask), out=stack)
        keep(("pair", 1), stack, keys[1])
        keep(("pair", 2), terms, keys[2])
        for j, alpha in enumerate(self.alphas):
            fractional = not float(alpha).is_integer()
            if fractional and (rho < NEGATIVE_CLAMP).any():
                failures[3, j, -1, 0] = _sign_message("the density", alpha)
            keep(("rho_pow", alpha), _power(rho, alpha, row), [(3, j, -1, 1)])
            net = np.take(terms, self._diag, axis=0, mode="clip",
                          out=stack[:len(self._diag)])
            if fractional:
                for t, low in enumerate((net < NEGATIVE_CLAMP).any(axis=1)):
                    if low:
                        atom = self.pair_keys[self._diag[t]][0]
                        failures[3, j, t, 0] = _sign_message(
                            f"the net density of atom {atom}", alpha)
            keep(("net_pow", alpha), _power(net, alpha, net),
                 [(3, j, t, 1) for t in range(len(self._diag))])
        if self.gram:  # the upper triangle, row by row
            partials["gram"] = (np.multiply(terms, weights, out=stack)
                                @ terms.T)[self._upper]
        return partials, failures

    def take(self, chunk):
        """Keep a chunk's (partials, failures) from ``chunk``; the chunks
        are taken in grid order, so each failure keeps its first chunk."""
        partials, failures = chunk
        for family, partial in partials.items():
            self._partials[family].append(partial)
        for key, message in failures.items():
            self._failures.setdefault(key, message)

    def check(self):
        """Raise the first failure recorded during the walk, in the order
        the integrals are listed in the module docstring."""
        if self._failures:
            raise ValueError(self._failures[min(self._failures)])

    def integral(self, family) -> np.ndarray:
        """Integrals of one family: the fsum of its chunk partials, per row.
        ("pair", k) holds, per pair term, int x ln|x| (k = 0),
        int x ln|x / rho| (k = 1) or int x (k = 2)."""
        return np.array([math.fsum(col)
                         for col in np.array(self._partials[family]).T])

    def moment(self, alpha: float) -> float:
        """int rho**alpha."""
        return float(self.integral(("rho_pow", alpha))[0])

    def net_moments(self, alpha: float) -> dict:
        """int (rho^AA)**alpha per atom A."""
        values = self.integral(("net_pow", alpha))
        return {self.pair_keys[i][0]: float(v)
                for i, v in zip(self._diag, values)}

    def gram_matrix(self) -> np.ndarray:
        """int x_i x_j over the pair terms, exactly symmetric."""
        n = len(self.pair_keys)
        upper = self._upper
        gram = np.empty((n, n))
        gram[upper] = self.integral("gram")
        gram.T[upper] = gram[upper]
        return gram


def _sign_message(name: str, alpha: float) -> str:
    return (f"{name} reaches values below {NEGATIVE_CLAMP}; a fractional "
            f"order alpha={alpha} is undefined there")
