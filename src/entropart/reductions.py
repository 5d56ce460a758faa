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
with the weights, and returns them; ``GridSums`` keeps only what its
constructor computes. The walk gives it the values at ``_CHUNK``
representatives of the grid's symmetry orbits at a time, each weighing
its grid cell's weight times its member count (``quadrature.Walk.chunk``),
and for a field with no symmetry ``_CHUNK`` kept points and their
weights.
``integrals`` takes the partials of every chunk, in grid order, and sums
each integral once, as the exactly rounded sum (``math.fsum``) of its
partials. A chunk's partials are taken as ``quadrature.integrate`` takes
them (``quadrature.chunk_partials``), and repeated runs agree bit for
bit. ``symmetrized`` then averages the integrals of atoms and pairs
that a symmetry of the field exchanges, so that they are the same bits.
The array functions of ``shannon`` and ``renyi`` are the direct
reference: they take each integral with ``integrate`` over whole
arrays, share only that chunk partial, the sign rules of ``_power`` and
their refusal message, and the tests hold the walk to them: to the bit
without symmetry, to rounding with it.

``chunk`` keeps nothing, so any worker may reduce a chunk. It raises at
the first check the chunk fails, in the order it computes the
integrals: a non-finite density or integrand, with the global index and
position of its first kept point as ``integrate`` reports it (for a
walk's chunk, the lowest kept point whose orbit's value is not finite,
found only then, by ``quadrature.Chunk.first_kept``), and, at
fractional orders, an atomic net density below the clamp threshold. The
caller maps the chunks in grid order and raises the first chunk that
fails, so the error is the serial walk's.

``analysis.analyze_field`` makes one ``backends.Workspace`` for the
call; each worker of the walk fills its own copy, and this process's is
dropped when the call returns. Every array of a chunk is taken from it:
the arrays are allocated at the first chunk and reused, so a chunk's
values hold only until the next chunk. A row holds one float per point
the chunk evaluates, one per orbit (``quadrature.Walk.chunk``):
``_CHUNK`` = 4096 in every chunk but the last. Beside the coordinates of
the representatives (3 rows), a chunk holds the weights of the (shell,
orbit) cells of the shells it spans, per orbit of the walk, about a
row, and the slot, shell, orbit,
member count and weight of each representative; and for nat atoms,
nprim primitives, K orbitals, m_A primitives on atom A and
P = nat(nat+1)/2 pair terms the workspace holds these rows:

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

With a bool row counted as 1/8 of a float row, that is 149.6 rows for an
H8 chain of STO-6G atoms with 4 doubly occupied orbitals (nprim 48,
P 36), 4.7 MiB at 4096 points, and 34.5 rows for the H2 fci model,
1.1 MiB, per worker: a walk on W workers holds W workspaces, one in each
process.
"""
import math

import numpy as np

from .density import NEGATIVE_CLAMP
from .quadrature import _CHUNK, chunk_partials


def _log_abs(x, out, mask):
    """log|x| into out, with the value 0 assigned at x = 0; mask is a bool
    array of the same shape to hold |x| > 0."""
    np.abs(x, out=out)
    return np.log(out, out=out, where=np.greater(out, 0, out=mask))


def _power(x, alpha: float, out):
    """x**alpha into out, with the sign rules of the decomposition: integer
    orders keep the sign of negative lobes; fractional orders, undefined
    for negative values, take tiny negatives as zero (anything below the
    clamp threshold is refused by the caller). In-place ``**=`` takes the
    same shortcuts as ``**`` (a square, a square root)."""
    if float(alpha).is_integer():
        np.copyto(out, x)
        out **= int(round(alpha))
    else:
        np.maximum(x, 0.0, out=out)
        out **= alpha
    return out


def gram_partials_bytes(n_atoms: int, evaluated: int) -> int:
    """Bytes the order-2 Gram partials of an analysis hold at most, for
    nat atoms on a walk that evaluates at most ``evaluated`` points:
    P(P+1)/2 floats per chunk of ``_CHUNK`` evaluated points for
    P = nat(nat+1)/2 pair terms, kept until the end, and twice that while
    ``integrals`` stacks them to sum."""
    n_pairs = n_atoms * (n_atoms + 1) // 2
    chunks = -(-evaluated // _CHUNK)
    return 2 * chunks * (n_pairs * (n_pairs + 1) // 2) * 8


class GridSums:
    """Reduces the grid integrals of one field on one grid, chunk by chunk.

    pair_keys orders the rows of the pair-term stacks given to ``chunk``, and
    alphas are the orders whose moments of rho and of the atomic net
    densities are taken. The Shannon integrals are always taken, and the
    Gram matrix of the pair terms when 2.0 is among the orders. grid (a
    ``quadrature.MolecularGrid``, or None over bare arrays) places the
    points named in a non-finite value's error.
    """

    def __init__(self, pair_keys, alphas, grid):
        self.pair_keys = list(pair_keys)
        self._diag = np.array([i for i, (a, b) in enumerate(self.pair_keys)
                               if a == b], dtype=np.intp)
        self.alphas = list(alphas)
        self.gram = 2.0 in self.alphas
        self.grid = grid
        self._upper = np.triu_indices(len(self.pair_keys))

    def chunk(self, chunk, rho, terms, work):
        """The partials of one ``quadrature.Chunk``: the clamped density
        rho (n,) and the pair terms (len(pair_keys), n) at its n points,
        the kept points or a walk's representatives, and its weights (n,).
        Returns family -> chunk partial, or raises the first check the
        chunk fails (see the module docstring). Each
        integrand is formed in ``work`` (a ``backends.Workspace``) and
        reduced before the next: a stack shaped like the pair terms, its
        bool mask, and one row and its mask for rho. Nothing is kept,
        so a worker's copy of these sums can reduce its chunks for the
        caller, whose ``integrals`` sums them."""
        partials = {}

        def keep(family, values):
            """The family's partial, one per row, as ``integrate`` takes
            it, or the error of its first non-finite value."""
            partials[family] = chunk_partials(values, chunk, self.grid)

        weights = chunk.weights
        n = len(weights)
        row, row_mask = work.take("row", (1, n)), work.take("row_mask", (1, n), bool)
        # a chunk's primitive values G are spent once its pair terms are
        # formed, so their buffer holds each pair integrand in turn
        stack = work.take("G", terms.shape)
        mask = work.take("stack_mask", terms.shape, bool)
        keep("rho", rho[None])
        log_rho = _log_abs(rho, row, row_mask)
        keep("rho_log_rho", np.multiply(rho, log_rho, out=row))
        np.multiply(terms, _log_abs(terms, stack, mask), out=stack)
        keep(("pair", 0), stack)
        positive = rho > 0  # x ln|x / rho|, the quotient 0 where rho = 0
        np.divide(terms, np.where(positive, rho, 1.0), out=stack)
        stack[:, ~positive] = 0.0
        np.multiply(terms, _log_abs(stack, stack, mask), out=stack)
        keep(("pair", 1), stack)
        keep(("pair", 2), terms)
        for alpha in self.alphas:
            keep(("rho_pow", alpha), _power(rho, alpha, row))
            net = np.take(terms, self._diag, axis=0, mode="clip",
                          out=stack[:len(self._diag)])
            if not float(alpha).is_integer():
                low = (net < NEGATIVE_CLAMP).any(axis=1)
                if low.any():
                    atom = self.pair_keys[self._diag[np.argmax(low)]][0]
                    raise ValueError(_sign_message(
                        f"the net density of atom {atom}", alpha))
            keep(("net_pow", alpha), _power(net, alpha, net))
        if self.gram:  # the upper triangle, row by row
            partials["gram"] = (np.multiply(terms, weights, out=stack)
                                @ terms.T)[self._upper]
        return partials


def integrals(chunks) -> dict:
    """The integrals of a walk from the partials of its chunks, each as
    ``GridSums.chunk`` returns them, in grid order: family -> the fsum of
    its chunk partials, per row. ("pair", k) holds, per pair term,
    int x ln|x| (k = 0), int x ln|x / rho| (k = 1) or int x (k = 2), and
    "gram" the upper triangle of int x_i x_j, row by row."""
    return {family: np.array([math.fsum(col) for col in
                              np.array([c[family] for c in chunks]).T])
            for family in chunks[0]}


def symmetrized(values, pair_keys, permutations) -> dict:
    """The integrals values (as ``integrals`` gives them) of a field and
    grid that the atom permutations map onto themselves, each integral of
    a pair term, atomic net density or Gram entry replaced by the mean of
    its images under the group that the permutations generate: the exactly
    rounded sum (``math.fsum``) of the images, divided by the group's
    order. Images of one another have the same images, so atoms and pairs
    that the group exchanges get the same bits; in exact arithmetic their
    integrals are equal, and the mean moves each by rounding only. The
    integrals of rho are left as they are, and with the identity alone
    every value is."""
    group = _group(permutations, pair_keys[-1][1] + 1)
    if len(group) == 1:
        return values
    index = {key: k for k, key in enumerate(pair_keys)}
    pairs = np.array([[index[tuple(sorted((p[a], p[b])))]
                       for a, b in pair_keys] for p in group])
    upper = np.triu_indices(len(pair_keys))
    entry = np.zeros((len(pair_keys),) * 2, dtype=np.intp)
    entry[upper] = np.arange(len(upper[0]))
    entry = np.maximum(entry, entry.T)
    # (order, len(row)): the index of each entry's image, per family
    images = {"pair": pairs, "net_pow": group,
              "gram": entry[pairs[:, upper[0]], pairs[:, upper[1]]]}
    out = {}
    for family, row in values.items():
        kind = family[0] if isinstance(family, tuple) else family
        out[family] = row if kind not in images else np.array(
            [math.fsum(row[k]) for k in images[kind].T]) / len(group)
    return out


def _group(permutations, n):
    """(order, n): every product of the permutations of range(n), the
    identity among them."""
    group = {tuple(range(n))}
    frontier = list(group)
    while frontier:
        p = frontier.pop()
        for q in permutations:
            r = tuple(p[i] for i in q)
            if r not in group:
                group.add(r)
                frontier.append(r)
    return np.array(sorted(group))


def _sign_message(name: str, alpha: float) -> str:
    return (f"{name} reaches values below {NEGATIVE_CLAMP}; a fractional "
            f"order alpha={alpha} is undefined there")
