"""Every grid integral of an analysis, reduced chunk by chunk.

Besides int rho, which ``quadrature.integrate`` takes, a decomposition
needs over the quadrature grid: int rho ln rho; for every unique pair
term x = rho^AB the triple int x ln|x|, int x ln|x / rho| and int x; for
every order alpha int rho**alpha and, per atom, int (rho^AA)**alpha; and
at alpha = 2 the Gram matrix int x_i x_j of the pair terms (kept as its
upper triangle). ``GridSums.add`` takes the
values at one chunk of the grid and keeps each integrand's chunk partial,
its dot product with the weights; each integral is the exactly rounded sum
(``math.fsum``) of its partials. The chunks are the fixed integration
chunks of ``quadrature.integrate``, so results do not depend on how the
values were evaluated, and repeated runs agree bit for bit.

Two checks run on every chunk but are raised only by ``check``, after the
walk, so that the caller can first check normalization: a non-finite
integrand (reported with its global point index) and, at fractional
orders, a density or atomic net density below the clamp threshold.
"""
import collections
import math

import numpy as np

from .density import NEGATIVE_CLAMP
from .quadrature import _CHUNK


def _log_abs(x):
    """log|x|, with the value 0 assigned at x = 0."""
    out = np.abs(x)
    return np.log(out, out=out, where=out > 0)


def _power(x, alpha: float):
    """x**alpha with the sign rules of the decomposition: integer orders
    keep the sign of negative lobes; fractional orders, undefined for
    negative values, take tiny negatives as zero (anything below the clamp
    threshold is reported by ``GridSums.check``)."""
    if float(alpha).is_integer():
        return x ** int(round(alpha))
    return np.maximum(x, 0.0) ** alpha


class GridSums:
    """Chunk partials of the grid integrals of one field on one grid.

    pair_keys orders the rows of the pair-term stacks given to ``add``;
    ``shannon`` asks for int rho ln rho and the pair triples,
    ``alphas`` for the moments of rho and of the atomic net densities, and
    ``gram`` for the Gram matrix of the pair terms.
    """

    def __init__(self, pair_keys=(), alphas=(), shannon=False, gram=False):
        self.pair_keys = list(pair_keys)
        self._diag = [i for i, (a, b) in enumerate(self.pair_keys) if a == b]
        self.alphas = list(alphas)
        self.shannon = shannon
        self.gram = gram
        self._partials = collections.defaultdict(list)
        self._failures = {}  # sort key (the order of the checks) -> message
        self._start = 0

    def _fail(self, key, message):
        self._failures.setdefault(key, message)

    def _take(self, family, values, weights, keys):
        """Keep the chunk partials of one family of integrands, one dot
        product with the weights per row (as ``integrate`` takes them);
        keys[i] is the check-order key of row i."""
        partial = np.array([np.dot(row, weights) for row in values])
        if not np.isfinite(partial).all():
            for key, bad in zip(keys, ~np.isfinite(values)):
                if bad.any():
                    self._fail(key, "non-finite field value at point index "
                               f"{self._start + int(np.argmax(bad))}")
        self._partials[family].append(partial)

    def add(self, weights, rho=None, terms=None):
        """Take the partials of one chunk: weights (n,), the density
        rho (n,) and the pair terms (len(pair_keys), n), either of them
        None when the requested integrals do not need it."""
        n_pairs = len(self.pair_keys)
        if self.shannon:
            self._take("rho_log_rho", (rho * _log_abs(rho))[None],
                       weights, [(1,)])
            positive = rho > 0
            q = terms / np.where(positive, rho, 1.0)
            q[:, ~positive] = 0.0
            for k, values in enumerate((terms * _log_abs(terms),
                                        terms * _log_abs(q), terms)):
                self._take(("pair", k), values, weights,
                           [(2, i, k) for i in range(n_pairs)])
        net = terms[self._diag] if terms is not None else None
        for j, alpha in enumerate(self.alphas):
            fractional = not float(alpha).is_integer()
            if rho is not None:
                if fractional and (rho < NEGATIVE_CLAMP).any():
                    self._fail((3, j, -1, 0), _sign_message("the density", alpha))
                self._take(("rho_pow", alpha), _power(rho, alpha)[None],
                           weights, [(3, j, -1, 1)])
            if net is not None:
                if fractional:
                    for t, low in enumerate((net < NEGATIVE_CLAMP).any(axis=1)):
                        if low:
                            atom = self.pair_keys[self._diag[t]][0]
                            self._fail((3, j, t, 0), _sign_message(
                                f"the net density of atom {atom}", alpha))
                self._take(("net_pow", alpha), _power(net, alpha), weights,
                           [(3, j, t, 1) for t in range(len(self._diag))])
        if self.gram:  # the upper triangle, row by row
            upper = np.triu_indices(n_pairs)
            self._partials["gram"].append(((terms * weights) @ terms.T)[upper])
        self._start += len(weights)

    def walk(self, weights, rho=None, pairs=None):
        """``add`` over whole arrays, one integration chunk at a time;
        pairs maps each of pair_keys to its array."""
        weights = np.asarray(weights, dtype=float)
        if rho is not None:
            rho = np.asarray(rho, dtype=float)
        for values in [rho] + list((pairs or {}).values()):
            if values is not None and np.shape(values) != weights.shape:
                raise ValueError(f"field has shape {np.shape(values)}, "
                                 f"expected {weights.shape}")
        for start in range(0, len(weights), _CHUNK):
            sl = slice(start, start + _CHUNK)
            terms = (None if pairs is None else
                     np.array([pairs[k][sl] for k in self.pair_keys], dtype=float)
                     .reshape(len(self.pair_keys), -1))
            self.add(weights[sl], None if rho is None else rho[sl], terms)
        return self

    def check(self):
        """Raise the first failure recorded during the walk, in the order
        the integrals are listed in the module docstring."""
        if self._failures:
            raise ValueError(self._failures[min(self._failures)])

    def integral(self, family, size: int = 1) -> np.ndarray:
        """Integrals of one family: the fsum of its chunk partials, per row
        (zeros of length ``size`` before any chunk)."""
        parts = self._partials[family]
        if not parts:
            return np.zeros(size)
        return np.array([math.fsum(col) for col in np.array(parts).T])

    def pair_integrals(self, k: int) -> np.ndarray:
        """Per pair term, int x ln|x| (k = 0), int x ln|x / rho| (k = 1) or
        int x (k = 2)."""
        return self.integral(("pair", k), len(self.pair_keys))

    def moment(self, alpha: float) -> float:
        """int rho**alpha."""
        return float(self.integral(("rho_pow", alpha))[0])

    def net_moments(self, alpha: float) -> dict:
        """int (rho^AA)**alpha per atom A."""
        values = self.integral(("net_pow", alpha), len(self._diag))
        return {self.pair_keys[i][0]: float(v)
                for i, v in zip(self._diag, values)}

    def gram_matrix(self) -> np.ndarray:
        """int x_i x_j over the pair terms, exactly symmetric."""
        n = len(self.pair_keys)
        upper = np.triu_indices(n)
        gram = np.empty((n, n))
        gram[upper] = self.integral("gram", len(upper[0]))
        gram.T[upper] = gram[upper]
        return gram


def _sign_message(name: str, alpha: float) -> str:
    return (f"{name} reaches values below {NEGATIVE_CLAMP}; a fractional "
            f"order alpha={alpha} is undefined there")
