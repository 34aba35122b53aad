"""Diagonal rescaling of a standard-form LP before the solve.

The restarted methods need O(kappa log 1/eps) iterations, and row and column
scaling lowers the condition number kappa.  :func:`rescale` runs the two
scalings PDLP (Applegate et al., https://arxiv.org/abs/2106.04756) runs
before restarted PDHG:

* Ruiz equilibration (Ruiz 2001): ``RUIZ_PASSES`` passes, each dividing
  every row by the square root of its infinity-norm and every column by the
  square root of its infinity-norm, both read off the same current matrix;
* one Pock-Chambolle pass with alpha = 1 (Pock and Chambolle, ICCV 2011):
  rows by the square root of their 1-norm and columns likewise, which
  bounds sigma_max of the result by 1.

The scaled problem is min c~'x~ s.t. A~ x~ = b~, x~ >= 0 with
A~ = D1 A D2, b~ = D1 b and c~ = D2 c.  Its points map back as x = D2 x~
and y = D1 y~; objective values are equal.  Empty rows and columns keep the
factor 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp_core import StandardFormLp

__all__ = ["RUIZ_PASSES", "Scaling", "rescale"]

RUIZ_PASSES = 10


@dataclass(frozen=True)
class Scaling:
    """How a solve's step size carried over to the scaled problem.

    ``sigma_max`` and ``sigma_max_scaled`` are the power-method estimates of
    sigma_max(A) and sigma_max(D1 A D2); ``eta`` is the step size used on
    the scaled problem.  ADMM keeps the caller's eta and estimates neither
    sigma (both are None).
    """

    sigma_max: float | None
    sigma_max_scaled: float | None
    eta: float


def _root_or_one(norms):
    """sqrt of each norm, 1 where the norm is 0 (an empty row or column)."""
    return np.sqrt(np.where(norms > 0.0, norms, 1.0))


def rescale(problem):
    """Ruiz then Pock-Chambolle scaling of ``problem``.

    Returns ``(scaled, d1, d2)``: the problem with data D1 A D2, D1 b and
    D2 c, and the positive row and column factors.  The factors and the
    scaled matrix depend only on A, so they are computed once per matrix and
    kept in its memo (see :class:`~restartlp.lp_core.SparseMatrix`): every
    call on one A returns the same A~ object and the same read-only d1 and
    d2, and forms only b~ and c~ anew.  A~ shares the index arrays of A;
    only its values are new.
    """
    A = problem.A
    scaled_A, d1, d2 = A.derived("rescale", lambda: _equilibrate(A))
    scaled = StandardFormLp(d2 * problem.c, scaled_A, d1 * problem.b, nonneg=problem.nonneg)
    return scaled, d1, d2


def _equilibrate(A):
    """(D1 A D2, d1, d2) for the factors of :func:`rescale`."""
    rows, cols = A.rows, A.cols
    d1 = np.ones(A.n_rows)
    d2 = np.ones(A.n_cols)
    magnitude = np.abs(A.vals)
    for _ in range(RUIZ_PASSES):
        current = d1[rows] * magnitude * d2[cols]
        row_max = np.zeros(A.n_rows)
        np.maximum.at(row_max, rows, current)
        col_max = np.zeros(A.n_cols)
        np.maximum.at(col_max, cols, current)
        d1 /= _root_or_one(row_max)
        d2 /= _root_or_one(col_max)
    current = d1[rows] * magnitude * d2[cols]
    d1 /= _root_or_one(np.bincount(rows, weights=current, minlength=A.n_rows))
    d2 /= _root_or_one(np.bincount(cols, weights=current, minlength=A.n_cols))
    d1.flags.writeable = d2.flags.writeable = False
    return A.scaled(d1, d2), d1, d2
