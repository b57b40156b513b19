"""Reference computations shared by the test modules."""

import numpy as np


def spectrum(dense):
    """Sorted eigenvalues of a symmetric matrix, taken at an exact power-of-two scale.

    The matrix is scaled by a power of two so that its largest |entry| lies in
    [0.5, 1), scaled entries below 2**-400 are set to 0, and the ``eigvalsh``
    values are scaled back.  LAPACK's symmetric eigensolvers can lose digits
    on a matrix holding entries whose squares fall below the normal range.
    By Weyl's inequality the zeroed entries move each eigenvalue by at most
    n * 2**-400 of the scale.
    """
    dense = np.asarray(dense, dtype=float)
    exp = np.frexp(np.max(np.abs(dense)))[1]
    scaled = np.ldexp(dense, -exp)
    scaled[np.abs(scaled) < 2.0**-400] = 0.0
    return np.ldexp(np.sort(np.linalg.eigvalsh(scaled)), exp)


def replayed_transform(n, records):
    """F of a J-Jacobi run, replayed column by column from its step records.

    Each record of ``report._records`` carries the step's (c, s, t); F starts
    as the identity and each step sets F <- F [[c, t], [s, c]] on its pivot
    columns i and j: column i becomes c*f_i + s*f_j and column j c*f_j + t*f_i.
    """
    columns = [[float(r == k) for r in range(n)] for k in range(n)]
    for (i, j), _, c, s, t, *_ in records:
        fi, fj = columns[i - 1], columns[j - 1]
        columns[i - 1] = [c * x + s * y for x, y in zip(fi, fj)]
        columns[j - 1] = [c * y + t * x for x, y in zip(fi, fj)]
    return np.array(columns).T
