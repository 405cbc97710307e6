"""Smith normal form over the integers.

The space-mapping condition (3) ``S D = Δ K`` is a system of linear
*diophantine* equations; its solvability theory rests on this normal form.
It is computed with exact integer arithmetic (Python ints — no overflow)
and returns the unimodular transforms, so callers can parameterise full
solution sets and tests can verify ``U A V = smith``.
"""

from __future__ import annotations

import numpy as np


def _as_int_matrix(A) -> np.ndarray:
    M = np.array(A, dtype=object)
    if M.ndim != 2:
        raise ValueError("expected a matrix")
    out = np.empty(M.shape, dtype=object)
    for i in range(M.shape[0]):
        for j in range(M.shape[1]):
            v = M[i, j]
            iv = int(v)
            if iv != v:
                raise ValueError(f"non-integer entry {v!r}")
            out[i, j] = iv
    return out


def _identity(n: int) -> np.ndarray:
    I = np.zeros((n, n), dtype=object)
    for i in range(n):
        I[i, i] = 1
    return I


def smith_normal_form(A) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Smith normal form: returns ``(U, D, V)`` with ``U A V = D`` diagonal,
    ``U``, ``V`` unimodular and each diagonal entry dividing the next."""
    A = _as_int_matrix(A)
    m, n = A.shape
    D = A.copy()
    U = _identity(m)
    V = _identity(n)

    def min_nonzero(t: int):
        best = None
        for i in range(t, m):
            for j in range(t, n):
                if D[i, j] != 0 and (best is None
                                     or abs(D[i, j]) < abs(D[best[0], best[1]])):
                    best = (i, j)
        return best

    t = 0
    while t < min(m, n):
        pos = min_nonzero(t)
        if pos is None:
            break
        i0, j0 = pos
        D[[t, i0]] = D[[i0, t]]
        U[[t, i0]] = U[[i0, t]]
        D[:, [t, j0]] = D[:, [j0, t]]
        V[:, [t, j0]] = V[:, [j0, t]]
        # Eliminate the rest of row t and column t.
        dirty = True
        while dirty:
            dirty = False
            for i in range(t + 1, m):
                if D[i, t] != 0:
                    q = D[i, t] // D[t, t]
                    D[i, :] -= q * D[t, :]
                    U[i, :] -= q * U[t, :]
                    if D[i, t] != 0:
                        D[[t, i]] = D[[i, t]]
                        U[[t, i]] = U[[i, t]]
                        dirty = True
            for j in range(t + 1, n):
                if D[t, j] != 0:
                    q = D[t, j] // D[t, t]
                    D[:, j] -= q * D[:, t]
                    V[:, j] -= q * V[:, t]
                    if D[t, j] != 0:
                        D[:, [t, j]] = D[:, [j, t]]
                        V[:, [t, j]] = V[:, [j, t]]
                        dirty = True
        if D[t, t] < 0:
            D[t, :] = -D[t, :]
            U[t, :] = -U[t, :]
        t += 1

    # Enforce the divisibility chain d_k | d_{k+1}.
    k = 0
    while k < min(m, n) - 1:
        a, b = int(D[k, k]), int(D[k + 1, k + 1])
        if a != 0 and b % a != 0:
            # Standard trick: add column k+1 to column k, then re-reduce.
            D[:, k] += D[:, k + 1]
            V[:, k] += V[:, k + 1]
            U2, D2, V2 = smith_normal_form(D)
            return U2 @ U, D2, V @ V2
        k += 1
    return U, D, V
