"""Sensitivity algebra: centered couplings, low-rank factors, and their calculus.

The *sensitivity* of node i with respect to node j is the conditional
table p(X_i | X_j) with its row means removed:

    S = P (I - E/n_j)        (E = all-ones matrix)

S maps a change in the distribution of j to the induced change in the
distribution of i, exactly (the conditional is linear in the conditioning
distribution).  Every sensitivity has zero row sums and zero column sums,
and rank(S) = rank(P) - 1 for any valid conditional table.

A rank-r sensitivity is stored as a factor pair S = Q^T R with Q of shape
(r, n_i) and R of shape (r, n_j).  The rows of Q are orthonormal: they
are the left singular vectors of S for its r kept singular values, and
R = Sigma_r V_r^T, so a factored pair is in the gauge of the singular
value decomposition.  The gauge is free: any invertible r x r transform
between Q and R represents the same S, so correctness checks always
compare reconstructed dense matrices, never raw factors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, RangeError, SingularWeightError, ZeroMassError
from .model import ConditionalMatrix, Distribution, frozen_array

#: relative singular-value threshold shared by the factorings and rank checks
RANK_TOL = 1e-10
#: matrices whose largest singular value is below this count as zero
ZERO_FLOOR = 1e-12

SUM_TOL = 1e-9


@dataclass(frozen=True)
class Sensitivity:
    """Dense sensitivity matrix with zero row and column sums."""

    entries: np.ndarray

    def __post_init__(self):
        arr = frozen_array(self.entries)
        if arr.ndim != 2:
            raise DimensionMismatchError("a sensitivity must be a matrix")
        scale = max(1.0, float(np.abs(arr).max(initial=0.0)))
        if np.abs(arr.sum(axis=1)).max(initial=0.0) > SUM_TOL * scale:
            raise ZeroMassError("sensitivity rows do not sum to zero")
        if np.abs(arr.sum(axis=0)).max(initial=0.0) > SUM_TOL * scale:
            raise ZeroMassError("sensitivity columns do not sum to zero")
        object.__setattr__(self, "entries", arr)

    @property
    def shape(self) -> tuple[int, int]:
        return self.entries.shape


@dataclass(frozen=True)
class QRFactors:
    """Factor pair (Q, R) with S = Q^T R; rank is the shared row count."""

    q: np.ndarray
    r_mat: np.ndarray

    def __post_init__(self):
        q = frozen_array(self.q)
        r = frozen_array(self.r_mat)
        if q.ndim != 2 or r.ndim != 2:
            raise DimensionMismatchError("factors must be matrices")
        if q.shape[0] != r.shape[0]:
            raise DimensionMismatchError(
                f"factor ranks disagree: {q.shape[0]} vs {r.shape[0]}"
            )
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "r_mat", r)

    @property
    def rank(self) -> int:
        return self.q.shape[0]

    @property
    def shape(self) -> tuple[int, int]:
        return (self.q.shape[1], self.r_mat.shape[1])

    def dense(self) -> np.ndarray:
        return self.q.T @ self.r_mat


@dataclass(frozen=True)
class BinarySensitivity:
    """Scalar coupling of two binary nodes: p(i|j) - p(i|j̄).

    The dense matrix form is ``value * (I - E/2)``.  |value| = 1 marks a
    deterministic link; such links are legal here but rejected by the
    bounded-error truncation, which needs strict decay.
    """

    value: float

    def __post_init__(self):
        v = float(self.value)
        if abs(v) > 1 + 1e-9:
            raise RangeError(f"binary sensitivity {v} outside [-1, 1]")
        object.__setattr__(self, "value", min(1.0, max(-1.0, v)))

    @property
    def deterministic(self) -> bool:
        return abs(self.value) >= 1 - 1e-12


def _entries(x) -> np.ndarray:
    if isinstance(x, Sensitivity):
        return x.entries
    if isinstance(x, ConditionalMatrix):
        return x.entries
    if isinstance(x, Distribution):
        return x.probs
    return np.asarray(x, dtype=float)


def center_rows(arr: np.ndarray) -> np.ndarray:
    """Right-multiply by (I - E/n): remove the mean of every row.

    Takes a matrix or a stack of matrices (rows along the last axis).
    """
    # np.add.reduce is what ndarray.mean runs, without its Python wrapper
    return arr - np.add.reduce(arr, axis=-1, keepdims=True) / arr.shape[-1]


def weight_matrix(p) -> np.ndarray:
    """diag(p) - p p^T, the weight that converts an R factor into the
    opposite-direction Q factor.

    Takes one vector (n,) or a stack of them (E, n) -> (E, n, n).
    """
    v = _entries(p)
    column = v[..., :, None]
    return column * np.eye(v.shape[-1]) - column * v[..., None, :]


def weighted(r: np.ndarray, p: np.ndarray) -> np.ndarray:
    """R (diag(p) - p p^T), formed as (R - (R p) 1^T) diag(p) in
    O(rank * n), without the n x n weight.

    Takes one factor (rank, n) at p (n,), or a stack (E, rank, n) at (E, n).
    """
    return (r - r @ p[..., None]) * p[..., None, :]


def inverse_weights(p) -> np.ndarray:
    """1/p entrywise; refuses zero entries (prune the state instead)."""
    v = _entries(p)
    if v.min(initial=np.inf) <= 0.0:
        raise SingularWeightError(
            "a zero-probability state blocks the inverse weight; prune it first"
        )
    return 1.0 / v


def cpt_to_sensitivity(cpt) -> Sensitivity:
    """Center a conditional table: S = P (I - E/n)."""
    return Sensitivity(center_rows(_entries(cpt)))


def rank_counts(svals: np.ndarray) -> np.ndarray:
    """The rank of every matrix of a stack, from its singular values: the
    one rank rule of the package.

    ``svals`` holds each matrix's singular values in descending order
    along the last axis.  The rank counts those above :data:`RANK_TOL`
    times the largest; a matrix whose largest singular value is itself
    at or below ZERO_FLOOR counts as the zero matrix (entries here are
    probability differences, so anything at that scale is rounding
    noise).
    """
    if svals.shape[-1] == 0:
        return np.zeros(svals.shape[:-1], dtype=np.intp)
    top = svals[..., :1]
    counts = np.count_nonzero(svals > RANK_TOL * top, axis=-1)
    return np.where(top[..., 0] > ZERO_FLOOR, counts, 0)


def numerical_rank(arr: np.ndarray) -> int:
    """The rank of ``arr`` by the rule of :func:`rank_counts`, on the
    singular values that :func:`svd_factors` computes for it."""
    if arr.size == 0:
        return 0
    return int(rank_counts(np.linalg.svd(arr, full_matrices=False)[1]))


def svd_factors(sens: np.ndarray) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Rank-revealing factoring S = Q^T R of every matrix of a stack
    (E, n_i, n_j), by one singular value decomposition of the stack.

    Q = U_r^T holds the left singular vectors of the r kept singular
    values as orthonormal rows, and R = Sigma_r V_r^T; the rank r of each
    matrix follows :func:`rank_counts`.  Returns one (positions, Q, R)
    triple per rank present, in increasing rank: the positions in the
    stack of the matrices of rank r, their Q factors stacked (k, r, n_i)
    and their R factors stacked (k, r, n_j), both in C order.
    """
    u, svals, vt = np.linalg.svd(sens, full_matrices=False)
    ranks = rank_counts(svals)
    groups = []
    for rank in np.unique(ranks).tolist():
        at = np.flatnonzero(ranks == rank)
        # a transposed view would pass its strides on to every array
        # derived from it, and so to the stored factors
        q = np.ascontiguousarray(u[at, :, :rank].transpose(0, 2, 1))
        groups.append((at, q, svals[at, :rank, None] * vt[at, :rank]))
    return groups


def qr_factor(sens) -> QRFactors:
    """Rank-revealing factorization S = Q^T R of one matrix.

    The one-matrix case of :func:`svd_factors`: Q has orthonormal rows,
    the left singular vectors of S, and R = Q S; the directions that
    :func:`rank_counts` does not count are truncated.  A zero matrix
    yields rank 0 with empty factors.
    """
    s = _entries(sens)
    ((_, q, r_mat),) = svd_factors(s[None])
    return QRFactors(q[0], r_mat[0])


def sensitivity_rank_law_check(cpt) -> bool:
    """True iff rank(S) == rank(P) - 1 under the shared rank rule."""
    p = _entries(cpt)
    s = center_rows(p)
    return numerical_rank(s) == numerical_rank(p) - 1


def reduce(s_ij: QRFactors, s_jk: QRFactors) -> QRFactors:
    """Collapse the middle node of a chain i - j - k: S_ik = S_ij S_jk.

    Computed in factored form as Q_ik = Q_ij, R_ik = (R_ij Q_jk^T) R_jk,
    then re-truncated, so the result rank never exceeds either input rank.
    """
    if s_ij.r_mat.shape[1] != s_jk.q.shape[1]:
        raise DimensionMismatchError(
            f"inner dimensions disagree: {s_ij.r_mat.shape[1]} vs {s_jk.q.shape[1]}"
        )
    if s_ij.rank == 0 or s_jk.rank == 0:
        return QRFactors(np.zeros((0, s_ij.q.shape[1])), np.zeros((0, s_jk.r_mat.shape[1])))
    z = (s_ij.r_mat @ s_jk.q.T) @ s_jk.r_mat
    u, svals, vt = np.linalg.svd(z, full_matrices=False)
    rank = int(rank_counts(svals))
    return QRFactors(u[:, :rank].T @ s_ij.q, svals[:rank, None] * vt[:rank])


def reverse(s_ij: QRFactors, p_i, p_j) -> QRFactors:
    """Flip the direction of a factored sensitivity using the node marginals.

        Q_ji = R_ij (diag(p_j) - p_j p_j^T)
        R_ji = Q_ij diag(p_i)^{-1} (I - E/n_i)

    Rank is preserved; requires every entry of p_i to be positive.
    """
    pi = _entries(p_i)
    pj = _entries(p_j)
    if s_ij.q.shape[1] != pi.shape[0] or s_ij.r_mat.shape[1] != pj.shape[0]:
        raise DimensionMismatchError("marginal lengths do not match the factors")
    inv_i = inverse_weights(pi)
    q_ji = s_ij.r_mat @ weight_matrix(pj)
    r_ji = center_rows(s_ij.q * inv_i[None, :])
    return QRFactors(q_ji, r_ji)


def reverse_dense(s: np.ndarray, p_i, p_j) -> np.ndarray:
    """Dense form of :func:`reverse` for consistency checks."""
    inv_i = inverse_weights(p_i)
    return weight_matrix(p_j) @ center_rows(s.T * inv_i[None, :])


def sensitivity_to_cpt(s_ij: QRFactors, p_i, p_j) -> ConditionalMatrix:
    """Rebuild the conditional table from a sensitivity and both marginals.

        p(X_i^p | X_j^q) = S_pq + p(X_i^p) - (S p_j)_p

    The result automatically satisfies column normalization and marginal
    consistency sum_q p(X_i|X_j^q) p(X_j^q) = p(X_i).  Raises RangeError
    when an entry leaves [0, 1] beyond tolerance, which signals an
    inconsistent (S, p_i, p_j) triple.
    """
    pi = _entries(p_i)
    pj = _entries(p_j)
    dense = s_ij.dense()
    recon = dense + (pi - dense @ pj)[:, None]
    if recon.min(initial=0.0) < -SUM_TOL or recon.max(initial=0.0) > 1 + SUM_TOL:
        raise RangeError(
            f"reconstructed conditional entries span "
            f"[{recon.min():.3g}, {recon.max():.3g}]; inputs are inconsistent"
        )
    return ConditionalMatrix(np.clip(recon, 0.0, 1.0))


def apply_update(s_ij: QRFactors, delta_pj: np.ndarray) -> np.ndarray:
    """Push a zero-sum change of node j through the coupling: Q^T (R dp_j)."""
    delta = np.asarray(delta_pj, dtype=float)
    if abs(float(delta.sum())) > SUM_TOL:
        raise ZeroMassError("a distribution change must sum to zero")
    return s_ij.q.T @ (s_ij.r_mat @ delta)


# --------------------------------------------------------------------------
# Binary scalar fast paths
# --------------------------------------------------------------------------

def binary_sensitivity(cpt) -> BinarySensitivity:
    """Scalar coupling of a 2x2 conditional table: p(i|j) - p(i|j̄)."""
    p = _entries(cpt)
    if p.shape != (2, 2):
        raise DimensionMismatchError("binary sensitivity needs a 2x2 table")
    return BinarySensitivity(float(p[1, 1] - p[1, 0]))


def binary_dense(s: BinarySensitivity) -> np.ndarray:
    """Matrix embedding value * (I - E/2)."""
    return s.value * (np.eye(2) - 0.5 * np.ones((2, 2)))


def binary_from_dense(dense: np.ndarray) -> BinarySensitivity:
    if dense.shape != (2, 2):
        raise DimensionMismatchError("expected a 2x2 matrix")
    return BinarySensitivity(float(dense[1, 1] - dense[1, 0]))


def binary_reduce(a: BinarySensitivity, b: BinarySensitivity) -> BinarySensitivity:
    """Chain two binary couplings: one multiplication."""
    return BinarySensitivity(a.value * b.value)


def binary_reverse(s: BinarySensitivity, p_i, p_j) -> BinarySensitivity:
    """Flip a binary coupling: scale by p(j̄)p(j) / (p(ī)p(i))."""
    pi = _entries(p_i)
    pj = _entries(p_j)
    num = float(pj[0] * pj[1])
    den = float(pi[0] * pi[1])
    if den <= 0.0:
        raise SingularWeightError("p(ī)p(i) = 0; prune the impossible state first")
    return BinarySensitivity(num / den * s.value)


def binary_update(p0_i: float, s: BinarySensitivity, delta_pj: float) -> float:
    """One-step posterior of a binary node: p0 + s * dp_j."""
    out = p0_i + s.value * delta_pj
    if out < -SUM_TOL or out > 1 + SUM_TOL:
        raise RangeError(f"updated probability {out} outside [0, 1]")
    return min(1.0, max(0.0, out))
