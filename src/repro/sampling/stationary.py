"""Stationary distribution of the walk (Eq. 6) via power iteration.

Eq. 6 — ``pi_j = sum_i pi_i p_ij`` — applied repeatedly from the indicator
distribution on the mapping node *is* power iteration on the row-stochastic
matrix P; Lemmas 1-2 (irreducibility + aperiodicity) guarantee convergence
to the unique stationary distribution.  The iteration count doubles as the
paper's walk-step statistic N_ws (reported <= 500 in §IV-D).

No semantic plan build runs this: the Eq. 5 walk is reversible, so
production S1 takes pi in closed form (:mod:`repro.sampling.strength`).
The iteration stays as that closed form's test oracle and as the solver of
the CNARW ablation, whose asymmetric weights have no closed form.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConvergenceError
from repro.sampling.transition import TransitionModel

DEFAULT_TOLERANCE = 1e-10
DEFAULT_MAX_ITERATIONS = 1000


@dataclass(frozen=True)
class StationaryResult:
    """The last iterate and how hard it was to reach."""

    probabilities: np.ndarray  # aligned with scope.nodes
    iterations: int
    residual: float
    #: residual < tolerance; False = the step budget ran out first
    converged: bool

    def as_mapping(self, scope_nodes: tuple[int, ...]) -> dict[int, float]:
        """node id -> stationary probability (skips exact zeros)."""
        return {
            node: float(probability)
            for node, probability in zip(scope_nodes, self.probabilities)
            if probability > 0.0
        }


def dense_visiting_array(
    scope_nodes: tuple[int, ...] | np.ndarray,
    probabilities: np.ndarray,
    num_nodes: int,
) -> np.ndarray:
    """Scatter scope-aligned probabilities into a read-only per-node array.

    The validation service consumes visiting probabilities as one dense
    float array over all graph node ids (zero marks nodes outside the
    scope, matching the legacy mapping's "absent = unreachable" rule), so
    membership tests and probability lookups are fancy-indexing instead of
    dict probes.  The array is frozen because query plans share it across
    engines.
    """
    dense = np.zeros(num_nodes, dtype=np.float64)
    dense[np.asarray(scope_nodes, dtype=np.int64)] = probabilities
    dense.setflags(write=False)
    return dense


def stationary_distribution(
    transition: TransitionModel,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    max_iterations: int = DEFAULT_MAX_ITERATIONS,
    require_convergence: bool = False,
) -> StationaryResult:
    """Iterate ``pi <- pi P`` from the source indicator until stationary.

    Stops when the L1 change between successive iterates drops below
    ``tolerance``.  With ``require_convergence`` the caller opts into a
    :class:`ConvergenceError` on budget exhaustion; by default the last
    iterate is returned with ``converged=False`` for the caller to count.
    """
    # Row-vector iteration pi <- pi P is computed as P^T @ pi with the
    # transpose materialised once; csr matrix-vector products avoid the
    # per-iteration wrapper objects of ``ndarray @ csr``.
    matrix_t = transition.to_sparse().transpose().tocsr()
    pi = np.zeros(transition.size, dtype=np.float64)
    pi[transition.scope.nodes.index(transition.scope.source)] = 1.0

    residual = np.inf
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        # Lazy-chain iterate: pi <- pi (P + I) / 2.  The lazy chain has the
        # same stationary distribution as P (pi P = pi  <=>  pi (P+I)/2 =
        # pi) but no eigenvalue near -1, so the near-periodic star-shaped
        # neighbourhoods that dominate KG scopes cannot trap the iteration
        # in a period-2 oscillation that masquerades as a fixed point.
        updated = 0.5 * (matrix_t @ pi) + 0.5 * pi
        # Renormalise to wash out floating-point drift; Eq. 6 preserves mass.
        total = updated.sum()
        if total <= 0.0:
            raise ConvergenceError("transition matrix lost all probability mass")
        updated /= total
        residual = float(np.abs(updated - pi).sum())
        pi = updated
        if residual < tolerance:
            break
    converged = residual < tolerance
    if require_convergence and not converged:
        raise ConvergenceError(
            f"power iteration did not converge in {max_iterations} steps "
            f"(residual {residual:.3e})"
        )
    return StationaryResult(pi, iterations, residual, converged)
