"""Correctness oracles that share no code with lmgvqe.

The block matrices are rebuilt here from the LMG matrix elements, exact
eigenvalues come from ``numpy.linalg.eigvalsh`` and the ``ansatz_2q`` state
from its closed-form amplitudes.  Every check returns a list of failure
messages, empty when the result passes, so callers count failures instead
of stopping at the first one.
"""

from __future__ import annotations

import numpy as np

# Exact-mode clusters converge to |variance| < 1e-8, which puts their energy
# within ~1e-8 / gap of an eigenvalue; 1e-6 leaves room for that and nothing
# more.  The same slack absorbs averaging over cluster members in the
# Weinstein check, whose bound is rigorous for the representative state only.
EXACT_TOL = 1e-6
ESTIMATE_SIGMAS = 6.0
WEINSTEIN_SIGMAS = 5.0


def lmg_block(n: int, eps: float, v: float, w: float, parity: str) -> np.ndarray:
    """Dense parity block of the LMG Hamiltonian in the j = N/2 sector.

    Diagonal eps*m + w*(j(j+1) - m^2); off-diagonal (m, m+2) entries
    -(v/2) * sqrt((j-m)(j+m+1)(j-m-1)(j+m+2)).  Block A starts at m = -j.
    """
    j = n / 2.0
    m = np.arange(-j if parity == "A" else -j + 1.0, j + 1e-9, 2.0)
    low = m[:-1]
    off = -(v / 2.0) * np.sqrt((j - low) * (j + low + 1) * (j - low - 1) * (j + low + 2))
    return np.diag(eps * m + w * (j * (j + 1) - m * m)) + np.diag(off, 1) + np.diag(off, -1)


def ansatz_2q_state(t0: float, t1: float, t2: float) -> np.ndarray:
    """Closed-form ansatz_2q amplitudes (c1 cos a, c1 sin a, s1 cos b, -s1 sin b)."""
    c1, s1 = np.cos(t1 / 2.0), np.sin(t1 / 2.0)
    a, b = (t0 + t2) / 2.0, (t0 - t2) / 2.0
    return np.array([c1 * np.cos(a), c1 * np.sin(a), s1 * np.cos(b), -s1 * np.sin(b)])


def exact_moments(matrix: np.ndarray, state: np.ndarray) -> dict[str, float]:
    """<H>, <H^2> and the variance of a normalized state.

    The variance is taken as ||(H - <H>) psi||^2, which cannot come out
    negative through cancellation.
    """
    h_psi = matrix @ state
    energy = float(np.vdot(state, h_psi).real)
    return {
        "energy": energy,
        "h_squared": float(np.vdot(h_psi, h_psi).real),
        "variance": float(np.linalg.norm(h_psi - energy * state) ** 2),
    }


def check_exact_energies(energies, eigenvalues) -> list[str]:
    """Every energy lies within EXACT_TOL of an exact eigenvalue."""
    failures = []
    for energy in energies:
        miss = float(np.min(np.abs(eigenvalues - energy)))
        if not miss <= EXACT_TOL:
            failures.append(f"exact cluster {energy!r} is {miss:.3g} from every eigenvalue")
    return failures


def check_weinstein(clusters, matrix: np.ndarray, eigenvalues) -> list[str]:
    """Weinstein bound for each (energy, stderr, state) cluster.

    Some eigenvalue lies within sqrt(variance) of any state's energy, so a
    reported energy may miss every eigenvalue by at most that plus
    WEINSTEIN_SIGMAS standard errors of the estimate.
    """
    failures = []
    for energy, stderr, state in clusters:
        state = np.asarray(state, dtype=complex)
        state = state / np.linalg.norm(state)
        width = np.sqrt(exact_moments(matrix, state)["variance"])
        bound = width + WEINSTEIN_SIGMAS * stderr + EXACT_TOL
        miss = float(np.min(np.abs(eigenvalues - energy)))
        if not miss <= bound:
            failures.append(
                f"cluster {energy!r} is {miss:.3g} from every eigenvalue, Weinstein bound {bound:.3g}"
            )
    return failures


def check_estimate(measured: dict, exact: dict) -> list[str]:
    """Each measured (value, stderr) lies within ESTIMATE_SIGMAS stderrs of exact."""
    failures = []
    for name, (value, stderr) in measured.items():
        miss = abs(value - exact[name])
        if not miss <= ESTIMATE_SIGMAS * stderr:
            failures.append(
                f"{name} {value!r} is {miss:.3g} from exact {exact[name]!r}"
                f" ({miss / stderr if stderr else float('inf'):.2f} stderr)"
            )
    return failures
