"""Quasispin parity blocks of the Lipkin-Meshkov-Glick (LMG) Hamiltonian.

The LMG model puts N fermions in two N-fold degenerate levels separated by
an energy ``eps``, with a pair-excitation interaction ``v`` and a scattering
interaction ``w``.  In the maximum-quasispin sector (j = N/2) the Hamiltonian

    H = eps * Jz + (v/2) * (J+^2 + J-^2) + (w/2) * (J+ J- + J- J+)

only couples |j, m> to |j, m +/- 2>, so the (N+1)-dimensional matrix splits
into two independent parity blocks.  Block A is the one containing the
unperturbed ground state m = -j; block B holds the complementary m values.
For odd N both blocks have dimension (N+1)/2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .circuits import _check_int

__all__ = [
    "ModelParams",
    "QuasispinBlock",
    "ladder_squared_element",
    "build_blocks",
    "square_block",
]

_HALF_INT_TOL = 1e-9


@dataclass(frozen=True)
class ModelParams:
    """LMG model parameters: particle number N and interaction strengths.

    ``eps`` sets the energy unit (level splitting), ``v`` the pair-excitation
    strength and ``w`` the particle-scattering strength.
    """

    n_particles: int
    eps: float = 1.0
    v: float = 0.0
    w: float = 0.0

    def __post_init__(self):
        _check_int(self.n_particles, "n_particles")
        for name in ("eps", "v", "w"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")

    @property
    def j(self) -> float:
        """Total quasispin of the maximum-j sector, N/2."""
        return self.n_particles / 2.0


@dataclass
class QuasispinBlock:
    """One parity block of the quasispin Hamiltonian.

    ``m_values`` are the magnetic quantum numbers spanned by the block, in
    ascending order (index 0 is the most negative m), and ``matrix`` is the
    dense real symmetric Hamiltonian restricted to that basis.
    """

    j: float
    m_values: np.ndarray
    matrix: np.ndarray
    parity: str

    def __post_init__(self):
        self.m_values = np.asarray(self.m_values, dtype=float)
        self.matrix = np.asarray(self.matrix, dtype=float)
        if self.parity not in ("A", "B"):
            raise ValueError(f"parity must be 'A' or 'B', got {self.parity!r}")
        if self.matrix.shape != (len(self.m_values), len(self.m_values)):
            raise ValueError("matrix dimension does not match m_values")

    @property
    def dim(self) -> int:
        return len(self.m_values)


def ladder_squared_element(j: float, m: float) -> float:
    """Matrix element <j, m+2| J+^2 |j, m>.

    Two applications of J+, each contributing sqrt((j - m)(j + m + 1)):

        <j, m+2| J+^2 |j, m> = sqrt((j-m)(j+m+1)) * sqrt((j-m-1)(j+m+2))

    Raises ValueError if (j, m) do not label a valid state or if m+2 leaves
    the multiplet.
    """
    if abs((j - m) - round(j - m)) > _HALF_INT_TOL or abs((j + m) - round(j + m)) > _HALF_INT_TOL:
        raise ValueError(f"j - m and j + m must be integers, got j={j}, m={m}")
    if abs(m) > j + _HALF_INT_TOL:
        raise ValueError(f"|m| must not exceed j, got j={j}, m={m}")
    if m + 2 > j + _HALF_INT_TOL:
        raise ValueError(f"m + 2 = {m + 2} exceeds j = {j}: ladder leaves the multiplet")
    return float(np.sqrt((j - m) * (j + m + 1)) * np.sqrt((j - m - 1) * (j + m + 2)))


def build_blocks(params: ModelParams) -> tuple[QuasispinBlock, QuasispinBlock]:
    """Build the two parity blocks (A, B) of the LMG Hamiltonian.

    Diagonal entries are eps*m + w*(j(j+1) - m^2); the only off-diagonal
    entries are (i, i+1) = -(v/2) * <j, m_i + 2| J+^2 |j, m_i>.  The overall
    sign of the off-diagonals is a basis-phase convention; flipping it leaves
    the spectrum unchanged (conjugation by a +/-1 diagonal matrix).

    Block A contains m = -j.  Any N >= 1 is accepted; only odd N gives two
    power-of-two sized blocks suitable for the qubit workflow.
    """
    j = params.j
    blocks = []
    for parity, m_start in (("A", -j), ("B", -j + 1)):
        m_values = np.arange(m_start, j + _HALF_INT_TOL, 2.0)
        dim = len(m_values)
        mat = np.zeros((dim, dim))
        for i, m in enumerate(m_values):
            mat[i, i] = params.eps * m + params.w * (j * (j + 1) - m * m)
            if i + 1 < dim:
                off = -(params.v / 2.0) * ladder_squared_element(j, m)
                mat[i, i + 1] = mat[i + 1, i] = off
        blocks.append(QuasispinBlock(j=j, m_values=m_values, matrix=mat, parity=parity))
    return blocks[0], blocks[1]


def square_block(block: QuasispinBlock) -> np.ndarray:
    """Return block.matrix @ block.matrix at full precision."""
    return block.matrix @ block.matrix
