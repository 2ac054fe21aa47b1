"""Host-speed correction for times measured on a shared machine.

On the reference machine (2 shared Xeon cores) the same op takes anywhere
from 0.75x to 1.25x its typical time, in phases that last from seconds to
minutes, and CPU time drifts with wall time, so the cause is the host, not
preemption.  The benchmark therefore times this fixed reference kernel next
to every measurement and scales each measured time by
``NOMINAL_S / reference time``: a time reads as it would on a host that runs
the kernel in ``NOMINAL_S``.  The kernel applies 2x2 gates to a tiny state
vector, the same mix of small numpy operations and interpreter work as the
package's hot loops, so host phases slow both alike.  Raw times are printed
next to the corrected ones.
"""

import time

import numpy as np

NOMINAL_S = 0.006  # the kernel's typical time on the reference machine
_GATE = np.array([[0.6, -0.8], [0.8, 0.6]], dtype=complex)


def reference_kernel() -> float:
    """Seconds taken by 400 single-qubit gate applications on two qubits."""
    start = time.perf_counter()
    amps = np.zeros(4, dtype=complex)
    amps[0] = 1.0
    for _ in range(400):
        psi = amps.reshape(2, 2, 1)
        out = np.empty_like(psi)
        out[:, 0, :] = _GATE[0, 0] * psi[:, 0, :] + _GATE[0, 1] * psi[:, 1, :]
        out[:, 1, :] = _GATE[1, 0] * psi[:, 0, :] + _GATE[1, 1] * psi[:, 1, :]
        amps = out.reshape(-1)
    return time.perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor for a time measured between two reference-kernel timings."""
    return NOMINAL_S / ((before + after) / 2.0)
