"""The visibility law of teleportation chains.

Teleporting a state through an isotropic resource of visibility p applies
the depolarizing-style map  rho -> p*rho + (1-p)*tr(rho)*I/d  to the
teleported share.  Along a path each hop squares the visibility, which the
protocol reads in closed form; the dense channel itself is the oracle in
isonet.verification.
"""

from __future__ import annotations

import math


def _saturating_pow2(exponent: float) -> float:
    """2.0 ** exponent, or inf where that leaves the float range (exponent
    above ~1024); visibilities p ** inf then read 0 below p = 1 and 1 at it."""
    try:
        return 2.0 ** exponent
    except OverflowError:
        return math.inf


def path_teleport_visibility(p: float, length: float) -> float:
    """End-to-end visibility p^(2^(length-1)) of teleportation along a path.

    Each additional hop teleports the accumulated pair through a resource
    downgraded to its current visibility, squaring it.
    """
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"visibility {p} outside [0, 1]")
    if length < 1:
        raise ValueError("path length must be at least 1")
    return float(p) ** _saturating_pow2(length - 1)
