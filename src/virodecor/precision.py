"""Working-precision policy for the floating-point side of the toolkit.

All log-space numerics run under mpmath at an extended precision (default
256-bit significand).  The default can be overridden through the
``VIRODECOR_PRECISION_BITS`` environment variable or per call via the
``prec`` keyword arguments.  Any precision of at least 53 bits is
supported: Newton refinement stops when the residual falls below
tol = 2^-(prec // 2) and the step below tol * max(1, |u|), so its
tolerance follows the precision, and the step test scales with roots
far from the origin in log coordinates.  A count reports the precision
it ran at.
"""

from __future__ import annotations

import os

_DEFAULT_BITS = 256


def default_precision() -> int:
    raw = os.environ.get("VIRODECOR_PRECISION_BITS")
    if raw is None:
        return _DEFAULT_BITS
    try:
        bits = int(raw)
    except ValueError:
        bits = None
    if bits is None or bits < 53:
        raise ValueError(f"VIRODECOR_PRECISION_BITS must be a whole number "
                         f"of bits, at least 53; got {raw!r}")
    return bits
