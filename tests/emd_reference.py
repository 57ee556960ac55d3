"""The relaxed transport bound that `transfer_lower_bounds` replaced.

RWMD (Kusner et al., ICML 2015) drops one marginal and every edge cap, so
each bin ships all its mass to the nearest occupied bin on the other side.
The ICT bound keeps the caps, so it must never fall below this one.
"""

import numpy as np


def relaxed_lower_bounds(query, items, dist: np.ndarray) -> np.ndarray:
    """RWMD lower bound on EMD(query, item) for each row of items."""
    q = np.asarray(query, dtype=np.float64)
    t = np.asarray(items, dtype=np.float64)
    q = q / q.sum()
    t = t / t.sum(axis=1, keepdims=True)
    supp = q > 0.0
    rows = np.asarray(dist, dtype=np.float64)[supp]     # (|supp q|, 25)
    # every query bin ships its mass to the nearest bin the item occupies
    near_item = np.where(t[:, None, :] > 0.0, rows[None], np.inf).min(axis=2)
    # every item bin receives its mass from the nearest occupied query bin
    return np.maximum(near_item @ q[supp], t @ rows.min(axis=0))
