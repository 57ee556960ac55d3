"""Independent references for the transport code in `cyclerisk.emd`.

`lp_transport` is the oracle for the exact solver: the dense transport LP,
solved by HiGHS through scipy.

`relaxed_lower_bounds` is the relaxed transport bound that
`transfer_lower_bounds` replaced. RWMD (Kusner et al., ICML 2015) drops one
marginal and every edge cap, so each bin ships all its mass to the nearest
occupied bin on the other side. The ICT bound keeps the caps, so it must
never fall below this one.
"""

import numpy as np
from scipy.optimize import linprog


def lp_transport(a, b, cost):
    """Dense LP reference for the transport value (independent solver).

    HiGHS's default dual feasibility tolerance (1e-7) lets it stop on a
    vertex up to about 1e-9 above the optimum when two plans nearly tie;
    1e-10 holds it to the optimum within roundoff at these sizes.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    a = a / a.sum()
    b = b / b.sum()
    m, n = cost.shape
    A_eq = np.zeros((m + n, m * n))
    for i in range(m):
        A_eq[i, i * n:(i + 1) * n] = 1.0
    for j in range(n):
        A_eq[m + j, j::n] = 1.0
    res = linprog(cost.ravel(), A_eq=A_eq, b_eq=np.concatenate([a, b]),
                  bounds=(0, None), method="highs",
                  options={"dual_feasibility_tolerance": 1e-10,
                           "primal_feasibility_tolerance": 1e-10})
    assert res.status == 0
    return res.fun


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
