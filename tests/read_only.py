"""The standardized statistic at any counts, with the counts only read.

``standardized_statistic`` without ``r_log_sum`` takes two float64 arrays of
one shape and forms T in their buffers. The tests evaluate T at Python ints,
scalars, lists, integer arrays and broadcast grids, and read those inputs
again afterwards, so ``statistic`` hands it broadcast float64 copies instead.
"""

import numpy as np

from binratio import standardized_statistic


def statistic(x, y, law):
    """T at broadcast float64 copies of x and y; a float when both are scalars."""
    x_arr, y_arr = np.broadcast_arrays(np.asarray(x, dtype=np.float64),
                                       np.asarray(y, dtype=np.float64))
    t = standardized_statistic(x_arr.copy(), y_arr.copy(), law)
    return float(t) if t.ndim == 0 else t
