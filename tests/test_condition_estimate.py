"""Condition estimates of two-column systems whose column scales are far apart.

Such a system is rejected without a rotation. Its squared column norms, taken
after scaling by the power of two of its largest entry, can underflow; its
condition is then estimated from column norms that are each scaled by their
own power of two, and reads infinite only for an exactly zero column. The
scalar solve of a stack of one gives the same bits as the stacked solve.
"""
import math
import re

import numpy as np

from greycast import RollingConfig, Series, roll_forecast
from greycast.lstsq import solve_stacked

FAR_APART = np.array([[1.0, 1e-200], [2.0, 3e-200], [3.0, -1e-200]])
TARGETS = np.array([1.0, 2.0, 3.0])


def solve_alone_and_stacked(design):
    alone = solve_stacked(design[None], TARGETS[None])
    stacked = solve_stacked(np.stack([design, np.eye(3, 2) + 1.0, design]),
                            np.stack([TARGETS] * 3))
    for field in ("solutions", "condition", "rejected"):
        assert getattr(alone, field)[0].tobytes() == getattr(stacked, field)[0].tobytes()
        assert getattr(alone, field)[0].tobytes() == getattr(stacked, field)[2].tobytes()
    return alone


def test_far_apart_columns_have_a_finite_estimate():
    result = solve_alone_and_stacked(FAR_APART)
    condition = float(result.condition[0])
    column_ratio = math.sqrt(14.0) / (math.sqrt(11.0) * 1e-200)
    assert math.isclose(condition, column_ratio, rel_tol=1e-12)
    # The column-norm ratio never exceeds the condition number.
    assert condition <= np.linalg.cond(FAR_APART)
    assert result.rejected[0]


def test_a_zero_column_stays_singular():
    design = FAR_APART.copy()
    design[:, 1] = 0.0
    result = solve_alone_and_stacked(design)
    assert result.condition[0] == math.inf
    assert result.rejected[0]


def test_a_huge_series_reports_finite_conditions():
    k = np.arange(1, 31)
    values = (20.0 + 5.0 * np.sin(2.0 * np.pi * k / 12.0)) * 1e300
    trace = roll_forecast(Series(values), RollingConfig(model="GM11"))
    estimates = [float(m.group(1)) for _, message in trace.errors
                 if (m := re.search(r"condition estimate ([^)]*)", message))]
    assert estimates
    assert all(1e300 < e < math.inf for e in estimates)
