"""Test-session header: numpy's version and the SIMD paths it dispatches to.

numpy picks its exp/log kernels by CPU feature at run time, and the golden
files hold the bits of one dispatch path, so a golden failure log should
name the path it ran on.
"""

import numpy as np


def simd_dispatch() -> list[str]:
    """The CPU features numpy dispatches to here (np.show_runtime()'s SIMD "found" set)."""
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    except ImportError:  # numpy 1.x
        from numpy.core._multiarray_umath import __cpu_dispatch__, __cpu_features__
    return [f for f in __cpu_dispatch__ if __cpu_features__[f]]


def pytest_report_header(config):
    return f"numpy {np.__version__}, SIMD dispatch: {' '.join(simd_dispatch()) or 'baseline only'}"
