"""The Laurent term-dict kernel used by the coefficient layer.

A re-export of ``_kernel_py``; ``BACKEND`` names it for run records.
"""

from ._kernel_py import BACKEND, kadd, kmul, kneg, kscale, kshift, ksub  # noqa: F401
