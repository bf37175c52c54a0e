"""The binding of the numerical kernels as `kernels`.

The package reaches every kernel through this module's `kernels`, so that
one binding serves the series, quadrature and report layers alike, and a
tracer that rebinds a kernel on this module object reaches every caller.
"""

from . import _kernels_py as kernels
