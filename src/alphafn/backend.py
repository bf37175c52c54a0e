"""The binding of the numerical kernels as `kernels`.

The package reaches every kernel through this module's `kernels`, so that
one binding serves the series, quadrature and report layers alike.
"""

from . import _kernels_py as kernels


def backend_name() -> str:
    """Name of the kernel backend in use; the kernels are pure Python."""
    return "python"
