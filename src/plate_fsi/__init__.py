"""Numerical laboratory for a viscous half-space flow coupled to a damped plate.

The package has five working layers:

* :mod:`plate_fsi.symbols` -- exact evaluation of the plate dispersion symbol,
  its roots, the viscous decay root, and the coupled boundary symbol.
* :mod:`plate_fsi.polygon` -- Newton polygons of mixed-order two-variable
  symbols, their weighted edges, principal parts, and a sampled sector
  non-vanishing (parabolicity) check.
* :mod:`plate_fsi.indices` -- anisotropic Sobolev index arithmetic and the
  product-embedding / threshold checks gating the nonlinear solver.
* :mod:`plate_fsi.frequency` -- the explicit frequency-domain solution
  operator: plate displacement, boundary traces, closed-form vertical
  profiles, and residual verification.
* :mod:`plate_fsi.timedomain` -- torus-strip grids, the quadratic terms
  that flattening the moving domain leaves behind, compatibility checks, an
  inverse Laplace reference, a mode-wise implicit Euler stepper, and the
  small-data fixed-point solver, all on arrays with a time-level axis.

The command line front-end lives in :mod:`plate_fsi.cli`.
"""

from plate_fsi.params import Freq, PlateParams, Sector

__all__ = ["PlateParams", "Freq", "Sector", "__version__"]

__version__ = "0.1.0"
