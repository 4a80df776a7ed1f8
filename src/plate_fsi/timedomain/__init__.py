"""Time-domain layer: grids, nonlinearities, steppers.

Everything here lives on the flat strip that ``(x', x_n + eta(x'))`` maps
onto the moving domain, a periodic tangential torus times a graded
vertical mesh: the quadratic terms this flattening leaves behind, discrete
compatibility checks, a mode-wise implicit Euler stepper for the linearized
system, an inverse-Laplace reference, and the small-data fixed-point driver,
all on arrays with a leading time-level axis.

The package itself exports nothing: each name is imported from the
submodule that defines it, so a caller loads only the submodules it uses.
"""
