"""Numerical and exact-arithmetic laboratory for doubly-coupled vortex systems
on the flat torus, with slope stability and dimensional-reduction checks."""

__version__ = "0.1.0"
