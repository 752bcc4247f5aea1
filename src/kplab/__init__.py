"""Spectral laboratory for the generalized-dispersion KP-II equation on T x R."""

__version__ = "0.1.0"
