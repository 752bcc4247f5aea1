"""Shared test helpers: smooth initial data, the Galilean shear and the anisotropic dilation."""

import math
from dataclasses import replace

import numpy as np

from kplab.evolution import bump
from kplab.fields import SpectralField


def smooth_data(grid, amplitude=0.01, eta_width=1.0, modes=((1, 1.0),)):
    """sum of amplitude * amp * cos(k x) over `modes` (k, amp), times a smooth transverse bump."""
    c = np.zeros(grid.spatial_shape, complex)
    # the decaying flank of the cutoff bump: exp(1 - 1/(1 - x^2)) on |x| < 1
    prof = bump(1.0 + np.abs(grid.eta_axis()) / eta_width)
    prof[grid.yPoints // 2] = 0.0
    ka = grid.k_axis()
    for k, amp in modes:
        c[ka == k] += 0.5 * amplitude * amp * prof / grid.deta / (2 * math.pi)
        c[ka == -k] += 0.5 * amplitude * amp * prof / grid.deta / (2 * math.pi)
    return SpectralField(grid, c)


def shear(c, m, grid, axis=1):
    """Galilean shear of coefficient arrays along eta axis `axis`: index j -> j + m k.

    `c`'s trailing axes are the grid's (k, eta, ...), with `axis` counted
    among them as in a spatial array (1 is the first eta axis); any leading
    axes, such as Picard's t lattice, are batch axes.  Each k row is rolled
    by m k along that eta axis, so the lattice shear moves eta by c k with
    c = m deta, and wraps at the edge.
    """
    k_axis = c.ndim - 1 - grid.yDims
    moved = (k_axis, k_axis + axis), (0, 1)
    rows = np.moveaxis(c, *moved)
    out = np.empty_like(c)
    out_rows = np.moveaxis(out, *moved)
    for i, k in enumerate(grid.k_axis()):
        out_rows[i] = np.roll(rows[i], m * k, axis=0)
    return out


def dilate(f, lam, alpha):
    """Anisotropic dilation of a SpectralField by an integer `lam`: k -> lam k, eta fixed by index.

    With beta = (alpha + 2) / 2, phi(lam k, lam^beta eta) = lam^(alpha+1)
    phi(k, eta), so u(t, x, y) -> lam^alpha u(lam^(alpha+1) t, lam x,
    lam^beta y) maps solutions to solutions.  On the lattice: kMax -> lam
    kMax (zero off the multiples of lam), yLength -> yLength / lam^beta (the
    same eta indices), coefficients times lam^(alpha - beta); time goes to
    t / lam^(alpha+1), and so does tWindow (the same t indices).  The x
    period stays 2 pi, so lam must be an integer.
    """
    g = f.grid
    beta = (alpha + 2.0) / 2.0
    big = replace(g, kMax=lam * g.kMax, yLength=g.yLength / lam**beta,
                  tWindow=g.tWindow / lam ** (alpha + 1.0))
    c = np.zeros(big.spatial_shape, complex)
    c[lam * g.k_axis()] = lam ** (alpha - beta) * f.coeffs
    return SpectralField(big, c)
