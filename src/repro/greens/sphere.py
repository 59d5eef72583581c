"""Exact sphere transition kernels (walk-on-spheres) and the two-medium step.

Spheres have closed-form harmonic measure — uniform on the surface — and a
closed-form centre-gradient identity, so a sphere-based engine is *exactly*
unbiased (up to the absorption shell).  The library uses it two ways:

* as an independent validation engine for the cube/table engine,
* as the on-interface transition for stratified dielectrics: for a sphere
  centred on a planar interface between permittivities ``(eps_below,
  eps_above)``, the correct transition picks the upper hemisphere with
  probability ``eps_above / (eps_below + eps_above)`` and is uniform within
  the chosen hemisphere.  (Verify with the two harmonic test fields
  ``phi = const`` and the flux-continuous ``phi = z/eps``.)
"""

from __future__ import annotations

import numpy as np

from .. import native


def uniform_direction(u1: np.ndarray, u2: np.ndarray) -> np.ndarray:
    """Map two uniforms to unit vectors uniform on the sphere, shape (n, 3)."""
    u1 = np.asarray(u1, dtype=np.float64)
    u2 = np.asarray(u2, dtype=np.float64)
    z = 2.0 * u1 - 1.0
    r = np.sqrt(np.maximum(1.0 - z * z, 0.0))
    phi = 2.0 * np.pi * u2
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def gradient_weight(directions: np.ndarray, normals: np.ndarray, radius: np.ndarray) -> np.ndarray:
    """First-hop gradient factor for uniform sphere sampling.

    With ``p = c + R d`` sampled uniformly, ``grad phi(c) . n`` is estimated
    by ``(3/R) (d . n) phi(p)``; this returns ``(3/R) (d . n)``.
    """
    dn = np.einsum("ij,ij->i", np.asarray(directions, dtype=np.float64), np.asarray(normals, dtype=np.float64))
    return 3.0 * dn / np.asarray(radius, dtype=np.float64)


def interface_hemisphere_direction(
    u_side: np.ndarray,
    u1: np.ndarray,
    u2: np.ndarray,
    eps_below: np.ndarray,
    eps_above: np.ndarray,
) -> np.ndarray:
    """Two-medium transition directions for walks sitting on an interface.

    ``u_side`` picks the medium (upper with probability
    ``eps_above/(eps_below+eps_above)``); ``(u1, u2)`` place the point
    uniformly on the chosen hemisphere.  Returns unit vectors (n, 3) whose
    z component has the sign of the chosen side (uniform on a hemisphere:
    ``|z| = u1``, azimuth ``2 pi u2``).  One compiled call
    (:func:`repro.native.hemisphere_directions`; the engine's hemisphere
    step uses the same inline function).
    """
    return native.hemisphere_directions(u_side, u1, u2, eps_below, eps_above)
