"""Seeded random matrix factories.

All randomness flows through a ``numpy.random.Generator`` over the PCG64
stream (a permuted congruential generator, no shift-register state), with
normal variates produced by an explicit Box-Muller transform on its uniforms.
That pins the byte stream *and* the arithmetic mapping uniforms to normals,
so a seed reproduces the same matrices everywhere.  Generators are values
passed around explicitly, never module-level state.

Annotations stay strings (``from __future__ import annotations``), so
``numpy.random`` is imported when a factory first runs, not when the
package loads.
"""

from __future__ import annotations

import numpy as np

from .linalg import _is_int


def generator(seed: int) -> np.random.Generator:
    """Fresh PCG64 generator for ``seed``, an integer (``linalg._is_int``:
    Python's or numpy's, never a ``bool``) of at least 0; ``ValueError``
    naming ``seed`` otherwise, so no seed falls back to OS entropy."""
    if not _is_int(seed) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    return np.random.Generator(np.random.PCG64(seed))


def standard_normals(rng: np.random.Generator, count: int) -> np.ndarray:
    """``count`` N(0,1) draws via Box-Muller on PCG64 uniforms."""
    pairs = (count + 1) // 2
    u1 = 1.0 - rng.random(pairs)  # (0, 1], keeps the log finite
    u2 = rng.random(pairs)
    radius = np.sqrt(-2.0 * np.log(u1))
    z = np.concatenate([radius * np.cos(2.0 * np.pi * u2), radius * np.sin(2.0 * np.pi * u2)])
    return z[:count]


def ginibre(rng: np.random.Generator, rows: int, cols: int) -> np.ndarray:
    """Complex Ginibre matrix: i.i.d. entries (x + iy)/sqrt(2), x,y ~ N(0,1)."""
    z = standard_normals(rng, 2 * rows * cols)
    re = z[: rows * cols].reshape(rows, cols)
    im = z[rows * cols :].reshape(rows, cols)
    return (re + 1j * im) / np.sqrt(2.0)


def random_density_matrix(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Random state G G^dagger / tr(G G^dagger) from a square Ginibre G."""
    g = ginibre(rng, dim, dim)
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_probability_vector(rng: np.random.Generator, k: int) -> np.ndarray:
    """Uniform (Dirichlet(1,...,1)) probability vector via normalized
    exponentials."""
    e = -np.log(1.0 - rng.random(k))
    return e / e.sum()


def random_unitary(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-random unitary: QR of a Ginibre matrix with the R-diagonal phases
    divided out."""
    q, r = np.linalg.qr(ginibre(rng, dim, dim))
    d = np.diagonal(r)
    return q * (d / np.abs(d))
