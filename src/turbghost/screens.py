"""Random thin phase screens with a prescribed wave structure function.

A Gaussian process with the square-law structure function
``D(r) = <(phi(x+r) - phi(x))^2> = alpha r^2`` is exactly a random linear
phase tilt ``phi(x) = a x`` with slope variance ``alpha``; the tilt
generator is therefore both the fastest sampler and an exact oracle for
the square law.  A generalized power-law generator (``D = alpha r^p``,
``0 < p < 2``) synthesizes screens from log-spaced spectral modes between
an outer- and inner-scale cutoff; it is exploratory, since no closed-form
visibility law exists here for ``p != 2``.  Its one special function,
Gamma(1 + p) in the spectral amplitude, is ``math.gamma``, so this module,
like the package, needs numpy alone.

Reproducibility contract: the screen at (master_seed, index) is a pure
function of those two integers.  Per-screen generators are seeded with
``numpy.random.SeedSequence((master_seed, index))``, so ensembles can be
generated in any order, in chunks, or in parallel and always agree
bit-for-bit.  ``screen_rng`` builds that SeedSequence itself.  The
ensembles (``tilt_slopes``, ``ScreenEnsemble``) run numpy's SeedSequence
algorithm across a block of indices at once and hand each row of PCG64
seed words to ``numpy.random.PCG64``; the generators are the same, bit for
bit, without one SeedSequence object per screen.  A power-law ensemble
builds its spectral basis once and shares it, so its screen i equals the
single screen drawn from the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.random.bit_generator import ISeedSequence

__all__ = [
    "TiltScreen",
    "GriddedScreen",
    "ScreenEnsemble",
    "StructureFunctionEstimate",
    "screen_rng",
    "sample_tilt_screen",
    "tilt_slopes",
    "sample_powerlaw_screen",
    "estimate_structure_function",
    "mutual_coherence",
]

# Power-law spectral window: 48 log-spaced modes per decade between the
# 40 m outer scale and the 2 um inner scale.
OUTER_SCALE_MM = 4.0e4
INNER_SCALE_MM = 2.0e-3
MODES_PER_DECADE = 48


def screen_rng(master_seed, index):
    """Deterministic per-screen generator, independent of generation order."""
    return np.random.default_rng(np.random.SeedSequence((int(master_seed), int(index))))


# numpy's SeedSequence constants (numpy/random/bit_generator.pyx): a pool of
# four uint32 words, hashmix constants A (entropy mixing) and B (output).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_POOL_SIZE = 4
_MASK32 = 0xFFFFFFFF
# Indices seeded per numpy pass; bounds the transient arrays, whatever n is.
_SEED_BLOCK = 4096


class _StateWords(ISeedSequence):
    """One precomputed ``SeedSequence.generate_state(4, np.uint64)`` row.

    PCG64 asks its seed sequence for exactly that request and seeds itself
    from the returned words in its own C code; any other request is refused.
    """

    __slots__ = ("_words",)

    def __init__(self, words):
        self._words = words

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or np.dtype(dtype) != np.uint64:
            raise ValueError(f"only generate_state(4, uint64) is precomputed, got ({n_words}, {dtype})")
        return self._words


def _hashmixer(const, mult):
    """numpy's hashmix on uint32 arrays, with its running constant: xor the
    value with the constant, step the constant, multiply by the new one."""
    def hashmix(value):
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> np.uint32(16))
    return hashmix


def _mix(x, y):
    r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return r ^ (r >> np.uint32(16))


def _pcg64_seed_words(master_words, index):
    """``SeedSequence((master, i)).generate_state(4, np.uint64)`` for each i in ``index``.

    ``master_words`` are the master's little-endian uint32 entropy words and
    ``index`` a uint32 array; row j of the (len(index), 4) result seeds screen
    ``index[j]``.  This is numpy's algorithm run across all rows at once, in
    the same wrapping uint32 arithmetic.
    """
    entropy = [np.full_like(index, w) for w in master_words] + [index]
    entropy += [np.zeros_like(index)] * (_POOL_SIZE - len(entropy))
    hashmix = _hashmixer(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hashmixer(_INIT_B, _MULT_B)
    state = [hashmix(pool[i % _POOL_SIZE]) for i in range(8)]
    # uint32 words pair into uint64s little-endian first, as numpy does.
    return np.stack(state, axis=1).astype("<u4").view("<u8").astype(np.uint64)


def _screen_rngs(master_seed, n_screens):
    """Yield ``screen_rng(master_seed, i)``'s generator for i in 0..n-1, bit for bit.

    The PCG64 seed words of a block of indices come from one vectorised
    pass of numpy's SeedSequence algorithm; each row seeds a PCG64 through
    ``_StateWords``.  This skips building a SeedSequence per screen, which
    is most of the cost of a small draw.
    """
    master, n = int(master_seed), int(n_screens)
    if master < 0:
        raise ValueError("master_seed must be >= 0")
    # An index past 2**32 - 1 would need a second entropy word; arange refuses it.
    master_words = [(master >> s) & _MASK32 for s in range(0, max(master.bit_length(), 1), 32)]
    for start in range(0, n, _SEED_BLOCK):
        index = np.arange(start, min(start + _SEED_BLOCK, n), dtype=np.uint32)
        for words in _pcg64_seed_words(master_words, index):
            yield np.random.Generator(np.random.PCG64(_StateWords(words)))


@dataclass(frozen=True)
class TiltScreen:
    """Exact square-law realization: phi(x) = slope * x."""

    slope_rad_per_mm: float

    def phase(self, x):
        return self.slope_rad_per_mm * np.asarray(x, dtype=float)


@dataclass(frozen=True)
class GriddedScreen:
    """Phase samples on the increasing grid ``x_mm``, linearly interpolated.

    A structure-function estimate also needs the grid uniform; it takes
    the step from ``x_mm`` and checks it once per ensemble.
    """

    x_mm: np.ndarray
    phase_rad: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x_mm, dtype=float)
        ph = np.asarray(self.phase_rad, dtype=float)
        if x.shape != ph.shape or x.ndim != 1 or x.size < 2:
            raise ValueError("x_mm and phase_rad must be equal-length 1-D arrays")
        object.__setattr__(self, "x_mm", x)
        object.__setattr__(self, "phase_rad", ph)

    def phase(self, x):
        x = np.asarray(x, dtype=float)
        if np.any(x < self.x_mm[0]) or np.any(x > self.x_mm[-1]):
            raise ValueError("requested positions outside screen support")
        return np.interp(x, self.x_mm, self.phase_rad)


def sample_tilt_screen(alpha_per_mm2, seed):
    """Draw one tilt screen with slope ~ Normal(0, alpha)."""
    if alpha_per_mm2 < 0:
        raise ValueError("alpha_per_mm2 must be >= 0")
    rng = np.random.default_rng(seed)
    slope = rng.standard_normal() * math.sqrt(alpha_per_mm2)
    return TiltScreen(slope)


def _powerlaw_modes(alpha, p):
    """Log-spaced one-sided spectral modes for D(r) = alpha r^p, 0 < p < 2.

    One-sided density S(f) = A f^-(1+p) with A chosen so that
    2 * integral S(f) (1 - cos 2 pi f r) df = alpha r^p; the outer/inner
    scales window the integral to [1/L0, 1/l0].
    """
    A = alpha * math.gamma(1.0 + p) * math.sin(p * math.pi / 2.0) / ((2.0 * math.pi) ** p * math.pi)
    fmin, fmax = 1.0 / OUTER_SCALE_MM, 1.0 / INNER_SCALE_MM
    n_modes = int(math.ceil(math.log10(fmax / fmin) * MODES_PER_DECADE))
    f = np.geomspace(fmin, fmax, n_modes)
    df = np.empty_like(f)
    df[1:-1] = (f[2:] - f[:-2]) / 2.0
    df[0] = (f[1] - f[0]) / 2.0
    df[-1] = (f[-1] - f[-2]) / 2.0
    return f, A * f ** (-(1.0 + p)), df


def sample_powerlaw_screen(alpha, p, grid_mm, seed):
    """Draw one gridded screen whose ensemble structure function is alpha * r^p.

    ``p == 2`` degenerates to the exact tilt realization evaluated on the
    grid (the spectral construction concentrates all power at the lowest
    mode in that limit).  For ``p < 2`` the screen is a sum of log-spaced
    sin/cos modes with independent Gaussian amplitudes; the approach to
    ``alpha r^p`` is limited by the outer-scale window, which matters most
    for exponents near 2 (infrared-heavy spectra).
    """
    return _powerlaw_screens(alpha, p, grid_mm, [np.random.default_rng(seed)])[0]


def _powerlaw_screens(alpha, p, grid_mm, rngs):
    """One screen per generator in ``rngs``: (alpha, p, grid) are checked and the
    spectral basis (amp, mode-by-grid cos and sin) built once, then each screen
    draws its own mode weights a, b and forms (amp a) @ cos + (amp b) @ sin."""
    if alpha < 0:
        raise ValueError("alpha must be >= 0")
    if not 0.0 < p <= 2.0:
        raise ValueError("p must be in (0, 2]")
    grid = np.asarray(grid_mm, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-D array of at least 2 points")
    _grid_step(grid)
    if alpha == 0.0:
        phases = (np.zeros_like(grid) for _ in rngs)
    elif p == 2.0:
        phases = (rng.standard_normal() * math.sqrt(alpha) * grid for rng in rngs)
    else:
        f, S, df = _powerlaw_modes(alpha, p)
        amp = np.sqrt(S * df)
        arg = 2.0 * math.pi * np.outer(f, grid)
        cos, sin = np.cos(arg), np.sin(arg)
        phases = ((amp * rng.standard_normal(f.size)) @ cos
                  + (amp * rng.standard_normal(f.size)) @ sin for rng in rngs)
    return tuple(GriddedScreen(grid, phase) for phase in phases)


def _grid_step(grid):
    """Step of a uniform 1-D grid; ``ValueError`` if the grid is not uniform."""
    spacing = np.diff(grid)
    if not np.allclose(spacing, spacing[0], rtol=1e-9, atol=0.0):
        raise ValueError("grid must be uniform")
    return float(spacing[0])


@dataclass(frozen=True)
class ScreenEnsemble:
    """Ordered, reproducible collection of screens.

    Regenerating with the same master seed reproduces every element
    bit-for-bit; ordering is by index, never by completion time.
    """

    screens: tuple

    def __len__(self):
        return len(self.screens)

    def __getitem__(self, i):
        return self.screens[i]

    def __iter__(self):
        return iter(self.screens)

    @classmethod
    def tilts(cls, alpha_per_mm2, n_screens, master_seed):
        if n_screens < 1:
            raise ValueError("n_screens must be >= 1")
        slopes = tilt_slopes(alpha_per_mm2, n_screens, master_seed)
        return cls(tuple(TiltScreen(float(a)) for a in slopes))

    @classmethod
    def powerlaw(cls, alpha, p, grid_mm, n_screens, master_seed):
        if n_screens < 1:
            raise ValueError("n_screens must be >= 1")
        return cls(_powerlaw_screens(alpha, p, grid_mm, _screen_rngs(master_seed, n_screens)))


def tilt_slopes(alpha_per_mm2, n_screens, master_seed):
    """Slopes ~ Normal(0, alpha) of tilt screens 0..n-1, screen i drawn from screen_rng(master, i)."""
    if alpha_per_mm2 < 0:
        raise ValueError("alpha_per_mm2 must be >= 0")
    scale = math.sqrt(alpha_per_mm2)
    return np.array([rng.standard_normal() * scale for rng in _screen_rngs(master_seed, n_screens)])


@dataclass(frozen=True)
class StructureFunctionEstimate:
    values: np.ndarray
    standard_errors: np.ndarray
    valid: np.ndarray  # False where the separation is not representable


def estimate_structure_function(ensemble: ScreenEnsemble, separations_mm):
    """Unbiased sample estimate of D(r) = <(phi(x+r) - phi(x))^2>.

    For tilt screens the phase difference at separation r is slope*r at
    every x, so each screen contributes one exact sample.  For gridded
    screens the separation is snapped to the nearest whole number of grid
    steps (within 1e-6 mm) and averaged over all in-support pairs; a
    separation off the lattice or beyond the span is marked invalid rather
    than failing the whole estimate.  The ensemble must be all tilt screens
    or all gridded screens on one uniform grid (``ValueError`` otherwise).
    """
    screens = tuple(ensemble)
    if not screens:
        raise ValueError("ensemble is empty")
    n, first = len(screens), screens[0]
    tilt = isinstance(first, TiltScreen)
    if any(isinstance(s, TiltScreen) != tilt for s in screens) or not tilt and any(
        not np.array_equal(s.x_mm, first.x_mm) for s in screens
    ):
        raise ValueError("ensemble must be all tilt screens or all gridded screens on one grid")
    if tilt:
        slopes = [s.slope_rad_per_mm for s in screens]
    else:
        phases = np.stack([s.phase_rad for s in screens])
        step, size = _grid_step(first.x_mm), first.x_mm.size
    seps = np.atleast_1d(np.asarray(separations_mm, dtype=float))
    values = np.full(seps.shape, np.nan)
    errors = np.full(seps.shape, np.nan)
    valid = np.zeros(seps.shape, dtype=bool)
    for j, r in enumerate(seps):
        r = abs(float(r))  # D is even in the separation
        if tilt:
            # Python's float power: numpy's square can differ in a sample's last bit.
            per_screen = np.array([(a * r) ** 2 for a in slopes])
        else:
            lag = int(round(r / step))
            if abs(r / step - lag) * step > 1e-6 or lag >= size:
                continue
            per_screen = np.mean((phases[:, lag:] - phases[:, : size - lag]) ** 2, axis=1)
        valid[j] = True
        values[j] = per_screen.mean()
        errors[j] = per_screen.std(ddof=1) / math.sqrt(n) if n > 1 else 0.0
    return StructureFunctionEstimate(values, errors, valid)


def mutual_coherence(alpha_per_mm2, dx_mm):
    """Two-point coherence exp(-alpha dx^2 / 2) of the square-law screen ensemble.

    Equals the characteristic function of the Gaussian tilt-slope
    distribution evaluated at the separation, so the tilt Monte Carlo
    average of exp(i (phi(x+dx) - phi(x))) reproduces it exactly.
    """
    if alpha_per_mm2 < 0:
        raise ValueError("alpha_per_mm2 must be >= 0")
    dx = np.asarray(dx_mm, dtype=float)
    out = np.exp(-alpha_per_mm2 * dx**2 / 2.0)
    return out if out.ndim else float(out)

