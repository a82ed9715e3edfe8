import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from turbghost import screens
from turbghost.screens import (
    GriddedScreen,
    ScreenEnsemble,
    TiltScreen,
    estimate_structure_function,
    mutual_coherence,
    sample_powerlaw_screen,
    sample_tilt_screen,
    screen_rng,
    tilt_slopes,
)

MASTER = 1234


class TestTiltScreens:
    def test_zero_alpha_is_flat(self):
        for seed in range(10):
            assert sample_tilt_screen(0.0, seed).slope_rad_per_mm == 0.0

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            sample_tilt_screen(-1.0, 0)

    def test_seed_determinism_bit_for_bit(self):
        a = sample_tilt_screen(2.0, 42).slope_rad_per_mm
        b = sample_tilt_screen(2.0, 42).slope_rad_per_mm
        assert a == b

    def test_slope_variance_concentration(self):
        # Sample variance of N=1e4 normals concentrates within ~4% (3 sigma
        # of the chi-squared variance estimator) of alpha.
        slopes = tilt_slopes(2.0, 10000, MASTER)
        assert 1.92 <= slopes.var() <= 2.08

    def test_index_derivation_is_order_free(self):
        ens = ScreenEnsemble.tilts(2.0, 20, MASTER)
        # Regenerating any single index in isolation matches the ensemble.
        for idx in (0, 7, 19):
            lone = sample_tilt_screen(2.0, np.random.SeedSequence((MASTER, idx)))
            assert lone.slope_rad_per_mm == ens[idx].slope_rad_per_mm

    def test_ensemble_regeneration_identical(self):
        a = ScreenEnsemble.tilts(2.0, 50, MASTER)
        b = ScreenEnsemble.tilts(2.0, 50, MASTER)
        assert all(x.slope_rad_per_mm == y.slope_rad_per_mm for x, y in zip(a, b))

    def test_screen_rng_is_pure(self):
        assert (
            screen_rng(MASTER, 3).standard_normal()
            == screen_rng(MASTER, 3).standard_normal()
        )

    def test_screen_rng_spawns(self):
        children = screen_rng(MASTER, 3).spawn(2)
        assert children[0].standard_normal() != children[1].standard_normal()


class TestMutualCoherence:
    def test_unit_at_zero(self):
        assert mutual_coherence(2.0, 0.0) == 1.0

    def test_reference_value(self):
        assert mutual_coherence(2.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-12)

    def test_negative_alpha_rejected(self):
        with pytest.raises(ValueError):
            mutual_coherence(-0.5, 0.1)

    def test_monte_carlo_average_matches(self):
        # <exp(i a dx)> over tilt slopes is the Gaussian characteristic
        # function; at N = 1e4 the real part agrees within 2% and the
        # imaginary part vanishes by symmetry.
        slopes = tilt_slopes(2.0, 10000, MASTER)
        for dx in (0.25, 0.5, 1.0):
            avg = np.exp(1j * slopes * dx).mean()
            expect = mutual_coherence(2.0, dx)
            assert abs(avg.real - expect) / expect < 0.02
            assert abs(avg.imag) < 0.02


class TestStructureFunction:
    def test_tilt_reference_value(self):
        # D(r) = alpha r^2 exactly in expectation: 2.0 * 0.1^2 = 0.02.
        ens = ScreenEnsemble.tilts(2.0, 10000, MASTER)
        est = estimate_structure_function(ens, [0.1])
        assert est.valid[0]
        assert est.values[0] == pytest.approx(0.02, rel=0.05)

    def test_zero_separation(self):
        ens = ScreenEnsemble.tilts(2.0, 100, MASTER)
        est = estimate_structure_function(ens, [0.0])
        assert est.values[0] == 0.0

    def test_flat_screen_gives_zero(self):
        grid = np.linspace(0.0, 3.0, 61)
        ens = ScreenEnsemble((GriddedScreen(grid, np.zeros_like(grid)),))
        est = estimate_structure_function(ens, [0.05, 0.5, 1.0])
        np.testing.assert_array_equal(est.values, 0.0)

    def test_out_of_support_marked_not_fatal(self):
        grid = np.arange(64) * 0.05
        ens = ScreenEnsemble.powerlaw(1.0, 2.0, grid, 5, MASTER)
        est = estimate_structure_function(ens, [0.1, 500.0, 0.0123])
        assert est.valid.tolist() == [True, False, False]
        assert np.isfinite(est.values[0])
        assert np.isnan(est.values[1])

    def test_empty_ensemble_rejected(self):
        with pytest.raises(ValueError):
            estimate_structure_function(ScreenEnsemble(()), [0.1])

    @staticmethod
    def per_screen_loop(ensemble, separations):
        # Reference: one sample per (separation, screen), as a plain loop.
        n = len(ensemble)
        values, errors = [], []
        for r in np.abs(np.asarray(separations, dtype=float)):
            samples = np.empty(n)
            for i, screen in enumerate(ensemble):
                if isinstance(screen, TiltScreen):
                    samples[i] = (screen.slope_rad_per_mm * r) ** 2
                else:
                    lag = int(round(r / (screen.x_mm[1] - screen.x_mm[0])))
                    diff = screen.phase_rad[lag:] - screen.phase_rad[: screen.x_mm.size - lag]
                    samples[i] = np.mean(diff**2)
            values.append(samples.mean())
            errors.append(samples.std(ddof=1) / math.sqrt(n))
        return np.array(values), np.array(errors)

    @pytest.mark.parametrize("kind, master", [("tilt", 61), ("tilt", 41), ("powerlaw", 5)])
    def test_matches_per_screen_loop_bit_for_bit(self, kind, master):
        # Tilt masters 61 and 41 at 50 screens are cases where squaring the
        # slope array with numpy changes the mean or its standard error.
        seps = [0.05, 0.1, -0.2, 0.5, 0.0]
        if kind == "tilt":
            ens = ScreenEnsemble.tilts(1.3, 50, master)
        else:
            ens = ScreenEnsemble.powerlaw(1.3, 5 / 3, np.arange(256) * 0.0125, 40, master)
        est = estimate_structure_function(ens, seps)
        values, errors = self.per_screen_loop(ens, seps)
        assert est.valid.all()
        np.testing.assert_array_equal(est.values, values)
        np.testing.assert_array_equal(est.standard_errors, errors)

    @pytest.mark.parametrize("mix", ["tilt_and_gridded", "two_grids"])
    def test_mixed_ensemble_rejected(self, mix):
        grid = np.arange(64) * 0.05
        first = GriddedScreen(grid, 0.3 * grid)
        other = TiltScreen(0.3) if mix == "tilt_and_gridded" else GriddedScreen(
            grid + 1.0, 0.3 * grid)
        for screens in ((first, other), (other, first)):
            with pytest.raises(ValueError):
                estimate_structure_function(ScreenEnsemble(screens), [0.1])

    def test_step_taken_from_grid(self):
        # A linear phase 0.3 x on a 0.05 mm grid: D(r) = (0.3 r)^2 at every
        # lattice separation, read with the grid's own step.
        grid = np.arange(64) * 0.05
        est = estimate_structure_function(ScreenEnsemble((GriddedScreen(grid, 0.3 * grid),)),
                                          [0.05, 0.1, 0.5])
        assert est.valid.all()
        np.testing.assert_allclose(est.values, [0.000225, 0.0009, 0.0225], rtol=1e-12)

    def test_nonuniform_grid_rejected(self):
        grid = np.concatenate([np.arange(32) * 0.05, 1.6 + np.arange(32) * 0.1])
        ens = ScreenEnsemble((GriddedScreen(grid, 0.3 * grid), GriddedScreen(grid, 0.1 * grid)))
        with pytest.raises(ValueError, match="uniform"):
            estimate_structure_function(ens, [0.1])


class TestPowerlawScreens:
    def test_zero_alpha_flat(self):
        grid = np.arange(32) * 0.1
        screen = sample_powerlaw_screen(0.0, 5 / 3, grid, 1)
        np.testing.assert_array_equal(screen.phase_rad, 0.0)

    def test_nonuniform_grid_rejected(self):
        with pytest.raises(ValueError):
            sample_powerlaw_screen(1.0, 5 / 3, np.array([0.0, 0.1, 0.3]), 1)

    def test_p2_matches_square_law(self):
        # p = 2 degenerates to the exact tilt realization, so the estimated
        # structure function sits inside the same +-5% window at every r.
        grid = np.arange(128) * 0.0125
        ens = ScreenEnsemble.powerlaw(2.0, 2.0, grid, 4000, 55)
        rs = np.array([0.05, 0.1, 0.25, 0.5])
        est = estimate_structure_function(ens, rs)
        ratio = est.values / (2.0 * rs**2)
        assert np.all((0.95 <= ratio) & (ratio <= 1.05))

    def test_p2_agrees_with_tilt_generator_within_errors(self):
        grid = np.arange(128) * 0.0125
        n = 3000
        pl = estimate_structure_function(
            ScreenEnsemble.powerlaw(2.0, 2.0, grid, n, 55), [0.2]
        )
        ti = estimate_structure_function(ScreenEnsemble.tilts(2.0, n, 56), [0.2])
        joint = math.hypot(pl.standard_errors[0], ti.standard_errors[0])
        assert abs(pl.values[0] - ti.values[0]) < 3.0 * joint

    def test_kolmogorov_like_exponent_reference(self):
        # alpha r^p at alpha = 1, p = 5/3, r = 0.1: 0.021544 rad^2, within 5%
        # (outer-scale truncation plus sampling error both stay below that).
        grid = np.arange(256) * 0.0125
        ens = ScreenEnsemble.powerlaw(1.0, 5 / 3, grid, 3000, 77)
        est = estimate_structure_function(ens, [0.1])
        assert est.values[0] == pytest.approx(1.0 * 0.1 ** (5 / 3), rel=0.05)

    def test_determinism_per_index(self):
        grid = np.arange(64) * 0.05
        a = sample_powerlaw_screen(1.0, 5 / 3, grid, np.random.SeedSequence((9, 4)))
        b = sample_powerlaw_screen(1.0, 5 / 3, grid, np.random.SeedSequence((9, 4)))
        np.testing.assert_array_equal(a.phase_rad, b.phase_rad)

    def test_golden_sha256(self):
        # Pinning test: seeded power-law phases keep their bits.  The spectral
        # amplitude takes math.gamma(1 + p); the p = 1.2 single screen pins a
        # value where a gamma off by one ULP (as scipy's is there) would move
        # the digest, while p = 5/3 and p = 1.0 also agree with scipy's.
        grid = np.arange(256) * 0.0125

        def digest(screens):
            h = hashlib.sha256()
            for screen in screens:
                h.update(np.ascontiguousarray(screen.phase_rad, dtype="<f8").tobytes())
            return h.hexdigest()

        assert digest(ScreenEnsemble.powerlaw(1.3, 5 / 3, grid, 8, MASTER)) == (
            "97b3abc14862cb47eb8560b4f7e9f37a12c9d9ef9d404d386ec7d916d921da0c")
        assert digest(ScreenEnsemble.powerlaw(0.7, 1.0, grid, 8, MASTER)) == (
            "c3f7063d065598b8ad1a5f97b72d4414c21a03956c2be26cf259d7dee72e49c0")
        single = sample_powerlaw_screen(1.0, 1.2, grid, np.random.SeedSequence((9, 4)))
        assert digest([single]) == (
            "3bf4933ddd52a2ec33a63f27063c08b9234dfe94c946dda04dce6fcd2793ae3f")

    @pytest.mark.parametrize("p", [5 / 3, 2.0])
    def test_ensemble_member_is_the_single_screen(self, p):
        # Screen i of an ensemble is the single screen drawn from
        # SeedSequence((master, i)), bit for bit.
        grid = np.arange(256) * 0.0125
        ens = ScreenEnsemble.powerlaw(1.3, p, grid, 6, MASTER)
        for i, screen in enumerate(ens):
            single = sample_powerlaw_screen(1.3, p, grid, np.random.SeedSequence((MASTER, i)))
            np.testing.assert_array_equal(screen.phase_rad, single.phase_rad)



def reference_draws(master, n):
    """First normal and the five after it from numpy's own SeedSequence((master, i))."""
    rngs = (np.random.default_rng(np.random.SeedSequence((master, i))) for i in range(n))
    return [(rng.standard_normal(), rng.standard_normal(5).tolist()) for rng in rngs]


def block_draws(master, n):
    return [(rng.standard_normal(), rng.standard_normal(5).tolist())
            for rng in screens._screen_rngs(master, n)]


class TestBlockSeeding:
    """Per-screen generators seeded in blocks carry numpy's SeedSequence((master, i))
    PCG64 state: the draws after the first one must agree too."""

    @pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**64 + 3, 2**127, MASTER])
    @pytest.mark.parametrize("n", [1, screens._SEED_BLOCK + 3])
    def test_matches_seed_sequence(self, master, n):
        assert block_draws(master, n) == reference_draws(master, n)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**128 - 1), st.integers(1, 200))
    def test_matches_seed_sequence_property(self, master, n):
        assert block_draws(master, n) == reference_draws(master, n)

    def test_negative_master_rejected_like_seed_sequence(self):
        with pytest.raises(ValueError):
            np.random.SeedSequence((-1, 0))
        with pytest.raises(ValueError):
            block_draws(-1, 3)
        with pytest.raises(ValueError):
            tilt_slopes(2.0, 3, -1)

    def test_state_words_serve_only_pcg64s_request(self):
        words = np.random.SeedSequence((MASTER, 0)).generate_state(4, np.uint64)
        seq = screens._StateWords(words)
        out = seq.generate_state(4, np.uint64)
        assert out.dtype == np.uint64 and out.flags.c_contiguous
        for n_words, dtype in ((4, np.uint32), (8, np.uint32), (2, np.uint64), (5, np.uint64)):
            with pytest.raises(ValueError):
                seq.generate_state(n_words, dtype)

    def test_ensembles_build_no_seed_sequence(self, monkeypatch):
        # A return to one SeedSequence per screen index fails here.
        made = []
        real = np.random.SeedSequence

        def counting(*args, **kwargs):
            made.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(np.random, "SeedSequence", counting)
        screen_rng(MASTER, 0)
        assert len(made) == 1  # the wrapper sees the per-index path
        made.clear()
        tilt_slopes(2.0, 5000, MASTER)
        ScreenEnsemble.powerlaw(1.0, 1.2, np.arange(32) * 0.05, 300, MASTER)
        assert made == []
