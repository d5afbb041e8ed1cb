from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import speech_like
from sepfront.dsp import MultichannelWaveform, StftConfig, stft
from sepfront.errors import InputError
from sepfront.metrics import (
    LossWeights,
    MetricConfig,
    ci_sdr,
    evaluate_separation,
    pit_assign,
    si_sdr,
    waveform_spectral_l1,
)


def dense_fir_oracle(estimate, reference, taps):
    """Explicit convolution-matrix least squares, truncated at len(estimate)."""
    L = len(reference)
    cols = np.zeros((L, taps))
    for i in range(taps):
        cols[i:, i] = reference[: L - i]
    h, *_ = np.linalg.lstsq(cols, estimate, rcond=None)
    fitted = cols @ h
    return 10.0 * np.log10(np.sum(fitted ** 2) / np.sum((estimate - fitted) ** 2))


class TestSiSdr:
    def test_identical_at_cap(self, rng):
        x = rng.standard_normal(1000)
        assert si_sdr(x, x) == 100.0

    def test_scale_invariance(self, rng):
        x = rng.standard_normal(1000)
        for alpha in (0.5, -2.0, 1e-3):
            assert si_sdr(alpha * x, x) == 100.0

    def test_orthogonal_noise_power_ratio(self, rng):
        s = rng.standard_normal(8192)
        n = rng.standard_normal(8192)
        n -= (n @ s) / (s @ s) * s  # orthogonalize
        n *= np.sqrt((s @ s) / (n @ n) / 10.0)  # 10:1 power ratio
        assert abs(si_sdr(s + n, s) - 10.0) < 1e-6

    def test_zero_reference_rejected(self, rng):
        with pytest.raises(InputError):
            si_sdr(rng.standard_normal(100), np.zeros(100))

    def test_length_mismatch(self, rng):
        with pytest.raises(InputError):
            si_sdr(rng.standard_normal(100), rng.standard_normal(99))


class TestCiSdr:
    def test_delayed_scaled_reference_at_cap(self, rng):
        ref = rng.standard_normal(4000)
        est = np.zeros(4000)
        est[100:] = 0.5 * ref[:-100]
        assert ci_sdr(est, ref) == 100.0

    def test_short_fir_filtered_reference_at_cap(self, rng):
        ref = rng.standard_normal(6000)
        h = rng.standard_normal(32)
        est = np.convolve(ref, h)[:6000]
        assert ci_sdr(est, ref) == 100.0

    def test_taps_one_equals_scaled_sdr(self, rng):
        for _ in range(10):
            est = rng.standard_normal(2000)
            ref = rng.standard_normal(2000)
            one_tap = ci_sdr(est, ref, MetricConfig(ci_sdr_taps=1))
            assert abs(one_tap - si_sdr(est, ref)) < 1e-9

    def test_matches_dense_least_squares_oracle(self, rng):
        for _ in range(25):
            ref = rng.standard_normal(1500)
            est = np.convolve(ref, rng.standard_normal(8))[:1500]
            est += 0.3 * rng.standard_normal(1500)
            ours = ci_sdr(est, ref, MetricConfig(ci_sdr_taps=16))
            oracle = dense_fir_oracle(est, ref, 16)
            assert abs(ours - oracle) < 1e-8

    def test_never_below_si_sdr(self, rng):
        for taps in (1, 4, 64):
            est = rng.standard_normal(3000)
            ref = rng.standard_normal(3000)
            assert ci_sdr(est, ref, MetricConfig(ci_sdr_taps=taps)) >= si_sdr(est, ref) - 1e-9

    def test_too_short_signal(self, rng):
        with pytest.raises(InputError):
            ci_sdr(rng.standard_normal(100), rng.standard_normal(100), MetricConfig(ci_sdr_taps=512))


def _fir_fit_loop(estimate, reference, taps):
    """The CI-SDR fit as a loop over taps: dot-product correlations, a
    column-by-column truncation correction and a direct convolution."""
    L = len(reference)
    r = np.array([np.dot(reference[: L - d], reference[d:]) for d in range(taps)])
    idx = np.abs(np.arange(taps)[:, None] - np.arange(taps)[None, :])
    gram = r[idx]
    tail = np.zeros((taps, taps), dtype=np.float64)
    for i in range(1, taps):
        tail[:i, i] = reference[L - i:]
    gram = gram - tail.T @ tail
    gram[np.diag_indices(taps)] += 1e-12
    cross = np.array([np.dot(estimate[i:], reference[: L - i]) for i in range(taps)])
    h = np.linalg.solve(gram, cross)
    return np.convolve(reference, h)[:L]


def ci_sdr_loop(estimate, reference, taps, cap_db=100.0):
    fitted = _fir_fit_loop(estimate, reference, taps)
    ratio = np.sum(fitted ** 2) / np.sum((estimate - fitted) ** 2)
    return float(np.clip(10.0 * np.log10(ratio), -cap_db, cap_db))


@st.composite
def fir_cases(draw):
    """(estimate, reference, taps) with whole-number samples in [-100, 100].

    Exact zeros are common; a reference that is not all-zero has energy of
    at least 1, so the fixed 1e-12 ridge moves a score by under 1e-11 dB.
    """
    n = draw(st.integers(16, 2000))
    samples = arrays(np.int64, n, elements=st.integers(-100, 100))
    estimate = draw(samples).astype(np.float64)
    reference = draw(samples).astype(np.float64)
    return estimate, reference, draw(st.integers(1, n))


class TestCiSdrKernel:
    """The FFT-correlation fit against the loop fit and a dense oracle."""

    def test_matches_loop_fit_on_speech_like_pairs(self, rng):
        for _ in range(4):
            ref = speech_like(rng, 64000)
            room = rng.standard_normal(64) * np.exp(-np.arange(64) / 12.0)
            est = np.convolve(ref, room)[:64000] + 0.3 * speech_like(rng, 64000)
            assert abs(ci_sdr(est, ref) - ci_sdr_loop(est, ref, 512)) <= 1e-9

    def test_matches_dense_oracle_at_512_taps(self, rng):
        for _ in range(2):
            ref = rng.standard_normal(6000)
            est = np.convolve(ref, rng.standard_normal(40))[:6000]
            est += 2.0 * rng.standard_normal(6000)
            oracle = dense_fir_oracle(est, ref, 512)
            assert abs(ci_sdr(est, ref) - oracle) <= 1e-8

    def test_taps_equal_to_length(self, rng):
        # a full-length FIR of a reference with a dominant first sample fits
        # anything; with a zero first sample the first estimate sample is
        # left over and the last tap's column is empty
        ref = np.concatenate([[1.0], 0.1 * rng.standard_normal(63)])
        est = rng.standard_normal(64)
        config = MetricConfig(ci_sdr_taps=64)
        assert ci_sdr(est, ref, config) == 100.0
        ref = np.concatenate([[0.0, 1.0], 0.1 * rng.standard_normal(62)])
        expected = 10.0 * np.log10(np.sum(est[1:] ** 2) / est[0] ** 2)
        assert abs(ci_sdr(est, ref, config) - expected) <= 1e-9
        assert abs(ci_sdr(est, ref, config) - ci_sdr_loop(est, ref, 64)) <= 1e-9

    @pytest.mark.parametrize("length", [1, 2, 17])
    def test_one_tap_at_short_lengths(self, length, rng):
        est = rng.standard_normal(length)
        ref = rng.standard_normal(length)
        one_tap = ci_sdr(est, ref, MetricConfig(ci_sdr_taps=1))
        assert abs(one_tap - si_sdr(est, ref)) <= 1e-9

    @pytest.mark.parametrize("taps", [1, 8, 300])
    def test_reference_nonzero_only_in_last_sample(self, taps, rng):
        # every shifted column but the first loses its only sample to the
        # truncation, so the fit is the scalar one
        ref = np.zeros(300)
        ref[-1] = 1.5
        est = rng.standard_normal(300)
        config = MetricConfig(ci_sdr_taps=taps)
        assert abs(ci_sdr(est, ref, config) - si_sdr(est, ref)) <= 1e-9
        assert abs(ci_sdr(est, ref, config) - ci_sdr_loop(est, ref, taps)) <= 1e-9

    @settings(deadline=None)
    @given(fir_cases())
    def test_bounded_and_never_below_si_sdr(self, case):
        est, ref, taps = case
        assume(np.any(ref))
        score = ci_sdr(est, ref, MetricConfig(ci_sdr_taps=taps))
        assert -100.0 <= score <= 100.0
        assert score >= si_sdr(est, ref) - 1e-9
        if taps == 1:
            assert abs(score - si_sdr(est, ref)) <= 1e-9


class TestWaveformSpectralL1:
    CFG = StftConfig(8, 4, fft_size=8)

    def test_zero_on_identical(self, rng):
        x = rng.standard_normal(64)
        assert waveform_spectral_l1(x, x, self.CFG) == 0.0

    def test_default_weights(self):
        weights = LossWeights()
        assert weights.waveform_weight == 0.99
        assert abs(weights.magnitude_weight - 0.01) < 1e-15

    def test_hand_computed_value(self, rng):
        ref = rng.standard_normal(16)
        est = ref + 0.25
        loss = waveform_spectral_l1(est, ref, self.CFG)
        wave_term = np.mean(np.abs(est - ref))
        mag_est = np.abs(stft(MultichannelWaveform(est, 16000), self.CFG).bins)
        mag_ref = np.abs(stft(MultichannelWaveform(ref, 16000), self.CFG).bins)
        mag_term = np.mean(np.abs(mag_est - mag_ref))
        expected = 0.99 * wave_term + 0.01 * mag_term
        assert abs(loss - expected) < 1e-12
        assert abs(0.99 * wave_term - 0.99 * 0.25) < 1e-12

    def test_pseudometric_properties(self, rng):
        for _ in range(10):
            a = rng.standard_normal(64)
            b = rng.standard_normal(64)
            c = rng.standard_normal(64)
            ab = waveform_spectral_l1(a, b, self.CFG)
            ba = waveform_spectral_l1(b, a, self.CFG)
            assert abs(ab - ba) < 1e-15
            ac = waveform_spectral_l1(a, c, self.CFG)
            cb = waveform_spectral_l1(c, b, self.CFG)
            assert ab <= ac + cb + 1e-12


class TestPitAssign:
    def test_single_stream(self):
        result = pit_assign([[3.5]])
        assert result.permutation == (0,)
        assert result.total_cost == 3.5

    def test_obvious_diagonal(self):
        result = pit_assign([[0.0, 10.0], [10.0, 0.0]])
        assert result.permutation == (0, 1)
        assert result.total_cost == 0.0

    def test_matches_brute_force(self, rng):
        for k in range(2, 7):
            for _ in range(30):
                cost = rng.standard_normal((k, k))
                result = pit_assign(cost)
                best = min(
                    sum(cost[i, p[i]] for i in range(k))
                    for p in permutations(range(k))
                )
                assert abs(result.total_cost - best) < 1e-12

    def test_lexicographic_tie_break(self):
        # every permutation costs 2.0; smallest permutation must win
        cost = np.ones((3, 3))
        cost[0, 0] = 0.0
        result = pit_assign(cost)
        assert result.permutation == (0, 1, 2)
        all_tied = np.zeros((4, 4))
        assert pit_assign(all_tied).permutation == (0, 1, 2, 3)

    def test_large_k_uses_assignment_solver(self, rng):
        cost = rng.standard_normal((9, 9))
        result = pit_assign(cost)
        assert sorted(result.permutation) == list(range(9))
        greedy_diag = float(np.trace(cost))
        assert result.total_cost <= greedy_diag + 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(InputError):
            pit_assign([[1.0, 2.0]])
        with pytest.raises(InputError):
            pit_assign([[np.nan, 1.0], [1.0, 0.0]])


class TestEvaluateSeparation:
    def test_identity(self, rng):
        refs = [rng.standard_normal(500) for _ in range(3)]
        result = evaluate_separation(refs, refs)
        assert result["assignment"].permutation == (0, 1, 2)
        assert result["per_speaker_db"] == [100.0] * 3
        assert result["mean_db"] == 100.0

    def test_swapped_order(self, rng):
        refs = [rng.standard_normal(500) for _ in range(2)]
        result = evaluate_separation([refs[1], refs[0]], refs)
        assert result["assignment"].permutation == (1, 0)
        assert result["per_speaker_db"] == [100.0, 100.0]

    def test_matches_manual_alignment(self, rng):
        refs = [rng.standard_normal(800) for _ in range(2)]
        ests = [refs[1] + 0.1 * rng.standard_normal(800), refs[0] + 0.3 * rng.standard_normal(800)]
        result = evaluate_separation(ests, refs)
        perm = result["assignment"].permutation
        manual = [si_sdr(ests[i], refs[perm[i]]) for i in range(2)]
        np.testing.assert_allclose(result["per_speaker_db"], manual, atol=1e-12)

    def test_invariant_under_simultaneous_permutation(self, rng):
        refs = [rng.standard_normal(600) for _ in range(3)]
        ests = [r + 0.2 * rng.standard_normal(600) for r in refs]
        base = evaluate_separation(ests, refs)
        shuffled = evaluate_separation(
            [ests[2], ests[0], ests[1]], [refs[2], refs[0], refs[1]]
        )
        assert abs(base["mean_db"] - shuffled["mean_db"]) < 1e-12

    def test_count_mismatch(self, rng):
        with pytest.raises(InputError):
            evaluate_separation([rng.standard_normal(100)], [rng.standard_normal(100)] * 2)
