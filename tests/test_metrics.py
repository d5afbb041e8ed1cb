from itertools import permutations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from conftest import fresh_python, speech_like
from sepfront import cli, metrics
from sepfront.dsp import MultichannelWaveform, StftConfig, stft
from sepfront.errors import InputError
from sepfront.metrics import (
    METRIC_FUNCTIONS,
    LossWeights,
    MetricConfig,
    ci_sdr,
    evaluate_separation,
    pit_assign,
    score_matrix,
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

    def test_same_score_at_any_blas_thread_count(self, rng):
        """A threaded BLAS dot of a pilot scene's 64 000 samples splits its
        sum by the thread count; si_sdr makes no such call."""
        copies = cli._bundled_openblas()
        if not copies:
            pytest.skip("neither numpy nor scipy ships an OpenBLAS")
        ref = speech_like(rng, 64000)
        est = ref + 0.3 * rng.standard_normal(64000)
        before = [get() for get, _ in copies]
        scores = []
        try:
            for count in (1, 2):
                for _, set_ in copies:
                    set_(count)
                scores.append(si_sdr(est, ref))
        finally:
            for (_, set_), count in zip(copies, before):
                set_(count)
        assert scores[0] == scores[1]
        assert [get() for get, _ in copies] == before


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

    def test_zero_reference_rejected(self, rng):
        with pytest.raises(InputError, match="all-zero"):
            ci_sdr(rng.standard_normal(100), np.zeros(100), MetricConfig(ci_sdr_taps=8))


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
    gram[np.diag_indices(taps)] += 1e-12 * np.dot(reference, reference)
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

    Exact zeros are common, so references whose Gram matrix is singular
    without the ridge are too.
    """
    n = draw(st.integers(16, 2000))
    samples = arrays(np.int64, n, elements=st.integers(-100, 100))
    estimate = draw(samples).astype(np.float64)
    reference = draw(samples).astype(np.float64)
    return estimate, reference, draw(st.integers(1, n))


def room_pair(rng, snr_db, length=8000):
    """(estimate, reference): the reference through a 32-tap decaying room,
    plus white noise snr_db below it."""
    ref = speech_like(rng, length)
    room = rng.standard_normal(32) * np.exp(-np.arange(32) / 8.0)
    clean = np.convolve(ref, room)[:length]
    noise = rng.standard_normal(length)
    noise *= np.sqrt(np.sum(clean ** 2) / np.sum(noise ** 2) / 10.0 ** (snr_db / 10.0))
    return clean + noise, ref


class TestCiSdrKernel:
    """The blocked-correlation fit and its normal-equation energies against
    the loop fit and a dense oracle."""

    def test_fft_lengths_equal_scipy_next_fast_len(self):
        """CI-SDR's own 5-smooth search gives scipy.fft's real-FFT length for
        every n up to 2**17, at powers of 2 and their neighbours up to 2**44,
        and at large n with a large 3 or 5 part."""
        from scipy.fft import next_fast_len

        large = [(1 << k) + d for k in range(17, 45) for d in (-1, 0, 1)]
        large += [3 ** 20 + 1, 5 ** 15 - 1, 2 ** 10 * 3 ** 9 * 5 ** 7 + 1, 10 ** 12 + 7]
        for n in [*range(1, (1 << 17) + 1), *large]:
            assert metrics._next_fast_len(n) == next_fast_len(n, real=True), n

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

    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), taps=st.sampled_from([1, 16, 512]),
           scale=st.sampled_from([1e-6, 1e6]), scaled=st.booleans())
    def test_scale_free(self, seed, taps, scale, scaled):
        rng = np.random.default_rng(seed)
        ref = speech_like(rng, 8000)
        room = rng.standard_normal(32) * np.exp(-np.arange(32) / 8.0)
        est = np.convolve(ref, room)[:8000] + 0.3 * speech_like(rng, 8000)
        config = MetricConfig(ci_sdr_taps=taps)
        score = ci_sdr(est, ref, config)
        if scaled:
            moved = ci_sdr(est, scale * ref, config)
        else:
            moved = ci_sdr(scale * est, ref, config)
        assert abs(moved - score) <= 1e-9


    @settings(derandomize=True, deadline=None, max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1), snr_db=st.floats(-40.0, 99.0),
           taps=st.sampled_from([64, 512]))
    def test_identity_matches_loop_fit(self, seed, snr_db, taps):
        est, ref = room_pair(np.random.default_rng(seed), snr_db)
        score = ci_sdr(est, ref, MetricConfig(ci_sdr_taps=taps))
        assert abs(score - ci_sdr_loop(est, ref, taps)) <= 1e-9

    @pytest.mark.parametrize("taps", [64, 512])
    @pytest.mark.parametrize("share", [0.99, 1.01], ids=["fitted-signal", "identity"])
    def test_both_sides_of_the_identity_switch(self, taps, share, rng):
        # noise orthogonal to every delayed copy of the reference is left
        # whole by the fit, so the residual's share of the estimate's energy
        # is set exactly, just under or just over the switch
        ref = speech_like(rng, 8000)
        room = rng.standard_normal(32) * np.exp(-np.arange(32) / 8.0)
        clean = np.convolve(ref, room)[:8000]
        cols = np.zeros((8000, taps))
        for i in range(taps):
            cols[i:, i] = ref[: 8000 - i]
        noise = rng.standard_normal(8000)
        noise -= cols @ np.linalg.lstsq(cols, noise, rcond=None)[0]
        floor = share * metrics._IDENTITY_ERROR_FLOOR
        noise *= np.sqrt(floor / (1.0 - floor) * np.sum(clean ** 2) / np.sum(noise ** 2))
        est = clean + noise
        expected = ci_sdr_loop(est, ref, taps)
        switch_db = 10.0 * np.log10(1.0 / metrics._IDENTITY_ERROR_FLOOR - 1.0)
        assert (expected > switch_db) == (share < 1.0)
        assert abs(ci_sdr(est, ref, MetricConfig(ci_sdr_taps=taps)) - expected) <= 1e-9

    @pytest.mark.parametrize("taps", [1, 64, 512])
    @pytest.mark.parametrize("blocks", ["two-exact", "two-and-one-sample", "one-exact",
                                        "under-one"])
    @pytest.mark.parametrize("snr_db", [10.0, 60.0])
    def test_block_edges(self, taps, blocks, snr_db, rng):
        hop = metrics._fir_system(np.ones(taps), taps)[0] - taps + 1
        length = {"two-exact": 2 * hop, "two-and-one-sample": 2 * hop + 1, "one-exact": hop,
                  "under-one": max(taps, hop // 2)}[blocks]
        est, ref = room_pair(rng, snr_db, length)
        score = ci_sdr(est, ref, MetricConfig(ci_sdr_taps=taps))
        assert abs(score - ci_sdr_loop(est, ref, taps)) <= 1e-9

    @pytest.mark.parametrize("taps", [2, 64, 512])
    def test_taps_equal_to_length_in_one_block(self, taps, rng):
        # the signals fit in one block; the zero first sample leaves est[0]
        # unfitted, and the unit second sample over a small decaying tail
        # keeps the full-length system well conditioned
        ref = np.zeros(taps)
        ref[1] = 1.0
        ref[2:] = 0.1 * rng.standard_normal(taps - 2) * np.exp(-np.arange(taps - 2) / 8.0)
        est = rng.standard_normal(taps)
        score = ci_sdr(est, ref, MetricConfig(ci_sdr_taps=taps))
        assert abs(score - 10.0 * np.log10(np.sum(est[1:] ** 2) / est[0] ** 2)) <= 1e-9
        assert abs(score - ci_sdr_loop(est, ref, taps)) <= 1e-9


def cold_ci_sdr(estimate, reference, config, monkeypatch):
    """ci_sdr with no reference system kept from an earlier call."""
    monkeypatch.setattr(metrics, "_last_system", None)
    return ci_sdr(estimate, reference, config)


class TestCiSdrSystemReuse:
    """Each reference's system is built once and reused only for that reference."""

    CONFIG = MetricConfig(ci_sdr_taps=64)

    def pairs(self, rng):
        refs = [speech_like(rng, 4000) for _ in range(2)]
        ests = [r[::-1] + 0.5 * speech_like(rng, 4000) for r in refs] + [refs[0] + refs[1]]
        return ests, refs

    def test_warm_interleaved_scores_equal_cold_ones(self, rng, monkeypatch):
        ests, refs = self.pairs(rng)
        cold = [[cold_ci_sdr(e, r, self.CONFIG, monkeypatch) for r in refs] for e in ests]
        # every other call keeps the last call's reference, the rest change it
        for i, j in [(0, 0), (1, 0), (1, 1), (2, 1), (2, 0), (0, 0), (0, 1), (1, 1)]:
            assert ci_sdr(ests[i], refs[j], self.CONFIG) == cold[i][j]
        assert score_matrix(ests, refs, "ci_sdr", self.CONFIG).tolist() == cold

    def test_reference_mutated_in_place_is_not_served_stale(self, rng, monkeypatch):
        ests, refs = self.pairs(rng)
        ref = refs[0].copy()
        before = ci_sdr(ests[0], ref, self.CONFIG)
        ref[2000] += 1.0
        after = ci_sdr(ests[0], ref, self.CONFIG)
        assert after != before
        assert after == cold_ci_sdr(ests[0], ref, self.CONFIG, monkeypatch)

    def test_other_taps_are_not_served_stale(self, rng, monkeypatch):
        ests, refs = self.pairs(rng)
        ci_sdr(ests[0], refs[0], self.CONFIG)
        config = MetricConfig(ci_sdr_taps=8)
        assert ci_sdr(ests[0], refs[0], config) == cold_ci_sdr(
            ests[0], refs[0], config, monkeypatch)


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

    @staticmethod
    def loaded_by_importing_the_cli(module):
        """Whether a fresh interpreter that imports sepfront.cli has loaded module."""
        child = fresh_python(f"import sys, sepfront.cli; print({module!r} in sys.modules)",
                             timeout=120)
        assert child.returncode == 0, child.stderr
        return child.stdout.strip() == "True"

    def test_importing_the_cli_leaves_out_the_assignment_solver(self):
        """Only pit_assign above EXHAUSTIVE_LIMIT streams uses scipy.optimize,
        so a fresh interpreter that imports sepfront.cli has not loaded it."""
        assert not self.loaded_by_importing_the_cli("scipy.optimize")

    def test_importing_the_cli_leaves_out_scipy_io(self):
        """audio_io reads and writes RIFF itself, so no part of sepfront
        imports scipy.io."""
        assert not self.loaded_by_importing_the_cli("scipy.io")

    @pytest.mark.parametrize("module", ["scipy", "scipy.linalg", "scipy.fft", "scipy.signal"])
    def test_importing_the_cli_leaves_out_what_only_ci_sdr_uses(self, module):
        """CI-SDR imports scipy.linalg where it calls it, nothing in sepfront
        uses scipy.fft or scipy.signal, and the CLI finds scipy's OpenBLAS
        without importing scipy, so a run that scores SI-SDR loads no part of
        scipy."""
        assert not self.loaded_by_importing_the_cli(module)


class TestScoreMatrix:
    @pytest.mark.parametrize("metric", sorted(METRIC_FUNCTIONS))
    def test_entries_are_the_pair_metric(self, metric, rng):
        refs = [speech_like(rng, 1500) for _ in range(2)]
        ests = [refs[1] + 0.2 * rng.standard_normal(1500), refs[0] + refs[1],
                0.3 * refs[0] + rng.standard_normal(1500)]
        config = MetricConfig(ci_sdr_taps=32)
        scores = score_matrix(ests, refs, metric, config)
        assert scores.shape == (3, 2)
        for i, est in enumerate(ests):
            for j, ref in enumerate(refs):
                assert scores[i, j] == METRIC_FUNCTIONS[metric](est, ref, config)

    def test_unknown_metric(self, rng):
        with pytest.raises(InputError, match="unknown metric: 'sdr'"):
            score_matrix([rng.standard_normal(10)], [rng.standard_normal(10)], "sdr")


class TestEvaluateSeparation:
    def test_identity(self, rng):
        refs = [rng.standard_normal(500) for _ in range(3)]
        mixture = sum(refs)
        result = evaluate_separation(mixture, refs, refs)
        assert result["input_db"] == [si_sdr(mixture, ref) for ref in refs]
        assert result["assignment"].permutation == (0, 1, 2)
        assert result["per_speaker_db"] == [100.0] * 3
        assert result["mean_db"] == 100.0

    def test_swapped_order(self, rng):
        refs = [rng.standard_normal(500) for _ in range(2)]
        result = evaluate_separation(refs[0], [refs[1], refs[0]], refs)
        assert result["input_db"] == [100.0, si_sdr(refs[0], refs[1])]
        assert result["assignment"].permutation == (1, 0)
        assert result["per_speaker_db"] == [100.0, 100.0]

    def test_matches_manual_alignment(self, rng):
        refs = [rng.standard_normal(800) for _ in range(2)]
        ests = [refs[1] + 0.1 * rng.standard_normal(800), refs[0] + 0.3 * rng.standard_normal(800)]
        mixture = refs[0] + refs[1]
        result = evaluate_separation(mixture, ests, refs)
        assert result["input_db"] == [si_sdr(mixture, ref) for ref in refs]
        perm = result["assignment"].permutation
        manual = [si_sdr(ests[i], refs[perm[i]]) for i in range(2)]
        np.testing.assert_allclose(result["per_speaker_db"], manual, atol=1e-12)

    def test_invariant_under_simultaneous_permutation(self, rng):
        refs = [rng.standard_normal(600) for _ in range(3)]
        ests = [r + 0.2 * rng.standard_normal(600) for r in refs]
        mixture = sum(refs)
        base = evaluate_separation(mixture, ests, refs)
        shuffled = evaluate_separation(
            mixture, [ests[2], ests[0], ests[1]], [refs[2], refs[0], refs[1]]
        )
        assert abs(base["mean_db"] - shuffled["mean_db"]) < 1e-12
        assert shuffled["input_db"] == [base["input_db"][k] for k in (2, 0, 1)]

    def test_count_mismatch(self, rng):
        refs = [rng.standard_normal(100)] * 2
        with pytest.raises(InputError):
            evaluate_separation(refs[0], [rng.standard_normal(100)], refs)
