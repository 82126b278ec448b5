import math

import numpy as np
import pytest

from oracles import griffin_lim_oracle, griffin_lim_unit_phase_oracle
from spkraug import spectral
from spkraug.audio_io import AudioClip, read_wav, write_wav
from spkraug.errors import SpkraugError
from spkraug.spectral import (
    DEFAULT_FFT_SIZE,
    DEFAULT_FRAME_LENGTH,
    DEFAULT_FRAME_SHIFT,
    Spectrogram,
    griffin_lim,
    istft,
    magnitude_spectrogram,
    read_spectrogram,
    stft,
    write_spectrogram,
)
from synth import SR, sine


def _expected_frames(n, length=DEFAULT_FRAME_LENGTH, shift=DEFAULT_FRAME_SHIFT):
    return 1 + math.ceil(max(0, n - length) / shift)


# -- stft geometry -----------------------------------------------------------

def test_stft_shape_defaults():
    spec = stft(sine(440.0, 1.0))
    assert spec.shape == (_expected_frames(SR), DEFAULT_FFT_SIZE // 2 + 1)
    assert spec.dtype == np.complex128


@pytest.mark.parametrize("n", [1, 799, 800, 801, 1000, 1001, 4000])
def test_stft_frame_count_covers_every_sample(n):
    spec = stft(AudioClip(np.ones(n), SR), 800, 200, 1024)
    frames = spec.shape[0]
    assert frames == 1 + math.ceil(max(0, n - 800) / 200)
    # the last frame must reach the final sample, one more would start past it
    assert 800 + (frames - 1) * 200 >= n
    if n > 800:
        assert (frames - 2) * 200 + 800 < n


def test_stft_empty_clip_rejected():
    with pytest.raises(SpkraugError, match="cannot analyze an empty clip"):
        stft(AudioClip(np.zeros(0), SR))


@pytest.mark.parametrize("length,shift,fft", [(0, 1, 4), (4, 0, 4), (4, 5, 8), (8, 2, 4)])
def test_param_validation(length, shift, fft):
    with pytest.raises(SpkraugError, match="need 0 < frame_shift <= frame_length <= fft_size"):
        stft(sine(440.0, 0.1), length, shift, fft)


def test_stft_zeros_gives_zeros():
    spec = stft(AudioClip(np.zeros(2000), SR), 400, 100, 512)
    assert np.all(spec == 0)


def test_stft_single_frame_matches_plain_rfft():
    """With exactly one frame the transform is just rfft(window * x)."""
    rng = np.random.default_rng(3)
    x = rng.uniform(-0.5, 0.5, 64)
    spec = stft(AudioClip(x, SR), 64, 16, 128)
    assert spec.shape[0] == 1
    n = np.arange(64)
    window = 0.5 - 0.5 * np.cos(2 * np.pi * n / 64)
    np.testing.assert_allclose(spec[0], np.fft.rfft(x * window, 128), atol=1e-12)


def test_stft_pure_tone_lands_in_its_bin():
    # 1 kHz at 16 kHz with a 1024-point FFT sits exactly in bin 64
    spec = np.abs(stft(sine(1000.0, 0.5), 800, 200, 1024))
    interior = spec[2:-2]
    assert np.all(np.argmax(interior, axis=1) == 64)


def test_frame_energy_parseval():
    """Per-frame Parseval: sum|X|^2 (half-spectrum doubled) = fft_size * sum(xw^2)."""
    rng = np.random.default_rng(11)
    x = rng.uniform(-0.5, 0.5, 64)
    fft_size = 128
    spec = stft(AudioClip(x, SR), 64, 64, fft_size)[0]
    power = np.abs(spec) ** 2
    spectral = 2 * power.sum() - power[0] - power[-1]
    n = np.arange(64)
    window = 0.5 - 0.5 * np.cos(2 * np.pi * n / 64)
    assert abs(spectral - fft_size * np.sum((x * window) ** 2)) < 1e-6


# -- istft / round trip ------------------------------------------------------

def test_istft_reconstructs_interior():
    rng = np.random.default_rng(5)
    x = rng.uniform(-0.9, 0.9, 6400)
    spec = stft(AudioClip(x, SR), 400, 100, 512)
    out = istft(spec, 400, 100, 512, sample_rate=SR)
    assert len(out) >= len(x)
    interior = slice(400, len(x) - 400)
    assert np.max(np.abs(out.samples[interior] - x[interior])) < 1e-6


def test_istft_hann_quarter_shift_roundtrip():
    rng = np.random.default_rng(6)
    x = rng.uniform(-0.9, 0.9, 8000)
    spec = stft(AudioClip(x, SR), DEFAULT_FRAME_LENGTH, DEFAULT_FRAME_SHIFT, DEFAULT_FFT_SIZE)
    out = istft(spec)
    interior = slice(DEFAULT_FRAME_LENGTH, len(x) - DEFAULT_FRAME_LENGTH)
    assert np.max(np.abs(out.samples[interior] - x[interior])) < 1e-6


def test_istft_zero_spectrum_gives_silence():
    out = istft(np.zeros((5, 257), dtype=complex), 400, 100, 512)
    assert len(out) == 400 + 4 * 100
    assert np.all(out.samples == 0)


def test_istft_rejects_wrong_bin_count():
    with pytest.raises(SpkraugError, match=r"spectrum must be frames x 257, got \(5, 256\)"):
        istft(np.zeros((5, 256), dtype=complex), 400, 100, 512)
    with pytest.raises(SpkraugError, match="spectrum has no frames"):
        istft(np.zeros((0, 257), dtype=complex), 400, 100, 512)


def test_istft_carries_sample_rate():
    out = istft(np.zeros((2, 257), dtype=complex), 400, 100, 512, sample_rate=22050)
    assert out.sample_rate == 22050


# -- spectrogram type --------------------------------------------------------

def test_magnitude_spectrogram_fields():
    spec = magnitude_spectrogram(sine(440.0, 0.3), 400, 100, 512)
    assert spec.frame_length == 400
    assert spec.frame_shift == 100
    assert spec.fft_size == 512
    assert spec.sample_rate == SR
    assert spec.n_frames == _expected_frames(len(sine(440.0, 0.3)), 400, 100)
    assert np.all(spec.magnitudes >= 0)


def test_spectrogram_rejects_negative_or_nonfinite():
    good = np.ones((3, 257))
    Spectrogram(good, 100, 400, 512, SR)
    bad = good.copy()
    bad[1, 5] = -0.1
    with pytest.raises(SpkraugError, match="magnitudes must be finite and non-negative"):
        Spectrogram(bad, 100, 400, 512, SR)
    bad = good.copy()
    bad[0, 0] = np.nan
    with pytest.raises(SpkraugError, match="magnitudes must be finite and non-negative"):
        Spectrogram(bad, 100, 400, 512, SR)


def test_spectrogram_rejects_wrong_shape():
    with pytest.raises(SpkraugError, match=r"magnitudes must be frames x 257, got \(3, 256\)"):
        Spectrogram(np.ones((3, 256)), 100, 400, 512, SR)
    with pytest.raises(SpkraugError, match=r"magnitudes must be frames x 257, got \(257,\)"):
        Spectrogram(np.ones(257), 100, 400, 512, SR)
    with pytest.raises(SpkraugError, match="no frames"):
        Spectrogram(np.ones((0, 257)), 100, 400, 512, SR)


def test_spectrogram_rejects_bad_rate():
    with pytest.raises(SpkraugError, match=r"sample rate must be an integer in \[8000, 192000\]"):
        Spectrogram(np.ones((3, 257)), 100, 400, 512, 4000)


# -- griffin-lim -------------------------------------------------------------

def test_griffin_lim_silent_input():
    spec = Spectrogram(np.zeros((7, 257)), 100, 400, 512, SR)
    out, errors = griffin_lim(spec, iterations=5, return_errors=True)
    assert len(out) == 400 + 6 * 100
    assert np.all(out.samples == 0)
    assert errors == [0.0] * 5


def test_griffin_lim_error_is_nonincreasing():
    spec = magnitude_spectrogram(sine(440.0, 0.5))
    _, errors = griffin_lim(spec, iterations=30, return_errors=True)
    assert len(errors) == 30
    diffs = np.diff(errors)
    assert np.all(diffs <= 1e-9)


def test_griffin_lim_converges_on_sine():
    spec = magnitude_spectrogram(sine(440.0, 1.0))
    _, errors = griffin_lim(spec, iterations=60, return_errors=True)
    assert errors[-1] < 0.1
    assert errors[-1] <= errors[0]


def test_griffin_lim_more_iterations_never_hurt():
    spec = magnitude_spectrogram(sine(220.0, 0.4), 400, 100, 512)
    _, short = griffin_lim(spec, iterations=1, return_errors=True)
    _, long = griffin_lim(spec, iterations=40, return_errors=True)
    assert long[-1] <= short[-1] + 1e-12
    assert short[0] == long[0]  # same seeded start


def test_griffin_lim_peak_normalized():
    spec = magnitude_spectrogram(sine(440.0, 0.4))
    out = griffin_lim(spec, iterations=3)
    assert np.max(np.abs(out.samples)) == pytest.approx(0.99, abs=1e-12)


def test_griffin_lim_deterministic():
    spec = magnitude_spectrogram(sine(523.25, 0.3), 400, 100, 512)
    a = griffin_lim(spec, iterations=8, seed=4)
    b = griffin_lim(spec, iterations=8, seed=4)
    assert np.array_equal(a.samples, b.samples)
    c = griffin_lim(spec, iterations=8, seed=5)
    assert not np.array_equal(a.samples, c.samples)


_ORACLE_GEOMETRIES = pytest.mark.parametrize("n,length,shift,fft", [
    (4000, 400, 100, 512), (1000, 256, 256, 256), (300, 400, 100, 512), (2345, 200, 60, 255),
])


def _noise_spectrogram(n, length, shift, fft):
    rng = np.random.default_rng(n)
    x = rng.standard_normal(n) * np.sin(np.arange(n) / 40.0)
    return magnitude_spectrogram(AudioClip(x, SR), length, shift, fft)


@_ORACLE_GEOMETRIES
def test_griffin_lim_matches_per_iteration_oracle_bitwise(n, length, shift, fft):
    spec = _noise_spectrogram(n, length, shift, fft)
    clip, errors = griffin_lim(spec, iterations=12, seed=5, return_errors=True)
    want_samples, want_errors = griffin_lim_unit_phase_oracle(spec, iterations=12, seed=5)
    assert clip.samples.tobytes() == want_samples.tobytes()
    assert errors == want_errors


def test_griffin_lim_silent_frames_match_oracle_bitwise():
    """A run of silent frames longer than a frame leaves |Z| = 0 exactly,
    where the next spectrum must be M (here 0), as angle(0) = 0 gave."""
    spec = magnitude_spectrogram(sine(300.0, 0.5), 400, 100, 512)
    spec.magnitudes[10:25] = 0.0
    clip, errors = griffin_lim(spec, iterations=8, seed=3, return_errors=True)
    want_samples, want_errors = griffin_lim_unit_phase_oracle(spec, iterations=8, seed=3)
    assert np.all(clip.samples[1500:2400] == 0.0)
    assert clip.samples.tobytes() == want_samples.tobytes()
    assert errors == want_errors
    classic_samples, _ = griffin_lim_oracle(spec, iterations=8, seed=3)
    assert np.all(classic_samples[1500:2400] == 0.0)


def test_griffin_lim_projects_a_zero_bin_to_its_magnitude(monkeypatch):
    """Where |Z| = 0 the next spectrum is M, as M * exp(i * angle(0)) was.
    A real signal almost never gives an exact zero where M > 0, so one is
    planted in the analysis."""
    spec = magnitude_spectrogram(sine(300.0, 0.2), 400, 100, 512)
    stft_array, istft_array = spectral._stft_array, spectral._istft_array

    def stft_with_a_hole(*args):
        z = stft_array(*args)
        z[3, 5] = 0.0
        return z

    fed = []

    def record(s, *args):
        fed.append(s.copy())
        return istft_array(s, *args)

    monkeypatch.setattr(spectral, "_stft_array", stft_with_a_hole)
    monkeypatch.setattr(spectral, "_istft_array", record)
    griffin_lim(spec, iterations=2)
    assert spec.magnitudes[3, 5] > 0
    assert fed[1][3, 5] == spec.magnitudes[3, 5]


@_ORACLE_GEOMETRIES
def test_griffin_lim_within_tolerance_of_classic_projection(tmp_path, n, length, shift, fft):
    """Z * (M / |Z|) differs from M * exp(i * angle(Z)) in the last bits, and
    the pairwise norm from BLAS's: samples stay within 1e-12, errors within
    1e-12 relative and 16-bit PCM within 1 LSB of the classic oracle."""
    spec = _noise_spectrogram(n, length, shift, fft)
    clip, errors = griffin_lim(spec, iterations=12, seed=5, return_errors=True)
    want_samples, want_errors = griffin_lim_oracle(spec, iterations=12, seed=5)
    assert np.max(np.abs(clip.samples - want_samples)) <= 1e-12
    assert np.allclose(errors, want_errors, rtol=1e-12, atol=0.0)
    write_wav(clip, tmp_path / "new.wav")
    write_wav(AudioClip(want_samples, SR), tmp_path / "classic.wav")
    lsb = 1.0 / 32768.0
    pcm_gap = np.abs(read_wav(tmp_path / "new.wav").samples
                     - read_wav(tmp_path / "classic.wav").samples)
    assert np.max(pcm_gap) <= lsb


def test_griffin_lim_rejects_zero_iterations():
    spec = magnitude_spectrogram(sine(440.0, 0.2), 400, 100, 512)
    with pytest.raises(SpkraugError, match="iterations must be >= 1, got 0"):
        griffin_lim(spec, iterations=0)


# -- container ---------------------------------------------------------------

def test_spectrogram_file_roundtrip(tmp_path):
    spec = magnitude_spectrogram(sine(330.0, 0.3), 400, 100, 512)
    path = tmp_path / "clip.spg"
    write_spectrogram(spec, path)
    back = read_spectrogram(path)
    assert back.frame_length == spec.frame_length
    assert back.frame_shift == spec.frame_shift
    assert back.fft_size == spec.fft_size
    assert back.sample_rate == spec.sample_rate
    assert back.magnitudes.shape == spec.magnitudes.shape
    # storage is f32, so round trip is exact only at f32 resolution
    np.testing.assert_allclose(back.magnitudes, spec.magnitudes, rtol=1e-6, atol=1e-6)


def test_spectrogram_file_vocodes_like_original(tmp_path):
    spec = magnitude_spectrogram(sine(440.0, 0.5))
    path = tmp_path / "clip.spg"
    write_spectrogram(spec, path)
    _, errors = griffin_lim(read_spectrogram(path), iterations=60, return_errors=True)
    assert errors[-1] < 0.1


def test_read_spectrogram_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        read_spectrogram(tmp_path / "nope.spg")


def test_read_spectrogram_bad_magic(tmp_path):
    path = tmp_path / "bad.spg"
    path.write_bytes(b"NOPE" + b"\x00" * 40)
    with pytest.raises(SpkraugError, match="bad.spg: not an SPG1 file"):
        read_spectrogram(path)


def test_read_spectrogram_truncated_payload(tmp_path):
    spec = magnitude_spectrogram(sine(330.0, 0.2), 400, 100, 512)
    path = tmp_path / "short.spg"
    write_spectrogram(spec, path)
    raw = path.read_bytes()
    path.write_bytes(raw[:-8])
    with pytest.raises(SpkraugError, match="short.spg: expected 29840 bytes, found 29832"):
        read_spectrogram(path)
