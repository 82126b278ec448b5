import re
import struct
import wave

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from oracles import fft_bin_width, fft_peak_hz, upfirdn_resample_oracle
from spkraug.audio_io import (
    AudioClip,
    _design_lowpass,
    _filter_bank,
    _polyphase_resample,
    _speed_geometry,
    read_wav,
    read_wav_header,
    speed_change,
    speed_change_length,
    write_wav,
)
from spkraug.errors import SpkraugError
from synth import SR, sine


def _raw_wav(path, payload, channels=1, width=2, rate=16000, fmt=1):
    """Hand-assembled RIFF/WAVE so we can produce headers wave.open won't write."""
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, fmt, channels, rate, rate * channels * width, channels * width, 8 * width
    )
    header += b"data" + struct.pack("<I", len(payload))
    path.write_bytes(header + payload)


# -- clip type ---------------------------------------------------------------

def test_clip_duration_and_len():
    clip = AudioClip(np.zeros(8000), 16000)
    assert len(clip) == 8000
    assert clip.duration_seconds == 0.5


@pytest.mark.parametrize("rate", [7999, 192001, 0, -16000, 16000.0, "16000"])
def test_clip_rejects_bad_rates(rate):
    with pytest.raises(SpkraugError, match=r"sample rate must be an integer in \[8000, 192000\]"):
        AudioClip(np.zeros(4), rate)


def test_clip_accepts_boundary_rates():
    assert AudioClip(np.zeros(1), 8000).sample_rate == 8000
    assert AudioClip(np.zeros(1), 192000).sample_rate == 192000


# -- read/write --------------------------------------------------------------

def test_read_scale_is_one_over_32768(tmp_path):
    path = tmp_path / "two.wav"
    _raw_wav(path, struct.pack("<2h", 0, 16384))
    clip = read_wav(path)
    assert clip.sample_rate == 16000
    assert clip.samples.tolist() == [0.0, 0.5]


def test_read_full_scale_negative(tmp_path):
    path = tmp_path / "neg.wav"
    _raw_wav(path, struct.pack("<2h", -32768, 32767))
    clip = read_wav(path)
    assert clip.samples.tolist() == [-1.0, 32767 / 32768]


def test_write_clamps_to_full_scale(tmp_path):
    path = tmp_path / "clamp.wav"
    write_wav(AudioClip(np.array([1.0, -1.0, 2.0, -3.0, 0.5]), 16000), path)
    back = read_wav(path)
    assert back.samples.tolist() == [32767 / 32768, -1.0, 32767 / 32768, -1.0, 0.5]


def test_write_rounds_half_away_from_zero(tmp_path):
    path = tmp_path / "round.wav"
    write_wav(AudioClip(np.array([1.5, -1.5, 0.49, -0.49]) / 32768.0, 16000), path)
    back = read_wav(path)
    assert (back.samples * 32768.0).tolist() == [2.0, -2.0, 0.0, -0.0]


def test_empty_clip_roundtrip(tmp_path):
    path = tmp_path / "empty.wav"
    write_wav(AudioClip(np.zeros(0), 22050), path)
    back = read_wav(path)
    assert len(back) == 0
    assert back.sample_rate == 22050


def test_write_rejects_nonfinite(tmp_path):
    with pytest.raises(SpkraugError, match="clip contains NaN/Inf samples"):
        write_wav(AudioClip(np.array([0.0, np.nan]), 16000), tmp_path / "bad.wav")
    with pytest.raises(SpkraugError, match="clip contains NaN/Inf samples"):
        write_wav(AudioClip(np.array([np.inf]), 16000), tmp_path / "bad.wav")


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_clip_refuses_non_finite_samples(bad):
    with pytest.raises(SpkraugError, match="^clip contains NaN/Inf samples$"):
        AudioClip(np.array([0.0, bad, 0.5]), 16000)


@pytest.mark.parametrize("samples, message", [
    ("abc", "must be real numbers, got <U3 values"),
    (["0.5"], "must be real numbers, got <U3 values"),
    (np.array([0.5, 1j]), "must be real numbers, got complex128 values"),
    ([True, False], "must be real numbers, got bool values"),
    ([0.5, None], "must be real numbers, got object values"),
    ([[0.1], [0.2, 0.3]], "must be a regular array, got ragged nesting"),
])
def test_clip_refuses_samples_that_are_not_real_numbers(samples, message):
    """Text is not parsed, a complex part is not dropped, and ragged nesting
    is not NumPy's ValueError: each is one SpkraugError."""
    with pytest.raises(SpkraugError, match=f"^clip samples {re.escape(message)}$"):
        AudioClip(samples, 16000)


def test_clip_samples_are_a_read_only_view():
    values = np.array([0.0, 0.5, -0.25])
    clip = AudioClip(values, 16000)
    assert not clip.samples.flags.writeable
    assert np.shares_memory(clip.samples, values)
    assert values.flags.writeable  # the caller's array is left as it was
    with pytest.raises(ValueError, match="read-only"):
        clip.samples[0] = 1.0


@given(st.lists(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
                min_size=1, max_size=128))
def test_roundtrip_quantization_bound(tmp_path_factory_session, values):
    """One write/read never moves a sample by more than one quantization step."""
    path = tmp_path_factory_session / "prop.wav"
    clip = AudioClip(np.array(values), 16000)
    write_wav(clip, path)
    back = read_wav(path)
    assert len(back) == len(clip)
    assert np.max(np.abs(back.samples - clip.samples)) <= 1.0 / 32768 + 1e-12


def test_sine_roundtrip_error(tmp_path):
    path = tmp_path / "tone.wav"
    clip = sine(440.0, 0.25)
    write_wav(clip, path)
    back = read_wav(path)
    assert np.max(np.abs(back.samples - clip.samples)) < 1e-4


def test_missing_file():
    with pytest.raises(FileNotFoundError):
        read_wav("/nonexistent/never.wav")


def test_garbage_bytes(tmp_path):
    path = tmp_path / "garbage.wav"
    path.write_bytes(b"this is not audio in any recognizable container")
    with pytest.raises(SpkraugError, match="garbage.wav: file does not start with RIFF id"):
        read_wav(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "trunc.wav"
    path.write_bytes(b"RIFF\x24\x00\x00\x00WAVE")
    with pytest.raises(SpkraugError, match="trunc.wav: fmt chunk and/or data chunk missing"):
        read_wav(path)


@pytest.mark.parametrize("parity", [0, 1])
def test_truncated_data_rejected(tmp_path, parity):
    """A file cut short after its header, at an even or an odd byte, is
    corrupt: the data chunk no longer holds the frames the header counts."""
    path = tmp_path / "cut.wav"
    write_wav(sine(200.0, 1.0), path)
    data = path.read_bytes()
    cut = len(data) // 3 // 2 * 2 + parity
    path.write_bytes(data[:cut])
    with pytest.raises(SpkraugError, match="cut.wav: truncated data"):
        read_wav(path)


@pytest.mark.parametrize("parity", [0, 1])
def test_header_reader_sees_truncated_data(tmp_path, parity):
    path = tmp_path / "cut.wav"
    write_wav(sine(200.0, 1.0, sr=22050), path)
    assert read_wav_header(path) == (22050, 22050)
    data = path.read_bytes()
    path.write_bytes(data[:-2 + parity])
    with pytest.raises(SpkraugError, match="cut.wav: truncated data"):
        read_wav_header(path)


def test_header_reader_ignores_trailing_bytes(tmp_path):
    """Bytes after the data chunk do not change what read_wav returns."""
    path = tmp_path / "long.wav"
    write_wav(sine(200.0, 0.1), path)
    path.write_bytes(path.read_bytes() + b"LIST\x00\x00\x00\x00")
    assert read_wav_header(path) == (SR, len(read_wav(path)))


def test_stereo_rejected(tmp_path):
    path = tmp_path / "stereo.wav"
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(2)
        handle.setsampwidth(2)
        handle.setframerate(16000)
        handle.writeframes(b"\x00" * 8)
    with pytest.raises(SpkraugError, match="stereo.wav: expected mono, got 2 channels"):
        read_wav(path)


def test_8bit_rejected(tmp_path):
    path = tmp_path / "eight.wav"
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(1)
        handle.setframerate(16000)
        handle.writeframes(b"\x80" * 8)
    with pytest.raises(SpkraugError, match="eight.wav: expected 16-bit PCM, got 8-bit"):
        read_wav(path)


def test_float_format_rejected(tmp_path):
    # format tag 3 is IEEE float; the parser refuses it before reading data
    path = tmp_path / "float.wav"
    _raw_wav(path, struct.pack("<4f", 0.0, 0.1, 0.2, 0.3), width=4, fmt=3)
    with pytest.raises(SpkraugError, match="float.wav: unknown format: 3"):
        read_wav(path)


# -- the polyphase resampler behind speed_change ------------------------------

def test_resample_identity_returns_copy():
    x = sine(440.0, 0.1).samples
    out = _polyphase_resample(x, 1, 1, len(x))
    assert out is not x
    assert np.array_equal(out, x)


def test_resample_length_contract():
    """48 -> 16 kHz, 16 -> 24 kHz and 44.1 -> 16 kHz each give the length asked for."""
    for n, up, down in [(48000, 1, 3), (16000, 3, 2), (12345, 160, 441)]:
        out_len = round(n * up / down)
        assert len(_polyphase_resample(np.zeros(n), up, down, out_len)) == out_len


def test_resample_preserves_tone_down():
    out = _polyphase_resample(sine(1000.0, 1.0, sr=48000).samples, 1, 3, 16000)
    peak = fft_peak_hz(out[4096:8192], 16000)
    assert abs(peak - 1000.0) <= fft_bin_width(16000)


def test_resample_preserves_tone_up():
    out = _polyphase_resample(sine(1000.0, 1.0, sr=16000).samples, 3, 1, 48000)
    peak = fft_peak_hz(out[8192:8192 + 4096], 48000)
    assert abs(peak - 1000.0) <= fft_bin_width(48000)


def test_resample_up_down_chain_is_near_identity():
    x = sine(440.0, 0.5).samples
    back = _polyphase_resample(_polyphase_resample(x, 3, 1, 3 * len(x)), 1, 3, len(x))
    assert len(back) == len(x)
    interior = slice(512, len(x) - 512)
    assert np.max(np.abs(back[interior] - x[interior])) < 1e-3


@given(ratio=st.one_of(st.sampled_from([0.5, 2.0]), st.floats(0.5, 2.0)),
       n=st.one_of(st.integers(0, 40), st.integers(41, 3000)),
       seed=st.integers(0, 2**32 - 1))
@example(ratio=0.5, n=0, seed=0)
@example(ratio=2.0, n=1, seed=0)
@example(ratio=0.5, n=1, seed=0)
@example(ratio=2.0, n=17, seed=0)
def test_resample_matches_upfirdn_oracle(tmp_path_factory_session, ratio, n, seed):
    """speed_change's resampler against SciPy's upfirdn: the same length,
    samples within 1e-12, and 16-bit PCM within 1 LSB. Lengths up to 40 are
    shorter than the filter's 32 taps per phase plus its delay."""
    up, down, out_len = _speed_geometry(n, ratio)
    x = np.random.default_rng(seed).uniform(-1.0, 1.0, n)
    got = _polyphase_resample(x, up, down, out_len)
    want = upfirdn_resample_oracle(x, up, down, out_len)
    assert len(got) == len(want) == out_len
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-12
    pcm = []
    for name, samples in [("got", got), ("want", want)]:
        path = tmp_path_factory_session / f"resample_{name}.wav"
        write_wav(AudioClip(samples, SR), path)
        pcm.append(read_wav(path).samples * 32768.0)
    assert np.max(np.abs(pcm[0] - pcm[1]), initial=0.0) <= 1.0


def test_filter_bank_is_built_once_and_read_only():
    """Every speed change by one ratio shares one cached filter bank, so no
    caller may write to it."""
    up, down, _ = _speed_geometry(16000, 1.05)
    bank, skip = _filter_bank(up, down)
    assert _filter_bank(up, down)[0] is bank and bank.shape[0] == up
    with pytest.raises(ValueError, match="read-only"):
        bank[0, 0] = 1.0


@given(ratio=st.one_of(st.sampled_from([0.5, 0.7071, 0.9999, 2.0]), st.floats(0.5, 2.0)))
def test_speed_geometry_is_bounded(ratio):
    """Any ratio resamples with up <= 1000, so through at most 32 * 1000 + 1
    taps, at a speed down / up within 1e-3 of the ratio, relative to it."""
    up, down, _ = _speed_geometry(16000, ratio)
    assert up <= 1000
    assert len(_design_lowpass(up, down)[0]) <= 32 * 1000 + 1
    assert abs(down / up - ratio) < 1e-3 * ratio


# -- speed_change ------------------------------------------------------------

def test_speed_unity_returns_copy():
    clip = sine(300.0, 0.2)
    out = speed_change(clip, 1.0)
    assert out.samples is not clip.samples
    assert np.array_equal(out.samples, clip.samples)
    assert out.sample_rate == clip.sample_rate


def test_speed_ratio_that_reduces_to_unity_returns_copy():
    """Fraction(1 + 1e-9).limit_denominator reduces to 1/1: a plain copy."""
    clip = sine(300.0, 0.2)
    out = speed_change(clip, 1.0 + 1e-9)
    assert out.samples is not clip.samples
    assert np.array_equal(out.samples, clip.samples)


@pytest.mark.parametrize("ratio", [0.95, 0.975, 1.025, 1.05, 0.5, 2.0, 1.3])
def test_speed_length_contract(ratio):
    clip = sine(250.0, 1.0)
    out = speed_change(clip, ratio)
    assert out.sample_rate == clip.sample_rate
    assert abs(len(out) - len(clip) / ratio) <= 1.0


@pytest.mark.parametrize("n", [0, 1, 7, 16000, 16001])
@pytest.mark.parametrize("ratio", [0.95, 0.975, 1.0, 1.025, 1.05, 0.5, 2.0, 1.3, 0.7])
def test_speed_change_length_is_the_output_length(n, ratio):
    clip = AudioClip(np.zeros(n), SR)
    assert speed_change_length(n, ratio) == len(speed_change(clip, ratio))


@pytest.mark.parametrize("f0,ratio", [(200.0, 1.05), (440.0, 0.95), (200.0, 0.5), (150.0, 2.0)])
def test_speed_scales_pitch(f0, ratio):
    clip = sine(f0, 2.0)
    out = speed_change(clip, ratio)
    peak = fft_peak_hz(out.samples[2048:2048 + 4096], SR)
    assert abs(peak - f0 * ratio) <= fft_bin_width(SR)


def test_speed_composition_restores_length():
    clip = sine(330.0, 1.0)
    back = speed_change(speed_change(clip, 1.25), 0.8)
    assert abs(len(back) - len(clip)) <= 2
    peak = fft_peak_hz(back.samples[2048:2048 + 4096], SR)
    assert abs(peak - 330.0) <= fft_bin_width(SR)


@pytest.mark.parametrize("ratio", [0.49, 2.01, 0.0, -1.0, float("nan"), float("inf")])
def test_speed_rejects_bad_ratio(ratio):
    with pytest.raises(SpkraugError, match=r"speed ratio must lie in \[0.5, 2.0\], got "):
        speed_change(sine(440.0, 0.1), ratio)
