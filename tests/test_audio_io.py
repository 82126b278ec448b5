import struct
import wave

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import fft_bin_width, fft_peak_hz
from spkraug.audio_io import (
    AudioClip,
    read_wav,
    read_wav_header,
    resample,
    speed_change,
    speed_change_length,
    write_wav,
)
from spkraug.errors import (
    CorruptHeaderError,
    InvalidClipError,
    InvalidRateError,
    InvalidRatioError,
    UnsupportedFormatError,
)
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
    with pytest.raises(InvalidRateError):
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
    with pytest.raises(InvalidClipError):
        write_wav(AudioClip(np.array([0.0, np.nan]), 16000), tmp_path / "bad.wav")
    with pytest.raises(InvalidClipError):
        write_wav(AudioClip(np.array([np.inf]), 16000), tmp_path / "bad.wav")


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
    with pytest.raises(CorruptHeaderError):
        read_wav(path)


def test_truncated_header(tmp_path):
    path = tmp_path / "trunc.wav"
    path.write_bytes(b"RIFF\x24\x00\x00\x00WAVE")
    with pytest.raises(CorruptHeaderError):
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
    with pytest.raises(CorruptHeaderError, match="truncated data"):
        read_wav(path)


@pytest.mark.parametrize("parity", [0, 1])
def test_header_reader_sees_truncated_data(tmp_path, parity):
    path = tmp_path / "cut.wav"
    write_wav(sine(200.0, 1.0, sr=22050), path)
    assert read_wav_header(path) == (22050, 22050)
    data = path.read_bytes()
    path.write_bytes(data[:-2 + parity])
    with pytest.raises(CorruptHeaderError, match="truncated data"):
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
    with pytest.raises(UnsupportedFormatError):
        read_wav(path)


def test_8bit_rejected(tmp_path):
    path = tmp_path / "eight.wav"
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(1)
        handle.setframerate(16000)
        handle.writeframes(b"\x80" * 8)
    with pytest.raises(UnsupportedFormatError):
        read_wav(path)


def test_float_format_rejected(tmp_path):
    # format tag 3 is IEEE float; the parser refuses it before reading data
    path = tmp_path / "float.wav"
    _raw_wav(path, struct.pack("<4f", 0.0, 0.1, 0.2, 0.3), width=4, fmt=3)
    with pytest.raises(UnsupportedFormatError):
        read_wav(path)


# -- resample ----------------------------------------------------------------

def test_resample_identity_returns_copy():
    clip = sine(440.0, 0.1)
    out = resample(clip, SR)
    assert out.samples is not clip.samples
    assert np.array_equal(out.samples, clip.samples)


def test_resample_length_contract():
    clip = AudioClip(np.zeros(48000), 48000)
    assert len(resample(clip, 16000)) == 16000
    clip = AudioClip(np.zeros(16000), 16000)
    assert len(resample(clip, 24000)) == 24000
    clip = AudioClip(np.zeros(12345), 44100)
    assert len(resample(clip, 16000)) == round(12345 * 16000 / 44100)


def test_resample_preserves_tone_down():
    clip = sine(1000.0, 1.0, sr=48000)
    out = resample(clip, 16000)
    peak = fft_peak_hz(out.samples[4096:8192], 16000)
    assert abs(peak - 1000.0) <= fft_bin_width(16000)


def test_resample_preserves_tone_up():
    clip = sine(1000.0, 1.0, sr=16000)
    out = resample(clip, 48000)
    peak = fft_peak_hz(out.samples[8192:8192 + 4096], 48000)
    assert abs(peak - 1000.0) <= fft_bin_width(48000)


def test_resample_up_down_chain_is_near_identity():
    clip = sine(440.0, 0.5)
    back = resample(resample(clip, 48000), 16000)
    assert len(back) == len(clip)
    interior = slice(512, len(clip) - 512)
    assert np.max(np.abs(back.samples[interior] - clip.samples[interior])) < 1e-3


def test_resample_rejects_bad_rate():
    with pytest.raises(InvalidRateError):
        resample(sine(440.0, 0.1), 4000)


# -- speed_change ------------------------------------------------------------

def test_speed_unity_returns_copy():
    clip = sine(300.0, 0.2)
    out = speed_change(clip, 1.0)
    assert out.samples is not clip.samples
    assert np.array_equal(out.samples, clip.samples)
    assert out.sample_rate == clip.sample_rate


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
    with pytest.raises(InvalidRatioError):
        speed_change(sine(440.0, 0.1), ratio)
