"""Mono waveform I/O and rate conversion.

Files are RIFF/WAVE, 16-bit signed PCM, single channel. In memory everything
is float64 in [-1, 1]; quantization happens only at the file boundary. The
default pipeline rate is 16 kHz.
"""

import math
import os
import wave
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.signal import upfirdn

from .errors import (
    CorruptHeaderError,
    InvalidClipError,
    InvalidRateError,
    InvalidRatioError,
    UnsupportedFormatError,
)

DEFAULT_SAMPLE_RATE = 16000
MIN_SAMPLE_RATE = 8000
MAX_SAMPLE_RATE = 192000

# Kaiser-windowed sinc resampler: 32 taps per polyphase branch, cutoff at
# 0.95x the Nyquist of the lower rate. beta 8.6 gives ~80 dB stopband.
_TAPS_PER_PHASE = 32
_KAISER_BETA = 8.6
_CUTOFF_SCALE = 0.95


def _check_rate(rate) -> int:
    if not isinstance(rate, (int, np.integer)) or not (MIN_SAMPLE_RATE <= rate <= MAX_SAMPLE_RATE):
        raise InvalidRateError(f"sample rate must be an integer in [{MIN_SAMPLE_RATE}, {MAX_SAMPLE_RATE}], got {rate!r}")
    return int(rate)


@dataclass
class AudioClip:
    """Mono audio: float samples in [-1, 1] plus a sample rate in Hz."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64).reshape(-1)
        self.sample_rate = _check_rate(self.sample_rate)

    @property
    def duration_seconds(self) -> float:
        return len(self.samples) / self.sample_rate

    def __len__(self) -> int:
        return len(self.samples)


def _read_pcm(path, header_only: bool):
    """Parse a 16-bit mono PCM WAV into (rate, nframes, raw sample bytes), or
    (rate, nframes, None) from the header alone; either way raises when the
    data chunk holds fewer than 2 * nframes bytes."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(str(path))
    try:
        with open(path, "rb") as file, wave.open(file, "rb") as handle:
            channels = handle.getnchannels()
            width = handle.getsampwidth()
            comptype = handle.getcomptype()
            rate = handle.getframerate()
            nframes = handle.getnframes()
            if header_only:
                raw = None  # wave.open leaves the file at the first sample
                available = min(2 * nframes, os.fstat(file.fileno()).st_size - file.tell())
            else:
                raw = handle.readframes(nframes)
                available = len(raw)
    except wave.Error as exc:
        # the wave module refuses non-PCM encodings while parsing the header
        if str(exc).startswith("unknown format"):
            raise UnsupportedFormatError(f"{path}: {exc}") from exc
        raise CorruptHeaderError(f"{path}: {exc}") from exc
    except EOFError as exc:
        raise CorruptHeaderError(f"{path}: truncated header") from exc
    if comptype != "NONE":
        raise UnsupportedFormatError(f"{path}: compressed WAV ({comptype}) not supported")
    if channels != 1:
        raise UnsupportedFormatError(f"{path}: expected mono, got {channels} channels")
    if width != 2:
        raise UnsupportedFormatError(f"{path}: expected 16-bit PCM, got {8 * width}-bit")
    if available != 2 * nframes:
        raise CorruptHeaderError(
            f"{path}: truncated data, {available} bytes for {nframes} frames of 2 bytes"
        )
    return rate, nframes, raw


def read_wav(path) -> AudioClip:
    """Read a 16-bit mono PCM WAV file, scaling samples to [-1, 1]."""
    rate, _, raw = _read_pcm(path, header_only=False)
    pcm = np.frombuffer(raw, dtype="<i2")
    return AudioClip(pcm.astype(np.float64) / 32768.0, rate)


def read_wav_header(path) -> tuple[int, int]:
    """(sample_rate, nframes) of a WAV that read_wav would accept, without
    reading its samples."""
    rate, nframes, _ = _read_pcm(path, header_only=True)
    return rate, nframes


def write_wav(clip: AudioClip, path) -> None:
    """Write a clip as 16-bit mono PCM, clamping to full scale.

    Quantization rounds half away from zero, so read_wav(write_wav(c)) is
    within 1/32768 of c per sample.
    """
    x = clip.samples
    if not np.all(np.isfinite(x)):
        raise InvalidClipError("clip contains NaN/Inf samples")
    x = np.clip(x, -1.0, 1.0) * 32768.0
    pcm = np.trunc(x + np.copysign(0.5, x))
    pcm = np.clip(pcm, -32768, 32767).astype("<i2")
    try:
        with wave.open(str(path), "wb") as handle:
            handle.setnchannels(1)
            handle.setsampwidth(2)
            handle.setframerate(clip.sample_rate)
            handle.writeframes(pcm.tobytes())
    except wave.Error as exc:
        raise OSError(f"{path}: {exc}") from exc


def _design_lowpass(up: int, down: int) -> tuple[np.ndarray, int]:
    """Kaiser-sinc anti-aliasing filter for an up/down polyphase stage.

    Returns (taps, center_index); taps already carry the x`up` gain that
    compensates zero-stuffing.
    """
    half = _TAPS_PER_PHASE // 2 * up
    n = np.arange(-half, half + 1, dtype=np.float64)
    # passband edge in cycles per upsampled sample
    nu = 0.5 * _CUTOFF_SCALE * min(1.0, up / down) / up
    taps = 2.0 * nu * np.sinc(2.0 * nu * n) * np.kaiser(2 * half + 1, _KAISER_BETA)
    return taps * up, half


def _polyphase_resample(x: np.ndarray, up: int, down: int, out_len: int) -> np.ndarray:
    """Rational-rate conversion via upfirdn; output sample m sits at input
    position m*down/up."""
    if out_len <= 0:
        return np.zeros(0, dtype=np.float64)
    if up == down:
        y = x[:out_len].copy()
        if len(y) < out_len:
            y = np.pad(y, (0, out_len - len(y)))
        return y
    taps, center = _design_lowpass(up, down)
    lead = (-center) % down  # shift so the filter delay lands on the output grid
    taps = np.concatenate([np.zeros(lead), taps])
    skip = (center + lead) // down
    need = out_len + skip
    produced = ((len(x) - 1) * up + len(taps) - 1) // down + 1 if len(x) else 0
    if produced < need:
        pad = math.ceil((need * down - (max(len(x), 1) - 1) * up - len(taps)) / up) + 1
        x = np.pad(x, (0, max(pad, 0)))
    y = upfirdn(taps, x, up=up, down=down)
    return y[skip:skip + out_len]


def resample(clip: AudioClip, target_rate: int) -> AudioClip:
    """Band-limited conversion to target_rate; content pitch is unchanged."""
    target_rate = _check_rate(target_rate)
    if target_rate == clip.sample_rate:
        return AudioClip(clip.samples.copy(), clip.sample_rate)
    g = math.gcd(clip.sample_rate, target_rate)
    up, down = target_rate // g, clip.sample_rate // g
    out_len = round(len(clip) * target_rate / clip.sample_rate)
    return AudioClip(_polyphase_resample(clip.samples, up, down, out_len), target_rate)


def speed_change(clip: AudioClip, ratio: float) -> AudioClip:
    """SoX-style speed change: ratio 1.05 plays 5% faster and 5% higher.

    Implemented as resampling by 1/ratio with the header rate left untouched,
    so duration scales by 1/ratio and all spectral content by ratio.
    """
    up, down, out_len = _speed_geometry(len(clip), ratio)
    if ratio == 1.0:
        return AudioClip(clip.samples.copy(), clip.sample_rate)
    return AudioClip(_polyphase_resample(clip.samples, up, down, out_len), clip.sample_rate)


def _speed_geometry(n_samples: int, ratio: float) -> tuple[int, int, int]:
    """speed_change's (up, down, output length) for an n_samples clip."""
    if not np.isfinite(ratio) or not (0.5 <= ratio <= 2.0):
        raise InvalidRatioError(f"speed ratio must be in [0.5, 2.0], got {ratio!r}")
    frac = Fraction(float(ratio)).limit_denominator(10000)
    up, down = frac.denominator, frac.numerator
    return up, down, round(n_samples * up / down)


def speed_change_length(n_samples: int, ratio: float) -> int:
    """Number of samples speed_change(clip, ratio) returns for an n_samples clip."""
    return _speed_geometry(n_samples, ratio)[2]
