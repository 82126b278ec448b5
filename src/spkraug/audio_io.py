"""Mono waveform I/O and rate conversion.

Files are RIFF/WAVE, 16-bit signed PCM, single channel. In memory everything
is float64 in [-1, 1]; quantization happens only at the file boundary. The
default pipeline rate is 16 kHz.

Every file the package writes goes through `_replacing`, so a reader never
sees a half-written output. Every text file is read by `_text_lines` and
written by `_write_lines`, which own the rules for UTF-8, blank lines, line
numbers and the final newline.
"""

import os
import re
import threading
import wave
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import SpkraugError

DEFAULT_SAMPLE_RATE = 16000
MIN_SAMPLE_RATE = 8000
MAX_SAMPLE_RATE = 192000
# bounds of every duration, F0 and speed ratio: speed changes, PSOLA and manifests
MIN_RATIO = 0.5
MAX_RATIO = 2.0

# Kaiser-windowed sinc resampler: 32 taps per polyphase branch, cutoff at
# 0.95x the Nyquist of the lower rate. beta 8.6 gives ~80 dB stopband.
_TAPS_PER_PHASE = 32
_KAISER_BETA = 8.6
_CUTOFF_SCALE = 0.95
# largest `up` a speed change resamples with: its filter has 32 * up + 1 taps
_MAX_SPEED_DENOMINATOR = 1000
# what an id may not hold: a tab, any break str.splitlines splits at, or a
# character XML 1.0 forbids (C0 controls, surrogates, U+FFFE and U+FFFF)
_BAD_ID_CHAR = re.compile("[\x00-\x1f\x85\u2028\u2029\ud800-\udfff\ufffe\uffff]")


@contextmanager
def _replacing(path):
    """Yield a temporary Path in `path`'s directory; once the block succeeds
    it is moved onto `path` with os.replace, and on any error it is removed.

    The temporary name, `.spkraug-<pid>-<thread id>.tmp`, does not grow with
    the target's, so any name the directory can hold can be written. An
    OSError that names a file names `path` instead, never the temporary file.
    A process killed mid-write leaves the old target (or none), never a
    partial one. There is no fsync, so this does not survive a power loss.
    """
    tmp = Path(path).parent / f".spkraug-{os.getpid()}-{threading.get_ident()}.tmp"
    try:
        yield tmp
        os.replace(tmp, path)
    except OSError as exc:
        if exc.filename is not None:
            exc.filename = str(path)
            del exc.filename2  # set to None, it would print as "-> None"
        raise
    finally:
        tmp.unlink(missing_ok=True)  # still there only if the block or the rename failed


def _text_lines(path) -> list:
    """(line number, line) for each non-blank line of a UTF-8 text input,
    numbered as str.splitlines numbers the whole text; bytes that are not
    UTF-8 raise SpkraugError naming the path."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise SpkraugError(f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return [(n, line) for n, line in enumerate(text.splitlines(), start=1) if line.strip()]


def _write_lines(path, lines) -> None:
    """Write lines as UTF-8 text through _replacing, each ending in a newline;
    no lines gives a file holding one newline."""
    with _replacing(path) as tmp:
        tmp.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _check_id(field: str, value) -> str:
    """value, when it is a string a TSV row and an SVG can hold as an id."""
    if not isinstance(value, str):
        raise SpkraugError(f"{field} must be a string, got {value!r}")
    if _BAD_ID_CHAR.search(value):
        raise SpkraugError(f"{field} must hold no tab or line break, nor a character XML 1.0 "
                           f"forbids, got {value!r}")
    return value


def _check_rate(rate) -> int:
    if not isinstance(rate, (int, np.integer)) or not (MIN_SAMPLE_RATE <= rate <= MAX_SAMPLE_RATE):
        raise SpkraugError(f"sample rate must be an integer in [{MIN_SAMPLE_RATE}, {MAX_SAMPLE_RATE}], got {rate!r}")
    return int(rate)


def _check_ratio(name: str, value) -> float:
    """value as a float, when it is a real number (not a bool) in [MIN_RATIO, MAX_RATIO]."""
    if (isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating))
            or not (MIN_RATIO <= value <= MAX_RATIO)):
        raise SpkraugError(f"{name} must lie in [{MIN_RATIO}, {MAX_RATIO}], got {value!r}")
    return float(value)


@dataclass
class AudioClip:
    """Mono audio: finite float samples in [-1, 1] plus a sample rate in Hz.
    `samples` must be real numbers (integer or float, not text, bool or
    complex) of any regular shape, flattened. It is read-only; it shares
    memory with a float64 source array, which stays writable."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.sample_rate = _check_rate(self.sample_rate)
        try:
            samples = np.asarray(self.samples)
        except ValueError:  # NumPy's refusal of ragged nesting
            raise SpkraugError("clip samples must be a regular array, got ragged nesting") from None
        if samples.dtype.kind not in "iuf":
            raise SpkraugError(f"clip samples must be real numbers, got {samples.dtype} values")
        # a view: its flags are the clip's own, the source array's stay as they were
        self.samples = samples.astype(np.float64, copy=False).reshape(-1).view()
        if not np.isfinite(self.samples).all():
            raise SpkraugError("clip contains NaN/Inf samples")
        self.samples.setflags(write=False)

    @property
    def duration_seconds(self) -> float:
        return len(self.samples) / self.sample_rate

    def __len__(self) -> int:
        return len(self.samples)


def _read_pcm(path, header_only: bool):
    """Parse a 16-bit mono PCM WAV into (rate, nframes, raw sample bytes), or
    (rate, nframes, None) from the header alone; either way raises when the
    data chunk holds fewer than 2 * nframes bytes, then when the rate is out
    of range."""
    path = Path(path)
    try:
        with open(path, "rb") as file, wave.open(file, "rb") as handle:
            channels = handle.getnchannels()
            width = handle.getsampwidth()
            rate = handle.getframerate()
            nframes = handle.getnframes()
            if header_only:
                raw = None  # wave.open leaves the file at the first sample
                available = min(2 * nframes, os.fstat(file.fileno()).st_size - file.tell())
            else:
                raw = handle.readframes(nframes)
                available = len(raw)
    except wave.Error as exc:  # a bad header, or a non-PCM encoding
        raise SpkraugError(f"{path}: {exc}") from exc
    except EOFError as exc:
        raise SpkraugError(f"{path}: truncated header") from exc
    except RuntimeError as exc:
        # wave's chunk reader raises a bare RuntimeError when a chunk's size
        # runs past the end of the RIFF chunk that holds it
        raise SpkraugError(f"{path}: chunk size exceeds its RIFF container") from exc
    if channels != 1:
        raise SpkraugError(f"{path}: expected mono, got {channels} channels")
    if width != 2:
        raise SpkraugError(f"{path}: expected 16-bit PCM, got {8 * width}-bit")
    if available != 2 * nframes:
        raise SpkraugError(
            f"{path}: truncated data, {available} bytes for {nframes} frames of 2 bytes"
        )
    try:
        return _check_rate(rate), nframes, raw
    except SpkraugError as exc:
        raise SpkraugError(f"{path}: {exc}") from None


def read_wav(path) -> AudioClip:
    """Read a 16-bit mono PCM WAV file, scaling samples to [-1, 1]."""
    rate, _, raw = _read_pcm(path, header_only=False)
    return AudioClip(np.frombuffer(raw, dtype="<i2").astype(np.float64) / 32768.0, rate)


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
    x = np.clip(clip.samples, -1.0, 1.0) * 32768.0
    pcm = np.trunc(x + np.copysign(0.5, x))
    pcm = np.clip(pcm, -32768, 32767).astype("<i2")
    # wave.open(name) on an unwritable name leaves a half-built writer whose
    # __del__ prints a traceback to stderr, so open the file first
    with _replacing(path) as tmp, open(tmp, "wb") as file, wave.open(file, "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(clip.sample_rate)
        handle.writeframes(pcm.tobytes())


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


@lru_cache(maxsize=16)
def _filter_bank(up: int, down: int) -> tuple[np.ndarray, int]:
    """(bank, skip) of the up/down polyphase stage: bank[p] holds the phase-p
    taps in the order a window reads x, and the output starts at m = skip,
    past the filter delay. Cached read-only: every caller gets these arrays."""
    taps, center = _design_lowpass(up, down)
    lead = (-center) % down  # shift so the filter delay lands on the output grid
    taps = np.concatenate([np.zeros(lead), taps])
    # bank[p] holds taps[p + j*up] for j = per_phase-1 .. 0
    bank = np.ascontiguousarray(np.pad(taps, (0, -len(taps) % up)).reshape(-1, up).T[:, ::-1])
    bank.setflags(write=False)
    return bank, (center + lead) // down


def _polyphase_resample(x: np.ndarray, up: int, down: int, out_len: int) -> np.ndarray:
    """Rational-rate conversion by a polyphase FIR filter (Crochiere & Rabiner,
    1983); output sample m sits at input position m*down/up.

    Zero-stuffing x by `up`, filtering and keeping every `down`-th sample
    gives sample m = sum_j taps[p + j*up] * x[m*down//up - j], p = m*down % up,
    and the result starts at m = skip, past the filter delay. The samples
    that share a phase p are every `up`-th one, and their input windows are
    every `down`-th one, so each phase is one strided product.
    Samples agree with upfirdn's within 1e-12 (tests/oracles.py).
    """
    if out_len <= 0:
        return np.zeros(0, dtype=np.float64)
    if up == down:  # then out_len == len(x)
        return x[:out_len].copy()
    bank, skip = _filter_bank(up, down)
    per_phase = bank.shape[1]
    # window i covers x[i - per_phase + 1 .. i], zero outside x
    last = (skip + out_len - 1) * down // up
    padded = np.zeros(per_phase - 1 + max(len(x), last + 1))
    padded[per_phase - 1:per_phase - 1 + len(x)] = x
    windows = sliding_window_view(padded, per_phase)
    y = np.empty(out_len)
    for r in range(min(up, out_len)):
        pos = (skip + r) * down
        rows = windows[pos // up::down][:len(range(r, out_len, up))]
        y[r::up] = np.einsum("ki,i->k", rows, bank[pos % up])  # no BLAS call
    return y


def speed_change(clip: AudioClip, ratio: float) -> AudioClip:
    """SoX-style speed change: ratio 1.05 plays 5% faster and 5% higher.

    Implemented as resampling by 1/ratio with the header rate left untouched,
    so duration scales by 1/ratio and all spectral content by ratio.
    """
    up, down, out_len = _speed_geometry(len(clip), ratio)
    return AudioClip(_polyphase_resample(clip.samples, up, down, out_len), clip.sample_rate)


def _speed_geometry(n_samples: int, ratio: float) -> tuple[int, int, int]:
    """speed_change's (up, down, output length) for an n_samples clip.

    The speed realised, down / up, is the fraction nearest ratio with up <=
    _MAX_SPEED_DENOMINATOR; it lies within 1e-3 of ratio, relative to ratio.
    """
    frac = Fraction(_check_ratio("speed ratio", ratio)).limit_denominator(_MAX_SPEED_DENOMINATOR)
    up, down = frac.denominator, frac.numerator
    return up, down, round(n_samples * up / down)


def speed_change_length(n_samples: int, ratio: float) -> int:
    """Number of samples speed_change(clip, ratio) returns for an n_samples clip."""
    return _speed_geometry(n_samples, ratio)[2]
