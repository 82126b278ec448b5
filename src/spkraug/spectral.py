"""STFT analysis/synthesis and Griffin-Lim phase reconstruction.

Analysis uses periodic Hann windows with reflect padding at the tail so every
sample is covered; synthesis is weighted overlap-add normalized by the summed
squared window, i.e. the least-squares signal estimate. That inverse is what
makes the Griffin-Lim consistency error non-increasing.

Overlap-add cuts the frames into frame_shift-sized pieces and adds one piece
of every frame at a time, last piece first, so each output sample sums its
frames' terms in frame order from 0.0: the bits of a frame-by-frame loop,
with no per-sample index. The normaliser is the same sum of the squared
window.

Griffin-Lim sets each iteration's phase by the unit-phase projection
Z * (M / |Z|) rather than through angle() and exp(), and takes its norms as
NumPy's fixed-order pairwise sums rather than a BLAS call, so its output
does not depend on the BLAS thread count.
"""

import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .audio_io import DEFAULT_SAMPLE_RATE, AudioClip, _check_rate, _replacing
from .errors import SpkraugError

# DC-TTS-style defaults at 16 kHz: 50 ms frames, 12.5 ms shift.
DEFAULT_FRAME_LENGTH = 800
DEFAULT_FRAME_SHIFT = 200
DEFAULT_FFT_SIZE = 2048
DEFAULT_ITERATIONS = 60

_SPG_MAGIC = b"SPG1"


def _check_params(frame_length: int, frame_shift: int, fft_size: int) -> None:
    if not (0 < frame_shift <= frame_length <= fft_size):
        raise SpkraugError(
            f"need 0 < frame_shift <= frame_length <= fft_size, got "
            f"shift={frame_shift} length={frame_length} fft={fft_size}"
        )


@dataclass
class Spectrogram:
    """Magnitude spectrogram plus the analysis geometry that produced it."""

    magnitudes: np.ndarray  # frames x bins, non-negative
    frame_shift: int
    frame_length: int
    fft_size: int
    sample_rate: int

    def __post_init__(self):
        self.magnitudes = np.asarray(self.magnitudes, dtype=np.float64)
        _check_params(self.frame_length, self.frame_shift, self.fft_size)
        self.sample_rate = _check_rate(self.sample_rate)
        if self.magnitudes.ndim != 2 or self.magnitudes.shape[1] != self.fft_size // 2 + 1:
            raise SpkraugError(
                f"magnitudes must be frames x {self.fft_size // 2 + 1}, got {self.magnitudes.shape}"
            )
        if self.n_frames == 0:
            raise SpkraugError("spectrogram has no frames")
        if not np.all(np.isfinite(self.magnitudes)) or np.any(self.magnitudes < 0):
            raise SpkraugError("magnitudes must be finite and non-negative")

    @property
    def n_frames(self) -> int:
        return self.magnitudes.shape[0]


def _window(frame_length: int) -> np.ndarray:
    n = np.arange(frame_length)
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * n / frame_length)  # periodic Hann


def _frame_signal(x: np.ndarray, frame_length: int, frame_shift: int) -> np.ndarray:
    n = len(x)
    if n >= frame_length:
        n_frames = 1 + -(-(n - frame_length) // frame_shift)  # ceil division
    else:
        n_frames = 1
    padded_len = frame_length + (n_frames - 1) * frame_shift
    if padded_len > n:
        mode = "reflect" if n > 1 else "edge"
        x = np.pad(x, (0, padded_len - n), mode=mode)
    return sliding_window_view(x, frame_length)[::frame_shift]


def _stft_array(x, win, frame_shift, fft_size):
    frames = _frame_signal(x, len(win), frame_shift) * win
    return np.fft.rfft(frames, n=fft_size, axis=1)


def _overlap_add(frames: np.ndarray, frame_shift: int) -> np.ndarray:
    """Sum frames placed frame_shift apart, frame_length + (n_frames-1)*shift
    samples long.

    Each frame is cut into shift-sized pieces, and piece p of every frame is
    added at once into the buffer, last piece first. Every output sample thus
    receives its frames' terms in increasing frame order, starting from 0.0,
    exactly as a frame-by-frame loop would.
    """
    n_frames, frame_length = frames.shape
    n_pieces = -(-frame_length // frame_shift)  # ceil division
    out = np.zeros((n_frames + n_pieces - 1, frame_shift))
    for p in reversed(range(n_pieces)):
        piece = frames[:, p * frame_shift:(p + 1) * frame_shift]
        out[p:p + n_frames, :piece.shape[1]] += piece
    return out.ravel()[:frame_length + (n_frames - 1) * frame_shift]


def _istft_array(spec, fft_size, frame_shift, win, den):
    num = _overlap_add(np.fft.irfft(spec, n=fft_size, axis=1)[:, :len(win)] * win, frame_shift)
    return np.divide(num, den, out=np.zeros_like(num), where=den > 1e-12)


def stft(clip: AudioClip, frame_length: int = DEFAULT_FRAME_LENGTH,
         frame_shift: int = DEFAULT_FRAME_SHIFT, fft_size: int = DEFAULT_FFT_SIZE) -> np.ndarray:
    """Short-time Fourier transform, frames x (fft_size/2 + 1) complex.

    Frames are Hann-windowed and zero-padded to fft_size; the tail of the
    signal is reflect-padded so the last frame covers the final sample.
    """
    _check_params(frame_length, frame_shift, fft_size)
    if len(clip) == 0:
        raise SpkraugError("cannot analyze an empty clip")
    return _stft_array(clip.samples, _window(frame_length), frame_shift, fft_size)


def istft(spec: np.ndarray, frame_length: int = DEFAULT_FRAME_LENGTH,
          frame_shift: int = DEFAULT_FRAME_SHIFT, fft_size: int = DEFAULT_FFT_SIZE,
          sample_rate: int = DEFAULT_SAMPLE_RATE) -> AudioClip:
    """Least-squares inverse STFT (weighted overlap-add).

    Returns the full overlap-add length frame_length + (n_frames-1)*shift;
    istft(stft(x)) reconstructs interior samples of x exactly. Windowed
    frames and squared windows are overlap-added piece by piece, each sample
    summing in frame order as a frame loop would; samples whose summed
    squared window is at most 1e-12 are 0.
    """
    _check_params(frame_length, frame_shift, fft_size)
    spec = np.asarray(spec, dtype=np.complex128)
    if spec.ndim != 2 or spec.shape[1] != fft_size // 2 + 1:
        raise SpkraugError(f"spectrum must be frames x {fft_size // 2 + 1}, got {spec.shape}")
    if spec.shape[0] == 0:
        raise SpkraugError("spectrum has no frames")
    win = _window(frame_length)
    den = _overlap_add(np.broadcast_to(win * win, (spec.shape[0], frame_length)), frame_shift)
    return AudioClip(_istft_array(spec, fft_size, frame_shift, win, den), sample_rate)


def magnitude_spectrogram(clip: AudioClip, frame_length: int = DEFAULT_FRAME_LENGTH,
                          frame_shift: int = DEFAULT_FRAME_SHIFT,
                          fft_size: int = DEFAULT_FFT_SIZE) -> Spectrogram:
    """Magnitude of stft(), packaged with its analysis geometry."""
    mags = np.abs(stft(clip, frame_length, frame_shift, fft_size))
    return Spectrogram(mags, frame_shift, frame_length, fft_size, clip.sample_rate)


def griffin_lim(spec: Spectrogram, iterations: int = DEFAULT_ITERATIONS, seed: int = 0,
                return_errors: bool = False):
    """Reconstruct a waveform whose STFT magnitude matches spec.magnitudes.

    Starts from seeded uniform random phase (kept real at DC/Nyquist so the
    half spectrum stays Hermitian-consistent), then alternates
    signal <- istft(S), Z <- stft(signal), S <- Z * (M / |Z|): the unit-phase
    projection of Griffin & Lim (1984), with S = M where |Z| = 0, so no
    iteration takes an angle or a complex exponential. The window and the
    istft normaliser (the squared window, overlap-added) are built once; each
    iteration's istft overlap-adds its frames piece by piece, as istft does.
    The final signal is peak-normalized to 0.99. seed must be non-negative.

    With return_errors=True also returns the per-iteration relative
    consistency error ||M - |STFT(x_k)||_F / ||M||_F, which is non-increasing.
    Both norms are NumPy's pairwise sums of squares, not a BLAS call, so the
    errors, like the samples, do not depend on the BLAS thread count.
    """
    if iterations < 1:
        raise SpkraugError(f"iterations must be >= 1, got {iterations}")
    if seed < 0:
        raise SpkraugError(f"seed must be >= 0, got {seed}")
    m = spec.magnitudes
    m_norm = math.sqrt(float(np.sum(m * m)))
    if m_norm == 0.0:
        out_len = spec.frame_length + (spec.n_frames - 1) * spec.frame_shift
        silent = AudioClip(np.zeros(out_len), spec.sample_rate)
        return (silent, [0.0] * iterations) if return_errors else silent

    rng = np.random.default_rng(seed)
    phase = rng.uniform(-np.pi, np.pi, m.shape)
    phase[:, 0] = 0.0
    if spec.fft_size % 2 == 0:
        phase[:, -1] = 0.0
    s = m * np.exp(1j * phase)

    # the window and its overlap-added square, the least-squares normaliser,
    # are the same in every iteration
    win = _window(spec.frame_length)
    den = _overlap_add(np.broadcast_to(win * win, (len(m), len(win))), spec.frame_shift)
    errors = []
    x = None
    for _ in range(iterations):
        x = _istft_array(s, spec.fft_size, spec.frame_shift, win, den)
        s = _stft_array(x, win, spec.frame_shift, spec.fft_size)
        a = np.abs(s)
        d = m - a
        errors.append(math.sqrt(float(np.sum(np.square(d, out=d)))) / m_norm)
        zero = a == 0.0  # Z * (M / |Z|) -> M there, as with angle(0) = 0
        a[zero] = 1.0
        s[zero] = 1.0
        s *= np.divide(m, a, out=a)

    peak = np.abs(x).max()
    if peak > 0:
        x = x * (0.99 / peak)
    clip = AudioClip(x, spec.sample_rate)
    return (clip, errors) if return_errors else clip


def write_spectrogram(spec: Spectrogram, path) -> None:
    """Binary SPG1 container: header of six u32 fields, then f32 row-major data.
    Refuses, writing nothing, magnitudes that round past the float32 maximum,
    which read_spectrogram would refuse as infinite."""
    header = _SPG_MAGIC + struct.pack("<6I", *spec.magnitudes.shape, spec.fft_size,
                                      spec.frame_shift, spec.frame_length, spec.sample_rate)
    with np.errstate(over="ignore"):
        data = spec.magnitudes.astype("<f4")
    if not np.isfinite(data).all():
        raise SpkraugError(f"{path}: magnitudes must round to at most the float32 maximum "
                           f"{float(np.finfo(np.float32).max)!r}")
    with _replacing(path) as tmp:
        tmp.write_bytes(header + data.tobytes())


def read_spectrogram(path) -> Spectrogram:
    path = Path(path)
    raw = path.read_bytes()
    if len(raw) < 28 or raw[:4] != _SPG_MAGIC:
        raise SpkraugError(f"{path}: not an SPG1 file")
    frames, bins, fft_size, frame_shift, frame_length, sample_rate = struct.unpack("<6I", raw[4:28])
    expected = 28 + frames * bins * 4
    if len(raw) != expected:
        raise SpkraugError(f"{path}: expected {expected} bytes, found {len(raw)}")
    mags = np.frombuffer(raw[28:], dtype="<f4").astype(np.float64).reshape(frames, bins)
    try:
        return Spectrogram(mags, frame_shift, frame_length, fft_size, sample_rate)
    except SpkraugError as exc:
        raise SpkraugError(f"{path}: {exc}") from None
