import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    f0_refinement_loop_oracle,
    grain_window_oracle,
    median_voiced_f0,
    psola_grain_loop_oracle,
)
from spkraug.audio_io import MAX_RATIO, MIN_RATIO, AudioClip
from spkraug import psola
from spkraug.errors import SpkraugError
from spkraug.psola import (
    PsolaAnalysis,
    _f0_at,
    analyse,
    estimate_f0,
    place_pitch_marks,
    psola_modify,
    synthesise,
)
from synth import SPEAKER_RECIPES, SR, glide, harmonic_glide, sawtooth, sine, speechlike

DUR_RATIOS = (0.85, 0.90, 0.95, 1.05, 1.10, 1.15, 1.20, 1.3, 0.8)
F0_RATIOS = (0.70, 0.80, 0.90, 1.05, 1.10, 1.20, 1.50)


def _rms(x):
    return float(np.sqrt(np.mean(np.square(x))))


# -- pitch tracking ----------------------------------------------------------

@pytest.mark.parametrize("f0", [110.0, 160.0, 200.0, 330.0])
def test_estimate_f0_steady_sine(f0):
    f0_track = estimate_f0(sine(f0, 1.0))
    voiced = f0_track[f0_track > 0]
    assert (f0_track > 0).mean() > 0.9
    assert abs(np.median(voiced) - f0) < 0.02 * f0


def test_estimate_f0_respects_search_range():
    f0 = estimate_f0(sine(200.0, 0.5))
    voiced = f0[f0 > 0]
    assert np.all(voiced >= psola.F0_MIN)
    assert np.all(voiced <= psola.F0_MAX)


def test_estimate_f0_sawtooth_not_halved():
    """Rich harmonics must not fool the tracker into an octave error."""
    f0 = estimate_f0(sawtooth(160.0, 1.0))
    voiced = f0[f0 > 0]
    assert abs(np.median(voiced) - 160.0) < 0.02 * 160.0


def test_estimate_f0_silence_is_unvoiced():
    f0 = estimate_f0(AudioClip(np.zeros(SR // 2), SR))
    assert not (f0 > 0).any()
    assert np.all(f0 == 0.0)


def test_estimate_f0_noise_is_mostly_unvoiced():
    rng = np.random.default_rng(2)
    f0 = estimate_f0(AudioClip(0.3 * rng.standard_normal(SR), SR))
    assert (f0 > 0).mean() < 0.2


def test_estimate_f0_glide_tracks_the_sweep():
    f0 = estimate_f0(glide(120.0, 240.0, 1.0))
    voiced_idx = np.flatnonzero(f0 > 0)
    first = f0[voiced_idx[:5]].mean()
    last = f0[voiced_idx[-5:]].mean()
    assert first < 150.0
    assert last > 200.0


# -- pitch marks -------------------------------------------------------------

def test_place_marks_empty_clip():
    clip = sine(200.0, 0.2)
    f0 = estimate_f0(clip)
    with pytest.raises(SpkraugError, match="cannot place pitch marks on an empty clip"):
        place_pitch_marks(AudioClip(np.zeros(0), SR), f0)


def test_place_marks_spacing_matches_period():
    clip = sine(200.0, 1.0)
    marks = place_pitch_marks(clip, estimate_f0(clip))
    gaps = np.diff(marks)
    period = SR / 200.0
    assert len(marks) > 150
    assert np.all(np.abs(gaps - period) <= 0.2 * period)


def test_place_marks_snap_to_peaks():
    clip = sine(200.0, 0.5)
    marks = place_pitch_marks(clip, estimate_f0(clip))
    # skip the edges where analysis frames are truncated
    for pos in marks[2:-2]:
        assert clip.samples[pos] > 0.45  # near the crest of a 0.5-amplitude sine


def test_place_marks_unvoiced_grid():
    clip = AudioClip(np.zeros(SR), SR)
    marks = place_pitch_marks(clip, estimate_f0(clip))
    gaps = np.diff(marks)
    assert np.all(gaps == int(round(0.010 * SR)))


def test_place_marks_glide_gaps_follow_the_period():
    """On a downward glide the period grows; gaps may jitter by one sample
    from peak snapping but must trend up and never shrink by more."""
    clip = glide(200.0, 100.0, 1.0)
    marks = place_pitch_marks(clip, estimate_f0(clip))
    # the very last mark can land early when its search window is cut off by
    # the end of the clip, so it is excluded from the trend check
    gaps = np.diff(marks)[:-1]
    assert np.all(np.diff(gaps) >= -1)
    assert gaps[0] < SR / 170.0
    assert gaps[-1] > SR / 115.0


# -- modification ------------------------------------------------------------

@pytest.mark.parametrize("ratio", DUR_RATIOS)
def test_duration_ratio_is_exact(ratio):
    clip = sawtooth(160.0, 1.0)
    out = psola_modify(clip, ratio, 1.0)
    assert len(out) == round(len(clip) * ratio)
    assert out.sample_rate == SR


@pytest.mark.parametrize("ratio", DUR_RATIOS)
def test_duration_change_preserves_pitch(ratio):
    clip = sawtooth(160.0, 1.0)
    out = psola_modify(clip, ratio, 1.0)
    assert abs(median_voiced_f0(out) / median_voiced_f0(clip) - 1.0) < 0.05


@pytest.mark.parametrize("ratio", F0_RATIOS)
def test_f0_ratio_on_sawtooth(ratio):
    clip = sawtooth(160.0, 1.0)
    out = psola_modify(clip, 1.0, ratio)
    assert len(out) == len(clip)
    measured = median_voiced_f0(out) / median_voiced_f0(clip)
    assert abs(measured - ratio) < 0.05 * ratio


@pytest.mark.parametrize("ratio", [0.8, 1.2])
def test_f0_ratio_on_glide(ratio):
    clip = harmonic_glide(140.0, 220.0, 1.0)
    out = psola_modify(clip, 1.0, ratio)
    measured = median_voiced_f0(out) / median_voiced_f0(clip)
    assert abs(measured - ratio) < 0.05 * ratio


def test_joint_modification():
    clip = sawtooth(200.0, 1.0)
    out = psola_modify(clip, 1.3, 0.8)
    assert len(out) == round(1.3 * len(clip))
    measured = median_voiced_f0(out) / median_voiced_f0(clip)
    assert abs(measured - 0.8) < 0.05 * 0.8


def test_identity_modification_preserves_signal():
    clip = sine(200.0, 1.0)
    out = psola_modify(clip, 1.0, 1.0)
    assert len(out) == len(clip)
    interior = slice(800, len(clip) - 800)
    a, b = out.samples[interior], clip.samples[interior]
    corr = np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b))
    assert corr > 0.98


def test_output_never_exceeds_input_peak():
    for ratio in (0.7, 1.0, 1.5):
        clip = sawtooth(160.0, 0.8)
        out = psola_modify(clip, 1.0, ratio)
        assert np.max(np.abs(out.samples)) <= np.max(np.abs(clip.samples)) + 1e-12


def test_energy_is_roughly_preserved():
    clip = sawtooth(160.0, 1.0)
    for dur, f0 in ((1.2, 1.0), (0.85, 1.0), (1.0, 1.5), (1.0, 0.7)):
        out = psola_modify(clip, dur, f0)
        db = 20 * np.log10(_rms(out.samples) / _rms(clip.samples))
        assert abs(db) < 3.0


def test_unvoiced_input_keeps_duration_contract():
    rng = np.random.default_rng(8)
    clip = AudioClip(0.2 * rng.standard_normal(SR // 2), SR)
    out = psola_modify(clip, 1.2, 1.5)
    assert len(out) == round(1.2 * len(clip))


@pytest.mark.parametrize("dur,f0", [(0.49, 1.0), (2.01, 1.0), (1.0, 0.49), (1.0, 2.01),
                                    (float("nan"), 1.0), (1.0, float("inf"))])
def test_modify_rejects_bad_ratios(dur, f0):
    with pytest.raises(SpkraugError, match=r"^(duration|f0)_ratio must lie in \[0.5, 2.0\], got "):
        psola_modify(sine(200.0, 0.3), dur, f0)


def test_modify_rejects_too_short_input():
    with pytest.raises(SpkraugError,
                       match="found only 1 pitch marks; input is shorter than two periods"):
        psola_modify(AudioClip(np.zeros(30), SR), 1.1, 1.0)


def test_modify_deterministic():
    clip = sawtooth(180.0, 0.6)
    a = psola_modify(clip, 1.1, 0.9)
    b = psola_modify(clip, 1.1, 0.9)
    assert np.array_equal(a.samples, b.samples)


def test_one_analysis_serves_every_ratio():
    """Synthesis leaves the analysis untouched, so reusing it for many ratios
    gives what a fresh analysis per ratio gives."""
    clip = harmonic_glide(120.0, 220.0, 0.6)
    analysis = analyse(clip)
    for dur, f0 in [(d, 1.0) for d in DUR_RATIOS] + [(1.0, f) for f in F0_RATIOS]:
        out = synthesise(analysis, dur, f0)
        assert np.array_equal(out.samples, psola_modify(clip, dur, f0).samples)
    with pytest.raises(SpkraugError, match=r"duration_ratio must lie in \[0.5, 2.0\], got 2.5"):
        synthesise(analysis, 2.5, 1.0)


# -- synthesis against the grain-by-grain loop --------------------------------

def _glide_with_burst(f_start, f_end, dur, burst_at, burst_len, seed):
    """Harmonic glide with one stretch replaced by white noise (unvoiced)."""
    x = harmonic_glide(f_start, f_end, dur).samples.copy()
    a = int(burst_at * len(x))
    b = min(len(x), a + int(burst_len * SR))
    x[a:b] = 0.2 * np.random.default_rng(seed).standard_normal(b - a)
    return AudioClip(x, SR)


_RATIO = st.one_of(st.sampled_from([MIN_RATIO, MAX_RATIO]),
                   st.floats(MIN_RATIO, MAX_RATIO, allow_nan=False))


@settings(max_examples=25)
@given(f_start=st.floats(80.0, 350.0), f_end=st.floats(80.0, 350.0),
       dur=st.floats(0.15, 0.5), burst_at=st.floats(0.0, 0.9),
       burst_len=st.floats(0.02, 0.1), seed=st.integers(0, 2**16),
       ratios=st.lists(st.tuples(_RATIO, _RATIO), min_size=1, max_size=4))
def test_synthesise_matches_grain_loop_bitwise(f_start, f_end, dur, burst_at, burst_len,
                                               seed, ratios):
    analysis = analyse(_glide_with_burst(f_start, f_end, dur, burst_at, burst_len, seed))
    for dur_ratio, f0_ratio in ratios:
        out = synthesise(analysis, dur_ratio, f0_ratio).samples
        assert out.tobytes() == psola_grain_loop_oracle(analysis, dur_ratio, f0_ratio).tobytes()


@pytest.mark.parametrize("dur", [1.0, 0.5])
def test_synthesise_without_grains_is_silence(dur):
    """A first interior mark at or past the output end schedules no grain;
    the output is then round(n * d) zeros, as in the loop. No window is read."""
    clip = AudioClip(np.full(100, 0.3), SR)
    analysis = PsolaAnalysis(clip, np.array([0, 100, 120]), np.array([60.0]),
                             np.array([True]), np.full(120, np.nan))
    out = synthesise(analysis, dur, 1.3).samples
    assert out.tobytes() == np.zeros(round(100 * dur)).tobytes()
    assert out.tobytes() == psola_grain_loop_oracle(analysis, dur, 1.3).tobytes()


_FIXTURES = pytest.mark.parametrize("clip", [
    sine(200.0, 0.3), sawtooth(180.0, 0.6), glide(120.0, 240.0, 1.0),
    harmonic_glide(120.0, 220.0, 0.6), _glide_with_burst(110.0, 260.0, 0.5, 0.4, 0.08, 3),
    AudioClip(0.2 * np.random.default_rng(8).standard_normal(SR // 2), SR),
    AudioClip(0.2 * np.random.default_rng(9).standard_normal(399), SR),  # no F0 frames
    *(speechlike(f0, formants, 1.2, seed=3) for _, f0, formants in SPEAKER_RECIPES),
], ids=["sine", "sawtooth", "glide", "harmonic_glide", "burst", "noise", "frameless",
        *(speaker for speaker, _, _ in SPEAKER_RECIPES)])


@_FIXTURES
def test_place_marks_are_strictly_increasing_int64(clip):
    marks = place_pitch_marks(clip, estimate_f0(clip))
    assert marks.dtype == np.int64 and marks.ndim == 1
    assert np.all(np.diff(marks) > 0)


@_FIXTURES
def test_analyse_voicing_matches_per_mark_lookup(clip):
    f0 = estimate_f0(clip)
    marks = place_pitch_marks(clip, f0)
    expected = np.array([_f0_at(f0, m, clip.sample_rate) > 0 for m in marks[1:-1]])
    assert np.array_equal(analyse(clip).voiced, expected)


@_FIXTURES
def test_analyse_lays_out_every_grain_window(clip):
    """One window per interior mark, grain after grain, each equal to the
    one-grain oracle's, at the start PsolaAnalysis documents."""
    analysis = analyse(clip)
    marks = analysis.marks
    start = 0
    for j in range(len(marks) - 2):
        want = grain_window_oracle(marks[j + 1] - marks[j], marks[j + 2] - marks[j + 1])
        assert start == (marks[j] - marks[0]) + (marks[j + 1] - marks[1])
        assert analysis.windows[start:start + len(want)].tobytes() == want.tobytes()
        start += len(want)
    assert start == len(analysis.windows)


def test_analyse_voicing_rounds_half_way_marks_as_round_does(monkeypatch):
    """At 16 kHz frame k is centred on 200 + 160 k, so a mark at 280 + 160 k
    lies half-way between two frames: round() takes the even one."""
    clip = AudioClip(np.zeros(SR // 2), SR)
    f0_track = np.tile([0.0, 150.0], 25)  # frames alternate unvoiced, voiced
    marks = np.array([0, *range(120, 7000, 80), 7999], dtype=np.int64)  # half-way at odd steps
    monkeypatch.setattr(psola, "estimate_f0", lambda *_: f0_track)
    monkeypatch.setattr(psola, "place_pitch_marks", lambda *_: marks)
    expected = [_f0_at(f0_track, m, SR) > 0 for m in marks[1:-1]]
    assert any(m in range(280, 8000, 160) for m in marks)
    assert analyse(clip).voiced.tolist() == expected


# -- F0 refinement against the frame-by-frame loop ------------------------------

def _assert_track_matches_loop(clip):
    f0 = estimate_f0(clip)
    oracle_f0, oracle_voicing = f0_refinement_loop_oracle(clip)
    assert f0.tobytes() == oracle_f0.tobytes()
    assert np.array_equal(f0 > 0, oracle_voicing)


@_FIXTURES
def test_estimate_f0_matches_refinement_loop(clip):
    _assert_track_matches_loop(clip)


@settings(max_examples=25)
@given(f_start=st.floats(50.0, 450.0), f_end=st.floats(50.0, 450.0),
       dur=st.floats(0.03, 0.4), burst_at=st.floats(0.0, 0.9),
       burst_len=st.floats(0.0, 0.1), seed=st.integers(0, 2**16))
def test_estimate_f0_matches_refinement_loop_on_glides(f_start, f_end, dur, burst_at,
                                                       burst_len, seed):
    _assert_track_matches_loop(_glide_with_burst(f_start, f_end, dur, burst_at, burst_len, seed))
