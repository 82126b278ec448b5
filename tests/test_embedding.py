import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    STANDIN_FFT_SIZE,
    dense_mel_energies_oracle,
    load_embeddings_row_oracle,
    mel_filterbank_oracle,
    standin_embedding_oracle,
)
from spkraug.audio_io import AudioClip, read_wav
from spkraug.dataset import RECIPE_JOBS, Manifest, execute_plan
from spkraug.embedding import (
    STANDIN_MEL_BANDS,
    EmbeddingSet,
    _mel_energy_blocks,
    _mel_projection,
    cosine_similarity,
    euclidean_distance,
    extract_standin_embedding,
    load_embeddings,
    save_embeddings,
    select_k_nearest,
)
from spkraug.errors import SpkraugError
from synth import SPEAKER_RECIPES, SR, speechlike


# -- the set type ------------------------------------------------------------

def test_vector_validation():
    ids, speakers = ["u", "v"], ["s", "s"]
    # empty vectors
    with pytest.raises(SpkraugError, match=r"2 ids and 2 speakers for a matrix of shape \(2, 0\)"):
        EmbeddingSet(ids, speakers, np.zeros((2, 0)))
    # rows that are not 1-D
    with pytest.raises(SpkraugError, match=r"2 ids and 2 speakers for a matrix of shape \(2, 2, 2"):
        EmbeddingSet(ids, speakers, np.zeros((2, 2, 2)))
    # one vector, not a matrix of rows
    with pytest.raises(SpkraugError, match=r"1 ids and 1 speakers for a matrix of shape \(2,\)"):
        EmbeddingSet(["u"], ["s"], np.ones(2))
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(SpkraugError, match="^v: embedding has non-finite values$"):
            EmbeddingSet(ids, speakers, [[1.0, 0.0], [bad, 1.0]])
    # 4 |v|^2 overflows: 1e154 squares to a finite 1e308, four times that does not
    for big in (1e200, -1e154):
        with pytest.raises(SpkraugError, match="^v: embedding norm too large$"):
            EmbeddingSet(ids, speakers, [[1.0, 0.0], [big, 0.0]])
    # a zero row is refused, as load_embeddings refuses it; a row near the top bound is legal
    with pytest.raises(SpkraugError, match="^u: zero-norm embedding$"):
        EmbeddingSet(ids, speakers, [[0.0, 0.0], [1e153, 1e153]])
    assert len(EmbeddingSet(ids, speakers, [[1.0, 0.0], [1e153, 1e153]])) == 2


def test_set_rejects_mixed_dimensions_and_duplicates():
    # more rows than ids
    with pytest.raises(SpkraugError, match=r"2 ids and 2 speakers for a matrix of shape \(3, 2\)"):
        EmbeddingSet(["a", "b"], ["s", "s"], np.ones((3, 2)))
    # fewer speakers than rows
    with pytest.raises(SpkraugError, match=r"2 ids and 1 speakers for a matrix of shape \(2, 2\)"):
        EmbeddingSet(["a", "b"], ["s"], np.ones((2, 2)))
    with pytest.raises(SpkraugError, match="duplicate utterance_id 'a'"):
        EmbeddingSet(["a", "a"], ["s", "s"], np.ones((2, 2)))


@pytest.mark.parametrize("ids, speakers, field", [
    (["a\tb", "c"], ["s", "s"], "utterance_id"),
    (["a", "c"], ["s", "s\u2028"], "speaker_id"),
    (["a\x01", "c"], ["s", "s"], "utterance_id"),
])
def test_set_rejects_ids_a_tsv_or_svg_cannot_hold(ids, speakers, field):
    """A tab id made a TSV that load_embeddings refuses; a C0 control made an
    SVG that XML parsers refuse."""
    with pytest.raises(SpkraugError, match=f"^{field} must hold no tab or line break"):
        EmbeddingSet(ids, speakers, np.ones((2, 2)))


def test_set_reports_the_first_defective_entry():
    with pytest.raises(SpkraugError, match="duplicate utterance_id 'a'"):
        EmbeddingSet(["a", "a", "b"], ["s"] * 3, np.ones((2, 2)))
    with pytest.raises(SpkraugError, match="duplicate utterance_id 'a'"):  # before non-finite rows
        EmbeddingSet(["a", "a"], ["s", "s"], [[1.0, np.inf], [1.0, 0.0]])


def test_set_fields_and_lookup():
    values = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    emb = EmbeddingSet(["u1", "u2", "u3"], ["alice", "bob", "alice"], values)
    assert emb.dimension == 2
    assert len(emb) == 3
    assert not hasattr(emb, "speakers")
    assert emb.ids == ["u1", "u2", "u3"]
    assert emb.speaker_ids == ["alice", "bob", "alice"]
    assert emb.matrix.shape == (3, 2)
    assert np.array_equal(emb._rows(["u3", "u1", "u3"]), values[[2, 0, 2]])
    assert emb._rows([]).shape == (0, 2)
    assert not emb.matrix.flags.writeable
    assert values.flags.writeable  # the caller's array is left as it was


def test_set_rows_name_the_first_missing_id():
    emb = EmbeddingSet(["u1", "u2"], ["s", "s"], [[1.0, 0.0], [0.0, 1.0]])
    with pytest.raises(SpkraugError, match="^no embedding for 'u9'$"):
        emb._rows(["u1", "u9", "u2", "u8"])
    with pytest.raises(SpkraugError, match="^no embedding for 'u8'$"):
        emb._rows(uid for uid in ["u8", "u9"])


@pytest.mark.parametrize("ids, speaker_ids, field", [
    ([1], ["s"], "utterance_id"),
    (["u"], [None], "speaker_id"),
])
def test_set_refuses_a_non_string_id(ids, speaker_ids, field):
    with pytest.raises(SpkraugError, match=f"^{field} must be a string, got "):
        EmbeddingSet(ids, speaker_ids, [[1.0]])


def test_set_may_be_empty():
    emb = EmbeddingSet([], [], np.empty((0, 3)))
    assert len(emb) == 0 and emb.dimension == 3


# -- similarity / distance ---------------------------------------------------

def _v(*values):
    return np.array(values, dtype=float)


def test_cosine_similarity_examples():
    a = _v(1.0, 0.0)
    assert cosine_similarity(a, _v(1.0, 0.0)) == pytest.approx(1.0)
    assert cosine_similarity(a, _v(0.0, 1.0)) == pytest.approx(0.0)
    assert cosine_similarity(a, _v(-2.0, 0.0)) == pytest.approx(-1.0)
    assert cosine_similarity(a, _v(1.0, 1.0)) == pytest.approx(1 / np.sqrt(2))


def test_cosine_similarity_scale_invariant():
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(16), rng.standard_normal(16)
    base = cosine_similarity(x, y)
    scaled = cosine_similarity(7.5 * x, 0.001 * y)
    assert scaled == pytest.approx(base, abs=1e-12)


def test_cosine_similarity_is_clipped():
    v = np.full(64, 0.125)
    assert cosine_similarity(v, v) <= 1.0


def test_cosine_similarity_errors():
    with pytest.raises(SpkraugError, match="2 vs 3"):
        cosine_similarity(_v(1.0, 0.0), _v(1.0, 0.0, 0.0))
    with pytest.raises(SpkraugError, match="cosine similarity undefined for zero-norm vectors"):
        cosine_similarity(_v(0.0, 0.0), _v(1.0, 0.0))


def test_euclidean_distance_examples():
    assert euclidean_distance(_v(0.0, 0.0), _v(3.0, 4.0)) == pytest.approx(5.0)
    assert euclidean_distance(_v(1.0, 1.0), _v(1.0, 1.0)) == 0.0
    with pytest.raises(SpkraugError, match="1 vs 2"):
        euclidean_distance(_v(1.0), _v(1.0, 2.0))


@given(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
       st.lists(st.floats(-10, 10), min_size=3, max_size=3),
       st.lists(st.floats(-10, 10), min_size=3, max_size=3))
def test_euclidean_triangle_inequality(xs, ys, zs):
    a, b, c = _v(*xs), _v(*ys), _v(*zs)
    assert euclidean_distance(a, c) <= (
        euclidean_distance(a, b) + euclidean_distance(b, c) + 1e-9
    )


# -- nearest neighbours ------------------------------------------------------

def test_select_k_nearest_example():
    scored = [(5.0, "far"), (1.0, "near"), (3.0, "mid")]
    assert select_k_nearest(scored, 2) == ["near", "mid"]


def test_select_k_nearest_ties_break_by_id():
    for order in (["zeta", "alpha", "mike"], ["zeta", "mike", "alpha"]):  # mixed, reverse id
        assert select_k_nearest([(1.0, uid) for uid in order], 2) == ["alpha", "mike"]


def test_select_k_nearest_order_independent():
    rng = np.random.default_rng(9)
    scored = [(float(d), f"c{i}") for i, d in enumerate(rng.integers(0, 4, size=8))]
    assert select_k_nearest(scored, 4) == select_k_nearest(scored[::-1], 4)


def test_select_k_nearest_bounds():
    scored = [(1.0, "a"), (2.0, "b")]
    assert select_k_nearest(scored, 0) == []
    assert select_k_nearest([], 0) == []
    with pytest.raises(SpkraugError, match=r"k must be in 0\.\.2, got 3"):
        select_k_nearest(scored, 3)
    with pytest.raises(SpkraugError, match=r"k must be in 0\.\.2, got -1"):
        select_k_nearest(scored, -1)


# -- stand-in extractor ------------------------------------------------------

RATES = (8000, 11025, 16000, 22050, 24000, 32000, 44100, 48000, 88200, 96000, 176400, 192000)


def test_mel_projection_shape_and_coverage():
    """Bands never decrease along the bins, and every band gets positive
    weight from some bin, except band 0 at 192 kHz, which holds no bin."""
    for rate in RATES:
        p = _mel_projection(80, 2048, rate)
        assert p.n_bands == 80 and len(p.lower) == len(p.upper) == 1025
        assert np.all(p.lower >= 0) and np.all(p.upper >= 0)
        assert p.starts[0] == 0 and np.all(np.diff(p.starts) > 0)
        assert np.all(np.diff(p.bands) >= 0)
        band = np.repeat(p.bands, np.diff(p.starts, append=len(p.lower)))
        weight = np.zeros(81)
        np.add.at(weight, band, p.lower)
        np.add.at(weight, band + 1, p.upper)
        assert np.array_equal(weight[:80] > 0, np.arange(80) >= (rate == 192000)), rate
        assert weight[80] == 0


def test_mel_projection_is_read_only():
    """Every caller gets the same cached projection, so none may write to it."""
    p = _mel_projection(80, 2048, SR)
    assert _mel_projection(80, 2048, SR) is p
    for a in (p.starts, p.bands, p.lower, p.upper):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 123


def _clip_for(recipe_index, seed=0, dur=1.0):
    speaker_id, f0, formants = SPEAKER_RECIPES[recipe_index]
    return speechlike(f0, formants, dur, seed, purpose=f"tests.embed.{speaker_id}.{seed}")


def test_standin_dimension_and_norm():
    emb = extract_standin_embedding(_clip_for(0))
    assert emb.shape == (2 * STANDIN_MEL_BANDS,)
    assert np.linalg.norm(emb) == pytest.approx(1.0, abs=1e-12)


def test_standin_gain_invariant():
    clip = _clip_for(1)
    loud = AudioClip(np.clip(2.0 * clip.samples, -1, 1), SR)  # no clipping at 0.42 peak
    quiet = AudioClip(0.05 * clip.samples, SR)
    a = extract_standin_embedding(clip)
    b = extract_standin_embedding(quiet)
    assert cosine_similarity(a, b) > 1 - 1e-9


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("gain", [1e-300, 1e150, 1e300])
def test_standin_gain_invariant_at_the_float_extremes(gain):
    """The clip is divided by its peak before its RMS is taken, so no square
    overflows or vanishes and any finite gain embeds as unit gain does."""
    clip = _clip_for(1)
    scaled = extract_standin_embedding(AudioClip(gain * clip.samples, SR))
    np.testing.assert_allclose(scaled, extract_standin_embedding(clip), rtol=0, atol=1e-11)


def test_standin_fft_size_is_within_tolerance_of_2048_points(small_corpus, tmp_path):
    """The 1024-point bins are the even bins of the 2048-point FFT, whose odd
    bins only interpolate an 800-sample frame's spectrum: every natural and
    every child of the four recipes (one parent per speaker) embeds within
    cosine 0.995 of the same definition at 2048 points."""
    _, manifest = small_corpus
    firsts = [r for r in manifest if r.utterance_id.endswith("_000")]
    assert len(firsts) == 3
    parents = Manifest(firsts, corpus=manifest.corpus, sample_rate=manifest.sample_rate)
    records = list(manifest)
    for recipe in RECIPE_JOBS:
        children, failures = execute_plan(parents, recipe, tmp_path / recipe)
        assert failures == [] and len(children) == 3 * len(RECIPE_JOBS[recipe][1])
        records += children
    for record in records:
        clip = read_wav(record.path)
        cs = cosine_similarity(extract_standin_embedding(clip), standin_embedding_oracle(clip, 2048))
        assert cs >= 0.995, (record.utterance_id, cs)


def test_standin_deterministic():
    clip = _clip_for(2)
    a = extract_standin_embedding(clip)
    b = extract_standin_embedding(clip)
    assert np.array_equal(a, b)


def test_standin_minimum_duration():
    with pytest.raises(SpkraugError, match="need at least 0.2 s, got 0.190 s"):
        extract_standin_embedding(AudioClip(np.zeros(int(0.19 * SR)), SR))
    # 0.2 s of real signal is acceptable
    extract_standin_embedding(_clip_for(0, dur=0.2))


@pytest.mark.parametrize("rate", RATES)
def test_mel_projection_holds_the_filterbank(rate):
    """Every bin lies in at most two adjacent filters, so the per-bin lower
    and upper weights rebuild the dense filterbank exactly."""
    p = _mel_projection(80, 2048, rate)
    band = np.repeat(p.bands, np.diff(p.starts, append=len(p.lower)))
    rebuilt = np.zeros((81, len(p.lower)))
    rebuilt[band, np.arange(len(band))] = p.lower
    rebuilt[band + 1, np.arange(len(band))] = p.upper
    assert np.array_equal(rebuilt[:80], mel_filterbank_oracle(80, 2048, rate))
    assert not rebuilt[80].any()


@pytest.mark.parametrize("rate", RATES)
def test_mel_energies_match_the_dense_product(rate):
    """Band energies within 1e-12 relative of the dense product, embeddings
    within 1e-12 absolute; the clip spans several frame blocks. A band that
    holds no bin of the 1024-point FFT reads exactly 0 in both: an 800-sample
    frame resolves only rate / 800 Hz, so the lowest bands hold no bin from
    88.2 kHz on (one band up to 96 kHz, four at 176.4 and 192 kHz)."""
    rng = np.random.default_rng(rate)
    clip = AudioClip(0.1 * rng.standard_normal(int(1.7 * rate)), rate)
    x = clip.samples / np.sqrt(np.mean(clip.samples ** 2))
    energies = np.concatenate(list(_mel_energy_blocks(x, rate)))
    dense = dense_mel_energies_oracle(clip)
    assert energies.shape == dense.shape
    np.testing.assert_allclose(energies, dense, rtol=1e-12, atol=0)
    empty = ~mel_filterbank_oracle(80, STANDIN_FFT_SIZE, rate).any(axis=1)
    assert empty.sum() == {88200: 1, 96000: 1, 176400: 4, 192000: 4}.get(rate, 0)
    assert not energies[:, empty].any() and not dense[:, empty].any()
    np.testing.assert_allclose(extract_standin_embedding(clip), standin_embedding_oracle(clip),
                               rtol=0, atol=1e-12)


def test_standin_rejects_non_finite_samples():
    x = _clip_for(0).samples.copy()
    x[100] = np.nan
    with pytest.raises(SpkraugError, match="clip contains NaN/Inf samples"):
        extract_standin_embedding(AudioClip(x, SR))


def test_standin_separates_synthetic_speakers():
    """Same-voice pairs must be closer than cross-voice pairs."""
    per_speaker = 4
    by_speaker = []
    for idx in range(3):
        by_speaker.append([
            extract_standin_embedding(_clip_for(idx, seed=s, dur=0.7))
            for s in range(per_speaker)
        ])
    same, cross = [], []
    for i in range(3):
        for a in range(per_speaker):
            for j in range(3):
                for b in range(per_speaker):
                    if (i, a) < (j, b):
                        cs = cosine_similarity(by_speaker[i][a], by_speaker[j][b])
                        (same if i == j else cross).append(cs)
    assert np.mean(same) > np.mean(cross)
    assert min(same) > np.mean(cross)


# -- TSV round trip ----------------------------------------------------------

def test_embeddings_file_roundtrip(tmp_path):
    rng = np.random.default_rng(3)
    emb = EmbeddingSet([f"u{i}" for i in range(4)], [f"s{i % 2}" for i in range(4)],
                       rng.standard_normal((4, 5)))
    path = tmp_path / "emb.tsv"
    save_embeddings(emb, path)
    back = load_embeddings(path)
    assert back.dimension == 5
    assert back.ids == emb.ids
    assert back.speaker_ids == emb.speaker_ids
    assert np.array_equal(back.matrix, emb.matrix)  # repr() round-trips floats


# any double, with the zero, subnormal and overflowing norms drawn often
_ROW_VALUE = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-160, 1e-150, 1e153, 1e154]),
                       st.floats(allow_nan=False, allow_infinity=False))


@settings(max_examples=80, database=None, derandomize=True)
@given(rows=st.lists(st.lists(_ROW_VALUE, min_size=2, max_size=2), min_size=1, max_size=4))
def test_a_set_holds_exactly_the_rows_its_file_can_hold(tmp_path_factory_session, rows):
    """EmbeddingSet and load_embeddings share one rule for a valid row: a set
    that builds saves to a file that loads back bit for bit, and a row the
    set refuses is refused by the loader at that row's line, with the same
    message."""
    ids = [f"u{i}" for i in range(len(rows))]
    path = tmp_path_factory_session / "one_rule.tsv"
    try:
        built = EmbeddingSet(ids, ["s"] * len(rows), rows)
    except SpkraugError as exc:
        uid, message = str(exc).split(": ", 1)
        path.write_text("#dim=2\n" + "".join(f"{i}\ts\t{a!r}\t{b!r}\n"
                                             for i, (a, b) in zip(ids, rows)))
        with pytest.raises(SpkraugError) as loaded:
            load_embeddings(path)
        assert str(loaded.value) == f"{path}:{ids.index(uid) + 2}: {message}"
    else:
        save_embeddings(built, path)
        assert np.array_equal(load_embeddings(path).matrix, built.matrix)


def test_load_embeddings_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_embeddings(tmp_path / "none.tsv")


@pytest.mark.parametrize("content", [
    "",                                     # empty file
    "u1\ts1\t1.0\n",                        # missing header
    "#dim=zero\nu1\ts1\t1.0\n",             # unparseable dimension
    "#dim=0\n",                             # non-positive dimension
    "#dim=2\nu1\ts1\t1.0\n",                # ragged row
    "#dim=2\nu1\ts1\t1.0\t2.0\t3.0\n",      # too many fields
    "#dim=2\nu1\ts1\t1.0\tbanana\n",        # non-numeric
    "#dim=2\nu1\ts1\t0.0\t0.0\n",           # zero-norm row
    "#dim=2\nu1\ts1\t1e200\t1.0\n",         # norm too large
    "#dim=2\nu1\ts1\t1.0\t0.0\nu1\ts1\t0.0\t1.0\n",  # duplicate id
])
def test_load_embeddings_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.tsv"
    path.write_text(content)
    with pytest.raises(SpkraugError, match=r"bad.tsv(:[23])?: "):
        load_embeddings(path)


def test_load_embeddings_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.tsv"
    path.write_text("#dim=2\nu1\ts1\t1.0\t0.0\n\nu2\ts1\t0.0\t1.0\n")
    assert len(load_embeddings(path)) == 2


# -- matrix loader against the per-row loader --------------------------------

def _load_outcome(load, path):
    """What a loader makes of a file: the set's contents, or its error."""
    try:
        emb = load(path)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return emb.dimension, emb.ids, emb.speaker_ids, emb.matrix.tobytes()


_VALUE = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-10**6, 10**6).map(str),
    st.sampled_from(["1e3", " 2.5", "-0.0", "1_000", "+.5", "1E-5 "]),
)
_DEFECTS = ("ragged", "extra", "bad id", "non-numeric", "nan", "inf", "overflow", "huge",
            "zero", "underflow", "subnormal", "duplicate")


def _inject(rows, defect, at, dim):
    uid, speaker, values = rows[at]
    if defect == "ragged":
        values = values[:-1]
    elif defect == "extra":
        values = values + ["1.0"]
    elif defect == "bad id":  # a character XML 1.0 forbids, in either id
        uid, speaker = (uid + "\x01", speaker) if at % 2 else (uid, speaker + "\ufffe")
    elif defect == "non-numeric":
        values = values[:-1] + ["banana"]
    elif defect in ("nan", "inf", "overflow"):
        values = values[:-1] + [{"nan": "nan", "inf": "-inf", "overflow": "1e400"}[defect]]
    elif defect == "huge":  # finite values whose squared norm overflows
        values = ["1e200"] * dim
    elif defect == "zero":
        values = ["0.0"] * dim
    elif defect == "underflow":  # every square underflows, so the norm is 0
        values = ["1e-170"] * dim
    elif defect == "subnormal":  # a non-zero squared norm below the smallest normal double
        values = ["1e-160"] * dim
    else:
        uid = rows[0][0]
    rows[at] = (uid, speaker, values)


@st.composite
def _embedding_files(draw):
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(1, 6))
    rows = []
    for i in range(n):
        values = draw(st.lists(_VALUE, min_size=dim, max_size=dim))
        if all(float(v) == 0.0 for v in values):
            values[0] = "1.0"
        rows.append((f"u{i}", f"s{i % 2}", values))
    for defect in draw(st.lists(st.sampled_from(_DEFECTS), max_size=2)):
        _inject(rows, defect, draw(st.integers(0, n - 1)), dim)
    lines = [f"#dim={dim}"] + ["\t".join([uid, speaker, *values])
                               for uid, speaker, values in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", "  ", "\t"])))
    return "\n".join(lines) + "\n"


@pytest.mark.filterwarnings("ignore:overflow encountered")  # huge values, as in the loop
@settings(max_examples=150)
@given(content=_embedding_files())
def test_load_embeddings_matches_row_loader(tmp_path_factory_session, content):
    path = tmp_path_factory_session / "emb.tsv"
    path.write_text(content, encoding="utf-8")
    assert _load_outcome(load_embeddings, path) == _load_outcome(load_embeddings_row_oracle, path)


@pytest.mark.parametrize("content", [
    "#dim=2\nu1\ts1\t1.0\tnan\nu2\ts1\t1.0\n",         # non-finite row before a ragged one
    "#dim=2\nu1\ts1\t0.0\t0.0\nu2\ts1\t1.0\tx\n",      # zero row before a non-numeric one
    "#dim=2\nu1\ts1\t1.0\t2.0\nu1\ts1\t1.0\tinf\n",    # non-finite row beats a duplicate
    "#dim=2\nu1\ts1\t1e-170\t1e-170\n",                # squares underflow: zero norm
    "#dim=2\nu1\ts1\t1e-160\t1e-170\n",                # subnormal square: norm too small
    "#dim=2\nu1\ts1\t1e200\t1.0\nu2\ts1\t1.0\n",       # norm too large before a ragged row
    "#dim=2\nu1\ts1\t1.0\t2.0\nu1\ts1\t1e154\t0.0\n",  # 4 |v|^2 overflows, beats a duplicate
    "#dim=2\nu1\ts1\t1e153\t1e153\n",                  # 4 |v|^2 is finite: sound
])
def test_load_embeddings_first_defect_wins(tmp_path, content):
    path = tmp_path / "emb.tsv"
    path.write_text(content)
    assert _load_outcome(load_embeddings, path) == _load_outcome(load_embeddings_row_oracle, path)


def test_load_embeddings_huge_header_dimension_is_refused(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("#dim=1000000000000\nu1\ts1\t1.0\n")
    with pytest.raises(SpkraugError, match="expected 1000000000002 fields, found 3"):
        load_embeddings(path)


@pytest.mark.parametrize("rows", ["", "u1\ts1\t1.0\n"], ids=["no-rows", "one-row"])
@pytest.mark.parametrize("dim", [2**60, 10**30], ids=["2**60", "10**30"])
def test_load_embeddings_dimension_past_numpy_shapes_is_refused(tmp_path, dim, rows):
    """No NumPy shape holds a float64 row of 2**60 values: the header is
    refused before any row is read."""
    path = tmp_path / "emb.tsv"
    path.write_text(f"#dim={dim}\n{rows}")
    message = f"{path}: dimension must be in [1, {2**60 - 1}], got {dim}"
    with pytest.raises(SpkraugError, match=f"^{re.escape(message)}$"):
        load_embeddings(path)
    path.write_text(f"#dim={2**60 - 1}\n{rows}")  # the largest dimension a header may give
    if rows:
        with pytest.raises(SpkraugError, match=f"expected {2**60 + 1} fields, found 3"):
            load_embeddings(path)
    else:
        assert load_embeddings(path).matrix.shape == (0, 2**60 - 1)


def test_load_embeddings_matrix_is_read_only(tmp_path):
    path = tmp_path / "emb.tsv"
    path.write_text("#dim=2\nu1\ts1\t1.0\t0.0\n\nu2\ts2\t0.0\t1.0\n\n")
    emb = load_embeddings(path)
    assert emb.matrix.shape == (2, 2) and not emb.matrix.flags.writeable
    assert emb.speaker_ids == ["s1", "s2"] and np.array_equal(emb._rows(["u2"]), [[0.0, 1.0]])
