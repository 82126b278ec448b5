import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import centroid_oracle, knn_oracle
from spkraug.audio_io import AudioClip
from spkraug.embedding import (
    STANDIN_DIMENSION,
    EmbeddingSet,
    EmbeddingVector,
    cosine_similarity,
    euclidean_distance,
    extract_standin_embedding,
    load_embeddings,
    mel_filterbank,
    save_embeddings,
    select_k_nearest,
    speaker_centroid,
)
from spkraug.errors import (
    ClipTooShortError,
    DimensionMismatchError,
    EmbeddingFileError,
    KTooLargeError,
    UnknownSpeakerError,
    ZeroNormError,
)
from synth import SPEAKER_RECIPES, SR, speechlike


def _vec(uid, *values, speaker="s"):
    return EmbeddingVector(uid, speaker, np.array(values, dtype=float))


# -- vector / set types ------------------------------------------------------

def test_vector_validation():
    with pytest.raises(DimensionMismatchError):
        EmbeddingVector("u", "s", np.zeros(0))
    with pytest.raises(DimensionMismatchError):
        EmbeddingVector("u", "s", np.zeros((2, 2)))
    with pytest.raises(ZeroNormError):
        EmbeddingVector("u", "s", np.array([1.0, np.nan]))


def test_set_rejects_mixed_dimensions_and_duplicates():
    with pytest.raises(DimensionMismatchError):
        EmbeddingSet(2, [_vec("a", 1.0, 0.0), _vec("b", 1.0, 0.0, 0.0)])
    with pytest.raises(EmbeddingFileError):
        EmbeddingSet(2, [_vec("a", 1.0, 0.0), _vec("a", 0.0, 1.0)])


def test_set_lookup_and_speakers():
    entries = [
        EmbeddingVector("u1", "alice", np.array([1.0, 0.0])),
        EmbeddingVector("u2", "bob", np.array([0.0, 1.0])),
        EmbeddingVector("u3", "alice", np.array([1.0, 1.0])),
    ]
    emb = EmbeddingSet.from_entries(entries)
    assert emb.dimension == 2
    assert len(emb) == 3
    assert "u2" in emb
    assert "u9" not in emb
    assert emb.get("u3").speaker_id == "alice"
    assert emb.speakers() == ["alice", "bob"]
    with pytest.raises(KeyError):
        emb.get("u9")
    assert emb.ids == ["u1", "u2", "u3"]
    assert emb.speaker_ids == ["alice", "bob", "alice"]
    assert emb.matrix.shape == (3, 2)
    assert np.array_equal(emb.get("u3").values, emb.matrix[2])
    assert [e.utterance_id for e in emb] == emb.ids


def test_from_entries_requires_at_least_one():
    with pytest.raises(EmbeddingFileError):
        EmbeddingSet.from_entries([])


# -- similarity / distance ---------------------------------------------------

def test_cosine_similarity_examples():
    a = _vec("a", 1.0, 0.0)
    assert cosine_similarity(a, _vec("b", 1.0, 0.0)) == pytest.approx(1.0)
    assert cosine_similarity(a, _vec("c", 0.0, 1.0)) == pytest.approx(0.0)
    assert cosine_similarity(a, _vec("d", -2.0, 0.0)) == pytest.approx(-1.0)
    assert cosine_similarity(a, _vec("e", 1.0, 1.0)) == pytest.approx(1 / np.sqrt(2))


def test_cosine_similarity_scale_invariant():
    rng = np.random.default_rng(0)
    x, y = rng.standard_normal(16), rng.standard_normal(16)
    base = cosine_similarity(_vec("a", *x), _vec("b", *y))
    scaled = cosine_similarity(_vec("a", *(7.5 * x)), _vec("b", *(0.001 * y)))
    assert scaled == pytest.approx(base, abs=1e-12)


def test_cosine_similarity_is_clipped():
    v = np.full(64, 0.125)
    assert cosine_similarity(_vec("a", *v), _vec("b", *v)) <= 1.0


def test_cosine_similarity_errors():
    with pytest.raises(DimensionMismatchError):
        cosine_similarity(_vec("a", 1.0, 0.0), _vec("b", 1.0, 0.0, 0.0))
    with pytest.raises(ZeroNormError):
        cosine_similarity(_vec("a", 0.0, 0.0), _vec("b", 1.0, 0.0))


def test_euclidean_distance_examples():
    assert euclidean_distance(_vec("a", 0.0, 0.0), _vec("b", 3.0, 4.0)) == pytest.approx(5.0)
    assert euclidean_distance(_vec("a", 1.0, 1.0), _vec("b", 1.0, 1.0)) == 0.0
    with pytest.raises(DimensionMismatchError):
        euclidean_distance(_vec("a", 1.0), _vec("b", 1.0, 2.0))


@given(st.lists(st.floats(-10, 10), min_size=3, max_size=3),
       st.lists(st.floats(-10, 10), min_size=3, max_size=3),
       st.lists(st.floats(-10, 10), min_size=3, max_size=3))
def test_euclidean_triangle_inequality(xs, ys, zs):
    a, b, c = _vec("a", *xs), _vec("b", *ys), _vec("c", *zs)
    assert euclidean_distance(a, c) <= (
        euclidean_distance(a, b) + euclidean_distance(b, c) + 1e-9
    )


# -- nearest neighbours / centroid -------------------------------------------

def test_select_k_nearest_example():
    query = _vec("q", 0.0, 0.0)
    cands = EmbeddingSet.from_entries([
        _vec("far", 5.0, 0.0), _vec("near", 1.0, 0.0), _vec("mid", 3.0, 0.0),
    ])
    assert select_k_nearest(query, cands, 2) == ["near", "mid"]


def test_select_k_nearest_ties_break_by_id():
    query = _vec("q", 0.0, 0.0)
    points = {"zeta": (1.0, 0.0), "alpha": (0.0, 1.0), "mike": (-1.0, 0.0)}
    for order in (["zeta", "alpha", "mike"], ["zeta", "mike", "alpha"]):  # mixed, reverse id
        cands = EmbeddingSet.from_entries([_vec(uid, *points[uid]) for uid in order])
        assert select_k_nearest(query, cands, 2) == ["alpha", "mike"]


def test_select_k_nearest_matches_oracle():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n = int(rng.integers(2, 20))
        k = int(rng.integers(0, n + 1))
        query = _vec("q", *rng.standard_normal(4))
        entries = [_vec(f"c{i:02d}", *rng.standard_normal(4)) for i in range(n)]
        got = select_k_nearest(query, EmbeddingSet.from_entries(entries), k)
        want = knn_oracle(query.values, [(e.utterance_id, e.values) for e in entries], k)
        assert got == want


def test_select_k_nearest_order_independent():
    rng = np.random.default_rng(9)
    entries = [_vec(f"c{i}", *rng.standard_normal(3)) for i in range(8)]
    query = _vec("q", *rng.standard_normal(3))
    a = select_k_nearest(query, EmbeddingSet.from_entries(entries), 4)
    b = select_k_nearest(query, EmbeddingSet.from_entries(entries[::-1]), 4)
    assert a == b


def test_select_k_nearest_bounds():
    cands = EmbeddingSet.from_entries([_vec("a", 1.0), _vec("b", 2.0)])
    assert select_k_nearest(_vec("q", 0.0), cands, 0) == []
    with pytest.raises(KTooLargeError):
        select_k_nearest(_vec("q", 0.0), cands, 3)
    with pytest.raises(KTooLargeError):
        select_k_nearest(_vec("q", 0.0), cands, -1)


def test_speaker_centroid_example():
    emb = EmbeddingSet.from_entries([
        EmbeddingVector("u1", "sp", np.array([1.0, 0.0])),
        EmbeddingVector("u2", "sp", np.array([0.0, 1.0])),
        EmbeddingVector("u3", "other", np.array([9.0, 9.0])),
    ])
    c = speaker_centroid(emb, "sp")
    assert c.speaker_id == "sp"
    assert c.utterance_id == "centroid:sp"
    np.testing.assert_allclose(c.values, [0.5, 0.5])


def test_speaker_centroid_matches_oracle():
    rng = np.random.default_rng(5)
    entries = [EmbeddingVector(f"u{i}", "sp", rng.standard_normal(6)) for i in range(11)]
    emb = EmbeddingSet.from_entries(entries)
    want = centroid_oracle([e.values for e in entries])
    np.testing.assert_allclose(speaker_centroid(emb, "sp").values, want, atol=1e-12)


def test_speaker_centroid_unknown_speaker():
    emb = EmbeddingSet.from_entries([_vec("a", 1.0)])
    with pytest.raises(UnknownSpeakerError):
        speaker_centroid(emb, "ghost")


# -- stand-in extractor ------------------------------------------------------

def test_filterbank_shape_and_coverage():
    fb = mel_filterbank(80, 2048, SR)
    assert fb.shape == (80, 1025)
    assert np.all(fb >= 0)
    assert np.all(fb.sum(axis=1) > 0)
    # band centers move upward
    centers = np.argmax(fb, axis=1)
    assert np.all(np.diff(centers) >= 0)


def test_filterbank_returns_writable_copy():
    fb = mel_filterbank(80, 2048, SR)
    fb[0, 0] = 123.0
    again = mel_filterbank(80, 2048, SR)
    assert again[0, 0] != 123.0


def _clip_for(recipe_index, seed=0, dur=1.0):
    speaker_id, f0, formants = SPEAKER_RECIPES[recipe_index]
    return speechlike(f0, formants, dur, seed, purpose=f"tests.embed.{speaker_id}.{seed}")


def test_standin_dimension_and_norm():
    emb = extract_standin_embedding(_clip_for(0), "u0", "spk0")
    assert emb.utterance_id == "u0"
    assert emb.speaker_id == "spk0"
    assert emb.dimension == STANDIN_DIMENSION
    assert np.linalg.norm(emb.values) == pytest.approx(1.0, abs=1e-12)


def test_standin_gain_invariant():
    clip = _clip_for(1)
    loud = AudioClip(np.clip(2.0 * clip.samples, -1, 1), SR)  # no clipping at 0.42 peak
    quiet = AudioClip(0.05 * clip.samples, SR)
    a = extract_standin_embedding(clip)
    b = extract_standin_embedding(quiet)
    assert cosine_similarity(a, b) > 1 - 1e-9


def test_standin_deterministic():
    clip = _clip_for(2)
    a = extract_standin_embedding(clip)
    b = extract_standin_embedding(clip)
    assert np.array_equal(a.values, b.values)


def test_standin_minimum_duration():
    with pytest.raises(ClipTooShortError):
        extract_standin_embedding(AudioClip(np.zeros(int(0.19 * SR)), SR))
    # 0.2 s of real signal is acceptable
    extract_standin_embedding(_clip_for(0, dur=0.2))


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
    entries = [EmbeddingVector(f"u{i}", f"s{i % 2}", rng.standard_normal(5))
               for i in range(4)]
    emb = EmbeddingSet.from_entries(entries)
    path = tmp_path / "emb.tsv"
    save_embeddings(emb, path)
    back = load_embeddings(path)
    assert back.dimension == 5
    assert [e.utterance_id for e in back] == [e.utterance_id for e in emb]
    for e in emb:
        got = back.get(e.utterance_id)
        assert got.speaker_id == e.speaker_id
        assert np.array_equal(got.values, e.values)  # repr() round-trips floats


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
    "#dim=2\nu1\ts1\t1.0\t0.0\nu1\ts1\t0.0\t1.0\n",  # duplicate id
])
def test_load_embeddings_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.tsv"
    path.write_text(content)
    with pytest.raises(EmbeddingFileError):
        load_embeddings(path)


def test_load_embeddings_skips_blank_lines(tmp_path):
    path = tmp_path / "blank.tsv"
    path.write_text("#dim=2\nu1\ts1\t1.0\t0.0\n\nu2\ts1\t0.0\t1.0\n")
    assert len(load_embeddings(path)) == 2
