import json
import math
import os
from pathlib import Path

import numpy as np
import pytest

from oracles import knn_oracle
from spkraug.audio_io import AudioClip, read_wav, write_wav
from spkraug.dataset import (
    NATURAL,
    PSOLA_DUR,
    PSOLA_DUR_RATIOS,
    PSOLA_F0,
    PSOLA_F0_RATIOS,
    PSOLA_MIX,
    PSOLA_MIX_JOBS,
    RECIPE_JOBS,
    RESAMPLED,
    SPEED_RATIOS,
    Manifest,
    UtteranceRecord,
    execute_plan,
    generate_eer_pairs,
    load_manifest,
    save_manifest,
    select_best_augmented,
    select_subset,
)
from spkraug.embedding import EmbeddingSet
from spkraug.errors import SpkraugError


def _natural(uid, speaker="sp0", path=None):
    return UtteranceRecord(uid, speaker, path or f"/audio/{uid}.wav")


def _augmented(uid, parent, speaker="sp0", kind=PSOLA_F0, dur=1.0, f0=1.2):
    return UtteranceRecord(uid, speaker, f"/audio/{uid}.wav", kind, dur, f0, parent)


# -- record / manifest invariants ---------------------------------------------

def test_natural_record_defaults():
    r = _natural("sp0_001")
    assert r.is_natural
    assert r.kind == NATURAL
    assert r.duration_ratio == 1.0 and r.f0_ratio == 1.0
    assert r.parent_id is None


def test_natural_record_rejects_modification_fields():
    message = "u: natural records must have unit ratios and no parent"
    with pytest.raises(SpkraugError, match=message):
        UtteranceRecord("u", "s", "p.wav", NATURAL, 1.1, 1.0)
    with pytest.raises(SpkraugError, match=message):
        UtteranceRecord("u", "s", "p.wav", NATURAL, 1.0, 0.9)
    with pytest.raises(SpkraugError, match=message):
        UtteranceRecord("u", "s", "p.wav", NATURAL, 1.0, 1.0, "parent")


def test_augmented_record_needs_parent():
    with pytest.raises(SpkraugError, match="u: augmented record needs a parent_id"):
        UtteranceRecord("u", "s", "p.wav", PSOLA_DUR, 1.1, 1.0, None)
    _augmented("u", "parent")  # fine with one


def test_unknown_kind_rejected():
    with pytest.raises(SpkraugError, match="u: unknown kind 'stretched'"):
        UtteranceRecord("u", "s", "p.wav", "stretched", 1.1, 1.0, "parent")


@pytest.mark.parametrize("ratio", [float("nan"), float("inf"), -3, 0.49, 2.01, True, "1.05",
                                   None])
def test_record_rejects_bad_ratios(ratio):
    with pytest.raises(SpkraugError, match=r"^duration_ratio must lie in \[0.5, 2.0\], got "):
        UtteranceRecord("u", "s", "p.wav", PSOLA_DUR, ratio, 1.0, "parent")
    with pytest.raises(SpkraugError, match=r"^f0_ratio must lie in \[0.5, 2.0\], got "):
        UtteranceRecord("u", "s", "p.wav", PSOLA_F0, 1.0, ratio, "parent")


def test_record_stores_ratios_as_floats():
    r = UtteranceRecord("u", "s", "p.wav", PSOLA_MIX, 2, np.float64(0.8), "parent")
    assert type(r.duration_ratio) is float and r.duration_ratio == 2.0
    assert type(r.f0_ratio) is float and r.f0_ratio == 0.8


def test_manifest_rejects_duplicate_ids():
    with pytest.raises(SpkraugError, match="duplicate utterance_id 'a'"):
        Manifest([_natural("a"), _natural("a")])


def test_manifest_lookup_helpers():
    records = [
        _natural("sp0_000", "sp0"),
        _natural("sp1_000", "sp1"),
        _augmented("sp0_000__x", "sp0_000", "sp0"),
    ]
    m = Manifest(records, corpus="demo", sample_rate=16000)
    assert len(m) == 3
    assert "sp1_000" in m and "ghost" not in m
    assert m.get("sp0_000").speaker_id == "sp0"
    assert m.speakers() == ["sp0", "sp1"]
    assert [r.utterance_id for r in m.naturals()] == ["sp0_000", "sp1_000"]


def test_require_parents_within_manifest():
    m = Manifest([_natural("a"), _augmented("a__x", "a")])
    m.require_parents()
    dangling = Manifest([_augmented("b__x", "b")])
    with pytest.raises(SpkraugError, match="b__x: parent 'b' not found"):
        dangling.require_parents()


def test_require_parents_with_supplement():
    naturals = Manifest([_natural("a")])
    children = Manifest([_augmented("a__x", "a")])
    children.require_parents(naturals)
    with pytest.raises(SpkraugError, match="a__x: parent 'a' not found"):
        children.require_parents(Manifest([_natural("other")]))


def test_require_parents_rejects_augmented_parent():
    m = Manifest([
        _natural("a"),
        _augmented("a__x", "a"),
        _augmented("a__x__y", "a__x"),
    ])
    with pytest.raises(SpkraugError, match="a__x__y: parent 'a__x' is not natural"):
        m.require_parents()


# -- manifest files ----------------------------------------------------------

def test_manifest_roundtrip(tmp_path):
    m = Manifest(
        [
            _natural("sp0_000", "sp0"),
            _augmented("sp0_000__psola_f0_1_1.2", "sp0_000", "sp0"),
            _augmented("sp0_000__r", "sp0_000", "sp0", kind=RESAMPLED, dur=0.95, f0=0.95),
        ],
        corpus="roundtrip",
        sample_rate=22050,
    )
    path = tmp_path / "m.jsonl"
    save_manifest(m, path)
    back = load_manifest(path)
    assert back.corpus == "roundtrip"
    assert back.sample_rate == 22050
    assert [r for r in back] == [r for r in m]


@pytest.mark.parametrize("brk", ["\x85", "\u2028", "\u2029"], ids=["nel", "ls", "ps"])
def test_manifest_roundtrips_breaks_json_leaves_raw(tmp_path, brk):
    """json.dumps(ensure_ascii=False) writes these raw, and every text reader
    splits a line at them."""
    m = Manifest([_natural("a", path=f"/audio/a{brk}b.wav")], corpus=f"c{brk}d")
    path = tmp_path / "m.jsonl"
    save_manifest(m, path)
    assert brk not in path.read_text(encoding="utf-8")
    back = load_manifest(path)
    assert back.corpus == m.corpus
    assert [r for r in back] == [r for r in m]


def test_manifest_file_is_stable_bytes(tmp_path):
    m = Manifest([_natural("a"), _natural("b")], corpus="c")
    p1, p2 = tmp_path / "1.jsonl", tmp_path / "2.jsonl"
    save_manifest(m, p1)
    save_manifest(m, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_manifest_file_golden_bytes(tmp_path):
    m = Manifest([_natural("sp0_000", "sp0"),
                  _augmented("sp0_000__r", "sp0_000", "sp0", kind=RESAMPLED, dur=0.95, f0=0.95)],
                 corpus="gold", sample_rate=22050)
    path = tmp_path / "m.jsonl"
    save_manifest(m, path)
    assert path.read_bytes() == (
        b'{"corpus":"gold","sample_rate":22050}\n'
        b'{"utterance_id":"sp0_000","speaker_id":"sp0","path":"/audio/sp0_000.wav",'
        b'"kind":"natural","duration_ratio":1.0,"f0_ratio":1.0,"parent_id":null}\n'
        b'{"utterance_id":"sp0_000__r","speaker_id":"sp0","path":"/audio/sp0_000__r.wav",'
        b'"kind":"resampled","duration_ratio":0.95,"f0_ratio":0.95,"parent_id":"sp0_000"}\n'
    )


def test_load_manifest_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_manifest(tmp_path / "none.jsonl")


_HEADER = '{"corpus":"c","sample_rate":16000}\n'
_NATURAL_U = '{"utterance_id":"u","speaker_id":"s","path":"p"}\n'
# an augmented record, open for one more field and its closing brace
_CHILD = '{"utterance_id":"u__x","speaker_id":"s","path":"p","kind":"psola_dur","parent_id":"u",'


@pytest.mark.parametrize("content", [
    "",
    "not json\n",
    '["list", "not", "dict"]\n',
    '{"corpus":"c"}\n',  # header missing sample_rate
    '{"corpus":"c","sample_rate":16000}\nnot json either\n',
    '{"corpus":"c","sample_rate":16000}\n{"speaker_id":"s","path":"p"}\n',  # no id
    '{"corpus":"c","sample_rate":16000}\n'
    '{"utterance_id":"u","speaker_id":"s","path":"p","kind":"weird"}\n',
    '{"corpus":"c","sample_rate":16000}\n'
    '{"utterance_id":"u","speaker_id":"s","path":"p"}\n'
    '{"utterance_id":"u","speaker_id":"s","path":"p"}\n',  # duplicate
    '{"corpus":"c","sample_rate":16000}\n'
    '{"utterance_id":"u","speaker_id":"s","path":"p","duration_ratio":"abc"}\n',
    '{"corpus":"c","sample_rate":16000}\n[1,2]\n',  # record is not an object
    '{"corpus":"c","sample_rate":"x"}\n',
    '{"corpus":"c","sample_rate":true}\n',  # a bool is not a rate
    '{"corpus":"c","sample_rate":16000}\n{"utterance_id":"u","speaker_id":"s","path":null}\n',
    '{"corpus":"c","sample_rate":16000}\n{"utterance_id":"u","speaker_id":"s","path":3}\n',
    '{"corpus":"c","sample_rate":16000}\n{"utterance_id":7,"speaker_id":"s","path":"p"}\n',
    '{"corpus":"c","sample_rate":16000}\n{"utterance_id":"u","speaker_id":["s"],"path":"p"}\n',
    '{"corpus":"c","sample_rate":16000}\n'
    '{"utterance_id":"u","speaker_id":"s","path":"p","kind":"psola_dur","parent_id":1}\n',
    '{"corpus":"c","sample_rate":1e999}\n',  # overflows to an infinite rate
    '{"corpus":"c","sample_rate":5}\n',  # an integer below MIN_SAMPLE_RATE
    '{"corpus":"c","sample_rate":16000.5}\n',  # not an integer, not truncated
    pytest.param('{"corpus":"c","sample_rate":16000}\n{"utterance_id":"u","speaker_id":"s",'
                 '"path":"p","f0_ratio":1' + "0" * 400 + '}\n', id="ratio-overflows-float"),
    pytest.param(_HEADER + _CHILD + '"duration_ratio":"nan"}\n', id="ratio-string-nan"),
    pytest.param(_HEADER + _CHILD + '"f0_ratio":NaN}\n', id="ratio-nan-literal"),
    pytest.param(_HEADER + _CHILD + '"f0_ratio":"inf"}\n', id="ratio-string-inf"),
    pytest.param(_HEADER + _CHILD + '"duration_ratio":-3}\n', id="ratio-negative"),
    pytest.param(_HEADER + _CHILD + '"f0_ratio":true}\n', id="ratio-bool"),
    pytest.param(_HEADER + _CHILD + '"f0_ratio":"1.05"}\n', id="ratio-string-number"),
    pytest.param('{"corpus":5,"sample_rate":16000}\n', id="corpus-not-a-string"),
    pytest.param("[" * 100000 + "]" * 100000 + "\n", id="header-nested-too-deeply"),
    pytest.param('{"corpus":"c","sample_rate":16000}\n' + "[" * 100000 + "]" * 100000 + "\n",
                 id="record-nested-too-deeply"),
])
def test_load_manifest_rejects_malformed(tmp_path, content):
    path = tmp_path / "bad.jsonl"
    path.write_text(content)
    with pytest.raises(SpkraugError, match=r"bad.jsonl(:\d)?: "):
        load_manifest(path)


def test_load_manifest_reports_line_numbers(tmp_path):
    path = tmp_path / "bad.jsonl"
    for content, lineno in [
        ('{"corpus":"c","sample_rate":5}\n', 1),
        ('{"corpus":"c","sample_rate":16000}\n{"oops": true}\n', 2),
        ('{"corpus":"c","sample_rate":16000}\n\n{"utterance_id":"u","speaker_id":"s","path":"p"}'
         '\n{"oops": true}\n', 4),  # the blank line 2 still counts
        ('{"corpus":5,"sample_rate":16000}\n', 1),
        (_HEADER + _CHILD + '"duration_ratio":"nan"}\n', 2),
        (_HEADER + '{"utterance_id":"u","speaker_id":"s","path":"p","kind":"weird"}\n', 2),
        (_HEADER + _NATURAL_U + '{"utterance_id":"v","speaker_id":"s","path":"q"}\n'
         + _NATURAL_U, 4),  # the second occurrence
    ]:
        path.write_text(content)
        with pytest.raises(SpkraugError, match=f"bad.jsonl:{lineno}:"):
            load_manifest(path)


@pytest.mark.parametrize("header", [
    {"corpus": "c", "sample_rate": "x"},
    {"corpus": "c", "sample_rate": True},
    {"corpus": "c", "sample_rate": math.inf},  # what a JSON 1e999 reads as
    {"corpus": "c", "sample_rate": 5},
    {"corpus": "c", "sample_rate": 4000},
    {"corpus": "c", "sample_rate": 16000.5},
    {"corpus": "c", "sample_rate": 16000.0},
    {"corpus": 5, "sample_rate": 16000},
    {"corpus": "c\x00", "sample_rate": 16000},
    {"corpus": "\ud800", "sample_rate": 16000},
])
def test_manifest_refuses_every_header_load_manifest_refuses(tmp_path, header):
    """A Manifest holds only a header that save_manifest writes and
    load_manifest reads back; both refuse a bad one with the same message."""
    with pytest.raises(SpkraugError) as built:
        Manifest([_natural("u")], **header)
    path = tmp_path / "bad.jsonl"
    path.write_text(json.dumps(header) + "\n")
    with pytest.raises(SpkraugError) as loaded:
        load_manifest(path)
    assert str(loaded.value) == f"{path}:1: {built.value}"


def test_manifest_stores_its_sample_rate_as_an_int(tmp_path):
    manifest = Manifest([_natural("u")], sample_rate=np.int64(22050))
    assert type(manifest.sample_rate) is int
    save_manifest(manifest, tmp_path / "m.jsonl")
    assert load_manifest(tmp_path / "m.jsonl").sample_rate == 22050


def test_augmented_only_manifest_loads(tmp_path):
    """A shard holding only augmented records is legal on disk; parents are
    checked only when a caller asks for them."""
    m = Manifest([_augmented("a__x", "a")])
    path = tmp_path / "aug.jsonl"
    save_manifest(m, path)
    back = load_manifest(path)
    assert len(back) == 1
    with pytest.raises(SpkraugError, match="a__x: parent 'a' not found"):
        back.require_parents()


# -- subset selection --------------------------------------------------------

def _numbered_manifest(per_speaker=8, speakers=("sp0", "sp1", "sp2")):
    records = []
    for sp in speakers:
        for i in range(per_speaker):
            records.append(_natural(f"{sp}_{i:03d}", sp))
    return Manifest(records)


def test_subset_parallel_picks_same_numbers_for_all_speakers():
    subset = select_subset(_numbered_manifest(), per_speaker=3, seed=1)
    numbers = {}
    for r in subset:
        numbers.setdefault(r.speaker_id, set()).add(int(r.utterance_id[-3:]))
    assert len(subset) == 9
    picked = list(numbers.values())
    assert picked[0] == picked[1] == picked[2]


def test_subset_identity_when_everything_fits():
    m = _numbered_manifest(per_speaker=4)
    subset = select_subset(m, per_speaker=4, seed=0)
    assert [r.utterance_id for r in subset] == [r.utterance_id for r in m]


def test_subset_deterministic_and_seed_sensitive():
    m = _numbered_manifest(per_speaker=30)
    a = select_subset(m, 5, seed=3)
    b = select_subset(m, 5, seed=3)
    assert [r.utterance_id for r in a] == [r.utterance_id for r in b]
    c = select_subset(m, 5, seed=4)
    assert [r.utterance_id for r in a] != [r.utterance_id for r in c]


def test_subset_preserves_manifest_order():
    m = _numbered_manifest()
    subset = select_subset(m, 4, seed=2)
    order = [r.utterance_id for r in m]
    picked = [r.utterance_id for r in subset]
    assert picked == sorted(picked, key=order.index)


def test_subset_parallel_uses_shared_numbers_only():
    records = [_natural(f"sp0_{i:03d}", "sp0") for i in (0, 1, 2, 3)]
    records += [_natural(f"sp1_{i:03d}", "sp1") for i in (2, 3, 4, 5)]
    subset = select_subset(Manifest(records), per_speaker=2, seed=0)
    kept_numbers = {int(r.utterance_id[-3:]) for r in subset}
    assert kept_numbers <= {2, 3}
    assert len(subset) == 4


def test_subset_ignores_augmented_records():
    m = Manifest([
        _natural("sp0_000", "sp0"), _natural("sp0_001", "sp0"),
        _natural("sp1_000", "sp1"), _natural("sp1_001", "sp1"),
        _augmented("sp0_000__x", "sp0_000", "sp0"),
    ])
    subset = select_subset(m, 2, seed=0)
    assert all(r.is_natural for r in subset)
    assert len(subset) == 4


def test_subset_independent_mode_counts():
    records = [_natural(f"sp0_{i:03d}", "sp0") for i in (0, 1, 2, 3)]
    records += [_natural(f"sp1_{i:03d}", "sp1") for i in (7, 8, 9)]
    subset = select_subset(Manifest(records), per_speaker=3, seed=5, parallel=False)
    by_speaker = {}
    for r in subset:
        by_speaker.setdefault(r.speaker_id, []).append(r)
    assert {sp: len(v) for sp, v in by_speaker.items()} == {"sp0": 3, "sp1": 3}


def test_subset_insufficient_shared_numbers():
    records = [_natural("sp0_000", "sp0"), _natural("sp0_001", "sp0"),
               _natural("sp1_002", "sp1"), _natural("sp1_003", "sp1")]
    with pytest.raises(SpkraugError,
                       match="only 0 utterance numbers shared across speakers, need 1"):
        select_subset(Manifest(records), per_speaker=1, seed=0)


def test_subset_insufficient_independent():
    records = [_natural("sp0_000", "sp0"), _natural("sp1_000", "sp1")]
    with pytest.raises(SpkraugError, match="speaker 'sp0' has 1 naturals, need 2"):
        select_subset(Manifest(records), per_speaker=2, seed=0, parallel=False)


def test_subset_rejects_ids_without_numbers():
    records = [_natural("alpha", "sp0"), _natural("beta", "sp1")]
    with pytest.raises(SpkraugError,
                       match="'alpha': parallel selection needs a trailing utterance number"):
        select_subset(Manifest(records), per_speaker=1, seed=0)


def test_subset_rejects_duplicate_numbers():
    records = [_natural("sp0_a01", "sp0"), _natural("sp0_b01", "sp0"),
               _natural("sp1_001", "sp1")]
    with pytest.raises(SpkraugError, match="speaker 'sp0': utterance number 1 appears twice"):
        select_subset(Manifest(records), per_speaker=1, seed=0)


def test_subset_rejects_bad_per_speaker():
    with pytest.raises(SpkraugError, match="per_speaker must be >= 1, got 0"):
        select_subset(_numbered_manifest(), per_speaker=0, seed=0)


# -- the jobs of a recipe -----------------------------------------------------

def _jobs(manifest, recipe, audio_root):
    """(parent_id, kind, duration_ratio, f0_ratio) of every job execute_plan
    runs, in order, over a manifest whose WAVs do not exist: each job fails."""
    built, failures = execute_plan(manifest, recipe, audio_root)
    assert len(built) == 0
    return [(f["parent_id"], f["kind"], f["duration_ratio"], f["f0_ratio"]) for f in failures]


@pytest.mark.parametrize("recipe,kind,count", [
    ("resample", RESAMPLED, 4),
    ("psola-dur", PSOLA_DUR, 7),
    ("psola-f0", PSOLA_F0, 7),
    ("psola-mix", PSOLA_MIX, 4),
])
def test_plan_counts_and_kinds(tmp_path, recipe, kind, count):
    m = _numbered_manifest(per_speaker=2)
    jobs = _jobs(m, recipe, tmp_path)
    assert len(jobs) == count * len(m)
    assert all(job[1] == kind for job in jobs)
    # jobs run grouped by parent, in manifest order
    assert [job[0] for job in jobs] == [r.utterance_id for r in m for _ in range(count)]


def test_plan_up_down_ties_both_ratios_to_speed(tmp_path):
    jobs = _jobs(Manifest([_natural("sp0_000")]), "resample", tmp_path)
    assert [(d, f) for _, _, d, f in jobs] == [(s, s) for s in SPEED_RATIOS]


def test_plan_psola_dur_ratio_set(tmp_path):
    jobs = _jobs(Manifest([_natural("sp0_000")]), "psola-dur", tmp_path)
    assert [d for _, _, d, _ in jobs] == list(PSOLA_DUR_RATIOS)
    assert all(f == 1.0 for _, _, _, f in jobs)


def test_plan_psola_f0_ratio_set(tmp_path):
    jobs = _jobs(Manifest([_natural("sp0_000")]), "psola-f0", tmp_path)
    assert [f for _, _, _, f in jobs] == list(PSOLA_F0_RATIOS)
    assert all(d == 1.0 for _, _, d, _ in jobs)


def test_plan_psola_mix_single_axis_jobs(tmp_path):
    jobs = _jobs(Manifest([_natural("sp0_000")]), "psola-mix", tmp_path)
    assert [(d, f) for _, _, d, f in jobs] == list(PSOLA_MIX_JOBS)


def test_plan_rejects_unknown_recipe(tmp_path, counts):
    with pytest.raises(SpkraugError, match="unknown recipe 'chorus', expected one of "):
        execute_plan(_numbered_manifest(), "chorus", tmp_path / "aug")
    assert set(RECIPE_JOBS) == {"resample", "psola-dur", "psola-f0", "psola-mix"}
    assert counts == {"reads": 0, "analyses": 0}
    assert not (tmp_path / "aug").exists()


def test_plan_rejects_augmented_input(small_corpus, tmp_path, counts):
    """Refused before any work, even with a natural listed first."""
    natural = small_corpus[1].records[0]
    m = Manifest([natural, _augmented("a__x", natural.utterance_id)])
    with pytest.raises(SpkraugError, match="a__x: cannot augment a psola_f0 record"):
        execute_plan(m, "psola-f0", tmp_path / "aug")
    assert counts == {"reads": 0, "analyses": 0}
    assert not (tmp_path / "aug").exists()


def test_job_output_name_is_compact_and_unique(tmp_path):
    """The ids execute_plan writes, over all four recipes, each its WAV's name."""
    parent = _write_parent(tmp_path, "sp0_003", "sp0", 16000, dur=0.3)
    ids = []
    for recipe in RECIPE_JOBS:
        built, failures = execute_plan(Manifest([parent]), recipe, tmp_path / "aug")
        assert failures == []
        assert all(Path(r.path).name == f"{r.utterance_id}.wav" for r in built)
        ids += [r.utterance_id for r in built]
    assert "sp0_003__psola_dur_0.85_1" in ids
    assert "sp0_003__resampled_0.975_0.975" in ids
    assert len(ids) == 22
    assert len(set(ids)) == len(ids)


# -- execution ---------------------------------------------------------------

def _parents(manifest, count=4):
    return Manifest(manifest.records[:count], corpus=manifest.corpus,
                    sample_rate=manifest.sample_rate)


def test_execute_plan_full_run(small_corpus, tmp_path):
    _, manifest = small_corpus
    parents = _parents(manifest)
    built, failures = execute_plan(parents, "psola-f0", tmp_path / "aug")
    assert failures == []
    assert len(built) == 7 * len(parents)
    assert (built.corpus, built.sample_rate) == (parents.corpus, parents.sample_rate)
    assert [r.utterance_id for r in built] == [f"{p.utterance_id}__psola_f0_1_{f:g}"
                                               for p in parents for f in PSOLA_F0_RATIOS]
    for r in built:
        assert r.parent_id in parents
        assert len(read_wav(r.path)) > 0


def test_execute_plan_duration_contracts(small_corpus, tmp_path):
    """PSOLA scales duration by the ratio; speed change divides by it."""
    _, manifest = small_corpus
    parents = _parents(manifest, count=2)
    parent_len = {r.utterance_id: len(read_wav(r.path)) for r in parents}

    built, failures = execute_plan(parents, "psola-dur", tmp_path / "dur")
    assert failures == []
    for r in built:
        expected = round(parent_len[r.parent_id] * r.duration_ratio)
        assert len(read_wav(r.path)) == expected

    built, failures = execute_plan(parents, "resample", tmp_path / "spd")
    assert failures == []
    for r in built:
        expected = round(parent_len[r.parent_id] / r.duration_ratio)
        assert abs(len(read_wav(r.path)) - expected) <= 1


def test_execute_plan_is_idempotent(small_corpus, tmp_path):
    _, manifest = small_corpus
    parents = _parents(manifest, count=2)
    root = tmp_path / "idem"
    first, _ = execute_plan(parents, "psola-mix", root)
    stamps = {r.utterance_id: (r.path, os.stat(r.path).st_mtime_ns) for r in first}
    second, failures = execute_plan(parents, "psola-mix", root)
    assert failures == []
    assert list(second) == list(first)
    for r in second:
        path, stamp = stamps[r.utterance_id]
        assert os.stat(path).st_mtime_ns == stamp  # untouched


def test_execute_plan_reports_partial_failures(small_corpus, tmp_path):
    _, manifest = small_corpus
    parents = _parents(manifest, count=2)
    ghost = _natural("sp9_000", "sp9", path=str(tmp_path / "missing.wav"))
    built, failures = execute_plan(
        Manifest(list(parents) + [ghost], corpus=parents.corpus,
                 sample_rate=parents.sample_rate),
        "psola-f0", tmp_path / "partial",
    )
    assert len(failures) == 7  # every job for the missing parent
    assert all(f["parent_id"] == "sp9_000" for f in failures)
    assert all("FileNotFoundError" in f["error"] for f in failures)
    assert len(built) == 14
    assert all(r.parent_id != "sp9_000" for r in built)


def _write_parent(tmp_path, uid, speaker, sr, dur=0.5):
    from synth import speechlike

    path = tmp_path / f"{uid}.wav"
    write_wav(speechlike(150.0, (700.0, 1500.0), dur, 5, sr=sr), path)
    return _natural(uid, speaker, path=str(path))


def test_execute_plan_rejects_parent_at_other_rate(small_corpus, tmp_path):
    _, manifest = small_corpus
    parents = _parents(manifest, count=2)
    odd = _write_parent(tmp_path, "sp9_000", "sp9", 22050)
    built, failures = execute_plan(Manifest(list(parents) + [odd], sample_rate=16000),
                                   "psola-mix", tmp_path / "aug")
    assert len(failures) == 4  # every job of the 22050 Hz parent
    assert all(f["parent_id"] == "sp9_000" for f in failures)
    assert all(f["error"].endswith(
        ": SpkraugError: sp9_000: WAV is 22050 Hz, manifest says 16000 Hz") for f in failures)
    assert len(built) == 8
    assert built.sample_rate == 16000
    assert all(r.parent_id != "sp9_000" for r in built)


@pytest.fixture
def counts(monkeypatch):
    """Count parent WAV reads in execute_plan and F0 analyses in PSOLA."""
    import spkraug.dataset
    import spkraug.psola

    tally = {"reads": 0, "analyses": 0}

    def count(module, name, key):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            tally[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    count(spkraug.dataset, "read_wav", "reads")
    count(spkraug.psola, "estimate_f0", "analyses")
    return tally


def test_execute_plan_reads_and_analyses_each_parent_once(small_corpus, tmp_path, counts):
    _, manifest = small_corpus
    built, failures = execute_plan(_parents(manifest, count=2), "psola-dur", tmp_path / "aug")
    assert failures == []
    assert len(built) == 14
    assert counts == {"reads": 2, "analyses": 2}


def test_execute_plan_full_resume_reads_nothing(tmp_path, counts):
    parents = Manifest([_write_parent(tmp_path, f"sp0_00{i}", "sp0", 22050) for i in range(2)],
                       sample_rate=22050)
    first, failures = execute_plan(parents, "psola-f0", tmp_path / "aug")
    assert failures == [] and len(first) == 14
    assert first.sample_rate == 22050
    counts.update(reads=0, analyses=0)
    second, failures = execute_plan(parents, "psola-f0", tmp_path / "aug")
    assert failures == []
    assert list(second) == list(first)
    assert second.sample_rate == 22050
    assert counts == {"reads": 0, "analyses": 0}


def _damage(path, how):
    """Spoil an output WAV in one of the ways a resume must notice."""
    data = path.read_bytes()
    clip = read_wav(path)
    if how in ("third", "third_odd"):
        path.write_bytes(data[:len(data) // 3 // 2 * 2 + (how == "third_odd")])
    elif how == "one_sample_short":
        write_wav(AudioClip(clip.samples[:-1], clip.sample_rate), path)
    elif how == "other_rate":
        write_wav(AudioClip(clip.samples, 22050), path)
    elif how == "garbage":
        path.write_bytes(b"RIFF" + bytes(40))
    else:
        path.write_bytes(b"")


@pytest.mark.parametrize("how", ["third", "third_odd", "one_sample_short", "other_rate",
                                 "garbage", "empty"])
@pytest.mark.parametrize("recipe", ["resample", "psola-dur"])
def test_execute_plan_rewrites_incomplete_outputs(tmp_path, counts, recipe, how):
    parents = Manifest([_write_parent(tmp_path, "sp0_000", "sp0", 16000)])
    first, failures = execute_plan(parents, recipe, tmp_path / "aug")
    assert failures == []
    written = {r.path: Path(r.path).read_bytes() for r in first}
    _damage(Path(first.records[1].path), how)
    counts.update(reads=0, analyses=0)
    second, failures = execute_plan(parents, recipe, tmp_path / "aug")
    assert failures == []
    assert list(second) == list(first)
    assert {r.path: Path(r.path).read_bytes() for r in second} == written
    assert counts == {"reads": 1, "analyses": int(recipe == "psola-dur")}


def test_execute_plan_resume_fails_jobs_of_a_vanished_parent(tmp_path):
    """A kept output is checked against its parent's length, so a parent
    that is gone fails its jobs rather than passing them unchecked."""
    parent = _write_parent(tmp_path, "sp0_000", "sp0", 16000)
    execute_plan(Manifest([parent]), "resample", tmp_path / "aug")
    os.remove(parent.path)
    built, failures = execute_plan(Manifest([parent]), "resample", tmp_path / "aug")
    assert len(built) == 0
    assert len(failures) == 4 and all("FileNotFoundError" in f["error"] for f in failures)


def test_execute_plan_analysis_error_fails_only_psola_jobs(tmp_path, counts):
    """A clip too short for two pitch periods fails every PSOLA job after one
    read and one analysis; the same clip still resamples, with no analysis."""
    path = tmp_path / "tiny.wav"
    write_wav(AudioClip(np.zeros(30), 16000), path)
    parents = Manifest([_natural("sp0_000", path=str(path))])
    built, failures = execute_plan(parents, "psola-f0", tmp_path / "aug")
    assert len(built) == 0
    assert [f["f0_ratio"] for f in failures] == list(PSOLA_F0_RATIOS)
    assert all(f["error"].endswith(": SpkraugError: found only 1 pitch marks; "
                                   "input is shorter than two periods") for f in failures)
    assert counts == {"reads": 1, "analyses": 1}
    counts.update(reads=0, analyses=0)
    built, failures = execute_plan(parents, "resample", tmp_path / "aug")
    assert failures == []
    assert [r.kind for r in built] == [RESAMPLED] * len(SPEED_RATIOS)
    assert counts == {"reads": 1, "analyses": 0}


def test_execute_plan_empty_plan(tmp_path):
    built, failures = execute_plan(Manifest([], corpus="c", sample_rate=22050), "resample",
                                   tmp_path)
    assert len(built) == 0
    assert (built.corpus, built.sample_rate) == ("c", 22050)
    assert failures == []


# -- best-k selection --------------------------------------------------------

def _selection_fixture():
    """Two naturals with three children each; embeddings are placed so the
    nearest children are known by construction."""
    naturals = Manifest([_natural("n0", "sp0"), _natural("n1", "sp1")])
    children = []
    for parent, speaker in (("n0", "sp0"), ("n1", "sp1")):
        for i in range(3):
            children.append(_augmented(f"{parent}__c{i}", parent, speaker))
    augmented = Manifest(children)
    embeddings = EmbeddingSet(
        ["n0", "n1", "n0__c0", "n0__c1", "n0__c2", "n1__c0", "n1__c1", "n1__c2"],
        ["sp0", "sp1", "sp0", "sp0", "sp0", "sp1", "sp1", "sp1"],
        # n0's children at distances 1, 2, 3; n1's at distances 3, 2, 1; no row
        # at the origin, which EmbeddingSet refuses
        [[0.0, 1.0], [10.0, 1.0], [1.0, 1.0], [2.0, 1.0], [3.0, 1.0],
         [13.0, 1.0], [12.0, 1.0], [11.0, 1.0]])
    return naturals, augmented, embeddings


def test_select_best_keeps_nearest_children():
    naturals, augmented, embeddings = _selection_fixture()
    best = select_best_augmented(naturals, augmented, embeddings, k=2)
    kept = [r.utterance_id for r in best]
    assert kept == ["n0", "n1", "n0__c0", "n0__c1", "n1__c1", "n1__c2"]
    assert [r.is_natural for r in best] == [True, True, False, False, False, False]


def test_select_best_k_equals_children_keeps_all():
    naturals, augmented, embeddings = _selection_fixture()
    best = select_best_augmented(naturals, augmented, embeddings, k=3)
    assert len(best) == len(naturals) + len(augmented)


def test_select_best_k_zero_keeps_only_naturals():
    naturals, augmented, embeddings = _selection_fixture()
    best = select_best_augmented(naturals, augmented, embeddings, k=0)
    assert [r.utterance_id for r in best] == ["n0", "n1"]


def _with_childless_natural():
    """The selection fixture behind a first natural that has no children."""
    naturals, augmented, embeddings = _selection_fixture()
    lone = _natural("n2", "sp2")
    embeddings = EmbeddingSet(["n2", *embeddings.ids], ["sp2", *embeddings.speaker_ids],
                              np.vstack([[0.0, 5.0], embeddings.matrix]))
    return Manifest([lone, *naturals]), augmented, embeddings


def test_select_best_k_zero_keeps_childless_naturals():
    naturals, augmented, embeddings = _with_childless_natural()
    best = select_best_augmented(naturals, augmented, embeddings, k=0)
    assert [r.utterance_id for r in best] == ["n2", "n0", "n1"]


def test_select_best_negative_k_raises_before_any_natural():
    naturals, augmented, embeddings = _with_childless_natural()
    with pytest.raises(SpkraugError, match="k must be non-negative, got -1"):
        select_best_augmented(naturals, augmented, embeddings, k=-1)


def test_select_best_k_too_large():
    naturals, augmented, embeddings = _selection_fixture()
    with pytest.raises(SpkraugError, match="n0: has 3 augmented children, need 4"):
        select_best_augmented(naturals, augmented, embeddings, k=4)


def test_select_best_missing_embedding():
    naturals, augmented, embeddings = _selection_fixture()
    slim = EmbeddingSet(embeddings.ids[:-1], embeddings.speaker_ids[:-1], embeddings.matrix[:-1])
    with pytest.raises(SpkraugError, match="no embedding for 'n1__c2'"):
        select_best_augmented(naturals, augmented, slim, k=1)


def test_select_best_checks_parent_links():
    naturals, _, embeddings = _selection_fixture()
    orphan = Manifest([_augmented("ghost__c0", "ghost", "sp0")])
    with pytest.raises(SpkraugError, match="ghost__c0: parent 'ghost' not found"):
        select_best_augmented(naturals, orphan, embeddings, k=1)


def test_select_best_matches_knn_oracle():
    """Per natural, the kept children are knn_oracle's: a full sort on
    (math.dist, id). Half the children sit at small integer offsets from
    their parent, so equal distances (ties) are common and exact; children
    are listed shuffled across parents and out of id order."""
    rng = np.random.default_rng(42)
    ties_at_the_cut = 0
    for _ in range(30):
        k = int(rng.integers(0, 5))
        naturals, children, vectors = [], [], {}
        for i in range(int(rng.integers(1, 5))):
            parent = f"n{i}"
            naturals.append(_natural(parent))
            vectors[parent] = rng.integers(-5, 6, size=3).astype(float)
            for j in range(k + int(rng.integers(0, 5))):
                uid = f"{parent}__c{j:02d}"
                children.append(_augmented(uid, parent))
                offset = (rng.integers(-2, 3, size=3).astype(float) if rng.random() < 0.5
                          else rng.standard_normal(3))
                vectors[uid] = vectors[parent] + offset
        children = [children[i] for i in rng.permutation(len(children))]
        embeddings = EmbeddingSet(list(vectors), ["sp0"] * len(vectors), list(vectors.values()))
        best = select_best_augmented(Manifest(naturals), Manifest(children), embeddings, k)
        for natural in naturals:
            uid = natural.utterance_id
            kids = [(c.utterance_id, vectors[c.utterance_id]) for c in children
                    if c.parent_id == uid]
            kept = {r.utterance_id for r in best if r.parent_id == uid}
            assert kept == set(knn_oracle(vectors[uid], kids, k))
            distances = sorted(math.dist(vectors[uid], v) for _, v in kids)
            ties_at_the_cut += 0 < k < len(kids) and distances[k - 1] == distances[k]
    assert ties_at_the_cut > 0


# -- verification pairs ------------------------------------------------------

def _pair_fixture():
    pool = Manifest([
        _natural(f"sp{j}_{i:03d}", f"sp{j}") for j in range(3) for i in range(4)
    ])
    eval_m = Manifest([
        _augmented(f"sp{j}_000__x", f"sp{j}_000", f"sp{j}") for j in range(3)
    ])
    return eval_m, pool


def test_generate_pairs_shape_and_labels():
    eval_m, pool = _pair_fixture()
    pairs = generate_eer_pairs(eval_m, pool, seed=0)
    assert len(pairs) == 2 * len(eval_m)
    for k, r in enumerate(eval_m):
        same, diff = pairs[2 * k], pairs[2 * k + 1]
        assert same.enroll_id == r.utterance_id and same.same_speaker
        assert diff.enroll_id == r.utterance_id and not diff.same_speaker
        assert pool.get(same.test_id).speaker_id == r.speaker_id
        assert pool.get(diff.test_id).speaker_id != r.speaker_id
        assert same.score is None and diff.score is None


def test_generate_pairs_trial_stream_is_pinned():
    """The exact trials for seed 0: pairs.tsv bytes depend on this stream."""
    pool = Manifest([_natural(f"sp0_{i}", "sp0") for i in (2, 1, 0)]
                    + [_natural(f"sp1_{i}", "sp1") for i in range(2)]
                    + [_augmented("sp1_0__x", "sp1_0", "sp1")]
                    + [_natural(f"sp2_{i}", "sp2") for i in range(5)])
    eval_m = Manifest([_natural("sp2_3", "sp2"), _augmented("sp0_1__y", "sp0_1", "sp0"),
                       _natural("sp1_1", "sp1"), _natural("sp0_0", "sp0"),
                       _augmented("sp2_4__z", "sp2_4", "sp2")])
    pairs = generate_eer_pairs(eval_m, pool, seed=0)
    assert [(p.enroll_id, p.test_id, p.same_speaker) for p in pairs] == [
        ("sp2_3", "sp2_0", True), ("sp2_3", "sp0_0", False),
        ("sp0_1__y", "sp0_1", True), ("sp0_1__y", "sp2_1", False),
        ("sp1_1", "sp1_0", True), ("sp1_1", "sp2_4", False),
        ("sp0_0", "sp0_2", True), ("sp0_0", "sp1_0", False),
        ("sp2_4__z", "sp2_0", True), ("sp2_4__z", "sp0_0", False),
    ]


def test_generate_pairs_deterministic():
    eval_m, pool = _pair_fixture()
    a = generate_eer_pairs(eval_m, pool, seed=3)
    b = generate_eer_pairs(eval_m, pool, seed=3)
    assert a == b


def test_generate_pairs_draws_only_from_naturals():
    eval_m, pool = _pair_fixture()
    tainted = Manifest(list(pool) + [_augmented("sp0_000__y", "sp0_000", "sp0")],
                       corpus=pool.corpus, sample_rate=pool.sample_rate)
    pairs = generate_eer_pairs(eval_m, tainted, seed=1)
    assert all(not p.test_id.endswith("__y") for p in pairs)


def test_generate_pairs_single_speaker_pool():
    eval_m, _ = _pair_fixture()
    lonely = Manifest([_natural(f"sp0_{i:03d}", "sp0") for i in range(4)])
    with pytest.raises(SpkraugError, match="need naturals from >= 2 speakers, have 1"):
        generate_eer_pairs(eval_m, lonely, seed=0)


def test_generate_pairs_speaker_missing_from_pool():
    eval_m, _ = _pair_fixture()
    partial = Manifest([_natural(f"sp{j}_{i:03d}", f"sp{j}")
                        for j in range(2) for i in range(4)])
    with pytest.raises(SpkraugError, match="no natural pool utterances for 'sp2'"):
        generate_eer_pairs(eval_m, partial, seed=0)  # sp2 has no pool entries
