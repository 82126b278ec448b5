"""Every writer replaces its target in one step: a failure before the final
rename leaves the old file byte for byte and no temporary file behind."""

import os
import threading

import numpy as np
import pytest

from spkraug.audio_io import AudioClip, _replacing, write_wav
from spkraug.dataset import Manifest, UtteranceRecord, save_manifest
from spkraug.embedding import EmbeddingSet, save_embeddings
from spkraug.metrics import ScoredPair, save_pairs
from spkraug.spectral import magnitude_spectrogram, write_spectrogram
from spkraug.tsne import render_scatter_svg, save_coordinates
from synth import sine


def _embeddings(version):
    return EmbeddingSet([f"u{i}" for i in range(4)], [f"s{i % 2}" for i in range(4)],
                        [[1.0 + i + version, 2.0] for i in range(4)])


def _coords(version):
    return np.arange(8.0).reshape(4, 2) ** (1 + version)  # not a rescaling: the SVG normalises


WRITERS = {
    "manifest": lambda v, path: save_manifest(
        Manifest([UtteranceRecord(f"a{v}", "sp0", f"/audio/a{v}.wav")]), path),
    "embeddings": lambda v, path: save_embeddings(_embeddings(v), path),
    "pairs": lambda v, path: save_pairs([ScoredPair("a", "b", True, 0.5 + v)], path),
    "coordinates": lambda v, path: save_coordinates(_embeddings(v), _coords(v), path),
    "svg": lambda v, path: render_scatter_svg(_embeddings(v), _coords(v), path),
    "spg": lambda v, path: write_spectrogram(
        magnitude_spectrogram(sine(200.0 * (1 + v), 0.1), 400, 100, 512), path),
    "wav": lambda v, path: write_wav(AudioClip(np.full(100, 0.1 * (1 + v)), 16000), path),
}


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_failed_replace_keeps_the_old_target(name, tmp_path, monkeypatch):
    write = WRITERS[name]
    target = tmp_path / "out"
    write(0, target)
    old = target.read_bytes()

    def refuse(src, dst):
        raise OSError("replace refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="replace refused"):
        write(1, target)
    assert target.read_bytes() == old
    assert os.listdir(tmp_path) == ["out"]


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_rewrite_replaces_the_target(name, tmp_path):
    write = WRITERS[name]
    target = tmp_path / "out"
    write(0, target)
    old = target.read_bytes()
    write(1, target)
    assert target.read_bytes() != old
    assert os.listdir(tmp_path) == ["out"]


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_writes_a_target_name_of_255_bytes(name, tmp_path):
    """The temporary name does not grow with the target's, so a name the
    directory holds can be written."""
    target = tmp_path / ("o" * 255)
    WRITERS[name](0, target)
    assert os.listdir(tmp_path) == [target.name]


@pytest.mark.parametrize("name", sorted(WRITERS))
def test_an_unwritable_target_is_named_in_the_error(name, tmp_path):
    target = tmp_path / "nodir" / "out"
    with pytest.raises(FileNotFoundError) as info:
        WRITERS[name](0, target)
    assert (info.value.filename, info.value.filename2) == (str(target), None)
    assert str(info.value) == f"[Errno 2] No such file or directory: {str(target)!r}"
    assert os.listdir(tmp_path) == []


def test_threads_write_through_different_temporary_files(tmp_path):
    """Two threads writing into one directory at once do not share a
    temporary file."""
    held = []

    def hold():
        with _replacing(tmp_path / "a") as tmp:
            tmp.write_text("a")
            held.append(tmp)

    with _replacing(tmp_path / "b") as tmp:
        tmp.write_text("b")
        thread = threading.Thread(target=hold)
        thread.start()
        thread.join()
        assert held[0] != tmp and held[0].parent == tmp.parent
    assert [(tmp_path / n).read_text() for n in "ab"] == ["a", "b"]
