"""Every file reader fails the same way on a bad file: a SpkraugError whose
message names the file, or an OSError when the file cannot be read at all."""

import io
import json
import re
import struct
import wave
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spkraug.audio_io import AudioClip, read_wav, read_wav_header, write_wav
from spkraug.cli import main
from spkraug.dataset import load_manifest
from spkraug.embedding import load_embeddings
from spkraug.errors import SpkraugError
from spkraug.metrics import load_pairs
from spkraug.spectral import Spectrogram, read_spectrogram, write_spectrogram


def _wav(path, rate=8000, samples=(0.0, 0.25, -0.5, 0.125, 0.0, -0.25, 0.5, 0.0)):
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(rate)
        handle.writeframes(struct.pack(f"<{len(samples)}h", *(int(32767 * s) for s in samples)))


def _wav_with_oversized_fmt_chunk(path):
    _wav(path, rate=16000)
    data = bytearray(path.read_bytes())
    data[16:20] = struct.pack("<I", 0x00A90010)  # the fmt chunk's size, far past the file's end
    path.write_bytes(bytes(data))


def _spg(path, frames=2, fft_size=8, frame_shift=4, frame_length=8, sample_rate=8000,
         value=1.0):
    """An SPG1 file of `frames` rows filled with `value`, written field by field
    so that it can hold what write_spectrogram refuses to write."""
    bins = fft_size // 2 + 1
    header = b"SPG1" + struct.pack("<6I", frames, bins, fft_size, frame_shift, frame_length,
                                   sample_rate)
    path.write_bytes(header + np.full(frames * bins, value, dtype="<f4").tobytes())


# name -> (file, writer, reader, what follows the path: ": message" or ":line: message")
_DEFECTS = {
    "wav-rate-4000": ("u.wav", lambda p: _wav(p, rate=4000), read_wav,
                      ": sample rate must be an integer in [8000, 192000], got 4000"),
    "wav-oversized-chunk": ("u.wav", _wav_with_oversized_fmt_chunk, read_wav,
                            ": chunk size exceeds its RIFF container"),
    "wav-header-oversized-chunk": ("u.wav", _wav_with_oversized_fmt_chunk, read_wav_header,
                                   ": chunk size exceeds its RIFF container"),
    "spg-no-frames": ("s.spg", lambda p: _spg(p, frames=0), read_spectrogram,
                      ": spectrogram has no frames"),
    "spg-fft-size-4": ("s.spg", lambda p: _spg(p, fft_size=4), read_spectrogram,
                       ": need 0 < frame_shift <= frame_length <= fft_size, got shift=4 length=8 "
                       "fft=4"),
    "spg-rate-5": ("s.spg", lambda p: _spg(p, sample_rate=5), read_spectrogram,
                   ": sample rate must be an integer in [8000, 192000], got 5"),
    "spg-nan": ("s.spg", lambda p: _spg(p, value=np.nan), read_spectrogram,
                ": magnitudes must be finite and non-negative"),
    "tsv-duplicate-id": ("e.tsv", lambda p: p.write_text("#dim=1\nu1\ts1\t1.0\nu1\ts1\t2.0\n"),
                         load_embeddings, ":3: duplicate utterance_id 'u1'"),
}


@pytest.mark.parametrize("defect", sorted(_DEFECTS))
def test_file_defects_name_the_file(tmp_path, defect):
    name, write, reader, message = _DEFECTS[defect]
    path = tmp_path / name
    write(path)
    with pytest.raises(SpkraugError, match=f"^{re.escape(f'{path}{message}')}$"):
        reader(path)


# -- mutated files -------------------------------------------------------------

def _seed_wav(path):
    write_wav(AudioClip(np.linspace(-0.5, 0.5, 10), 8000), path)


def _seed_spectrogram(path):
    write_spectrogram(Spectrogram(np.arange(10.0).reshape(2, 5), 4, 8, 8, 8000), path)


_SEEDS = {
    "read_wav": (read_wav, _seed_wav),
    "read_wav_header": (read_wav_header, _seed_wav),
    "read_spectrogram": (read_spectrogram, _seed_spectrogram),
    "load_manifest": (load_manifest, lambda p: p.write_text(
        '{"corpus":"c","sample_rate":16000}\n'
        '{"utterance_id":"u1","speaker_id":"s","path":"a.wav"}\n'
        '{"utterance_id":"u1__x","speaker_id":"s","path":"b.wav","kind":"psola_dur",'
        '"duration_ratio":1.1,"f0_ratio":1.0,"parent_id":"u1"}\n')),
    "load_embeddings": (load_embeddings, lambda p: p.write_text(
        "#dim=2\nu1\ts1\t1.0\t0.5\nu2\ts2\t0.25\t1.0\n")),
    "load_pairs": (load_pairs, lambda p: p.write_text("u1\tu2\tsame\t0.5\nu1\tu3\tdiff\n")),
}


@st.composite
def _mutations(draw, seed: bytes) -> bytes:
    """seed after one to three edits: overwrite, insert or delete up to four
    bytes at some offset, or truncate there."""
    data = bytearray(seed)
    for _ in range(draw(st.integers(1, 3))):
        kind = draw(st.sampled_from(["overwrite", "insert", "delete", "truncate"]))
        at = draw(st.integers(0, len(data)))
        chunk = draw(st.binary(min_size=1, max_size=4))
        if kind == "overwrite":
            data[at:at + len(chunk)] = chunk
        elif kind == "insert":
            data[at:at] = chunk
        elif kind == "delete":
            del data[at:at + len(chunk)]
        else:
            del data[at:]
    return bytes(data)


@pytest.mark.parametrize("reader_name", sorted(_SEEDS))
@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(data=st.data())
def test_mutated_file_fails_cleanly(tmp_path_factory_session, reader_name, data):
    reader, write_seed = _SEEDS[reader_name]
    path = tmp_path_factory_session / f"mutated_{reader_name}"
    write_seed(path)
    path.write_bytes(data.draw(_mutations(path.read_bytes()), label="file"))
    try:
        reader(path)
    except SpkraugError as exc:
        assert str(path) in str(exc)
    except OSError:
        pass


# -- the text-reading contract -------------------------------------------------

def _error_of(load):
    def read(path):
        with pytest.raises(SpkraugError) as info:
            load(path)
        return str(info.value)
    return read


def _eval_wer_against_itself(path):
    """eval wer with the file as reference and hypothesis: the report, or the
    message of its one error line."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        main(["eval", "wer", "--ref", str(path), "--hyp", str(path)])
    if out.getvalue():
        return json.loads(out.getvalue())
    prefix, line = "spkraug eval: error: ", err.getvalue()
    assert line.startswith(prefix) and line.count("\n") == 1 and line.endswith("\n")
    return line[len(prefix):-1]


# every break str.splitlines splits at besides "\n"
_BREAKS = ["\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

# reader -> (read(path), three lines, what read reports when they are lines 1, 3
# and 4 of a file whose line 2 is blank; F stands for the file's path)
_TEXT_READERS = {
    "load_manifest": (_error_of(load_manifest), [
        '{"corpus":"cé","sample_rate":16000}',
        '{"utterance_id":"u1","speaker_id":"s","path":"a.wav"}',
        '{"utterance_id":"u2","speaker_id":"s"}'], "F:4: missing field 'path'"),
    "load_embeddings": (_error_of(load_embeddings), ["#dim=1", "ué1\ts\t1.0", "u2\ts\tx"],
                        "F:4: non-numeric value"),
    "load_pairs": (_error_of(load_pairs), ["ué1\tu2\tsame", "u1\tu3\tdiff", "u1\tu2\tmaybe"],
                   "F:4: label must be same|diff, got 'maybe'"),
    "eval_wer": (_eval_wer_against_itself, ["The café, sat", "on the MAT.", "it ran"],
                 {"command": "eval-wer", "wer": 0.0, "substitutions": 0, "deletions": 0,
                  "insertions": 0, "reference_tokens": 8}),
}


@pytest.mark.parametrize("brk", ["\n", *_BREAKS, "bad UTF-8"])
@pytest.mark.parametrize("reader_name", sorted(_TEXT_READERS))
def test_text_readers_share_one_contract(tmp_path, reader_name, brk):
    """Every text reader skips blank lines, numbers lines as str.splitlines
    numbers the whole text, and names the file-wide offset of a byte that is
    not UTF-8."""
    read, lines, want = _TEXT_READERS[reader_name]
    path = tmp_path / "input.txt"
    if brk == "bad UTF-8":
        head = f"{lines[0]}\n\n{lines[1]}\n".encode()  # holds a two-byte character
        path.write_bytes(head + b"\xff" + f"{lines[2]}\n".encode())
        want = f"F: not UTF-8 text (invalid start byte at byte {len(head)})"
    else:
        path.write_bytes(f"{lines[0]}{brk}{brk}{lines[1]}{brk}{lines[2]}{brk}".encode())
    got = read(path)
    assert (got.replace(str(path), "F") if isinstance(got, str) else got) == want
