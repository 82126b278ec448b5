"""Seeded input generation for the benchmark workloads.

Only NumPy and the standard library are used here, never spkraug, so the
inputs a pass sees do not change when the program under test changes. The
same (workload, seed) pair always writes byte-identical files.

Every manifest path is relative to a pass directory, which sits next to the
`inputs` directory, so manifests and reports carry no absolute paths and the
output fingerprint does not depend on where the checkout lives.
"""

import json
import struct
import wave
from pathlib import Path

import numpy as np

SAMPLE_RATE = 16000

# Base F0 and two formant-like resonances per synthetic speaker.
SPEAKERS = (
    ("spk0", 110.0, (600.0, 1150.0)),
    ("spk1", 160.0, (850.0, 1900.0)),
    ("spk2", 230.0, (1200.0, 2600.0)),
)

# Corpus workloads: `per_speaker` naturals of `dur` seconds are generated and
# `subset` of them per speaker are augmented. The warm-up corpus runs every
# stage once on tiny inputs so lazy imports and caches are filled before the
# timed pass.
CORPUS_SIZES = {
    "corpus_short": {"per_speaker": 8, "subset": 5, "dur": (0.5, 1.5)},
    "corpus_long": {"per_speaker": 2, "subset": 1, "dur": (6.0, 10.0)},
    "warmup": {"per_speaker": 1, "subset": 1, "dur": (0.3, 0.3)},
}

# eval_large: synthetic embeddings for `speakers` x `naturals` with one child
# per entry of CHILDREN; t-SNE over `tsne_rows` naturals; one `.spg` of
# `spg_seconds`; transcripts of `tokens` reference words.
EVAL_SIZES = {
    "eval_large": {"speakers": 40, "naturals": 50, "dim": 64, "tsne_rows": 300,
                   "tsne_iterations": 1000, "tsne_perplexity": 30.0,
                   "spg_seconds": 3.0, "vocode_iterations": 60, "tokens": 1200},
    "warmup": {"speakers": 3, "naturals": 4, "dim": 64, "tsne_rows": 12,
               "tsne_iterations": 20, "tsne_perplexity": 3.0,
               "spg_seconds": 0.3, "vocode_iterations": 5, "tokens": 20},
}
# (kind, duration_ratio, f0_ratio) of each synthetic augmented child
CHILDREN = (
    ("resampled", 0.95, 0.95),
    ("resampled", 1.05, 1.05),
    ("psola_dur", 0.9, 1.0),
    ("psola_dur", 1.1, 1.0),
    ("psola_f0", 1.0, 0.8),
    ("psola_f0", 1.0, 1.2),
)
K_NEAREST = 4

# STFT geometry of the stored spectrogram (the vocoder defaults).
SPG_FRAME_LENGTH = 800
SPG_FRAME_SHIFT = 200
SPG_FFT_SIZE = 2048


def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def speechlike(rng: np.random.Generator, f0: float, formants, seconds: float) -> np.ndarray:
    """Harmonic source shaped by two resonances, with syllabic amplitude
    modulation, fades and a little noise; peak 0.42."""
    n = int(round(seconds * SAMPLE_RATE))
    t = np.arange(n) / SAMPLE_RATE
    f0 = f0 * (1.0 + rng.uniform(-0.04, 0.04))
    y = np.zeros(n)
    k = 1
    while k * f0 < 3800.0:
        fk = k * f0
        gain = sum(1.0 / (1.0 + ((fk - fc) / 220.0) ** 2) for fc in formants)
        y += gain * np.sin(2 * np.pi * fk * t + rng.uniform(0, 2 * np.pi)) / k
        k += 1
    envelope = 0.55 + 0.45 * np.sin(2 * np.pi * rng.uniform(2.5, 4.5) * t
                                    + rng.uniform(0, 2 * np.pi))
    fade = np.minimum(1.0, np.minimum(t, t[::-1]) / 0.02)
    y = y * envelope * fade + rng.normal(0.0, 0.004, n)
    return 0.42 * y / np.abs(y).max()


def write_pcm16(samples: np.ndarray, path: Path) -> None:
    pcm = np.clip(np.round(samples * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as handle:
        handle.setnchannels(1)
        handle.setsampwidth(2)
        handle.setframerate(SAMPLE_RATE)
        handle.writeframes(pcm.tobytes())


def _write_manifest(path: Path, corpus: str, records) -> None:
    lines = [json.dumps({"corpus": corpus, "sample_rate": SAMPLE_RATE})]
    lines += [json.dumps(r) for r in records]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _record(uid, speaker, path, kind="natural", duration_ratio=1.0, f0_ratio=1.0,
            parent_id=None) -> dict:
    return {"utterance_id": uid, "speaker_id": speaker, "path": path, "kind": kind,
            "duration_ratio": duration_ratio, "f0_ratio": f0_ratio, "parent_id": parent_id}


def generate_corpus(sizes: dict, seed: int, out: Path, name: str) -> dict:
    """WAV tree plus natural manifest; returns the layout a pass reads."""
    audio = out / "corpus"
    records = []
    lo, hi = sizes["dur"]
    clips = len(SPEAKERS) * sizes["per_speaker"]
    for s, (speaker, f0, formants) in enumerate(SPEAKERS):
        (audio / speaker).mkdir(parents=True, exist_ok=True)
        for i in range(sizes["per_speaker"]):
            uid = f"{speaker}_{i:03d}"
            # Durations spread evenly over [lo, hi] by position, not by seed,
            # so every seed (and the program's fixed subset draw) augments
            # the same amount of audio and only the signal content varies.
            seconds = lo + (hi - lo) * (i * len(SPEAKERS) + s) / max(1, clips - 1)
            clip = speechlike(_rng(seed, s, i), f0, formants, seconds)
            write_pcm16(clip, audio / speaker / f"{uid}.wav")
            records.append(_record(uid, speaker, f"../{out.name}/corpus/{speaker}/{uid}.wav"))
    _write_manifest(out / "corpus.jsonl", name, records)
    return {"kind": "corpus", "corpus": f"../{out.name}/corpus.jsonl",
            "subset": sizes["subset"], "k": K_NEAREST}


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=-1, keepdims=True)


def _tsv(path: Path, dim: int, rows) -> None:
    lines = [f"#dim={dim}"]
    lines += [uid + "\t" + spk + "\t" + "\t".join(map(repr, vec.tolist()))
              for uid, spk, vec in rows]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _spectrogram(samples: np.ndarray) -> np.ndarray:
    """Hann-windowed STFT magnitudes, tail reflect-padded to whole frames."""
    n = len(samples)
    frames = 1 + -(-(n - SPG_FRAME_LENGTH) // SPG_FRAME_SHIFT)
    padded = np.pad(samples, (0, SPG_FRAME_LENGTH + (frames - 1) * SPG_FRAME_SHIFT - n),
                    mode="reflect")
    idx = (np.arange(frames)[:, None] * SPG_FRAME_SHIFT
           + np.arange(SPG_FRAME_LENGTH)[None, :])
    window = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(SPG_FRAME_LENGTH) / SPG_FRAME_LENGTH)
    return np.abs(np.fft.rfft(padded[idx] * window, n=SPG_FFT_SIZE, axis=1))


def write_spg(magnitudes: np.ndarray, path: Path) -> None:
    frames, bins = magnitudes.shape
    header = b"SPG1" + struct.pack("<6I", frames, bins, SPG_FFT_SIZE, SPG_FRAME_SHIFT,
                                   SPG_FRAME_LENGTH, SAMPLE_RATE)
    path.write_bytes(header + magnitudes.astype("<f4").tobytes())


def _transcripts(rng: np.random.Generator, tokens: int):
    """Reference text and a hypothesis with seeded substitutions, deletions
    and insertions; both carry capitals and punctuation the tokenizer drops."""
    syllables = ["ka", "lo", "mi", "ne", "to", "ra", "su", "vi", "de", "po", "an", "el"]
    vocab = sorted({"".join(rng.choice(syllables, size=int(rng.integers(1, 4))))
                    for _ in range(600)})
    ref = [str(w) for w in rng.choice(vocab, size=tokens)]
    hyp = []
    for word in ref:
        u = rng.random()
        if u < 0.08:
            hyp.append(str(rng.choice(vocab)))
        elif u < 0.11:
            continue
        else:
            hyp.append(word)
        if rng.random() < 0.03:
            hyp.append(str(rng.choice(vocab)))

    def text(words):
        out = []
        for i, w in enumerate(words):
            if i % 17 == 0:
                w = w.capitalize()
            if i % 11 == 10:
                w += ","
            out.append(w)
        return " ".join(out) + ".\n"

    return text(ref), text(hyp)


def generate_eval(sizes: dict, seed: int, out: Path, name: str) -> dict:
    """Embeddings TSV with naturals and augmented children, the matching
    manifests, aligned CS files, a t-SNE TSV, one `.spg` and transcripts."""
    out.mkdir(parents=True, exist_ok=True)
    rng = _rng(seed, 1000)
    dim = sizes["dim"]
    naturals, augmented, rows, cs_synth, cs_natural = [], [], [], [], []
    for s in range(sizes["speakers"]):
        speaker = f"spk{s:03d}"
        centre = rng.normal(size=dim)
        for i in range(sizes["naturals"]):
            uid = f"{speaker}_{i:04d}"
            vec = centre + 1.6 * rng.normal(size=dim)
            naturals.append(_record(uid, speaker, f"audio/{uid}.wav"))
            rows.append((uid, speaker, _unit_rows(vec)))
            kids = []
            for kind, d, f in CHILDREN:
                cid = f"{uid}__{kind}_{d:g}_{f:g}"
                spread = 0.4 + 4.0 * max(abs(d - 1.0), abs(f - 1.0))
                kid = _unit_rows(vec + spread * rng.normal(size=dim))
                augmented.append(_record(cid, speaker, f"audio/{cid}.wav", kind, d, f, uid))
                rows.append((cid, speaker, kid))
                kids.append((cid, speaker, kid))
            cs_natural.append(rows[-len(CHILDREN) - 1])
            cs_synth.append(kids[i % len(kids)])
    _tsv(out / "embeddings.tsv", dim, rows)
    _tsv(out / "cs_synth.tsv", dim, cs_synth)
    _tsv(out / "cs_natural.tsv", dim, cs_natural)
    step = max(1, len(cs_natural) // sizes["tsne_rows"])
    _tsv(out / "tsne.tsv", dim, cs_natural[::step][:sizes["tsne_rows"]])
    _write_manifest(out / "naturals.jsonl", name, naturals)
    _write_manifest(out / "augmented.jsonl", name, augmented)

    speaker, f0, formants = SPEAKERS[1]
    write_spg(_spectrogram(speechlike(_rng(seed, 2000), f0, formants, sizes["spg_seconds"])),
              out / "clip.spg")
    ref, hyp = _transcripts(_rng(seed, 3000), sizes["tokens"])
    (out / "ref.txt").write_text(ref, encoding="utf-8")
    (out / "hyp.txt").write_text(hyp, encoding="utf-8")

    rel = f"../{out.name}"
    return {"kind": "eval", "naturals": f"{rel}/naturals.jsonl",
            "augmented": f"{rel}/augmented.jsonl", "embeddings": f"{rel}/embeddings.tsv",
            "cs_synth": f"{rel}/cs_synth.tsv", "cs_natural": f"{rel}/cs_natural.tsv",
            "tsne": f"{rel}/tsne.tsv", "tsne_iterations": sizes["tsne_iterations"],
            "tsne_perplexity": sizes["tsne_perplexity"], "spg": f"{rel}/clip.spg",
            "vocode_iterations": sizes["vocode_iterations"],
            "ref": f"{rel}/ref.txt", "hyp": f"{rel}/hyp.txt", "k": K_NEAREST}


WORKLOADS = ("corpus_short", "corpus_long", "eval_large")


def generate(workload: str, seed: int, run_dir: Path) -> dict:
    """Write the workload's inputs and its warm-up inputs under run_dir.

    Returns {"pass": layout, "warmup": layout}; each layout names the files
    a pass reads, relative to a pass directory inside run_dir.
    """
    if workload in CORPUS_SIZES:
        make, sizes = generate_corpus, CORPUS_SIZES
    else:
        make, sizes = generate_eval, EVAL_SIZES
    return {"pass": make(sizes[workload], seed, run_dir / "inputs", f"perfbench-{workload}"),
            "warmup": make(sizes["warmup"], seed, run_dir / "warmup-inputs", "perfbench-warmup")}
