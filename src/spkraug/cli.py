"""Command-line entry point.

Reports are machine-readable JSON on stdout and errors go to stderr, so
pipelines can consume the reports directly. Exit codes: 0 on
success, 1 on any validation problem, 2 when some augmentation jobs failed
but the rest were written.
"""

import argparse
import contextlib
import json
import os
import re
import sys

import numpy as np

from . import dataset, metrics
from .audio_io import _text_lines, write_wav
from .embedding import EmbeddingSet, extract_standin_embedding, load_embeddings, save_embeddings
from .errors import SpkraugError
from .spectral import griffin_lim, read_spectrogram
from .tsne import render_scatter_svg, run_tsne, save_coordinates


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on usage errors; we reserve 2 for partial
    job failure, so remap bad usage to 1. A negative number in exponent
    notation (`--sv -1e-3`) is read as a value, as `-0.001` is."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # replaces argparse's private matcher: on Python 3.11 its pattern
        # `^-\d+$|^-\d*\.\d+$` misses exponent notation, so `-1e-3` reads as
        # an option; if test_loss_reads_negative_values_in_exponent_notation
        # fails after a Python upgrade, look here first
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _int_at_least(low: int):
    """argparse type: an int no smaller than `low`, refused while parsing."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _perplexity(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not value > 1:
        raise argparse.ArgumentTypeError(f"must exceed 1, got {text}")
    return value


@contextlib.contextmanager
def _about(*paths):
    """Prefix an error raised on the inputs' content with their paths."""
    try:
        yield
    except SpkraugError as exc:
        raise SpkraugError(f"{', '.join(paths)}: {exc}") from exc


def _command(sub, name: str, handler, help: str) -> _Parser:
    """Add subcommand `name`; main() prints the report dict handler(args)
    returns and exits 2 if it lists failures, else 0."""
    p = sub.add_parser(name, help=help, description=help)
    p.set_defaults(handler=handler)
    return p


def _build_parser() -> _Parser:
    parser = _Parser(prog="spkraug", description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=42, help="base seed for every random draw")
    parser.add_argument("--workers", type=_int_at_least(1),
                        help="embed threads (default: the CPU count); augment runs serially")
    sub = parser.add_subparsers(dest="command", required=True)

    p = _command(sub, "subset", _cmd_subset, "seeded per-speaker subset of natural utterances")
    p.add_argument("--manifest", required=True)
    p.add_argument("--per-speaker", type=_int_at_least(1), required=True)
    p.add_argument("--independent", action="store_true",
                   help="draw per speaker instead of sharing utterance numbers")
    p.add_argument("--output", required=True)

    p = _command(sub, "augment", _cmd_augment, "generate augmented WAVs from a natural manifest")
    p.add_argument("recipe", choices=sorted(dataset.RECIPE_JOBS))
    p.add_argument("--manifest", required=True)
    p.add_argument("--audio-root", required=True)
    p.add_argument("--output", required=True)

    p = _command(sub, "embed", _cmd_embed, "stand-in embeddings for every manifest record")
    p.add_argument("--manifest", required=True)
    p.add_argument("--output", required=True)

    p = _command(sub, "select-best", _cmd_select_best,
                 "keep each natural's k nearest augmented children")
    p.add_argument("--naturals", required=True)
    p.add_argument("--augmented", required=True)
    p.add_argument("--embeddings", required=True)
    p.add_argument("--k", type=_int_at_least(0), default=4)
    p.add_argument("--output", required=True)

    p = _command(sub, "pairs", _cmd_pairs, "genuine/impostor trial list for EER")
    p.add_argument("--eval", dest="eval_manifest", required=True)
    p.add_argument("--pool", required=True)
    p.add_argument("--output", required=True)

    p = sub.add_parser("eval", help="objective measures")
    ev = p.add_subparsers(dest="measure", required=True)
    e = _command(ev, "eer", _cmd_eval_eer, "equal error rate over a scored pair list")
    e.add_argument("--pairs", required=True)
    e.add_argument("--embeddings", help="used to score pairs lacking a score column")
    e = _command(ev, "cs", _cmd_eval_cs,
                 "cosine-similarity loss: row i of --synth is scored against row i of "
                 "--natural; ids are not compared")
    e.add_argument("--synth", required=True)
    e.add_argument("--natural", required=True)
    e = _command(ev, "wer", _cmd_eval_wer, "word error rate between transcripts")
    e.add_argument("--ref", required=True)
    e.add_argument("--hyp", required=True)

    p = _command(sub, "loss", _cmd_loss, "combined weighted training loss")
    p.add_argument("--l1", type=float, required=True)
    p.add_argument("--att", type=float, required=True)
    p.add_argument("--sv", type=float, required=True)
    p.add_argument("--alpha", type=float, default=metrics.DEFAULT_LOSS_WEIGHTS[0])
    p.add_argument("--beta", type=float, default=metrics.DEFAULT_LOSS_WEIGHTS[1])
    p.add_argument("--gamma", type=float, default=metrics.DEFAULT_LOSS_WEIGHTS[2])

    p = _command(sub, "tsne", _cmd_tsne, "project an embedding TSV to 2-D")
    p.add_argument("--embeddings", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--svg", help="also render a speaker-colored scatter plot")
    p.add_argument("--perplexity", type=_perplexity, default=30.0)
    p.add_argument("--iterations", type=_int_at_least(1), default=1000)

    p = _command(sub, "vocode", _cmd_vocode, "Griffin-Lim a stored magnitude spectrogram")
    p.add_argument("--spectrogram", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--iterations", type=_int_at_least(1), default=60)

    return parser


def _cmd_subset(args) -> dict:
    manifest = dataset.load_manifest(args.manifest)
    with _about(args.manifest):
        result = dataset.select_subset(manifest, args.per_speaker, args.seed,
                                       parallel=not args.independent)
    dataset.save_manifest(result, args.output)
    return {"command": "subset", "records": len(result),
            "speakers": len(result.speakers()), "output": args.output}


def _cmd_augment(args) -> dict:
    manifest = dataset.load_manifest(args.manifest)
    with _about(args.manifest):
        augmented, failures = dataset.execute_plan(manifest, args.recipe, args.audio_root)
    dataset.save_manifest(augmented, args.output)
    # each job adds one record or one failure
    return {"command": "augment", "recipe": args.recipe, "jobs": len(augmented) + len(failures),
            "written": len(augmented), "failures": failures, "output": args.output}


def _embed_records(records, sample_rate: int, workers: int) -> list:
    """Stand-in embeddings of the records' WAVs, in record order. An error
    names the first failing record in that order, whatever `workers` is."""
    def embed(record):
        try:
            return extract_standin_embedding(dataset.read_utterance(record, sample_rate))
        except (SpkraugError, OSError) as exc:
            raise SpkraugError(f"{record.utterance_id} ({record.path}): {exc}") from exc

    if workers == 1:  # in the calling thread, with no executor
        return [embed(record) for record in records]
    from concurrent.futures import ThreadPoolExecutor  # ~7 ms and 0.6 MiB: load only here

    with ThreadPoolExecutor(workers) as pool:
        # map yields in submission order and, when a result raises, cancels
        # the tasks not yet started
        return list(pool.map(embed, records))


def _cmd_embed(args) -> dict:
    manifest = dataset.load_manifest(args.manifest)
    if not len(manifest):
        raise SpkraugError(f"{args.manifest}: no records to embed")
    workers = args.workers or os.cpu_count() or 1
    rows = _embed_records(manifest.records, manifest.sample_rate, workers)
    embeddings = EmbeddingSet([r.utterance_id for r in manifest],
                              [r.speaker_id for r in manifest], np.stack(rows))
    save_embeddings(embeddings, args.output)
    return {"command": "embed", "records": len(embeddings),
            "dimension": embeddings.dimension, "output": args.output}


def _cmd_select_best(args) -> dict:
    naturals = dataset.load_manifest(args.naturals)
    augmented = dataset.load_manifest(args.augmented)
    embeddings = load_embeddings(args.embeddings)
    with _about(args.naturals, args.augmented, args.embeddings):
        result = dataset.select_best_augmented(naturals, augmented, embeddings, args.k)
    dataset.save_manifest(result, args.output)
    return {"command": "select-best", "k": args.k, "naturals": len(naturals),
            "kept": len(result) - len(naturals), "output": args.output}


def _cmd_pairs(args) -> dict:
    eval_manifest = dataset.load_manifest(args.eval_manifest)
    pool = dataset.load_manifest(args.pool)
    with _about(args.eval_manifest, args.pool):
        pairs = dataset.generate_eer_pairs(eval_manifest, pool, args.seed)
    metrics.save_pairs(pairs, args.output)
    genuine = sum(1 for p in pairs if p.same_speaker)
    return {"command": "pairs", "pairs": len(pairs), "genuine": genuine,
            "impostor": len(pairs) - genuine, "output": args.output}


def _cmd_eval_eer(args) -> dict:
    pairs = metrics.load_pairs(args.pairs)
    unscored = any(p.score is None for p in pairs)
    if unscored and not args.embeddings:
        raise SpkraugError(f"{args.pairs}: pair list has unscored rows; pass --embeddings")
    embeddings = load_embeddings(args.embeddings) if unscored else None
    with _about(args.pairs, *([args.embeddings] if unscored else [])):
        eer, threshold = metrics.equal_error_rate(
            metrics.score_pairs(pairs, embeddings) if unscored else pairs)
    genuine = sum(1 for p in pairs if p.same_speaker)
    return {"command": "eval-eer", "eer": eer, "threshold": threshold,
            "genuine": genuine, "impostor": len(pairs) - genuine}


def _cmd_eval_cs(args) -> dict:
    synth = load_embeddings(args.synth)
    natural = load_embeddings(args.natural)
    with _about(args.synth, args.natural):
        loss = metrics.batch_cs_loss(synth, natural)
    return {"command": "eval-cs", "cs_loss": loss, "mean_cs": 1.0 - loss, "pairs": len(synth)}


def _cmd_eval_wer(args) -> dict:
    # every break str.splitlines splits at is whitespace to str.split, so joining
    # the lines with "\n" gives the tokens of the whole text
    ref, hyp = (metrics.tokenize_transcript("\n".join(line for _, line in _text_lines(path)))
                for path in (args.ref, args.hyp))
    with _about(args.ref, args.hyp):
        wer, subs, dels, ins = metrics.word_error_rate(ref, hyp)
    return {"command": "eval-wer", "wer": wer, "substitutions": subs,
            "deletions": dels, "insertions": ins, "reference_tokens": len(ref)}


def _cmd_loss(args) -> dict:
    value = metrics.combined_loss(args.l1, args.att, args.sv, args.alpha, args.beta, args.gamma)
    return {"command": "loss", "loss": value,
            "terms": {"l1": args.l1, "attention": args.att, "sv": args.sv},
            "weights": {"alpha": args.alpha, "beta": args.beta, "gamma": args.gamma}}


def _cmd_tsne(args) -> dict:
    embeddings = load_embeddings(args.embeddings)
    with _about(args.embeddings):
        coords = run_tsne(embeddings, args.perplexity, args.iterations, args.seed)
    save_coordinates(embeddings, coords, args.output)
    if args.svg:
        render_scatter_svg(embeddings, coords, args.svg)
    return {"command": "tsne", "points": len(embeddings), "output": args.output,
            "svg": args.svg, "perplexity": args.perplexity,
            "iterations": args.iterations}


def _cmd_vocode(args) -> dict:
    spec = read_spectrogram(args.spectrogram)
    clip, errors = griffin_lim(spec, iterations=args.iterations, seed=args.seed,
                               return_errors=True)
    write_wav(clip, args.output)
    return {"command": "vocode", "iterations": args.iterations,
            "final_error": errors[-1], "errors": errors, "samples": len(clip),
            "sample_rate": clip.sample_rate, "output": args.output}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        report = args.handler(args)
        print(json.dumps(report, indent=2, sort_keys=True))
    except (SpkraugError, OSError) as exc:
        print(f"spkraug {args.command}: error: {exc}", file=sys.stderr)
        return 1
    return 2 if report.get("failures") else 0


def entrypoint() -> None:
    sys.exit(main())
