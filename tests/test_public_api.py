"""The package's exported names."""

import ast
from pathlib import Path

import spkraug


def test_every_exported_name_resolves():
    """A name left in __all__ after its object is gone would only surface on
    `from spkraug import *` or in user code."""
    missing = [name for name in spkraug.__all__ if not hasattr(spkraug, name)]
    assert missing == []


# Exported callables that nothing inside the package calls, each kept for a
# stated reason. Any other export without a caller is dead code.
CALLER_LESS_KEEP = {
    "cosine_similarity": "a perfbench TARGETS layer; deleted with ROADMAP items 1 and 5",
    "euclidean_distance": "a perfbench TARGETS layer; deleted with ROADMAP items 1 and 5",
    "psola_modify": "a perfbench TARGETS layer; deleted with ROADMAP items 1 and 5",
    "magnitude_spectrogram": "a perfbench TARGETS layer; deleted with ROADMAP items 1 and 5",
    "istft": "the STFT reconstruction oracle judges it",
    "write_spectrogram": "the only writer of the .spg files vocode reads",
    "kl_divergence": "the benchmark fingerprint's tsne_final_kl",
    "eer_loss": "ROADMAP item 5 gives it a caller",
}


def _names_referenced_in_the_package() -> set:
    refs = set()
    for path in Path(spkraug.__file__).parent.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
    return refs


def test_every_exported_callable_has_a_caller_or_a_reason():
    """The keep-list is exact: an export that gains a caller leaves it."""
    refs = _names_referenced_in_the_package()
    caller_less = {name for name in spkraug.__all__
                   if callable(getattr(spkraug, name)) and name not in refs}
    assert caller_less == set(CALLER_LESS_KEEP)
