"""The package's exported names."""

import spkraug


def test_every_exported_name_resolves():
    """A name left in __all__ after its object is gone would only surface on
    `from spkraug import *` or in user code."""
    missing = [name for name in spkraug.__all__ if not hasattr(spkraug, name)]
    assert missing == []
