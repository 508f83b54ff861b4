"""Public surface: ``sldgf.__all__`` is the exact list of exported names."""

import inspect
from collections import Counter

import sldgf


def test_every_exported_name_resolves():
    missing = [name for name in sldgf.__all__ if not hasattr(sldgf, name)]
    assert missing == []


def test_no_exported_name_is_listed_twice():
    twice = [name for name, n in Counter(sldgf.__all__).items() if n > 1]
    assert twice == []


def test_exports_are_exactly_the_public_attributes():
    # exports resolve on first use, so resolve them all first; submodules
    # (sldgf.algebra, ...) are attributes but not exports
    for name in sldgf.__all__:
        getattr(sldgf, name)
    public = {name for name, value in vars(sldgf).items()
              if not name.startswith("_") and not inspect.ismodule(value)}
    assert set(sldgf.__all__) == public
