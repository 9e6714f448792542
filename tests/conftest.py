"""Test-suite settings.

Hypothesis runs under one loaded profile: derandomized (the same examples
on every run), with no deadline (a first call may import or warm caches),
a bounded number of examples and no example database.  Hypothesis also
caches the constants it reads from the package's modules in its storage
directory, database or not, so that directory is a temporary one, removed
when the run ends: the suite stays deterministic and writes nothing to
``.hypothesis/``.
"""

import tempfile

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile(
    "tier1", derandomize=True, deadline=None, max_examples=100, database=None)
settings.load_profile("tier1")

_STORAGE = pytest.StashKey[tempfile.TemporaryDirectory]()


def pytest_configure(config):
    storage = config.stash[_STORAGE] = tempfile.TemporaryDirectory(prefix="hypothesis-")
    set_hypothesis_home_dir(storage.name)


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    config.stash[_STORAGE].cleanup()
