"""Test-suite settings: hypothesis draws the same examples on every run.

``derandomize`` seeds every property from its own source and no example
database is kept, so runs do not depend on earlier ones.  The little that
hypothesis still caches goes to a temporary directory removed when the
session ends, so a run leaves no ``.hypothesis/`` behind.
"""

import tempfile

from hypothesis import configuration, settings

_storage = tempfile.TemporaryDirectory(prefix="hypothesis-")
configuration.set_hypothesis_home_dir(_storage.name)
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
