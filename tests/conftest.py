"""One hypothesis profile for the suite: no deadline, as a property test
may run a whole campaign, and derandomized, so every run (CI's too) draws
the same examples. Each test sets only its own `max_examples`.

On a failing example, hypothesis's pytest plugin imports
`hypothesis.extra._patching`, whose libcst import raises a
DeprecationWarning; under `filterwarnings = ["error"]` that would end the
session in an INTERNALERROR and hide every later result. It is imported
once here with that warning ignored, so the plugin finds it loaded.
Without libcst the plugin writes no patch and imports nothing."""

import warnings

from hypothesis import settings

settings.register_profile("tournsim", deadline=None, derandomize=True)
settings.load_profile("tournsim")

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
