"""One hypothesis profile for the suite: no deadline, as a property test
may run a whole campaign, and derandomized, so every run (CI's too) draws
the same examples. Each test sets only its own `max_examples`."""

from hypothesis import settings

settings.register_profile("tournsim", deadline=None, derandomize=True)
settings.load_profile("tournsim")
