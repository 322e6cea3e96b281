"""Count the process pools that campaigns start."""

import concurrent.futures


def pool_sizes(monkeypatch) -> list:
    """A list that records the `max_workers` of every `ProcessPoolExecutor`
    constructed while the monkeypatch holds."""
    sizes = []

    class CountedPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            sizes.append(max_workers)
            super().__init__(max_workers, *args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountedPool)
    return sizes
