"""A sampler the batched engine does not recognise, for tests of the
scalar engines."""


class DuckSampler:
    """Only the attributes perfbench's timing wrapper has: `names`,
    `backend`, `sample` and `sample_many`, taken from the sampler it
    wraps. The batched engine does not recognise it, so its campaigns run
    on the scalar fallback."""

    def __init__(self, inner):
        self.names = inner.names
        self.backend = inner.backend
        self.sample = inner.sample
        self.sample_many = inner.sample_many
