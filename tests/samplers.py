"""The samplers the tests share, on teams T0-T7, and the oracle's spec."""

import numpy as np

from tournsim import FormatSpec, PairwiseGoalModel, PoissonSampler

NAMES8 = [f"T{i}" for i in range(8)]


def oracle(games_per_pair):
    return FormatSpec("iterated_round_robin", games_per_pair=games_per_pair)


def flat_sampler(n=8, mean=1.3):
    """All pairs share the same symmetric goal mean."""
    m = np.full((n, n), mean)
    np.fill_diagonal(m, np.nan)
    return PoissonSampler(PairwiseGoalModel(NAMES8[:n], m))


def chain_sampler(n=8):
    """Strict dominance chain: the lower index scores 40 a game against a
    higher one and concedes none, so every game has the same winner."""
    m = np.triu(np.full((n, n), 40.0), 1)
    np.fill_diagonal(m, np.nan)
    return PoissonSampler(PairwiseGoalModel(NAMES8[:n], m))
