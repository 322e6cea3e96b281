"""Batched campaign engine: a block of tournaments played as numpy arrays.

Plays the proposed format (single game or best of three), the 2012 hybrid
and the 2013 double elimination for every row of a block at once. The
rules it must match are the stage tables `formats.BRACKETS`, which the
scalar interpreter `formats.run_format` plays. Arrays are indexed by seed
position (0 is the top seed), so the higher-seed rule picks the smaller
index, and a team's identity matters only for its goal means and for the
final order that is returned.

A stage samples all its games for all rows in one `rng.poisson` call, and
knockout slots are settled with `np.where`. The outcome distribution is
that of the scalar interpreter; the random stream is consumed differently, so
a row does not reproduce the scalar run of the same generator.
"""

from __future__ import annotations

import numpy as np

from .formats import HIGHER_SEED, RANDOM_SEEDING, _seed_list
from .model import PoissonSampler

N_TEAMS = 8
ALL_TEAMS = np.arange(N_TEAMS)[None, :]
# The 2012 groups by seed position: seeds 1, 4, 5, 8 and seeds 2, 3, 6, 7.
GROUPS_2012 = np.array([[0, 3, 4, 7], [1, 2, 5, 6]])


def supports(fmt, sampler) -> bool:
    """Whether `play_block` can run `fmt` on `sampler`. Other samplers,
    head-to-head tie-breaks, the oracle and fields of other sizes run on
    the scalar interpreter."""
    return (
        fmt.kind in _ENGINES
        and type(sampler) is PoissonSampler
        and len(sampler.names) == N_TEAMS
        and "head_to_head" not in fmt.policy.criteria
    )


def play_block(fmt, sampler, rng: np.random.Generator, size: int) -> np.ndarray:
    """Final orders of `size` tournaments of `fmt`, as an int array of team
    indices of shape (size, 8), best first."""
    if fmt.seeding == RANDOM_SEEDING:
        seeds = rng.permuted(np.tile(np.arange(N_TEAMS), (size, 1)), axis=1)
    else:
        seeds = np.tile(_seed_list(sampler, fmt.seeding), (size, 1))
    means = np.array(sampler.model.mean_goals)
    np.fill_diagonal(means, 0.0)  # never played; a model may leave it NaN
    games = _Games(rng, means[seeds[:, :, None], seeds[:, None, :]], fmt.decisive)
    order = _ENGINES[fmt.kind](games, fmt)
    return np.take_along_axis(seeds, order, axis=1)


class _Games:
    """Samples and settles games for every row of a block. `means[r, i, j]`
    is the mean goals seed position i scores against j in row r."""

    def __init__(self, rng, means, decisive):
        self.rng = rng
        self.means = means
        self.decisive = decisive
        self.rows = np.arange(len(means))

    def _rows(self, slots):
        """Row indices that broadcast against a (rows, ...) slot array."""
        return self.rows.reshape((-1,) + (1,) * (slots.ndim - 1))

    def goals(self, rows, home, away, count=None):
        """Goals of home and away in one game per slot, or in `count` games
        per slot along a new last axis."""
        m = self.means
        means = np.stack((m[rows, home, away], m[rows, away, home]))
        if count is None:
            g = self.rng.poisson(means)
        else:
            g = self.rng.poisson(means[..., None], means.shape + (count,))
        return g[0], g[1]

    def round_robin(self, groups, policy):
        """Single round robin within each row of `groups` (group count by
        group size, seed positions ascending): positions of each group in
        finishing order, shape (rows, groups, size)."""
        g = self.rng.poisson(self.means[:, groups[:, :, None], groups[:, None, :]])
        against = g.swapaxes(-1, -2)
        # The diagonal is a 0-0 "draw" worth one point to nobody.
        stats = {
            "points": 3 * (g > against).sum(-1) + (g == against).sum(-1) - 1,
            "goals_for": g.sum(-1),
        }
        stats["goal_difference"] = stats["goals_for"] - against.sum(-1)
        # lexsort sorts by its last key first; seed position decides last.
        keys = [np.broadcast_to(np.arange(groups.shape[1]), stats["points"].shape)]
        keys += [-stats[c] for c in reversed(policy.criteria[:-1])]
        local = np.lexsort(keys, axis=-1)
        return np.take_along_axis(np.broadcast_to(groups, local.shape), local, -1)

    def knockout(self, home, away):
        """Winners and losers of one game per slot."""
        return self.decide(home, away, *self.goals(self._rows(home), home, away))

    def decide(self, home, away, score_home, score_away):
        """Winners and losers of slots whose result is score_home to
        score_away; level slots go to the decisive policy."""
        winner = np.where(score_home > score_away, home, away)
        level = np.nonzero(score_home == score_away)
        if level[0].size:
            # A slot's first index is its row.
            winner[level] = self._settle(level[0], home[level], away[level])
        return winner, home + away - winner

    def _settle(self, rows, home, away):
        """DecisivePolicy on drawn slots: up to max_replays resampled games,
        then a coin or the higher seed."""
        winner = np.empty_like(home)
        open_ = np.arange(home.size)
        for _ in range(self.decisive.max_replays):
            if not open_.size:
                break
            h, a = home[open_], away[open_]
            gh, ga = self.goals(rows[open_], h, a)
            winner[open_] = np.where(gh > ga, h, a)
            open_ = open_[gh == ga]
        h, a = home[open_], away[open_]
        if self.decisive.final_resolution == HIGHER_SEED:
            winner[open_] = np.minimum(h, a)
        else:
            winner[open_] = np.where(self.rng.integers(2, size=open_.size) == 0, h, a)
        return winner

    def two_legs(self, home, away):
        """Two-legged ties on aggregate goals, no away-goals rule."""
        gh, ga = self.goals(self._rows(home), home, away, 2)
        return self.decide(home, away, gh.sum(-1), ga.sum(-1))

    def best_of_three(self, home, away):
        """First to two wins; otherwise more wins, then the decisive policy.
        Three games are sampled for every series: a third game after a 2-0
        start cannot change the winner, so all three count. Series points
        (3/1/0) never decide: with equal wins both sides have the same
        draws, hence the same points."""
        gh, ga = self.goals(self._rows(home), home, away, 3)
        return self.decide(home, away, (gh > ga).sum(-1), (ga > gh).sum(-1))


def _pairs(winners, losers):
    """Interleave slot winners and losers into places 1..2k."""
    return np.stack((winners, losers), axis=-1).reshape(len(winners), -1)


def _proposed(games, fmt):
    prelim = games.round_robin(ALL_TEAMS, fmt.policy)[:, 0]
    home, away = prelim[:, 0::2], prelim[:, 1::2]
    if fmt.best_of_three:
        return _pairs(*games.best_of_three(home, away))
    return _pairs(*games.knockout(home, away))


def _format_2012(games, fmt):
    groups = games.round_robin(GROUPS_2012, fmt.policy)
    a, b = groups[:, 0], groups[:, 1]
    # Semifinals A1 v B2 and B1 v A2.
    semi_w, semi_l = games.two_legs(
        np.stack((a[:, 0], b[:, 0]), 1), np.stack((b[:, 1], a[:, 1]), 1)
    )
    # Final, third place, classification 5-6 and 7-8.
    return _pairs(*games.knockout(
        np.stack((semi_w[:, 0], semi_l[:, 0], a[:, 2], a[:, 3]), 1),
        np.stack((semi_w[:, 1], semi_l[:, 1], b[:, 2], b[:, 3]), 1),
    ))


def _format_2013(games, fmt):
    size = len(games.rows)
    # Winners round 1: seeds 1v8, 4v5, 2v7, 3v6.
    w1, l1 = games.knockout(
        np.tile([0, 3, 1, 2], (size, 1)), np.tile([7, 4, 6, 5], (size, 1))
    )
    # Losers round 1 and winners round 2.
    w, l = games.knockout(
        np.stack((l1[:, 0], l1[:, 2], w1[:, 0], w1[:, 2]), 1),
        np.stack((l1[:, 1], l1[:, 3], w1[:, 1], w1[:, 3]), 1),
    )
    lb1_w, lb1_l, wb2_w, wb2_l = w[:, :2], l[:, :2], w[:, 2:], l[:, 2:]
    # Losers round 2, cross-matched against the other half's winners-round-2
    # loser to avoid a rematch, and the winners final.
    w, l = games.knockout(
        np.stack((lb1_w[:, 0], lb1_w[:, 1], wb2_w[:, 0]), 1),
        np.stack((wb2_l[:, 1], wb2_l[:, 0], wb2_w[:, 1]), 1),
    )
    lb2_w, lb2_l, wb_champ, wb_runner = w[:, :2], l[:, :2], w[:, 2], l[:, 2]
    # Losers round 3, classification 5-6 and 7-8.
    w, l = games.knockout(
        np.stack((lb2_w[:, 0], lb2_l[:, 0], lb1_l[:, 0]), 1),
        np.stack((lb2_w[:, 1], lb2_l[:, 1], lb1_l[:, 1]), 1),
    )
    lb_champ, third = games.knockout(w[:, 0], wb_runner)
    first, second = games.knockout(wb_champ, lb_champ)
    return np.stack(
        (first, second, third, l[:, 0], w[:, 1], l[:, 1], w[:, 2], l[:, 2]), 1
    )


_ENGINES = {
    "proposed": _proposed,
    "format_2012": _format_2012,
    "format_2013_double_elim": _format_2013,
}
