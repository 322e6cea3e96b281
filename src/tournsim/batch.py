"""Batched campaign engine: a block of tournaments played as numpy arrays.

Plays every bracket of `formats.BRACKETS`, the stage tables the scalar
interpreter `formats.run_format` plays, for every row of a block at once.
Each table compiled in `formats._TABLES` is grouped once, at import,
into a list of calls. Consecutive stages share a call when they have one
kind and one team count and none of them reads a column the call itself
writes; a call samples all its games for all rows in one `rng.poisson`
call. Round robins are
scored by `scoring.game_points` and summed and ranked by the kernels
every league table uses; knockout slots are settled with `np.where`.

Results live on the board of `formats._compile`, one row a tournament,
the compiled table both engines play. Its first columns hold the seeds
`play_block` is given; it knows no seeding rule, and its caller draws
them by `formats._seed_rows`, as `run_format` does. Only the higher-seed
rule needs seed positions: it reads them from the inverse permutation of
the seeds, in the rows with a drawn slot.

The model's means are kept as one flat n*n vector, the mean of team i
against team j at `i * n + j`, so a call gathers all its means with one
flat index: both sides of every knockout slot, or the (rows, groups, m,
m) matrices of its round robins. Round robin goals and standings stay
integers, which `scoring.round_robin_totals` sums exactly with its fast
integer reduction.

The outcome distribution is that of the scalar interpreter; the random
stream is consumed differently, so a row does not reproduce the scalar
run of the same generator.
"""

from __future__ import annotations

import numpy as np

from .formats import _BEST_OF_THREE, _TABLES, BRACKETS, HIGHER_SEED, KO, LEGS, RR
from .model import PoissonSampler
from .scoring import game_points, round_robin_totals, tiebreak_order


def _calls(stages, teams: int):
    """The stages of a compiled table (`formats._compile`) of `teams` teams
    as calls (kind, team columns, yield columns), the last two of shape
    (stages, teams): consecutive stages share a call when they have one
    kind and one team count and none reads a column the call writes."""
    calls = []
    for kind, games, cols, yields in stages:
        # The engine reads a round robin's teams off the seeding in seed
        # order. Its first game is labelled by the stage, then 1v2.
        if kind == RR and (max(cols) >= teams or list(cols) != sorted(cols)):
            raise ValueError(f"round robin {games[0][0].removesuffix('1v2')!r} "
                             "must be played by seeds in seed order")
        if not (calls and calls[-1][0] == kind and len(calls[-1][1][0]) == len(cols)
                and set(cols).isdisjoint(c for written in calls[-1][2] for c in written)):
            calls.append((kind, [], []))
        calls[-1][1].append(cols)
        calls[-1][2].append(yields)
    return [(kind, np.array(cols), np.array(yields)) for kind, cols, yields in calls]


_PLANS = {key: (_calls(stages, len(places)), np.array(places), width)
          for key, (stages, places, width) in _TABLES.items()}


def supports(fmt, sampler) -> bool:
    """Whether `play_block` can run `fmt` on `sampler`. Other samplers,
    the oracle and fields of other sizes run on the scalar interpreter."""
    return (fmt.kind in BRACKETS and type(sampler) is PoissonSampler
            and len(sampler.names) == len(BRACKETS[fmt.kind][1]))


def play_block(fmt, sampler, rng: np.random.Generator, seeds) -> np.ndarray:
    """Final orders of tournaments of `fmt`, one a row of `seeds`, an int
    array (rows, teams) of team indices by seed position: an int array of
    team indices of that shape, best first. `fmt.seeding` is not read."""
    calls, places, width = _PLANS[fmt.kind, fmt.best_of_three]
    teams = len(places)
    board = np.empty((len(seeds), width), dtype=np.intp)
    board[:, :teams] = seeds
    games = _Games(rng, sampler.model.mean_goals, board[:, :teams], fmt.decisive)
    play = {KO: games.knockout, LEGS: games.two_legs, _BEST_OF_THREE: games.best_of_three}
    for kind, team_cols, yield_cols in calls:
        if kind == RR:
            board[:, yield_cols] = games.round_robin(board[:, team_cols], fmt.policy)
        else:
            home, away = board[:, team_cols[:, 0]], board[:, team_cols[:, 1]]
            board[:, yield_cols[:, 0]], board[:, yield_cols[:, 1]] = play[kind](home, away)
    return board[:, places]


class _Games:
    """Samples and settles games for every row of a block. `means[i, j]` is
    the mean goals team i scores against team j, with a zero diagonal (a
    model stores it so; round robins draw it), and `seeds[r]` lists the
    teams of row r by seed position."""

    def __init__(self, rng, means, seeds, decisive):
        self.rng = rng
        self.n = len(means)
        self.means = np.ravel(means)  # means[i, j] at i * n + j
        self.seeds = seeds
        self.decisive = decisive

    def goals(self, home, away, count=None):
        """Goals of home and away in one game per slot, or in `count` games
        per slot along a new last axis."""
        means = self.means.take(np.stack((home * self.n + away, away * self.n + home)))
        if count is None:
            g = self.rng.poisson(means)
        else:
            g = self.rng.poisson(means[..., None], means.shape + (count,))
        return g[0], g[1]

    def round_robin(self, groups, policy):
        """Single round robin within each group of each row: `groups` holds
        team indices in seed order and broadcasts against (rows, groups,
        size). Returns each group's teams in finishing order, of that shape."""
        teams = np.broadcast_to(groups, self.seeds.shape[:1] + groups.shape[-2:])
        g = self.rng.poisson(self.means.take(teams[..., :, None] * self.n + teams[..., None, :]))
        # Each team's 0-0 "draw" with itself adds a point to every total.
        points = game_points(g, np.swapaxes(g, -1, -2))
        local = tiebreak_order(*round_robin_totals(g, points), policy, points)
        return np.take_along_axis(teams, local, -1)

    def knockout(self, home, away):
        """Winners and losers of one game per slot."""
        return self.decide(home, away, *self.goals(home, away))

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
            gh, ga = self.goals(h, a)
            winner[open_] = np.where(gh > ga, h, a)
            open_ = open_[gh == ga]
        h, a = home[open_], away[open_]
        if self.decisive.final_resolution == HIGHER_SEED:
            seat = np.argsort(self.seeds[rows[open_]], axis=1)  # seed position of each team
            slot = np.arange(open_.size)
            winner[open_] = np.where(seat[slot, h] < seat[slot, a], h, a)
        else:
            winner[open_] = np.where(self.rng.integers(2, size=open_.size) == 0, h, a)
        return winner

    def two_legs(self, home, away):
        """Two-legged ties on aggregate goals, no away-goals rule."""
        gh, ga = self.goals(home, away, 2)
        return self.decide(home, away, gh.sum(-1), ga.sum(-1))

    def best_of_three(self, home, away):
        """First to two wins; otherwise more wins, then the decisive policy.
        Three games are sampled for every series: a third game after a 2-0
        start cannot change the winner, so all three count. Series points
        (3/1/0) never decide: with equal wins both sides have the same
        draws, hence the same points."""
        gh, ga = self.goals(home, away, 3)
        return self.decide(home, away, (gh > ga).sum(-1), (ga > gh).sum(-1))
