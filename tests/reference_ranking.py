"""The tie-break rules written out one criterion at a time, as a recursive
split of each group of level teams: a reference for `scoring.rank` and
the array kernel `scoring.tiebreak_order` behind it; and the points of
one game and a league table, game by game: a reference for
`scoring.game_points` and every kernel that scores by it. Nothing here
scores a game by the package's own rule."""

import itertools

from tournsim import TeamStats, TieBreakPolicy

# Every policy: each ordered choice of the other criteria, then seed order.
ALL_POLICIES = [
    TieBreakPolicy(crits + ("seed_order",))
    for k in range(5)
    for crits in itertools.permutations(
        ("points", "goal_difference", "goals_for", "head_to_head"), k
    )
]


def points_per_game(g) -> tuple[int, int]:
    """3 for a win, 1 for a draw, 0 for a loss."""
    if g.home_goals > g.away_goals:
        return 3, 0
    if g.home_goals < g.away_goals:
        return 0, 3
    return 1, 1


def reference_standings(games, teams=None) -> dict:
    """Points (`points_per_game`), goals for and goals against of each
    team: those of `teams` first, in order, then each other team in the
    order it first plays, home side before away side."""
    table = {name: TeamStats() for name in teams or ()}
    for g in games:
        home_points, away_points = points_per_game(g)
        for name, points, scored, conceded in (
            (g.home, home_points, g.home_goals, g.away_goals),
            (g.away, away_points, g.away_goals, g.home_goals),
        ):
            s = table.setdefault(name, TeamStats())
            s.points += points
            s.goals_for += scored
            s.goals_against += conceded
    return table


def reference_rank(standings, policy, seed_order=None, games=None) -> list:
    """Team names in finishing order: higher points, higher goal
    difference, higher goals for, more points in `games` among the teams
    still level, then seed order, in the policy's order."""
    names = list(standings)
    seed_pos = {n: i for i, n in enumerate(seed_order or names)}

    def split(group, crits):
        if len(group) <= 1:
            return group
        crit = crits[0]
        if crit == "seed_order":
            return sorted(group, key=seed_pos.get)
        if crit == "head_to_head":
            sub = set(group)
            mini = reference_standings(
                [g for g in (games or []) if g.home in sub and g.away in sub],
                group,
            )
            key = {n: mini[n].points for n in group}
        elif crit == "points":
            key = {n: standings[n].points for n in group}
        elif crit == "goal_difference":
            key = {n: standings[n].goal_difference for n in group}
        else:  # goals_for
            key = {n: standings[n].goals_for for n in group}
        ordered = sorted(group, key=lambda n: -key[n])
        out = []
        i = 0
        while i < len(ordered):
            j = i
            while j < len(ordered) and key[ordered[j]] == key[ordered[i]]:
                j += 1
            out.extend(split(ordered[i:j], crits[1:]))
            i = j
        return out

    return split(names, policy.criteria)
