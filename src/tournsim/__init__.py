"""Tournament-format evaluation engine: pairwise strength model, format
simulators, ranking schemes, and Monte Carlo discrepancy campaigns."""

from .errors import (
    IngestionError,
    InvalidComparisonError,
    InvalidInputError,
    InvalidPairingError,
    TournsimError,
    UnsupportedSizeError,
)
from .formats import (
    DecisivePolicy,
    FormatSpec,
    HIGHER_SEED,
    LedgerEntry,
    RANDOM_SEEDING,
    TournamentOutcome,
    UNIFORM_COIN,
    rank_from_fixed_results,
    replay_outcome,
    run_format,
)
from .model import (
    FixedResultTable,
    GameResult,
    PairwiseGoalModel,
    PoissonSampler,
    derive_rng,
    load_model,
)
from .montecarlo import (
    CampaignSpec,
    ComparisonSummary,
    DiscrepancyDistribution,
    compare_campaigns,
    merge_distributions,
    run_campaign,
    run_campaigns,
)
from .scoring import (
    CONTINUOUS,
    DISCRETE,
    Ranking,
    TeamStats,
    TieBreakPolicy,
    l1_distance,
    rank,
    round_robin_totals,
    standings_from_games,
)

__version__ = "0.1.0"
