"""Verification, statistics and scaling fits (system S8)."""

from .fitting import PowerLawFit, RatioBand, doubling_ratios, power_law_fit, ratio_band
from .stats import Summary, TrialStats, run_trials
from .verify import (
    assert_unique_leader,
    election_outcome,
    is_valid_election,
    leaders_agree,
)

__all__ = [
    "PowerLawFit",
    "RatioBand",
    "Summary",
    "TrialStats",
    "assert_unique_leader",
    "doubling_ratios",
    "election_outcome",
    "is_valid_election",
    "leaders_agree",
    "power_law_fit",
    "ratio_band",
    "run_trials",
]
