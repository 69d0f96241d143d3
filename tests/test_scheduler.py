"""Tests for the API request scheduler."""

import pytest

from repro.api.ratelimit import RateLimiter
from repro.measurement.scheduler import ProbePlan, RequestScheduler


class TestPlanning:
    def test_small_workload_one_account(self):
        scheduler = RequestScheduler()
        plan = scheduler.plan(queries_per_round=30, round_period_s=300.0)
        # 30 * 12 = 360 req/h < 900 effective.
        assert plan.accounts_needed == 1

    def test_large_workload_scales_accounts(self):
        scheduler = RequestScheduler()
        plan = scheduler.plan(queries_per_round=500, round_period_s=300.0)
        # 6000 req/h over 900 effective -> 7 accounts.
        assert plan.accounts_needed == 7
        assert plan.queries_per_account_per_hour <= scheduler.effective_limit

    def test_margin_reserves_headroom(self):
        tight = RequestScheduler(safety_margin=1.0)
        safe = RequestScheduler(safety_margin=0.5)
        assert safe.plan(300, 300.0).accounts_needed >= tight.plan(
            300, 300.0
        ).accounts_needed

    def test_describe(self):
        plan = RequestScheduler().plan(100, 300.0)
        assert "accounts" in plan.describe()

    def test_validation(self):
        scheduler = RequestScheduler()
        with pytest.raises(ValueError):
            scheduler.plan(0, 300.0)
        with pytest.raises(ValueError):
            scheduler.plan(10, 0.0)
        with pytest.raises(ValueError):
            RequestScheduler(limit_per_hour=0)
        with pytest.raises(ValueError):
            RequestScheduler(safety_margin=0.0)

    def test_accounts_named(self):
        scheduler = RequestScheduler()
        plan = ProbePlan(3, 10, 12.0, 40.0)
        assert scheduler.make_accounts(plan) == [
            "probe000", "probe001", "probe002"
        ]


class TestEffectiveLimitClamp:
    """Regression: `int(limit * margin)` truncated small limits to 0,
    making `account_for` reject every account and `plan` divide by
    zero."""

    def test_small_limit_not_truncated_to_zero(self):
        scheduler = RequestScheduler(limit_per_hour=1, safety_margin=0.9)
        assert scheduler.effective_limit == 1

    def test_plan_survives_clamped_limit(self):
        scheduler = RequestScheduler(limit_per_hour=1, safety_margin=0.9)
        plan = scheduler.plan(queries_per_round=1, round_period_s=3600.0)
        assert plan.accounts_needed == 1

    def test_account_for_usable_at_clamped_limit(self):
        scheduler = RequestScheduler(limit_per_hour=1, safety_margin=0.9)
        # The single unit of budget is grantable — and then enforced.
        assert scheduler.account_for(["a"], 0.0) == "a"
        assert scheduler.account_for(["a"], 1.0) is None

    def test_margin_still_trims_above_one(self):
        # The clamp must not weaken the margin where it is meaningful.
        scheduler = RequestScheduler(
            limit_per_hour=10, safety_margin=0.95
        )
        assert scheduler.effective_limit == 9


class TestRuntimeAssignment:
    def test_spreads_load_evenly(self):
        scheduler = RequestScheduler(limit_per_hour=10, safety_margin=1.0)
        accounts = ["a", "b"]
        picks = [scheduler.account_for(accounts, 0.0) for _ in range(10)]
        assert picks.count("a") == 5
        assert picks.count("b") == 5

    def test_exhausted_budget_returns_none(self):
        scheduler = RequestScheduler(limit_per_hour=2, safety_margin=1.0)
        accounts = ["a"]
        assert scheduler.account_for(accounts, 0.0) == "a"
        assert scheduler.account_for(accounts, 1.0) == "a"
        assert scheduler.account_for(accounts, 2.0) is None

    def test_window_expiry_frees_budget(self):
        scheduler = RequestScheduler(
            limit_per_hour=1, window_s=100.0, safety_margin=1.0
        )
        assert scheduler.account_for(["a"], 0.0) == "a"
        assert scheduler.account_for(["a"], 50.0) is None
        assert scheduler.account_for(["a"], 150.0) == "a"

    def test_never_trips_the_limiter(self):
        """Scheduler-approved requests must never raise in the limiter."""
        limiter = RateLimiter(limit=20, window_s=3600.0)
        scheduler = RequestScheduler(
            limit_per_hour=20, safety_margin=0.9
        )
        accounts = ["a", "b", "c"]
        t = 0.0
        issued = 0
        for _ in range(200):
            account = scheduler.account_for(accounts, t)
            if account is not None:
                limiter.check(account, t)  # must not raise
                issued += 1
            t += 30.0
        assert issued > 50

    def test_requires_accounts(self):
        with pytest.raises(ValueError):
            RequestScheduler().account_for([], 0.0)

    def test_total_spent(self):
        scheduler = RequestScheduler(limit_per_hour=100,
                                     safety_margin=1.0)
        for i in range(7):
            scheduler.account_for(["a", "b"], float(i))
        assert scheduler.total_spent(10.0) == 7
