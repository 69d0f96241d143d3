"""Tests for the injected jitter bug (the serving-side component)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.marketplace.jitter import JitterBug, JitterParams


class TestParams:
    def test_rejects_bad_probability(self):
        with pytest.raises(ValueError):
            JitterParams(probability=1.5)

    def test_rejects_bad_durations(self):
        with pytest.raises(ValueError):
            JitterParams(min_duration_s=30.0, max_duration_s=20.0)
        with pytest.raises(ValueError):
            JitterParams(min_duration_s=0.0)
        with pytest.raises(ValueError):
            JitterParams(min_duration_s=100.0, max_duration_s=400.0)


class TestJitterBug:
    def test_zero_probability_never_stale(self):
        bug = JitterBug(JitterParams(probability=0.0))
        assert not any(
            bug.is_stale("acct", t) for t in range(0, 3000, 5)
        )

    def test_deterministic_per_account_interval(self):
        bug1 = JitterBug(JitterParams(probability=0.5), seed=1)
        bug2 = JitterBug(JitterParams(probability=0.5), seed=1)
        pattern1 = [bug1.is_stale("acct7", t) for t in range(0, 6000, 5)]
        pattern2 = [bug2.is_stale("acct7", t) for t in range(0, 6000, 5)]
        assert pattern1 == pattern2

    def test_different_seeds_differ(self):
        p = JitterParams(probability=0.5)
        patterns = [
            tuple(
                JitterBug(p, seed=s).is_stale("acct", t)
                for t in range(0, 30_000, 5)
            )
            for s in (1, 2)
        ]
        assert patterns[0] != patterns[1]

    def test_event_rate_matches_probability(self):
        bug = JitterBug(JitterParams(probability=0.3), seed=9)
        intervals_with_jitter = 0
        n_intervals = 600
        for i in range(n_intervals):
            window = bug._window_for("acct", i)
            if window is not None:
                intervals_with_jitter += 1
        assert intervals_with_jitter / n_intervals == pytest.approx(
            0.3, abs=0.05
        )

    def test_window_duration_in_bounds(self):
        bug = JitterBug(JitterParams(probability=1.0), seed=2)
        for i in range(200):
            window = bug._window_for("acct", i)
            assert window is not None
            start, end = window
            assert 20.0 <= end - start <= 30.0
            assert 0.0 <= start
            assert end <= 300.0

    def test_clients_jitter_independently(self):
        """Windows are independent across clients: mostly single-client.

        (Fig 17's ~90 %-single shape additionally benefits from jitter
        only being *observable* when the multiplier changed; the analysis
        bench measures that.  Here we check raw-window independence at a
        low rate.)
        """
        bug = JitterBug(JitterParams(probability=0.05), seed=4)
        accounts = [f"c{i}" for i in range(43)]
        overlap_counts = []
        for i in range(400):
            windows = {
                a: bug._window_for(a, i) for a in accounts
            }
            live = {a: w for a, w in windows.items() if w is not None}
            for a, (s, e) in live.items():
                n = sum(
                    1
                    for b, (s2, e2) in live.items()
                    if s < e2 and s2 < e
                )
                overlap_counts.append(n)
        assert overlap_counts, "no jitter events at p=0.05 over 400 windows"
        solo = sum(1 for n in overlap_counts if n == 1)
        assert solo / len(overlap_counts) > 0.5
        assert max(overlap_counts) <= 6

    @given(t=st.floats(min_value=0.0, max_value=100_000.0))
    @settings(max_examples=80)
    def test_is_stale_is_pure(self, t):
        bug = JitterBug(JitterParams(probability=0.5), seed=11)
        assert bug.is_stale("x", t) == bug.is_stale("x", t)


class TestIsStaleBoundaries:
    """Window membership is half-open: ``start <= offset < end``."""

    def _bug_and_window(self, interval=0):
        bug = JitterBug(JitterParams(probability=1.0), seed=2)
        window = bug._window_for("acct", interval)
        assert window is not None
        return bug, window

    def test_window_start_is_inclusive(self):
        bug, (start, end) = self._bug_and_window()
        assert bug.is_stale("acct", start)
        assert not bug.is_stale("acct", start - 1e-6)

    def test_window_end_is_exclusive(self):
        bug, (start, end) = self._bug_and_window()
        assert not bug.is_stale("acct", end)
        assert bug.is_stale("acct", end - 1e-6)

    def test_interval_boundary_belongs_to_new_interval(self):
        # At exactly t = i * interval_s the offset is 0.0 and the query
        # must resolve against interval i's window, not i-1's.
        bug = JitterBug(JitterParams(probability=1.0), seed=2)
        interval_s = bug.params.interval_s
        for i in (1, 2, 7):
            window = bug._window_for("acct", i)
            assert window is not None
            expected = window[0] <= 0.0 < window[1]
            assert bug.is_stale("acct", i * interval_s) == expected

    def test_cache_survives_non_monotonic_interval_queries(self):
        # The single-interval memo resets whenever the queried interval
        # changes; jumping backwards and forwards must still reproduce
        # the same windows a fresh instance derives.
        params = JitterParams(probability=1.0)
        bug = JitterBug(params, seed=7)
        expected = {
            i: JitterBug(params, seed=7)._window_for("acct", i)
            for i in (3, 4, 5)
        }
        for i in (5, 3, 5, 4, 3, 5):
            assert bug._window_for("acct", i) == expected[i]

    def test_non_monotonic_is_stale_matches_fresh_instance(self):
        params = JitterParams(probability=0.7)
        interval_s = params.interval_s
        times = [
            5 * interval_s + 25.0,
            2 * interval_s + 25.0,
            5 * interval_s + 25.0,
            2 * interval_s + 290.0,
        ]
        bug = JitterBug(params, seed=13)
        for t in times:
            fresh = JitterBug(params, seed=13)
            assert bug.is_stale("acct", t) == fresh.is_stale("acct", t)
