"""Unit tests for repro.common.stats."""

import pytest

from repro.common.stats import TimeBuckets


class TestTimeBuckets:
    def test_charge_and_total(self):
        buckets = TimeBuckets()
        buckets.charge("useful", 10)
        buckets.charge("wait", 5)
        buckets.charge("useful", 2)
        assert buckets.get("useful") == 12
        assert buckets.total == 17

    def test_rejects_negative_charge(self):
        with pytest.raises(ValueError):
            TimeBuckets().charge("useful", -1)

    def test_fractions_sum_to_one(self):
        buckets = TimeBuckets()
        buckets.charge("a", 30)
        buckets.charge("b", 70)
        fractions = buckets.fractions()
        assert fractions["a"] == pytest.approx(0.3)
        assert sum(fractions.values()) == pytest.approx(1.0)

    def test_empty_fractions(self):
        assert TimeBuckets().fractions() == {}

    def test_as_dict_is_a_copy(self):
        buckets = TimeBuckets()
        buckets.charge("a", 1)
        snapshot = buckets.as_dict()
        snapshot["a"] = 99
        assert buckets.get("a") == 1

    def test_unknown_bucket_reads_zero(self):
        assert TimeBuckets().get("nope") == 0
