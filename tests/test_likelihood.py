import random
from collections import Counter

import pytest

from askbd.backends import (
    CAP_SCORE_TOKENS,
    BackendProfile,
    MockScoreBackend,
    TokenScore,
)
from askbd.likelihood import (
    EmptyContinuation,
    TooFewRecords,
    avg_token_logprob,
    bucket_accuracy,
    pseudo_indicator,
    quartile_buckets,
    score_solution,
    sum_logprob,
)


def scores(*logprobs):
    return [TokenScore(f"t{i}", lp) for i, lp in enumerate(logprobs)]


def pairwise_sum(values):
    values = list(values)
    if len(values) == 1:
        return values[0]
    mid = len(values) // 2
    return pairwise_sum(values[:mid]) + pairwise_sum(values[mid:])


class TestSums:
    def test_constant_seven(self):
        assert sum_logprob(scores(*([-1.0] * 7))) == -7.0

    def test_single(self):
        assert sum_logprob(scores(-0.3)) == -0.3

    def test_matches_pairwise_oracle(self):
        rng = random.Random(99)
        for _ in range(200):
            values = [-rng.random() * 5 for _ in range(50)]
            assert abs(sum_logprob(scores(*values)) - pairwise_sum(values)) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(EmptyContinuation):
            sum_logprob([])


class TestAverage:
    def test_constant(self):
        assert avg_token_logprob(scores(*([-1.0] * 7))) == -1.0

    def test_mean(self):
        assert avg_token_logprob(scores(-2.0, -4.0)) == -3.0

    def test_length_invariance(self):
        base = [-0.5, -1.5, -2.0]
        short = avg_token_logprob(scores(*base))
        doubled = avg_token_logprob(scores(*(base * 2)))
        assert abs(short - doubled) < 1e-12

    def test_indicator_times_count_recovers_total(self):
        rng = random.Random(4)
        for _ in range(500):
            values = [-rng.random() * 8 for _ in range(rng.randint(1, 80))]
            sc = scores(*values)
            indicator = avg_token_logprob(sc)
            assert abs(indicator * len(sc) - sum_logprob(sc)) < 1e-9


def scoring_profile(name, endpoint):
    return BackendProfile(
        name=name,
        endpoint=endpoint,
        model="scorer",
        capabilities=frozenset({CAP_SCORE_TOKENS}),
    )


class TestScoring:
    def test_score_solution_counts_words(self, leaf_record):
        profile = scoring_profile("const", "mock:score?logprob=-1.0")
        scored = score_solution(
            leaf_record, profile, backend=MockScoreBackend(profile.endpoint)
        )
        words = len("\n".join(
            f"Step {s.index}. {s.statement}" for s in leaf_record.steps
        ).split())
        assert scored.token_count == words
        assert scored.indicator == -1.0
        assert scored.total == -1.0 * words

    def test_pseudo_indicator_is_mean(self, leaf_record):
        a = scoring_profile("a", "mock:score?logprob=-1.0")
        b = scoring_profile("b", "mock:score?logprob=-3.0")
        assert pseudo_indicator(score_each(leaf_record, [a, b])) == -2.0

    def test_pseudo_indicator_single_backend_identity(self, leaf_record):
        a = scoring_profile("a", "mock:score?logprob=-1.5")
        assert pseudo_indicator(score_each(leaf_record, [a])) == -1.5

    def test_four_backend_mean(self, leaf_record):
        profiles = [
            scoring_profile(name, f"mock:score?logprob=-{k}.0")
            for k, name in enumerate(["w", "x", "y", "z"], start=1)
        ]
        value = pseudo_indicator(score_each(leaf_record, profiles))
        assert value == -(1 + 2 + 3 + 4) / 4


def score_each(record, profiles):
    return [
        score_solution(record, p, backend=MockScoreBackend(p.endpoint)) for p in profiles
    ]


class TestQuartiles:
    def test_symmetric_four(self):
        buckets = quartile_buckets({"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0})
        assert buckets == {"a": "Q1", "b": "Q2", "c": "Q3", "d": "Q4"}

    def test_all_equal_fall_left(self):
        buckets = quartile_buckets({k: 5.0 for k in "abcdef"})
        assert set(buckets.values()) == {"Q1"}

    def test_bucket_sizes_match_sort_and_split(self):
        rng = random.Random(7)
        indicators = {f"r{i}": rng.random() for i in range(2000)}
        buckets = quartile_buckets(indicators)
        sizes = Counter(buckets.values())
        assert set(sizes) == {"Q1", "Q2", "Q3", "Q4"}
        for size in sizes.values():
            assert abs(size - 500) <= 1, sizes

    def test_monotone_bucket_ordering(self):
        rng = random.Random(8)
        indicators = {f"r{i}": rng.random() for i in range(101)}
        buckets = quartile_buckets(indicators)
        highs, lows = {}, {}
        for rid, bucket in buckets.items():
            value = indicators[rid]
            highs[bucket] = max(highs.get(bucket, value), value)
            lows[bucket] = min(lows.get(bucket, value), value)
        for lower, upper in (("Q1", "Q2"), ("Q2", "Q3"), ("Q3", "Q4")):
            if lower in highs and upper in lows:
                assert highs[lower] <= lows[upper]

    def test_too_few(self):
        with pytest.raises(TooFewRecords):
            quartile_buckets({"a": 1.0, "b": 2.0, "c": 3.0})


class TestBucketAccuracy:
    def test_half_right(self):
        buckets = quartile_buckets({"a": 1.0, "b": 1.1, "c": 3.0, "d": 4.0, "e": 5.0})
        results = {"a": True, "b": False, "c": True, "d": False, "e": True}
        acc = bucket_accuracy(buckets, results)
        assert acc["Q1"] == 0.5

    def test_empty_bucket_is_undefined_not_zero(self):
        buckets = quartile_buckets({k: 5.0 for k in "abcd"})
        acc = bucket_accuracy(buckets, {k: True for k in "abcd"})
        assert acc["Q1"] == 1.0
        assert acc["Q4"] is None

    def test_missing_result(self):
        # records without a result are skipped, not counted as wrong
        buckets = quartile_buckets({"a": 1.0, "b": 2.0, "c": 3.0, "d": 4.0})
        acc = bucket_accuracy(buckets, {"a": True, "b": False})
        assert acc == {"Q1": 1.0, "Q2": 0.0, "Q3": None, "Q4": None}
