"""Tests for worker answer-generation models."""

from collections import Counter

import pytest

from repro.crowd.behavior import answer_hit, answer_payload
from repro.crowd.truth import FeatureTruth, GroundTruth
from repro.crowd.worker import WorkerProfile, make_reliable, make_spammer
from repro.datasets import celebrity_dataset, movie_dataset
from repro.datasets.movie import FILTER_TASK as MOVIE_FILTER_TASK
from repro.hits.hit import (
    HIT,
    CompareGroup,
    ComparePayload,
    FilterPayload,
    FilterQuestion,
    GenerativeFieldSpec,
    GenerativePayload,
    GenerativeQuestion,
    JoinGridPayload,
    JoinPair,
    JoinPairsPayload,
    PickBestPayload,
    RatePayload,
    RateQuestion,
    compare_qid,
    join_qid,
)
from repro.relational.expressions import UNKNOWN
from repro.util.rng import RandomSource


@pytest.fixture
def truth() -> GroundTruth:
    t = GroundTruth()
    t.add_filter_task("flt", {"a": True, "b": False})
    t.add_rank_task(
        "rank",
        {f"i{k}": float(k) for k in range(6)},
        comparison_ambiguity=0.05,
        rating_ambiguity=0.3,
    )
    t.add_rank_task(
        "chaos",
        {f"i{k}": float(k) for k in range(6)},
        random_answers=True,
    )
    t.add_join_task("join", {("l0", "r0"), ("l1", "r1")})
    t.add_feature_task(
        "color",
        "value",
        FeatureTruth(
            values={"a": "red", "b": "blue"},
            options=("red", "blue", UNKNOWN),
        ),
    )
    t.add_text_task("names", "common", {"a": "polar bear"})
    return t


@pytest.fixture
def reliable() -> WorkerProfile:
    return make_reliable("r1", RandomSource(1))


@pytest.fixture
def spammer() -> WorkerProfile:
    return make_spammer("s1", RandomSource(2))


def test_reliable_filter_mostly_correct(truth, reliable):
    rng = RandomSource(10)
    payload = FilterPayload("flt", (FilterQuestion("a"), FilterQuestion("b")))
    correct = 0
    for _ in range(300):
        answers = answer_payload(reliable, payload, truth, rng)
        correct += answers["flt:filter:a"] is True
        correct += answers["flt:filter:b"] is False
    assert correct / 600 > 0.9


def test_spammer_filter_ignores_truth(truth):
    rng = RandomSource(11)
    spammer = WorkerProfile(
        worker_id="s",
        archetype="spammer",
        filter_error=0.5, join_miss=0.5, join_false_alarm=0.5,
        compare_noise=10, rate_noise=10, rate_bias=0,
        feature_carelessness=1.0, yes_bias=0,
        batch_error_growth=0, effort_threshold=40, speed=0.2,
        is_spammer=True, spam_style="always_no",
    )
    payload = FilterPayload("flt", (FilterQuestion("a"),))
    answers = [answer_payload(spammer, payload, truth, rng)["flt:filter:a"] for _ in range(20)]
    assert all(a is False for a in answers)


def test_compare_group_emits_all_pairs(truth, reliable):
    rng = RandomSource(12)
    payload = ComparePayload("rank", (CompareGroup(("i0", "i1", "i2")),))
    answers = answer_payload(reliable, payload, truth, rng)
    assert len(answers) == 3
    assert compare_qid("rank", "i0", "i1") in answers


def test_compare_reliable_respects_latents(truth, reliable):
    rng = RandomSource(13)
    payload = ComparePayload("rank", (CompareGroup(("i0", "i5")),))
    wins = Counter()
    for _ in range(200):
        answers = answer_payload(reliable, payload, truth, rng)
        wins[answers[compare_qid("rank", "i0", "i5")]] += 1
    assert wins["i5"] > 190  # far-apart items almost never invert


def test_compare_random_task_is_coin_flip(truth, reliable):
    rng = RandomSource(14)
    payload = ComparePayload("chaos", (CompareGroup(("i0", "i5")),))
    wins = Counter()
    for _ in range(400):
        answers = answer_payload(reliable, payload, truth, rng)
        wins[answers[compare_qid("chaos", "i0", "i5")]] += 1
    assert 120 < wins["i5"] < 280


def test_rate_tracks_latent(truth, reliable):
    rng = RandomSource(15)
    low = RatePayload("rank", (RateQuestion("i0"),))
    high = RatePayload("rank", (RateQuestion("i5"),))
    low_mean = sum(
        answer_payload(reliable, low, truth, rng)["rank:rate:i0"] for _ in range(100)
    ) / 100
    high_mean = sum(
        answer_payload(reliable, high, truth, rng)["rank:rate:i5"] for _ in range(100)
    ) / 100
    assert high_mean - low_mean > 3.0
    assert 1 <= low_mean <= 7


def test_rate_spammer_uniform(truth, spammer):
    rng = RandomSource(16)
    payload = RatePayload("rank", (RateQuestion("i0"),))
    values = [
        answer_payload(spammer, payload, truth, rng)["rank:rate:i0"]
        for _ in range(300)
    ]
    assert set(values) == set(range(1, 8))


def test_join_pairs_miss_and_false_alarm_rates(truth, reliable):
    rng = RandomSource(17)
    match = JoinPairsPayload("join", (JoinPair("l0", "r0"),))
    nonmatch = JoinPairsPayload("join", (JoinPair("l0", "r1"),))
    hits = sum(
        answer_payload(reliable, match, truth, rng)[join_qid("join", "l0", "r0")]
        for _ in range(300)
    )
    fas = sum(
        answer_payload(reliable, nonmatch, truth, rng)[join_qid("join", "l0", "r1")]
        for _ in range(300)
    )
    assert hits / 300 > 0.8
    assert fas / 300 < 0.05


def test_grid_miss_grows_with_size(truth, reliable):
    rng = RandomSource(18)
    small = JoinGridPayload("join", ("l0",), ("r0",))
    big = JoinGridPayload(
        "join", ("l0", "l1", "x1", "x2", "x3"), ("r0", "r1", "y1", "y2", "y3")
    )
    truth.add_join_task("join", {("x1", "y1")})  # extra non-matches implicit
    small_hits = sum(
        answer_payload(reliable, small, truth, rng)[join_qid("join", "l0", "r0")]
        for _ in range(300)
    )
    big_hits = sum(
        answer_payload(reliable, big, truth, rng)[join_qid("join", "l0", "r0")]
        for _ in range(300)
    )
    assert big_hits < small_hits


def test_grid_spammer_always_no_checks_no_match_box(truth):
    spammer = WorkerProfile(
        worker_id="s", archetype="spammer",
        filter_error=0.5, join_miss=0.5, join_false_alarm=0.5,
        compare_noise=10, rate_noise=10, rate_bias=0,
        feature_carelessness=1.0, yes_bias=0,
        batch_error_growth=0, effort_threshold=40, speed=0.2,
        is_spammer=True, spam_style="always_no",
    )
    rng = RandomSource(19)
    grid = JoinGridPayload("join", ("l0", "l1"), ("r0", "r1"))
    answers = answer_payload(spammer, grid, truth, rng)
    assert not any(answers.values())


def test_categorical_feature_mostly_truth(truth, reliable):
    rng = RandomSource(20)
    payload = GenerativePayload(
        "color",
        (GenerativeQuestion("a"),),
        (GenerativeFieldSpec("value", "Radio", ("red", "blue", UNKNOWN)),),
    )
    answers = Counter(
        answer_payload(reliable, payload, truth, rng)["color:gen:a:value"]
        for _ in range(300)
    )
    assert answers["red"] / 300 > 0.9


def test_text_answer_normalizable(truth, reliable):
    rng = RandomSource(21)
    payload = GenerativePayload(
        "names",
        (GenerativeQuestion("a"),),
        (GenerativeFieldSpec("common", "Text"),),
    )
    from repro.util.text import lowercase_single_space

    values = {
        lowercase_single_space(
            answer_payload(reliable, payload, truth, rng)["names:gen:a:common"]
        )
        for _ in range(50)
    }
    # Surface variants collapse to the truth after normalisation.
    assert "polar bear" in values
    assert len(values) <= 3


def test_pick_best_prefers_extreme(truth, reliable):
    rng = RandomSource(22)
    payload = PickBestPayload("rank", ("i0", "i3", "i5"), pick_most=True)
    picks = Counter(
        answer_payload(reliable, payload, truth, rng)[payload.qid()]
        for _ in range(100)
    )
    assert picks["i5"] > 90


def test_answer_hit_covers_all_payloads(truth, reliable):
    hit = HIT(
        hit_id="h",
        payloads=(
            FilterPayload("flt", (FilterQuestion("a"),)),
            RatePayload("rank", (RateQuestion("i0"),)),
        ),
    )
    answers = answer_hit(reliable, hit, truth, RandomSource(23))
    assert "flt:filter:a" in answers
    assert "rank:rate:i0" in answers


def _dataset_feature_truths() -> list[FeatureTruth]:
    movie = movie_dataset(0, 1)
    celebs = celebrity_dataset(seed=0)
    return [
        movie.truth.feature_truth(MOVIE_FILTER_TASK, "value"),
        *(
            celebs.truth.feature_truth(task, "value")
            for task in ("gender", "hairColor", "skinColor")
        ),
    ]


@pytest.mark.parametrize("seed", [0, 3, 11, 97])
def test_answer_table_draws_like_weighted_index(seed):
    for feature in _dataset_feature_truths():
        for item in feature.values:
            for combined in (False, True):
                distribution = feature.answer_distribution(item, combined)
                labels, cumulative, total = feature.answer_table(item, combined)
                assert labels == tuple(distribution)
                cached, reference = RandomSource(seed), RandomSource(seed)
                for _ in range(8):
                    assert cached.weighted_index_cumulative(
                        cumulative, total
                    ) == reference.weighted_index(list(distribution.values()))
                # Both consumed the same number of draws.
                assert cached.random() == reference.random()


def test_answer_table_is_shared_per_true_label():
    feature = FeatureTruth(
        values={"a": "red", "b": "red", "c": "blue"},
        confusion={"red": {"red": 0.8, "blue": 0.2}},
    )
    assert feature.answer_table("a", False) is feature.answer_table("b", False)
    assert feature.answer_table("a", False) is not feature.answer_table("a", True)
    assert feature.answer_table("c", False) == (("blue",), (1.0,), 1.0)
