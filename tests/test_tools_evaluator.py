"""Tests for the proxy LLM substrate: bigram LM, trainer, held-out evaluator, leaderboard, judge."""

import dataclasses
import math

import pytest

from repro.synth import common_crawl_like, wikipedia_like
from repro.core.errors import EvaluationError
from repro.tools.evaluator.harness import Evaluator, Leaderboard, reference_slice, source_slices
from repro.tools.evaluator.judge import PairwiseJudge
from repro.tools.evaluator.ngram_lm import BigramLanguageModel, tokenize
from repro.tools.evaluator.reference_models import ReferenceModel, ReferenceModelRegistry
from repro.tools.evaluator.trainer import ProxyTrainer


@pytest.fixture(scope="module")
def trainer():
    return ProxyTrainer()


@pytest.fixture(scope="module")
def clean_model(trainer):
    return trainer.train(wikipedia_like(num_samples=60, seed=0), name="clean")


@pytest.fixture(scope="module")
def dirty_model(trainer):
    return trainer.train(
        common_crawl_like(num_samples=60, seed=1, quality=0.1, duplicate_ratio=0.2), name="dirty"
    )


class TestBigramLanguageModel:
    def test_training_counts_tokens(self):
        model = BigramLanguageModel().fit(["one two three", "four five"])
        assert model.total_tokens == 5

    def test_token_budget_respected(self):
        model = BigramLanguageModel().fit(["word " * 100], max_tokens=30)
        assert model.total_tokens == 30

    def test_perplexity_lower_on_seen_text(self):
        text = "the data system processes the corpus"
        model = BigramLanguageModel().fit([text] * 5)
        assert model.perplexity([text]) < model.perplexity(["völlig unbekannte wörter hier"])

    def test_perplexity_empty_model(self):
        assert math.isinf(BigramLanguageModel().perplexity([]))

    def test_generation_deterministic_given_seed(self):
        model = BigramLanguageModel().fit(["a b c d e f g"] * 3)
        assert model.generate(10, seed=1) == model.generate(10, seed=1)

    def test_distinct_n_in_unit_interval(self):
        model = BigramLanguageModel().fit(["varied words appear in this longer training text"] * 2)
        assert 0.0 <= model.distinct_n(2) <= 1.0

    def test_perplexity_is_two_to_the_mean_negative_log2_likelihood(self):
        model = BigramLanguageModel().fit(["the data system processes the corpus"] * 3)
        log_prob, count = model.log2_likelihood(["the corpus processes data"])
        assert count == 4
        assert model.perplexity(["the corpus processes data"]) == pytest.approx(2 ** (-log_prob / count))

    def test_context_totals_are_the_bigram_count_sums(self):
        model = BigramLanguageModel().fit(["a b a c", "b a"]).fit(["a b " * 20], max_tokens=13)
        assert model.context_totals == {
            context: sum(counts.values()) for context, counts in model.bigram_counts.items()
        }

    def test_tokenize_lowercases(self):
        assert tokenize("Hello World") == ["hello", "world"]


class TestProxyTrainer:
    def test_dirty_data_has_more_flagged_exposure(self, clean_model, dirty_model):
        assert clean_model.flagged_exposure <= dirty_model.flagged_exposure

    def test_dirty_data_has_duplicates(self, dirty_model):
        assert dirty_model.duplicate_fraction > 0.0

    def test_sources_are_counted(self, clean_model):
        assert clean_model.num_sources == 1

    def test_effective_tokens_capped_by_budget(self, trainer):
        model = trainer.train(wikipedia_like(num_samples=30, seed=3), num_tokens=1000)
        assert model.effective_tokens <= 1000


class TestEvaluatorAndLeaderboard:
    def test_report_is_the_held_out_perplexity(self, clean_model):
        report = Evaluator().evaluate(clean_model)
        assert list(report.perplexities) == ["reference"]
        assert report.perplexity == clean_model.language_model.perplexity(reference_slice())
        assert report.as_dict()["model_name"] == "clean"

    def test_clean_model_has_lower_perplexity_than_dirty(self, clean_model, dirty_model):
        evaluator = Evaluator()
        assert evaluator.evaluate(clean_model).perplexity < evaluator.evaluate(dirty_model).perplexity

    def test_pooled_perplexity_counts_every_slice_token(self, clean_model):
        slices = source_slices(["wikipedia", "c4"])
        report = Evaluator(slices).evaluate(clean_model)
        assert list(report.perplexities) == ["wikipedia", "c4"]
        pooled = clean_model.language_model.perplexity(slices["wikipedia"] + slices["c4"])
        assert report.perplexity == pytest.approx(pooled)
        assert min(report.perplexities.values()) <= report.perplexity <= max(report.perplexities.values())

    def test_source_slices_are_clean_and_seeded_per_source(self):
        slices = source_slices(["common_crawl", "c4"])
        assert set(slices["common_crawl"]).isdisjoint(slices["c4"])
        assert source_slices(["c4"])["c4"] == slices["c4"]
        assert not any("<" in text or "http" in text for text in slices["common_crawl"])

    def test_empty_references_rejected(self):
        with pytest.raises(EvaluationError):
            Evaluator({})

    def test_leaderboard_ranks_lowest_perplexity_first(self, clean_model, dirty_model):
        evaluator = Evaluator()
        board = Leaderboard()
        board.add(evaluator.evaluate(dirty_model))
        board.add(evaluator.evaluate(clean_model))
        assert board.ranking()[0][0] == "clean"
        assert "Leaderboard" in board.render()

    def test_a_model_name_enters_no_number(self, clean_model, dirty_model):
        renamed_clean = dataclasses.replace(clean_model, name="zzz-renamed")
        renamed_dirty = dataclasses.replace(dirty_model, name="another name")
        evaluator = Evaluator(source_slices(["wikipedia", "c4"]))
        for model, renamed in ((clean_model, renamed_clean), (dirty_model, renamed_dirty)):
            original, other = evaluator.evaluate(model).as_dict(), evaluator.evaluate(renamed).as_dict()
            assert original.pop("model_name") != other.pop("model_name")
            assert original == other
        judge = PairwiseJudge(num_prompts=40, tie_margin=0.01)
        tally = judge.compare(clean_model, dirty_model).as_dict()
        for model_a, model_b in (
            (renamed_clean, dirty_model),
            (clean_model, renamed_dirty),
            (renamed_clean, renamed_dirty),
        ):
            renamed_tally = judge.compare(model_a, model_b).as_dict()
            assert {key: renamed_tally[key] for key in ("wins_a", "wins_b", "ties")} == {
                key: tally[key] for key in ("wins_a", "wins_b", "ties")
            }


class TestReferenceModels:
    def test_register_and_rank(self):
        registry = ReferenceModelRegistry()
        registry.register(ReferenceModel("a", "data-a", 100, 40.0))
        registry.register(ReferenceModel("b", "data-b", 100, 30.0))
        assert registry.all()[0].name == "b"
        assert len(registry) == 2
        assert "a" in registry

    def test_duplicate_rejected_without_overwrite(self):
        registry = ReferenceModelRegistry()
        registry.register(ReferenceModel("a", "d", 1, 1.0))
        with pytest.raises(ValueError):
            registry.register(ReferenceModel("a", "d", 1, 2.0))

    def test_register_report(self, clean_model):
        registry = ReferenceModelRegistry()
        report = Evaluator().evaluate(clean_model)
        registry.register_report(report, training_data="wiki", num_tokens=123)
        assert registry.get("clean").num_tokens == 123

    def test_unknown_lookup(self):
        with pytest.raises(KeyError):
            ReferenceModelRegistry().get("missing")


class TestPairwiseJudge:
    def test_tallies_sum_to_prompts(self, clean_model, dirty_model):
        result = PairwiseJudge(num_prompts=50).compare(clean_model, dirty_model)
        assert result.num_prompts == 50

    def test_better_model_wins(self, clean_model, dirty_model):
        result = PairwiseJudge(num_prompts=100).compare(clean_model, dirty_model)
        assert result.wins_a > result.wins_b

    def test_self_comparison_is_all_ties(self, clean_model):
        result = PairwiseJudge(num_prompts=40).compare(clean_model, clean_model)
        assert result.ties == 40

    def test_prompts_are_clean_rows_in_the_judge_language(self):
        english = PairwiseJudge(num_prompts=5).prompts
        chinese = PairwiseJudge(num_prompts=5, language="ZH").prompts
        assert len(english) == len(chinese) == 5
        assert english[0].isascii() and not chinese[0].isascii()
        assert PairwiseJudge(num_prompts=3).prompts == english[:3]

    def test_deterministic(self, clean_model, dirty_model):
        judge = PairwiseJudge(num_prompts=30)
        assert judge.compare(clean_model, dirty_model).as_dict() == judge.compare(
            clean_model, dirty_model
        ).as_dict()
