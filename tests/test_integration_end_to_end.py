"""End-to-end integration tests spanning multiple subsystems.

These mirror the paper's workflows: refine a corpus → probe it → train and
evaluate a proxy model → compare against the unrefined data, plus the public
API promises of the top-level ``repro`` package.
"""

import pytest

import repro
from repro import Analyzer, Executor
from repro.core.sample import Fields
from repro.recipes import get_recipe
from repro.synth import common_crawl_like, instruction_dataset
from repro.tools.evaluator import Evaluator, PairwiseJudge, ProxyTrainer
from repro.tools.quality_classifier import train_gpt3_like_classifier


@pytest.fixture(scope="module")
def raw_corpus():
    return common_crawl_like(num_samples=90, seed=42, quality=0.35, duplicate_ratio=0.15)


@pytest.fixture(scope="module")
def refined_corpus(raw_corpus):
    return Executor(get_recipe("pretrain-common-crawl-refine-en")).run(raw_corpus)


class TestPublicApi:
    def test_version_and_exports(self):
        assert repro.__version__
        for name in ("NestedDataset", "Executor", "Analyzer", "OPERATORS", "load_config"):
            assert hasattr(repro, name)

    def test_operator_registry_size_claim(self):
        assert len(repro.OPERATORS) > 50


class TestRefinementLoop:
    def test_refinement_reduces_size_but_keeps_data(self, raw_corpus, refined_corpus):
        assert 0 < len(refined_corpus) < len(raw_corpus)

    def test_refined_data_is_cleaner(self, raw_corpus, refined_corpus):
        def flagged_fraction(dataset):
            from repro.ops.common.flagged_words import FLAGGED_WORDS_EN

            total, flagged = 0, 0
            for row in dataset:
                words = row[Fields.text].lower().split()
                total += len(words)
                flagged += sum(1 for word in words if word in FLAGGED_WORDS_EN)
            return flagged / total if total else 0.0

        assert flagged_fraction(refined_corpus) < flagged_fraction(raw_corpus)

    def test_refined_data_has_no_exact_duplicates(self, refined_corpus):
        texts = [row[Fields.text] for row in refined_corpus]
        assert len(texts) == len(set(texts))

    def test_probe_shows_higher_stopword_ratio_after_refinement(self, raw_corpus, refined_corpus):
        analyzer = Analyzer(with_diversity=False)
        raw_probe = analyzer.analyze(raw_corpus)
        refined_probe = analyzer.analyze(refined_corpus)
        assert (
            refined_probe.summaries["stopwords_ratio"].mean
            >= raw_probe.summaries["stopwords_ratio"].mean
        )

    def test_proxy_model_prefers_refined_data(self, raw_corpus, refined_corpus):
        trainer = ProxyTrainer()
        evaluator = Evaluator()
        refined_report = evaluator.evaluate(trainer.train(refined_corpus, name="refined"))
        raw_report = evaluator.evaluate(trainer.train(raw_corpus, name="raw"))
        assert refined_report.perplexity < raw_report.perplexity

    def test_judge_prefers_refined_model(self, raw_corpus, refined_corpus):
        trainer = ProxyTrainer()
        result = PairwiseJudge(num_prompts=80).compare(
            trainer.train(refined_corpus, name="refined"), trainer.train(raw_corpus, name="raw")
        )
        assert result.wins_a > result.wins_b


class TestQualityClassifierInPipeline:
    def test_classifier_scores_feed_topk_selector(self, raw_corpus):
        classifier = train_gpt3_like_classifier(num_samples=50, num_iterations=200)
        annotated = classifier.annotate_dataset(raw_corpus)
        from repro.ops.selectors.topk_specified_field_selector import TopkSpecifiedFieldSelector

        top = TopkSpecifiedFieldSelector(
            field_key=f"{Fields.stats}.quality_score", top_ratio=0.3
        ).process(annotated)
        assert 0 < len(top) <= len(raw_corpus) * 0.35
        mean_top = sum(row[Fields.stats]["quality_score"] for row in top) / len(top)
        mean_all = sum(row[Fields.stats]["quality_score"] for row in annotated) / len(annotated)
        assert mean_top > mean_all


class TestFineTuningWorkflow:
    def test_instruction_refinement_end_to_end(self):
        pool = instruction_dataset(num_samples=120, seed=9, usage="CFT", quality=0.6)
        refined = Executor(get_recipe("finetune-cft-en-refine")).run(pool)
        assert 0 < len(refined) < len(pool)
        trainer = ProxyTrainer()
        result = PairwiseJudge(num_prompts=60).compare(
            trainer.train(refined, name="refined-ift"), trainer.train(pool, name="raw-ift")
        )
        assert result.wins_a >= result.wins_b
