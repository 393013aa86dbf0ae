"""Tests for the built-in recipe catalogue and the pre-training / fine-tuning builders."""

import pytest

from repro.core.config import load_config
from repro.core.executor import Executor
from repro.core.sample import Fields
from repro.recipes import (
    BUILT_IN_RECIPES,
    FINETUNE_CATEGORY_COUNTS,
    PRETRAIN_COMPONENTS,
    build_component_datasets,
    build_finetune_pool,
    build_pretrain_mixture,
    data_juicer_finetune_dataset,
    get_recipe,
    list_recipes,
    mixture_stats,
    paper_table7_rows,
    paper_table8_rows,
    random_finetune_dataset,
)


class TestRecipeCatalogue:
    def test_catalogue_has_at_least_twenty_recipes(self):
        # the paper advertises "more than 20 high-quality and diverse data recipes"
        assert len(BUILT_IN_RECIPES) >= 20

    def test_all_recipes_are_valid_configs(self):
        for name in list_recipes():
            config = load_config(get_recipe(name))
            assert config.project_name == name

    def test_get_recipe_returns_copy(self):
        first = get_recipe("pretrain-common-crawl-refine-en")
        first["process"].clear()
        assert get_recipe("pretrain-common-crawl-refine-en")["process"]

    def test_unknown_recipe(self):
        from repro.core.errors import RegistryError

        with pytest.raises(RegistryError, match="not a registered recipe"):
            get_recipe("pretrain-the-moon")

    def test_unknown_recipe_suggests_close_matches(self):
        from repro.core.errors import RegistryError

        with pytest.raises(RegistryError, match="did you mean.*pretrain-c4-refine-en"):
            get_recipe("pretrain-c4-refine")

    def test_pretrain_and_finetune_scenarios_covered(self):
        names = " ".join(list_recipes())
        assert "pretrain-" in names and "finetune-" in names and "zh" in names


class TestPretrainMixture:
    def test_table7_components_and_proportions(self):
        rows = paper_table7_rows()
        assert len(rows) == 15
        assert abs(sum(row["proportion"] for row in rows) - 1.0) < 0.01
        assert rows[0]["component"] == "CommonCrawl"

    def test_component_epochs_upweight_books_and_wikipedia(self):
        assert PRETRAIN_COMPONENTS["Wikipedia"]["epochs"] == 2.5
        assert PRETRAIN_COMPONENTS["Books"]["epochs"] == 2.0

    def test_build_mixture_sources(self):
        mixture = build_pretrain_mixture(samples_per_component=15, seed=0)
        sources = {row[Fields.source] for row in mixture}
        assert "CommonCrawl" in sources and "Wikipedia" in sources

    def test_refined_mixture_is_smaller_than_raw(self):
        raw = build_pretrain_mixture(samples_per_component=15, seed=0, refined=False)
        refined = build_pretrain_mixture(samples_per_component=15, seed=0, refined=True)
        assert 0 < len(refined) < len(raw)

    def test_each_component_is_refined_by_its_own_recipe(self, monkeypatch):
        from repro.recipes import pretrain

        refined = []

        def spy(recipe, dataset):
            refined.append((recipe["project_name"], dataset.to_list()))
            return dataset

        monkeypatch.setattr(pretrain, "run_recipe", spy)
        mixture = build_pretrain_mixture(samples_per_component=5, seed=0, refined=True)
        components = build_component_datasets(samples_per_component=5, seed=0)
        assert [name for name, _ in refined] == [
            "pretrain-common-crawl-refine-en",
            "pretrain-c4-refine-en",
            "pretrain-code-refine",
            "pretrain-books-refine-en",
            "pretrain-wikipedia-refine-en",
            "pretrain-arxiv-refine-en",
            "pretrain-stackexchange-refine-en",
        ]
        assert list(components) == [
            "CommonCrawl", "C4", "GitHub", "Books", "Wikipedia", "arXiv", "StackExchange"
        ]
        assert [rows for _, rows in refined] == [dataset.to_list() for dataset in components.values()]
        # a refine step that keeps every row leaves the raw mixture
        assert mixture.to_list() == build_pretrain_mixture(samples_per_component=5, seed=0).to_list()

    def test_redpajama_mixture_leaves_out_stackexchange_only(self):
        sources = {row[Fields.source] for row in build_pretrain_mixture(10, include_pile_like=False)}
        assert sources == {"CommonCrawl", "C4", "GitHub", "Books", "Wikipedia", "arXiv"}

    def test_refined_mixture_keeps_code(self):
        # a prose recipe over the mixed corpus dropped every GitHub row
        refined = build_pretrain_mixture(samples_per_component=15, seed=0, refined=True)
        assert "GitHub" in {row[Fields.source] for row in refined}

    def test_mixture_stats_proportions_sum_to_one(self):
        mixture = build_pretrain_mixture(samples_per_component=10, seed=1)
        stats = mixture_stats(mixture)
        assert abs(sum(entry.sampling_proportion for entry in stats) - 1.0) < 1e-6
        assert all(entry.num_samples > 0 for entry in stats)


class TestFinetunePool:
    def test_table8_rows_match_totals(self):
        rows = paper_table8_rows()
        languages = [row for row in rows if row["category"] == "Language"]
        assert sum(row["num_datasets"] for row in languages) == 45
        assert FINETUNE_CATEGORY_COUNTS["Usage"]["Instruct Fine-Tuning (IFT)"] == 17

    def test_pool_tags(self):
        pool = build_finetune_pool(num_datasets=6, samples_per_dataset=20, seed=0)
        assert len(pool) == 6
        usages = {row[Fields.meta]["usage"] for dataset in pool.values() for row in dataset}
        assert usages == {"IFT", "CFT"}

    def test_random_dataset_size(self):
        pool = build_finetune_pool(num_datasets=4, samples_per_dataset=30, seed=1)
        assert len(random_finetune_dataset(pool, num_samples=50, seed=0)) == 50

    def test_data_juicer_dataset_is_english_cft_only(self):
        pool = build_finetune_pool(num_datasets=6, samples_per_dataset=40, seed=2)
        refined = data_juicer_finetune_dataset(pool, num_samples=60, language="EN", usage="CFT")
        assert len(refined) <= 60
        assert all(row[Fields.meta]["language"] == "EN" for row in refined)
        assert all(row[Fields.meta]["usage"] == "CFT" for row in refined)


class TestRecipeHelpers:
    def test_merged_mixture_recipe_is_gone(self):
        assert "pretrain-redpajama-pile-refine" not in BUILT_IN_RECIPES

    def test_helpers_write_nothing_to_the_working_directory(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        build_pretrain_mixture(samples_per_component=5, seed=0, refined=True)
        pool = build_finetune_pool(num_datasets=4, samples_per_dataset=20, seed=0)
        data_juicer_finetune_dataset(pool, num_samples=10, language="EN", usage="CFT")
        assert list(tmp_path.iterdir()) == []


class TestRecipeExecution:
    def test_code_recipe_removes_copyright_and_low_star_files(self):
        from repro.synth import code_like

        corpus = code_like(num_samples=40, seed=3, quality=0.5)
        refined = Executor(get_recipe("pretrain-code-refine")).run(corpus)
        assert 0 < len(refined) < len(corpus)
        assert all("All rights reserved" not in row[Fields.text] for row in refined)

    def test_arxiv_recipe_strips_latex_boilerplate(self):
        from repro.synth import arxiv_like

        corpus = arxiv_like(num_samples=20, seed=4)
        refined = Executor(get_recipe("pretrain-arxiv-refine-en")).run(corpus)
        assert all("\\documentclass" not in row[Fields.text] for row in refined)
        assert all("bibitem" not in row[Fields.text] for row in refined)
