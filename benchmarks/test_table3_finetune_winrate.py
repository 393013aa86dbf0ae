"""Table 3 — pairwise judge win/tie counts for fine-tuning recipes.

Paper result: models fine-tuned on Data-Juicer recipes win more pairwise
comparisons than (a) models tuned on larger competitive open datasets
(Alpaca / Belle) and (b) models tuned on equal-size random mixtures, for both
the English and the Chinese scenario.

Here the judge compares two proxy models on each of a fixed set of clean
synthetic chat prompts in the scenario's language (built from a seed no
training pool uses): the model giving the prompt the higher mean log2
probability per token wins it.  Each scenario also compares Data-Juicer
with a no-refine control: the same construction from the same pool (the two
tag filters, then the same diversity sampler) without the refine recipe, so
that row isolates what refining does.  In the English scenario Data-Juicer
wins against the open baseline and random sampling here, and it still wins
them with every refine recipe replaced by an identity recipe (the usage-tag
filter and the diversity sampler of the construction remain), so those two
are printed, not asserted: they do not show what the refine recipe does.
"""

from conftest import print_table, report_claims, run_once

from repro.core.dataset import concatenate_datasets
from repro.recipes import (
    build_finetune_pool,
    data_juicer_finetune_dataset,
    random_finetune_dataset,
)
from repro.recipes.registry import run_recipe
from repro.tools.evaluator import PairwiseJudge, ProxyTrainer
from repro.tools.sampler.diversity import DiversitySampler

NUM_PROMPTS = 120
NUM_SAMPLES = 150

#: all fine-tuned proxy models see the same token budget (compute-matched
#: fine-tuning), so the comparison isolates data quality/diversity, not volume
FINETUNE_TOKEN_BUDGET = 6_000

#: the claims that are measured here and fail without the refine recipe
ASSERTED_CLAIMS = [
    "Data-Juicer wins more prompts: ZH vs open baseline",
    "Data-Juicer wins more prompts: ZH vs random sampling",
    "Data-Juicer wins more prompts: EN vs no-refine control",
    "Data-Juicer wins more prompts: ZH vs no-refine control",
]


def no_refine_control(pool: dict, num_samples: int, language: str, usage: str, seed: int):
    """The Data-Juicer construction without its refine recipe: the same two
    tag filters over the same pool, then the same diversity sampler."""
    tag_filters = {
        "process": [
            {"specified_field_filter": {"field_key": "meta.usage", "target_values": [usage]}},
            {"specified_field_filter": {"field_key": "meta.language", "target_values": [language.upper()]}},
        ]
    }
    tagged = run_recipe(tag_filters, concatenate_datasets(list(pool.values())))
    if len(tagged) <= num_samples:
        return tagged
    return DiversitySampler(seed=seed).sample(tagged, num_samples)


def _scenario(language: str, seed: int) -> list[dict]:
    pool = build_finetune_pool(num_datasets=8, samples_per_dataset=70, seed=seed)
    trainer = ProxyTrainer()
    judge = PairwiseJudge(num_prompts=NUM_PROMPTS, language=language)

    # all baselines of a scenario use the same language as the Data-Juicer
    # recipe they are compared with (Alpaca/Random-EN vs Belle/Random-ZH in
    # the paper), so the comparison isolates data quality, not language mix
    language_pool = {
        name: dataset
        for name, dataset in pool.items()
        if dataset[0]["meta"]["language"] == language.upper()
    }
    # the "competitive open dataset" baseline: the whole raw same-language pool
    alpaca_like = concatenate_datasets(list(language_pool.values()))
    juicer = data_juicer_finetune_dataset(pool, NUM_SAMPLES, language=language, usage="CFT", seed=seed)
    random_subset = random_finetune_dataset(language_pool, num_samples=len(juicer), seed=seed)
    control = no_refine_control(pool, NUM_SAMPLES, language=language, usage="CFT", seed=seed)

    model_juicer = trainer.train(juicer, name=f"Data-Juicer ({language})", num_tokens=FINETUNE_TOKEN_BUDGET)
    model_alpaca = trainer.train(alpaca_like, name=f"Open baseline ({language})", num_tokens=FINETUNE_TOKEN_BUDGET)
    model_random = trainer.train(random_subset, name=f"Random (CFT, {language})", num_tokens=FINETUNE_TOKEN_BUDGET)
    model_control = trainer.train(control, name=f"No-refine control ({language})", num_tokens=FINETUNE_TOKEN_BUDGET)

    rows = []
    for baseline_name, baseline_model, baseline_size in (
        ("open baseline", model_alpaca, len(alpaca_like)),
        ("random sampling", model_random, len(random_subset)),
        ("no-refine control", model_control, len(control)),
    ):
        result = judge.compare(model_juicer, baseline_model)
        rows.append(
            {
                "scenario": f"{language} vs {baseline_name}",
                "juicer_samples": len(juicer),
                "baseline_samples": baseline_size,
                "juicer_wins": result.wins_a,
                "baseline_wins": result.wins_b,
                "ties": result.ties,
                "juicer_flagged": model_juicer.flagged_exposure,
                "baseline_flagged": baseline_model.flagged_exposure,
            }
        )
    return rows


def reproduce_table3() -> list[dict]:
    return _scenario("EN", seed=11) + _scenario("ZH", seed=23)


def table3_claims(rows: list[dict]) -> dict[str, bool]:
    return {
        f"Data-Juicer wins more prompts: {row['scenario']}": row["juicer_wins"] > row["baseline_wins"]
        for row in rows
    }


def test_table3_finetune_winrate(benchmark):
    rows = run_once(benchmark, reproduce_table3)
    print_table("Table 3: pairwise win/tie counts (judge over %d prompts)" % NUM_PROMPTS, rows)
    claims = table3_claims(rows)
    report_claims("Table 3", claims)
    # the Chinese Data-Juicer recipe wins both pairwise comparisons, and in
    # both scenarios it beats the same construction without its refine recipe...
    for claim in ASSERTED_CLAIMS:
        assert claims[claim], claim
    for row in rows:
        # ...while no recipe uses more data than the baseline it is compared with
        assert row["juicer_samples"] <= row["baseline_samples"], row
