"""Table 2 — pre-trained models: the refined recipe beats baselines with fewer tokens.

Paper result: LLaMA-1.3B on the Data-Juicer recipe (150B tokens) outscores
Falcon-1.3B (350B) and Pythia-1.4B (300B); adding the refined IFT data during
continued pre-training improves it further while using ~30% of the IFT volume.

Here a model is scored by the perplexity of its bigram language model on a
fixed clean held-out slice (lower is better).  "Refined IFT beats raw IFT" is
printed but not asserted: the measurement does not show it.  "The IFT
continuation improves on the pre-trained model" holds, but it holds as well
with every refine recipe replaced by an identity recipe, so it shows what the
IFT data adds, not what refining it does: it is printed, not asserted.
"""

from conftest import print_table, report_claims, run_once

from repro.core.dataset import concatenate_datasets
from repro.recipes import build_pretrain_mixture, build_finetune_pool, data_juicer_finetune_dataset, random_finetune_dataset
from repro.tools.evaluator import Evaluator, ProxyTrainer, ReferenceModelRegistry

REFINED_BUDGET = 12_000
BASELINE_BUDGET = 24_000  # baselines see twice the token budget, as in the paper

FALCON = "Falcon-1.3B-like (raw web)"
PYTHIA = "Pythia-1.4B-like (raw pile)"
LLAMA = "LLaMA-1.3B (Data-Juicer)"
RAW_IFT = "+ Alpaca-CoT-IFT (raw IFT)"
REFINED_IFT = "+ Our Refined IFT"

#: the claims that are measured here and fail without the refine recipes
ASSERTED_CLAIMS = [
    "refined (half the tokens) beats the Falcon-like raw model",
    "refined (half the tokens) beats the Pythia-like raw model",
]


def reproduce_table2() -> list[dict]:
    trainer = ProxyTrainer()
    evaluator = Evaluator()
    registry = ReferenceModelRegistry()

    raw = build_pretrain_mixture(samples_per_component=35, include_pile_like=True)
    refined = build_pretrain_mixture(samples_per_component=35, include_pile_like=True, refined=True)

    pool = build_finetune_pool(num_datasets=6, samples_per_dataset=60, seed=3)
    ift_raw = random_finetune_dataset(pool, num_samples=240, seed=3)
    ift_refined = data_juicer_finetune_dataset(pool, num_samples=120, language="EN", usage="IFT", seed=3)

    configurations = [
        (FALCON, raw, BASELINE_BUDGET),
        (PYTHIA, raw.shuffle(seed=1), BASELINE_BUDGET),
        (LLAMA, refined, REFINED_BUDGET),
        (RAW_IFT, concatenate_datasets([refined, ift_raw]), REFINED_BUDGET + 4_000),
        (REFINED_IFT, concatenate_datasets([refined, ift_refined]), REFINED_BUDGET + 2_000),
    ]
    rows = []
    for name, corpus, budget in configurations:
        model = trainer.train(corpus, name=name, num_tokens=budget)
        report = evaluator.evaluate(model)
        registry.register_report(report, training_data=name, num_tokens=budget)
        rows.append(
            {
                "model": name,
                "#tokens": budget,
                "perplexity": report.perplexity,
                "flagged_exposure": model.flagged_exposure,
                "duplicate_fraction": model.duplicate_fraction,
            }
        )
    return rows


def table2_claims(rows: list[dict]) -> dict[str, bool]:
    perplexity = {row["model"]: row["perplexity"] for row in rows}
    return {
        "refined (half the tokens) beats the Falcon-like raw model": perplexity[LLAMA] < perplexity[FALCON],
        "refined (half the tokens) beats the Pythia-like raw model": perplexity[LLAMA] < perplexity[PYTHIA],
        "+ refined IFT beats + raw IFT with less data": perplexity[REFINED_IFT] < perplexity[RAW_IFT],
        "+ refined IFT beats the pre-trained model": perplexity[REFINED_IFT] < perplexity[LLAMA],
    }


def test_table2_pretrain_scores(benchmark):
    rows = run_once(benchmark, reproduce_table2)
    print_table("Table 2: held-out perplexity of pre-trained models (lower is better)", rows)
    claims = table2_claims(rows)
    report_claims("Table 2", claims)

    # refined recipe with half the tokens beats both raw baselines
    for claim in ASSERTED_CLAIMS:
        assert claims[claim], claim
