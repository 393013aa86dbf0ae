"""Table 9 — the per-task breakdown behind Table 2.

Paper result: the Data-Juicer model wins or ties the raw-data baselines on
most of the 16 HELM core tasks, and the IFT continuation improves several
tasks further.

Here the 16 tasks are replaced by one clean held-out slice per synthetic
source of the pre-training mixture, and a model is scored by its bigram
language model's perplexity on each slice (lower is better).  Claims the
measurement does not show are printed, not asserted.  So is "the IFT
continuation improves several sources further": it holds, but it holds as well
with every refine recipe replaced by an identity recipe, so it shows what the
IFT data adds, not what refining does.
"""

from conftest import print_table, report_claims, run_once

from repro.core.dataset import concatenate_datasets
from repro.recipes import build_finetune_pool, build_pretrain_mixture, data_juicer_finetune_dataset
from repro.tools.evaluator import Evaluator, ProxyTrainer, source_slices

#: the synthetic sources of the pre-training mixture (``repro.recipes.pretrain``)
SOURCES = ["common_crawl", "c4", "github", "books", "wikipedia", "arxiv", "stackexchange"]
RAW = ("Falcon-like (raw)", "Pythia-like (raw)")
POOLED = "all sources (pooled)"

#: the claims that are measured here and fail without the refine recipes
ASSERTED_CLAIMS = ["refined beats both raw models on most sources"]


def reproduce_table9() -> list[dict]:
    trainer = ProxyTrainer()
    evaluator = Evaluator(source_slices(SOURCES))

    raw = build_pretrain_mixture(samples_per_component=30, include_pile_like=True)
    refined = build_pretrain_mixture(samples_per_component=30, include_pile_like=True, refined=True)
    pool = build_finetune_pool(num_datasets=6, samples_per_dataset=50, seed=3)
    ift = data_juicer_finetune_dataset(pool, num_samples=120, language="EN", usage="IFT", seed=3)

    models = {
        RAW[0]: trainer.train(raw, name=RAW[0], num_tokens=24_000),
        RAW[1]: trainer.train(raw.shuffle(seed=2), name=RAW[1], num_tokens=24_000),
        "Data-Juicer": trainer.train(refined, name="Data-Juicer", num_tokens=12_000),
        "Data-Juicer IFT": trainer.train(
            concatenate_datasets([refined, ift]), name="Data-Juicer IFT", num_tokens=14_000
        ),
    }
    reports = {name: evaluator.evaluate(model) for name, model in models.items()}

    rows = []
    for source in SOURCES:
        row = {"source": source, **{name: reports[name].perplexities[source] for name in models}}
        row["refined_beats_raw"] = row["Data-Juicer"] < min(row[name] for name in RAW)
        row["ift_improves"] = row["Data-Juicer IFT"] < row["Data-Juicer"]
        rows.append(row)
    rows.append({"source": POOLED, **{name: reports[name].perplexity for name in models}})
    return rows


def table9_claims(rows: list[dict]) -> dict[str, bool]:
    per_source, pooled = rows[:-1], rows[-1]
    wins = sum(row["refined_beats_raw"] for row in per_source)
    return {
        "refined beats both raw models on most sources": 2 * wins > len(per_source),
        "refined beats both raw models on every source": wins == len(per_source),
        "refined beats both raw models over all sources pooled": pooled["Data-Juicer"] < min(pooled[name] for name in RAW),
        "the IFT continuation improves several sources further": sum(row["ift_improves"] for row in per_source) >= 2,
    }


def test_table9_per_task(benchmark):
    rows = run_once(benchmark, reproduce_table9)
    print_table("Table 9: held-out perplexity per source (lower is better)", rows)
    claims = table9_claims(rows)
    report_claims("Table 9", claims)

    # the refined model beats both raw baselines on most sources despite
    # training on half the tokens (the paper's mixed-but-favourable picture)
    for claim in ASSERTED_CLAIMS:
        assert claims[claim], claim
