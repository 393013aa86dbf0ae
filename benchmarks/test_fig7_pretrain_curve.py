"""Figure 7 — held-out perplexity vs pre-training token budget for three recipes.

Paper result: LLMs pre-trained on the Data-Juicer-refined RedPajama+Pile
recipe consistently outperform the unrefined RedPajama and RedPajama+Pile
corpora at every token budget (50B/100B/150B tokens; here scaled down to the
proxy-model substrate), and every recipe improves as the budget grows.

Here a model is scored by the perplexity of its bigram language model on a
fixed clean held-out slice (lower is better).  The budget trend is printed
but not asserted: at this corpus size (120–169 documents) perplexity does
not fall with the budget, so that half of the figure is not reproduced.
"""

from conftest import print_table, report_claims, run_once

from repro.recipes import build_pretrain_mixture
from repro.tools.evaluator import Evaluator, ProxyTrainer

TOKEN_BUDGETS = [4_000, 8_000, 16_000]
SAMPLES_PER_COMPONENT = 35
RAW = ("RedPajama", "RedPajama+Pile")
REFINED = "RedPajama+Pile (Data-Juicer)"

#: the claims that are measured here and fail without the refine recipes
ASSERTED_CLAIMS = ["refined beats both raw corpora at every budget"]


def reproduce_figure7() -> list[dict]:
    corpora = {
        RAW[0]: build_pretrain_mixture(
            samples_per_component=SAMPLES_PER_COMPONENT, include_pile_like=False
        ),
        RAW[1]: build_pretrain_mixture(
            samples_per_component=SAMPLES_PER_COMPONENT, include_pile_like=True
        ),
        REFINED: build_pretrain_mixture(
            samples_per_component=SAMPLES_PER_COMPONENT, include_pile_like=True, refined=True
        ),
    }
    trainer = ProxyTrainer()
    evaluator = Evaluator()
    rows = []
    for name, corpus in corpora.items():
        row = {"recipe": name}
        for budget in TOKEN_BUDGETS:
            model = trainer.train(corpus, name=f"{name}@{budget}", num_tokens=budget)
            row[f"ppl@{budget}"] = evaluator.evaluate(model).perplexity
        row.update(
            docs=len(corpus),
            flagged_exposure=model.flagged_exposure,
            duplicate_fraction=model.duplicate_fraction,
        )
        rows.append(row)
    return rows


def figure7_claims(rows: list[dict]) -> dict[str, bool]:
    by_name = {row["recipe"]: row for row in rows}
    claims = {
        "refined beats both raw corpora at every budget": all(
            by_name[REFINED][f"ppl@{budget}"] < min(by_name[raw][f"ppl@{budget}"] for raw in RAW)
            for budget in TOKEN_BUDGETS
        )
    }
    improving = []
    for row in rows:
        perplexities = [row[f"ppl@{budget}"] for budget in TOKEN_BUDGETS]
        if all(later < earlier for earlier, later in zip(perplexities, perplexities[1:])):
            improving.append(row["recipe"])
    claims[f"every recipe improves with the budget (improving: {', '.join(improving) or 'none'})"] = (
        len(improving) == len(rows)
    )
    return claims


def test_fig7_pretrain_curve(benchmark):
    rows = run_once(benchmark, reproduce_figure7)
    print_table("Figure 7: held-out perplexity vs #training tokens (lower is better)", rows)
    claims = figure7_claims(rows)
    report_claims("Figure 7", claims)

    # the refined recipe wins at every token budget (the paper's headline shape)
    for claim in ASSERTED_CLAIMS:
        assert claims[claim], claim
