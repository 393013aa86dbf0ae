#!/usr/bin/env python3
"""Pre-training data refinement and proxy evaluation (the Figure 7 workflow).

Builds the RedPajama-like, RedPajama+Pile-like and Data-Juicer-refined
mixtures, trains a proxy model on each at increasing token budgets and prints
its held-out perplexity per budget (lower is better) — the curve the paper
reports for its 1.3B LLaMA runs, measured in miniature.

Run with::

    python examples/pretrain_refinement.py
"""

from repro.recipes import build_pretrain_mixture
from repro.tools.evaluator import Evaluator, Leaderboard, ProxyTrainer


def main() -> None:
    corpora = {
        "RedPajama": build_pretrain_mixture(samples_per_component=40, include_pile_like=False),
        "RedPajama+Pile": build_pretrain_mixture(samples_per_component=40, include_pile_like=True),
        "RedPajama+Pile (Data-Juicer)": build_pretrain_mixture(
            samples_per_component=40, include_pile_like=True, refined=True
        ),
    }
    token_budgets = [5_000, 10_000, 20_000]

    trainer = ProxyTrainer()
    evaluator = Evaluator()
    leaderboard = Leaderboard()

    print(f"{'corpus':<32} " + " ".join(f"{budget:>9}" for budget in token_budgets))
    for name, corpus in corpora.items():
        perplexities = []
        for budget in token_budgets:
            model = trainer.train(corpus, name=f"{name}@{budget}", num_tokens=budget)
            perplexities.append(evaluator.evaluate(model).perplexity)
        leaderboard.add(evaluator.evaluate(trainer.train(corpus, name=name)))
        print(f"{name:<32} " + " ".join(f"{value:>9.1f}" for value in perplexities))

    print("\n" + leaderboard.render())


if __name__ == "__main__":
    main()
