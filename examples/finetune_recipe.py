#!/usr/bin/env python3
"""Fine-tuning recipe construction and pairwise judging (the Table 3 workflow).

Builds a pool of tagged instruction datasets, derives two equal-size training
sets — random sampling versus the Data-Juicer recipe (tag filtering +
refinement + diversity-aware sampling) — fine-tunes a proxy model on each and
compares them with the pairwise judge: on each clean held-out chat prompt, the
model giving it the higher likelihood wins.

Run with::

    python examples/finetune_recipe.py
"""

from repro.recipes import (
    build_finetune_pool,
    data_juicer_finetune_dataset,
    random_finetune_dataset,
)
from repro.tools.evaluator import PairwiseJudge, ProxyTrainer


def main() -> None:
    pool = build_finetune_pool(num_datasets=8, samples_per_dataset=80, seed=3)
    total = sum(len(dataset) for dataset in pool.values())
    print(f"fine-tuning pool: {len(pool)} datasets, {total} samples")

    num_samples = 200
    random_data = random_finetune_dataset(pool, num_samples=num_samples, seed=3)
    juicer_data = data_juicer_finetune_dataset(pool, num_samples=num_samples, seed=3)
    print(f"random subset: {len(random_data)} samples; Data-Juicer subset: {len(juicer_data)} samples")

    trainer = ProxyTrainer()
    random_model = trainer.train(random_data, name="Random (CFT, EN)")
    juicer_model = trainer.train(juicer_data, name="Data-Juicer (CFT, EN)")

    judge = PairwiseJudge(num_prompts=160)
    result = judge.compare(juicer_model, random_model)
    print(
        f"\npairwise judging over {result.num_prompts} prompts:\n"
        f"  {result.model_a}: {result.wins_a} wins\n"
        f"  {result.model_b}: {result.wins_b} wins\n"
        f"  ties: {result.ties}"
    )


if __name__ == "__main__":
    main()
