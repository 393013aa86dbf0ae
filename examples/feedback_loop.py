#!/usr/bin/env python3
"""The full Data-in-the-LLMdev-Loop feedback showcase (Figure 5 of the paper).

Steps: (1) analyze the original dataset, (2) refine the recipe via HPO on one
filter threshold, (3) process with the refined recipe, (4) analyze again,
(5) train proxy models on the original and refined data, (6) collate their
held-out perplexity on the leaderboard against reference models.

Run with::

    python examples/feedback_loop.py
"""

from repro import Analyzer
from repro.api import Pipeline
from repro.recipes import get_recipe
from repro.synth import common_crawl_like
from repro.tools.evaluator import Evaluator, Leaderboard, ProxyTrainer, ReferenceModelRegistry
from repro.tools.hpo import SearchSpace, TPEOptimizer, Uniform, make_op_threshold_objective
from repro.tools.quality_classifier import train_gpt3_like_classifier


def main() -> None:
    original = common_crawl_like(num_samples=150, seed=21, quality=0.45)

    # (1) analyze the original dataset
    analyzer = Analyzer()
    original_probe = analyzer.analyze(original)
    print("original data probe:\n" + original_probe.render() + "\n")

    # (2) refine the recipe: tune the word-repetition threshold with HPO
    classifier = train_gpt3_like_classifier(num_samples=60, num_iterations=150)
    objective = make_op_threshold_objective(
        original, classifier, op_name="word_repetition_filter", param_name="max_ratio"
    )
    optimizer = TPEOptimizer(SearchSpace({"max_ratio": Uniform(0.05, 0.8)}), seed=1)
    best = optimizer.optimize(objective, num_trials=12)
    print(f"HPO-selected word_repetition_filter.max_ratio = {best.params['max_ratio']:.3f}\n")

    recipe = get_recipe("pretrain-common-crawl-refine-en")
    for entry in recipe["process"]:
        if isinstance(entry, dict) and "word_repetition_filter" in entry:
            entry["word_repetition_filter"]["max_ratio"] = round(best.params["max_ratio"], 3)

    # (3) process with the refined recipe (recipes compile to pipelines; the
    # refined parameters are schema-validated before anything runs)
    refined = Pipeline.from_recipe(recipe).collect(original)
    print(f"refined dataset: {len(refined)} of {len(original)} samples kept\n")

    # (4) analyze the refined dataset
    refined_probe = analyzer.analyze(refined)
    print("refined data probe:\n" + refined_probe.render() + "\n")

    # (5) train proxy models and (6) collate on the leaderboard
    trainer = ProxyTrainer()
    evaluator = Evaluator()
    registry = ReferenceModelRegistry()
    leaderboard = Leaderboard()
    for name, dataset in (("original-data", original), ("refined-data", refined)):
        report = evaluator.evaluate(trainer.train(dataset, name=name))
        leaderboard.add(report)
        registry.register_report(report, training_data=name, num_tokens=len(dataset))
    print(leaderboard.render())


if __name__ == "__main__":
    main()
