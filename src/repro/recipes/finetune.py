"""Fine-tuning data pools and recipes (Table 8 / Table 3 of the paper).

The paper labels the Alpaca-CoT collection of 39 datasets with language
(EN/ZH/multilingual), usage (IFT / CFT single-round / CFT multi-round /
preference) and other tags, then builds refined fine-tuning recipes by
filtering on tags and sampling for diversity.  This module records the Table 8
category counts, builds a synthetic counterpart pool of tagged datasets and
implements the two dataset constructions compared in Table 3: random sampling
versus the Data-Juicer recipe (tag filtering + refinement + diversity-aware
sampling).
"""

from __future__ import annotations

from repro.core.dataset import NestedDataset, concatenate_datasets
from repro.recipes.registry import get_recipe, run_recipe
from repro.synth.corpora import instruction_dataset
from repro.tools.sampler.diversity import DiversitySampler

#: Table 8 — number of datasets per category tag in the labelled Alpaca-CoT collection.
FINETUNE_CATEGORY_COUNTS: dict[str, dict[str, int]] = {
    "Language": {"English": 28, "Chinese": 14, "Multilingual": 3},
    "Usage": {
        "Instruct Fine-Tuning (IFT)": 17,
        "CFT: Single-Round Dialog": 23,
        "CFT: Multi-Round Dialog": 2,
        "CFT: Preference": 5,
    },
    "Task Type": {"Multi-Task": 27, "Task-Specific": 13},
    "Generation Method": {
        "Human-Generated": 3,
        "Self-Instruct": 12,
        "Mixed": 5,
        "Collection of Datasets": 19,
    },
}


def paper_table8_rows() -> list[dict]:
    """The paper's Table 8 rows (category, sub-category, #datasets)."""
    rows = []
    for category, counts in FINETUNE_CATEGORY_COUNTS.items():
        for sub_category, num_datasets in counts.items():
            rows.append(
                {"category": category, "sub_category": sub_category, "num_datasets": num_datasets}
            )
    return rows


def build_finetune_pool(
    num_datasets: int = 8,
    samples_per_dataset: int = 120,
    seed: int = 0,
) -> dict[str, NestedDataset]:
    """Build a pool of tagged synthetic fine-tuning datasets.

    The pool alternates language (EN/ZH), usage (IFT/CFT) and quality so the
    tag filters and the diversity sampler have real signal to work with.
    """
    pool: dict[str, NestedDataset] = {}
    for index in range(num_datasets):
        language = "zh" if index % 3 == 2 else "en"
        usage = "IFT" if index % 2 == 0 else "CFT"
        # alternate between noisier crowd-sourced-style and cleaner curated-style
        # datasets so tag filtering + refinement has real signal to exploit
        quality = 0.55 if index % 4 < 2 else 0.85
        name = f"{usage.lower()}_{language}_{index:02d}"
        pool[name] = instruction_dataset(
            num_samples=samples_per_dataset,
            seed=seed + index * 37,
            language=language,
            usage=usage,
            quality=quality,
            name=name,
        )
    return pool


def random_finetune_dataset(
    pool: dict[str, NestedDataset], num_samples: int, seed: int = 0
) -> NestedDataset:
    """The trivial baseline of Table 3: uniform random sampling from the pool."""
    merged = concatenate_datasets(list(pool.values()))
    return merged.shuffle(seed=seed).take(num_samples)


def data_juicer_finetune_dataset(
    pool: dict[str, NestedDataset],
    num_samples: int,
    language: str = "EN",
    usage: str = "CFT",
    seed: int = 0,
) -> NestedDataset:
    """The Data-Juicer construction of Table 3.

    Tag-filter the pool, refine it with the built-in fine-tuning recipe and
    sample for verb–noun diversity down to the requested size.
    """
    merged = concatenate_datasets(list(pool.values()))
    recipe_name = "finetune-cft-zh-refine" if language.upper() == "ZH" else "finetune-cft-en-refine"
    recipe = get_recipe(recipe_name)
    # restrict to the requested usage tag on top of the language tag filter
    recipe["process"].insert(
        0, {"specified_field_filter": {"field_key": "meta.usage", "target_values": [usage]}}
    )
    refined = run_recipe(recipe, merged)
    if len(refined) <= num_samples:
        return refined
    return DiversitySampler(seed=seed).sample(refined, num_samples)
