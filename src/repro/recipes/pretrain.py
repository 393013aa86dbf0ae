"""Pre-training mixture recipes (Table 7 of the paper, scaled to the simulator).

The paper's refined pre-training recipe mixes 15 components (CommonCrawl, C4,
GitHub, Books, Wikipedia, arXiv, ...) with specific sampling proportions and
extra epochs on the high-quality components.  This module records those
proportions, builds a scaled-down synthetic counterpart of the mixture, and
assembles the three corpora compared in Figure 7:

* ``redpajama``        — RedPajama-like components, unrefined;
* ``redpajama_pile``   — RedPajama + Pile-like components, unrefined;
* ``data_juicer``      — the same union, each component refined by its own
  built-in recipe before the mix (as the paper's Table 7 recipe does).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dataset import NestedDataset, dataset_token_count
from repro.formats.mixture_formatter import mix_datasets
from repro.recipes.registry import get_recipe, run_recipe
from repro.synth import corpora

#: Table 7 — component token counts (paper values, in tokens) and sampling
#: proportions of the Data-Juicer pre-training recipe.
PRETRAIN_COMPONENTS: dict[str, dict] = {
    "CommonCrawl": {"tokens": 360_925_581_674, "proportion": 0.4491, "epochs": 1.0},
    "C4": {"tokens": 181_951_688_729, "proportion": 0.2264, "epochs": 1.0},
    "GitHub": {"tokens": 65_076_921_292, "proportion": 0.0810, "epochs": 1.0},
    "Books": {"tokens": 26_389_944_579, "proportion": 0.0657, "epochs": 2.0},
    "Wikipedia": {"tokens": 17_615_935_449, "proportion": 0.0548, "epochs": 2.5},
    "arXiv": {"tokens": 29_093_082_586, "proportion": 0.0362, "epochs": 1.0},
    "PubMed Central": {"tokens": 25_589_708_647, "proportion": 0.0318, "epochs": 1.0},
    "StackExchange": {"tokens": 19_793_629_900, "proportion": 0.0246, "epochs": 1.0},
    "FreeLaw": {"tokens": 13_057_506_102, "proportion": 0.0162, "epochs": 1.0},
    "PubMed Abstracts": {"tokens": 5_208_343_613, "proportion": 0.0065, "epochs": 1.0},
    "USPTO": {"tokens": 4_021_281_155, "proportion": 0.0050, "epochs": 1.0},
    "EuroParl": {"tokens": 780_962_770, "proportion": 0.0010, "epochs": 1.0},
    "HackerNews": {"tokens": 485_584_871, "proportion": 0.0006, "epochs": 1.0},
    "PhilPapers": {"tokens": 478_040_431, "proportion": 0.0006, "epochs": 1.0},
    "NIH ExPorter": {"tokens": 436_414_852, "proportion": 0.0005, "epochs": 1.0},
}

#: mapping of the paper's components onto the synthetic corpus builders and
#: the built-in recipe that refines each one
_COMPONENT_BUILDERS = {
    "CommonCrawl": ("common_crawl", "pretrain-common-crawl-refine-en"),
    "C4": ("c4", "pretrain-c4-refine-en"),
    "GitHub": ("github", "pretrain-code-refine"),
    "Books": ("books", "pretrain-books-refine-en"),
    "Wikipedia": ("wikipedia", "pretrain-wikipedia-refine-en"),
    "arXiv": ("arxiv", "pretrain-arxiv-refine-en"),
    "StackExchange": ("stackexchange", "pretrain-stackexchange-refine-en"),
}


@dataclass
class MixtureStats:
    """Per-component statistics of an assembled mixture (the Table 7 rows)."""

    component: str
    num_samples: int
    num_tokens: int
    sampling_proportion: float

    def as_dict(self) -> dict:
        """Plain-dict view for the Table 7 benchmark."""
        return {
            "component": self.component,
            "num_samples": self.num_samples,
            "num_tokens": self.num_tokens,
            "sampling_proportion": self.sampling_proportion,
        }


def paper_table7_rows() -> list[dict]:
    """The paper's Table 7 rows (component, tokens, sampling proportion)."""
    return [
        {"component": name, "tokens": spec["tokens"], "proportion": spec["proportion"]}
        for name, spec in PRETRAIN_COMPONENTS.items()
    ]


def build_component_datasets(samples_per_component: int = 80, seed: int = 0) -> dict[str, NestedDataset]:
    """Build a synthetic counterpart of every mapped component."""
    datasets: dict[str, NestedDataset] = {}
    for index, (component, (builder, _)) in enumerate(_COMPONENT_BUILDERS.items()):
        datasets[component] = corpora.make_corpus(
            builder, num_samples=samples_per_component, seed=seed + index * 101
        )
    return datasets


def build_pretrain_mixture(
    samples_per_component: int = 80,
    seed: int = 0,
    include_pile_like: bool = True,
    refined: bool = False,
) -> NestedDataset:
    """Assemble one of the three Figure 7 corpora.

    ``include_pile_like=False`` models the RedPajama-only corpus (without
    StackExchange); ``refined=True`` first refines each component with the
    built-in recipe named for it, then mixes the results with the same
    weights and seed.
    """
    datasets = build_component_datasets(samples_per_component, seed)
    if not include_pile_like:
        del datasets["StackExchange"]
    if refined:
        datasets = {
            name: run_recipe(get_recipe(_COMPONENT_BUILDERS[name][1]), dataset)
            for name, dataset in datasets.items()
        }
    weights = {
        name: PRETRAIN_COMPONENTS[name]["proportion"] * PRETRAIN_COMPONENTS[name]["epochs"]
        for name in datasets
    }
    return mix_datasets(datasets, weights, seed=seed)


def mixture_stats(mixture: NestedDataset) -> list[MixtureStats]:
    """Per-component sample/token statistics of an assembled mixture."""
    from collections import defaultdict

    from repro.core.sample import Fields

    groups: dict[str, list[dict]] = defaultdict(list)
    for row in mixture:
        source = row.get(Fields.source) or (row.get(Fields.meta) or {}).get("source") or "unknown"
        groups[str(source)].append(row)
    total_tokens = dataset_token_count(mixture) or 1
    stats = []
    for component, rows in sorted(groups.items(), key=lambda item: -len(item[1])):
        tokens = sum(len(str(row.get(Fields.text, "")).split()) for row in rows)
        stats.append(
            MixtureStats(
                component=component,
                num_samples=len(rows),
                num_tokens=tokens,
                sampling_proportion=tokens / total_tokens,
            )
        )
    return stats
