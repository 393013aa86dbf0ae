"""Built-in data recipes (Sec. 5.1): ready-to-use process lists for common scenarios.

The original system ships 20+ recipes for pre-training and fine-tuning data in
English and Chinese.  The same catalogue is reproduced here as plain recipe
dictionaries that :func:`repro.load_config` accepts directly; users refine them
by the "subtraction" (edit a full recipe) or "addition" (start from scratch)
methodology the paper describes.
"""

from __future__ import annotations

import copy
import tempfile

from repro.core.dataset import NestedDataset
from repro.core.errors import RegistryError
from repro.core.executor import Executor
from repro.core.registry import unknown_name_message

# ----------------------------------------------------------------------
# Reusable process fragments
# ----------------------------------------------------------------------
_COMMON_CLEANING: list = [
    {"fix_unicode_mapper": {}},
    {"whitespace_normalization_mapper": {}},
    {"punctuation_normalization_mapper": {}},
    {"remove_non_printable_mapper": {}},
]

_WEB_FILTERING: list = [
    {"clean_html_mapper": {}},
    {"clean_links_mapper": {}},
    {"clean_email_mapper": {}},
    {"clean_ip_mapper": {}},
    {"language_id_score_filter": {"lang": "en", "min_score": 0.2}},
    {"special_characters_filter": {"max_ratio": 0.4}},
    {"character_repetition_filter": {"rep_len": 10, "max_ratio": 0.5}},
    {"word_repetition_filter": {"rep_len": 5, "max_ratio": 0.4}},
    {"flagged_words_filter": {"max_ratio": 0.01}},
    {"stopwords_filter": {"min_ratio": 0.2}},
    {"words_num_filter": {"min_num": 20}},
    {"text_length_filter": {"min_len": 100}},
]

_DEDUP: list = [
    {"document_deduplicator": {"lowercase": True}},
    {"document_minhash_deduplicator": {"jaccard_threshold": 0.8}},
]


def _recipe(name: str, process: list, **overrides) -> dict:
    payload = {
        "project_name": name,
        "process": copy.deepcopy(process),
        "op_fusion": True,
    }
    payload.update(overrides)
    return payload


# ----------------------------------------------------------------------
# The built-in recipe catalogue
# ----------------------------------------------------------------------
BUILT_IN_RECIPES: dict[str, dict] = {
    # --- pre-training refinement recipes (one per major component) ---
    "pretrain-common-crawl-refine-en": _recipe(
        "pretrain-common-crawl-refine-en", _COMMON_CLEANING + _WEB_FILTERING + _DEDUP
    ),
    "pretrain-c4-refine-en": _recipe(
        "pretrain-c4-refine-en",
        _COMMON_CLEANING
        + [
            {"clean_links_mapper": {}},
            {"special_characters_filter": {"max_ratio": 0.3}},
            {"word_repetition_filter": {"rep_len": 10, "max_ratio": 0.3}},
            {"words_num_filter": {"min_num": 30}},
        ]
        + _DEDUP,
    ),
    "pretrain-wikipedia-refine-en": _recipe(
        "pretrain-wikipedia-refine-en",
        _COMMON_CLEANING
        + [
            {"text_length_filter": {"min_len": 200}},
            {"sentence_num_filter": {"min_num": 3}},
            {"document_deduplicator": {}},
        ],
    ),
    "pretrain-books-refine-en": _recipe(
        "pretrain-books-refine-en",
        _COMMON_CLEANING
        + [
            {"words_num_filter": {"min_num": 100}},
            {"average_line_length_filter": {"min_len": 20}},
            {"document_simhash_deduplicator": {}},
        ],
    ),
    "pretrain-arxiv-refine-en": _recipe(
        "pretrain-arxiv-refine-en",
        [
            {"remove_header_mapper": {}},
            {"remove_comments_mapper": {}},
            {"expand_macro_mapper": {}},
            {"remove_bibliography_mapper": {}},
        ]
        + _COMMON_CLEANING
        + [
            {"text_length_filter": {"min_len": 200}},
            {"document_deduplicator": {}},
        ],
    ),
    "pretrain-code-refine": _recipe(
        "pretrain-code-refine",
        [
            {"clean_copyright_mapper": {}},
            {"remove_non_printable_mapper": {}},
            {"maximum_line_length_filter": {"max_len": 400}},
            {"average_line_length_filter": {"min_len": 5, "max_len": 200}},
            {"alphanumeric_filter": {"min_ratio": 0.3}},
            {"specified_numeric_field_filter": {"field_key": "meta.stars", "min_value": 10}},
            {"document_deduplicator": {}},
        ],
    ),
    "pretrain-stackexchange-refine-en": _recipe(
        "pretrain-stackexchange-refine-en",
        _COMMON_CLEANING
        + [
            {"clean_links_mapper": {}},
            {"words_num_filter": {"min_num": 15}},
            {"document_deduplicator": {"lowercase": True}},
        ],
    ),
    "pretrain-chinese-web-refine-zh": _recipe(
        "pretrain-chinese-web-refine-zh",
        [
            {"nfkc_normalization_mapper": {}},
            {"whitespace_normalization_mapper": {}},
            {"clean_links_mapper": {}},
            {"clean_email_mapper": {}},
            {"language_id_score_filter": {"lang": "zh", "min_score": 0.2}},
            {"text_length_filter": {"min_len": 20}},
            {"document_deduplicator": {}},
        ],
    ),
    # --- fine-tuning recipes ---
    "finetune-ift-en-refine": _recipe(
        "finetune-ift-en-refine",
        _COMMON_CLEANING
        + [
            {"words_num_filter": {"min_num": 5}},
            {"text_action_filter": {"min_action_num": 1}},
            {"word_repetition_filter": {"rep_len": 5, "max_ratio": 0.5}},
            {"flagged_words_filter": {"max_ratio": 0.0}},
            {"document_deduplicator": {"lowercase": True}},
        ],
    ),
    "finetune-cft-en-refine": _recipe(
        "finetune-cft-en-refine",
        _COMMON_CLEANING
        + [
            {"clean_links_mapper": {}},
            {"specified_field_filter": {"field_key": "meta.language", "target_values": ["EN"]}},
            {"words_num_filter": {"min_num": 8}},
            {"text_action_filter": {"min_action_num": 1}},
            {"word_repetition_filter": {"rep_len": 3, "max_ratio": 0.4}},
            {"flagged_words_filter": {"max_ratio": 0.0}},
            {"document_deduplicator": {"lowercase": True}},
        ],
    ),
    "finetune-cft-zh-refine": _recipe(
        "finetune-cft-zh-refine",
        [
            {"nfkc_normalization_mapper": {}},
            {"whitespace_normalization_mapper": {}},
            {"clean_links_mapper": {}},
            {"specified_field_filter": {"field_key": "meta.language", "target_values": ["ZH"]}},
            {"text_length_filter": {"min_len": 10}},
            {"character_repetition_filter": {"rep_len": 5, "max_ratio": 0.6}},
            {"flagged_words_filter": {"lang": "all", "max_ratio": 0.0}},
            {"document_deduplicator": {}},
        ],
    ),
    "finetune-preference-en-refine": _recipe(
        "finetune-preference-en-refine",
        _COMMON_CLEANING
        + [
            {"specified_field_filter": {"field_key": "meta.usage", "target_values": ["CFT"]}},
            {"words_num_filter": {"min_num": 10}},
            {"document_deduplicator": {"lowercase": True}},
        ],
    ),
    # --- domain recipes mirroring the real-world deployments of Sec. 7.3 ---
    "domain-financial-refine": _recipe(
        "domain-financial-refine",
        _COMMON_CLEANING
        + [
            {"digit_ratio_filter": {"max_ratio": 0.6}},
            {"words_num_filter": {"min_num": 30}},
            {"document_deduplicator": {}},
        ],
    ),
    "domain-reading-assistant-refine": _recipe(
        "domain-reading-assistant-refine",
        _COMMON_CLEANING
        + [
            {"text_length_filter": {"min_len": 500}},
            {"sentence_num_filter": {"min_num": 5}},
            {"word_repetition_filter": {"rep_len": 10, "max_ratio": 0.3}},
            {"document_simhash_deduplicator": {}},
        ],
    ),
    "domain-character-dialog-refine": _recipe(
        "domain-character-dialog-refine",
        _COMMON_CLEANING
        + [
            {"sentence_num_filter": {"min_num": 2}},
            {"text_action_filter": {"min_action_num": 1}},
            {"document_deduplicator": {"lowercase": True}},
        ],
    ),
    # --- analysis-only and utility recipes ---
    "analysis-default": _recipe(
        "analysis-default",
        [
            {"alphanumeric_filter": {"min_ratio": 0.0}},
            {"special_characters_filter": {"max_ratio": 1.0}},
            {"text_length_filter": {"min_len": 0}},
            {"words_num_filter": {"min_num": 0}},
        ],
        op_fusion=False,
    ),
    "dedup-only-exact": _recipe("dedup-only-exact", [{"document_deduplicator": {}}], op_fusion=False),
    "dedup-only-fuzzy": _recipe(
        "dedup-only-fuzzy", [{"document_minhash_deduplicator": {}}], op_fusion=False
    ),
    "anonymize-only": _recipe(
        "anonymize-only",
        [{"clean_email_mapper": {}}, {"clean_ip_mapper": {}}, {"clean_links_mapper": {}}],
        op_fusion=False,
    ),
    "latex-clean-only": _recipe(
        "latex-clean-only",
        [
            {"remove_header_mapper": {}},
            {"remove_comments_mapper": {}},
            {"expand_macro_mapper": {}},
            {"remove_bibliography_mapper": {}},
        ],
        op_fusion=False,
    ),
    "code-clean-only": _recipe(
        "code-clean-only",
        [{"clean_copyright_mapper": {}}, {"remove_non_printable_mapper": {}}],
        op_fusion=False,
    ),
    # --- out-of-core variant: the Common-Crawl refinement in streaming mode,
    # sized so one shard stays a few MB of text regardless of corpus scale ---
    "pretrain-common-crawl-stream-en": _recipe(
        "pretrain-common-crawl-stream-en",
        _COMMON_CLEANING + _WEB_FILTERING + _DEDUP,
        stream=True,
        max_shard_rows=4096,
        max_shard_chars=4_000_000,
    ),
}


def list_recipes() -> list[str]:
    """Names of all built-in recipes."""
    return sorted(BUILT_IN_RECIPES)


def get_recipe(name: str) -> dict:
    """Return a deep copy of a built-in recipe (safe to modify).

    Unknown names raise :class:`RegistryError` with "did you mean"
    close-match suggestions, like every other registry lookup.
    """
    if name not in BUILT_IN_RECIPES:
        raise RegistryError(unknown_name_message("recipe name", name, BUILT_IN_RECIPES))
    return copy.deepcopy(BUILT_IN_RECIPES[name])


def run_recipe(recipe: dict, dataset: NestedDataset) -> NestedDataset:
    """Run a recipe over an in-memory dataset and return the refined dataset.

    The run's work directory (its ``report.json``, any trace) is a temporary
    one, so nothing is written to the caller's working directory.
    """
    with tempfile.TemporaryDirectory() as work_dir, Executor({**recipe, "work_dir": work_dir}) as executor:
        return executor.run(dataset)
