"""Clean: new keys on the row or batch dict, and a filter's own stats dict."""

from repro.core.base_op import Filter
from repro.core.batch import get_text_column, read_stat, write_stat
from repro.core.registry import OPERATORS
from repro.core.sample import ensure_stats


@OPERATORS.register_module("clean_purity_inplace")
class CleanPurityInplaceFilter(Filter):
    """Keeps samples at least ``min_len`` characters long, tagging a copy of meta."""

    PARAM_SPECS = {"min_len": {"min_value": 0, "doc": "minimum text length"}}

    def __init__(self, min_len: int = 10, **kwargs):
        super().__init__(**kwargs)
        self.min_len = min_len

    def compute_stats(self, sample: dict, context: bool = False) -> dict:
        # the per-row shim hands over the row's stats folded into a fresh dict
        sample.setdefault("__stats__", {})["text_len"] = len(self.get_text(sample))
        ensure_stats(sample)["seen"] = 1
        meta = dict(sample.get("meta") or {})
        meta["seen"] = True
        sample["source"] = sample["meta"]  # binds a key of the row, not a held name
        sample["meta"] = meta
        return sample

    def compute_stats_batched(self, samples: dict, context: dict | None = None) -> dict:
        texts = get_text_column(samples, self.text_key)
        samples["tags"] = [[] for _ in texts]
        return write_stat(samples, "text_len", lambda: list(map(len, texts)))

    def process(self, sample: dict) -> bool:
        return sample["__stats__"]["text_len"] >= self.min_len

    def process_batched(self, samples: dict) -> list[bool]:
        return [value >= self.min_len for value in read_stat(samples, "text_len", 0)]
