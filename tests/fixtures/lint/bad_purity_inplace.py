"""Bad: edits values read out of the input row or batch in place."""

from repro.core.base_op import Mapper
from repro.core.registry import OPERATORS


@OPERATORS.register_module("bad_purity_inplace")
class BadPurityInplaceMapper(Mapper):
    """Tags every sample by editing its meta dict and its text column in place."""

    def process(self, sample: dict) -> dict:
        sample["meta"]["seen"] = True  # line 12
        tags = sample.get("meta", {}).get("tags", [])
        tags.append("seen")  # line 14
        del sample["meta"]["draft"]  # line 15
        sample["meta"]["count"] += 1  # line 16
        return sample

    def process_batched(self, samples: dict) -> dict:
        texts = samples["text"]
        texts[0] = texts[0].upper()  # line 21
        for meta in samples["meta"]:
            meta.update(seen=True)  # line 23
        samples["text"] += []  # line 24
        return samples
