"""Bad: the data path swallows failures the error policy should see."""

from repro.core.base_op import Mapper
from repro.core.registry import OPERATORS


@OPERATORS.register_module("bad_exception_hygiene")
class BadExceptionHygieneMapper(Mapper):
    """Hides poison rows from retry/quarantine instead of letting them fail."""

    def process(self, sample: dict) -> dict:
        try:
            sample = self.set_text(sample, self.get_text(sample).upper())
        except:  # line 14: exception-hygiene (bare except)
            pass
        return sample

    def process_batched(self, samples: dict) -> dict:
        for index, text in enumerate(texts := list(samples[self.text_key])):
            try:
                texts[index] = text.upper()
            except Exception:  # line 22: exception-hygiene (swallowed)
                pass
        samples[self.text_key] = texts
        return samples
