"""Reference models: evaluated checkpoints bound to traceable training recipes.

The paper's *reference models* are checkpoints whose training data, parameters
and evaluation results are recorded so that new data recipes can be compared
against them (the data leaderboard of Figure 5).  The registry here stores the
same association for proxy models.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.tools.evaluator.harness import EvaluationReport


@dataclass
class ReferenceModel:
    """One registered reference model."""

    name: str
    training_data: str
    num_tokens: int
    perplexity: float
    perplexities: dict[str, float] = field(default_factory=dict)
    recipe: dict = field(default_factory=dict)
    notes: str = ""

    def as_dict(self) -> dict:
        """Plain-dict view for tables and exports."""
        return {
            "name": self.name,
            "training_data": self.training_data,
            "num_tokens": self.num_tokens,
            "perplexity": self.perplexity,
            "perplexities": dict(self.perplexities),
            "notes": self.notes,
        }


class ReferenceModelRegistry:
    """In-memory registry of reference models, queryable and rankable."""

    def __init__(self):
        self._models: dict[str, ReferenceModel] = {}

    def register(self, model: ReferenceModel, overwrite: bool = False) -> ReferenceModel:
        """Add a reference model; refuses to silently overwrite unless asked."""
        if model.name in self._models and not overwrite:
            raise ValueError(f"reference model {model.name!r} already registered")
        self._models[model.name] = model
        return model

    def register_report(
        self,
        report: EvaluationReport,
        training_data: str,
        num_tokens: int,
        recipe: dict | None = None,
        notes: str = "",
    ) -> ReferenceModel:
        """Register straight from an :class:`EvaluationReport`."""
        model = ReferenceModel(
            name=report.model_name,
            training_data=training_data,
            num_tokens=num_tokens,
            perplexity=report.perplexity,
            perplexities=dict(report.perplexities),
            recipe=dict(recipe or {}),
            notes=notes,
        )
        return self.register(model, overwrite=True)

    def get(self, name: str) -> ReferenceModel:
        """Look up a reference model by name."""
        if name not in self._models:
            raise KeyError(f"unknown reference model {name!r}")
        return self._models[name]

    def __len__(self) -> int:
        return len(self._models)

    def __contains__(self, name: str) -> bool:
        return name in self._models

    def all(self) -> list[ReferenceModel]:
        """All registered models, best (lowest) held-out perplexity first."""
        return sorted(self._models.values(), key=lambda model: model.perplexity)

    def comparison_table(self) -> list[dict]:
        """Rows of (model, data, tokens, perplexity) — the Table 2-style comparison."""
        return [model.as_dict() for model in self.all()]
