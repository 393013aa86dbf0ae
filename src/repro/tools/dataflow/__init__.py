"""``repro dataflow``: static whole-pipeline verification for recipes.

PR 6's ``repro lint`` proves *single-op* contracts from the AST; this package
lifts the same machinery to whole recipes.  :mod:`~repro.tools.dataflow.effects`
infers a versioned :class:`EffectSignature` per operator (fields read/written/
removed, context keys, row effect) and
:mod:`~repro.tools.dataflow.checker` symbolically executes a recipe over an
abstract field-set lattice, reporting undefined reads, dead writes, order
hazards, fusion-unsafe adjacencies and ops the global step cannot run — with
did-you-mean suggestions and exact step indices, before a single row is read.

Entry points: ``repro dataflow`` / ``repro lint --recipes`` on the CLI,
``validate-recipe`` (schema + dataflow in one report),
:meth:`repro.api.pipeline.Pipeline.plan` and the
:class:`repro.core.executor.Executor` pre-flight (warn by default,
``strict_dataflow: true`` to fail).  See ``docs/dataflow.md``.
"""

from repro.tools.dataflow.checker import (
    DATAFLOW_RULES,
    DataflowFinding,
    DataflowResult,
    check_recipe,
    check_steps,
    dataflow_rule_ids,
)
from repro.tools.dataflow.effects import (
    EFFECT_SIGNATURE_VERSION,
    EffectSignature,
    ResolvedEffects,
    catalog_as_dict,
    effect_catalog,
    effect_signature,
    extract_effects_from_path,
    extract_signature,
)
from repro.tools.dataflow.reporters import (
    render_json,
    render_json_many,
    render_rule_catalog,
    render_text,
    result_payload,
)

__all__ = [
    "DATAFLOW_RULES",
    "DataflowFinding",
    "DataflowResult",
    "EFFECT_SIGNATURE_VERSION",
    "EffectSignature",
    "ResolvedEffects",
    "catalog_as_dict",
    "check_recipe",
    "check_steps",
    "dataflow_rule_ids",
    "effect_catalog",
    "effect_signature",
    "extract_effects_from_path",
    "extract_signature",
    "render_json",
    "render_json_many",
    "render_rule_catalog",
    "render_text",
    "result_payload",
]
