"""The identity-recipe mutation: every asserted quality claim rests on the refine recipes.

A quality benchmark (Fig. 7, Tables 2, 3 and 9) asserts a claim only when it
shows what refining does.  Here the ``process`` of every built-in recipe whose
name contains ``refine`` is replaced by ``[]`` (an identity recipe), each of
those benchmarks is reproduced, and every claim it lists as asserted must then
read False.  Under the same mutation the refined pre-training mixture is the
raw mixture, row for row.
"""

import pytest
import test_fig7_pretrain_curve as fig7
import test_table2_pretrain_scores as table2
import test_table3_finetune_winrate as table3
import test_table9_per_task as table9
from conftest import report_claims

from repro.recipes import BUILT_IN_RECIPES, build_pretrain_mixture

BENCHMARKS = {
    "Figure 7": (fig7.reproduce_figure7, fig7.figure7_claims, fig7.ASSERTED_CLAIMS),
    "Table 2": (table2.reproduce_table2, table2.table2_claims, table2.ASSERTED_CLAIMS),
    "Table 3": (table3.reproduce_table3, table3.table3_claims, table3.ASSERTED_CLAIMS),
    "Table 9": (table9.reproduce_table9, table9.table9_claims, table9.ASSERTED_CLAIMS),
}


@pytest.fixture
def identity_refine_recipes(monkeypatch):
    for name, recipe in BUILT_IN_RECIPES.items():
        if "refine" in name:
            monkeypatch.setitem(recipe, "process", [])


@pytest.mark.parametrize("title", list(BENCHMARKS))
def test_every_asserted_claim_fails_under_identity_recipes(identity_refine_recipes, title):
    reproduce, claims_of, asserted = BENCHMARKS[title]
    claims = claims_of(reproduce())
    report_claims(f"{title} under identity refine recipes", claims)
    assert asserted
    assert not any(claims[claim] for claim in asserted), {claim: claims[claim] for claim in asserted}


def test_identity_refined_mixture_is_the_raw_mixture(identity_refine_recipes):
    refined = build_pretrain_mixture(samples_per_component=fig7.SAMPLES_PER_COMPONENT, refined=True)
    raw = build_pretrain_mixture(samples_per_component=fig7.SAMPLES_PER_COMPONENT)
    assert refined.to_list() == raw.to_list()
