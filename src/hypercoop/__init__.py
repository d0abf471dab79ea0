"""Exact cooperative game theory on hypergraph communication structures.

Zero-normalized TU-games restricted by hypergraphs, the Myerson and
position values, uniform hyperlink expansions and the agent form, and
exact checkers for the axioms and identities tying them together.
All arithmetic is `fractions.Fraction`; nothing returns a float.
"""

from .axioms import (
    check_balanced_conference_contributions,
    check_balanced_link_contributions,
    check_component_efficiency,
    check_copy_deletions,
    check_partial_balanced_conference_contributions,
    value_from_axioms,
)
from .connectivity import components
from .expansion import (
    agent_form_payoffs,
    copy_counts,
    group_copies,
    grouped_position,
    uniform_payoffs,
)
from .model import (
    CharacteristicFunction,
    HypergraphGame,
    eta,
    make_hypergraph,
    table_function,
    unanimity,
    weighted_unanimity,
    zero_allocation,
)
from .shapley import CapExceeded, DEFAULT_SUBSET_CAP, shapley_of_table
from .solutions import (
    myerson_value,
    position_value,
    position_values_without,
    shapley_value,
)

__version__ = "0.1.0"

__all__ = [
    "CapExceeded",
    "CharacteristicFunction",
    "DEFAULT_SUBSET_CAP",
    "HypergraphGame",
    "agent_form_payoffs",
    "check_balanced_conference_contributions",
    "check_balanced_link_contributions",
    "check_component_efficiency",
    "check_copy_deletions",
    "check_partial_balanced_conference_contributions",
    "components",
    "copy_counts",
    "eta",
    "group_copies",
    "grouped_position",
    "make_hypergraph",
    "myerson_value",
    "position_value",
    "position_values_without",
    "shapley_of_table",
    "shapley_value",
    "table_function",
    "unanimity",
    "uniform_payoffs",
    "value_from_axioms",
    "weighted_unanimity",
    "zero_allocation",
]
