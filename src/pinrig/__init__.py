"""Combinatorial rigidity analysis of pinned bar-and-joint graphs."""

from .canon import canonical_code, canonical_form
from .errors import (CertificateError, ConditioningWarning, GraphError,
                     NotIsostaticError, PinrigError, PinrigWarning,
                     SizeLimitError)
from .graphs import (Multigraph, PinnedGraph, complete_graph, compose,
                     contract_pins, split_contracted_vertex)

__version__ = "0.1.0"

__all__ = [
    "Multigraph",
    "PinnedGraph",
    "complete_graph",
    "compose",
    "contract_pins",
    "split_contracted_vertex",
    "canonical_code",
    "canonical_form",
    "PinrigError",
    "GraphError",
    "SizeLimitError",
    "NotIsostaticError",
    "CertificateError",
    "PinrigWarning",
    "ConditioningWarning",
]
