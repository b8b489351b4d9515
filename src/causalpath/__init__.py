"""Causal discovery for tabular survey data.

Reads and cleans survey CSV files, estimates Pearson or polychoric
correlations, and learns causal graphs with PC, FCI, FGES and DirectLiNGAM
under domain knowledge (tiers, forbidden and required edges). Graphs are
`MixedGraph` objects with endpoint marks, covering DAGs, CPDAGs and PAGs.
Fitting path models to the graphs and selecting among them is not part of
the package yet.
"""

from .graph import (
    ARROW,
    CIRCLE,
    TAIL,
    BackgroundKnowledge,
    GraphError,
    MixedGraph,
    NoExtensionError,
    apply_meek_rules,
    consistent_extension,
    cpdag_of,
    is_dag,
    structural_hamming_distance,
)

__version__ = "0.1.0"

__all__ = [
    "ARROW",
    "CIRCLE",
    "TAIL",
    "BackgroundKnowledge",
    "GraphError",
    "MixedGraph",
    "NoExtensionError",
    "apply_meek_rules",
    "consistent_extension",
    "cpdag_of",
    "is_dag",
    "structural_hamming_distance",
    "__version__",
]
