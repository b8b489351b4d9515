"""The four structure-learning algorithms with background-knowledge support."""

from .common import DiscoveryConfig, DiscoveryError, as_citester, as_scorer
from .fci import fci
from .fges import fges
from .lingam import direct_lingam
from .pc import pc

__all__ = [
    "DiscoveryConfig",
    "DiscoveryError",
    "as_citester",
    "as_scorer",
    "direct_lingam",
    "fci",
    "fges",
    "pc",
]
