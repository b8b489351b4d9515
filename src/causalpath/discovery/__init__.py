"""The four structure-learning algorithms with background-knowledge support:
`constraint` (PC and FCI), `ges` (FGES) and `lingam` (DirectLiNGAM), with
configuration, input normalization and run records in `common`. No module
shares a name with a function exported here, so `causalpath.discovery.fges`
is always the function.
"""

from .common import DiscoveryConfig, DiscoveryError, as_citester, as_scorer
from .constraint import fci, pc
from .ges import fges
from .lingam import direct_lingam

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
