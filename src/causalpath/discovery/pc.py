"""PC-stable: constraint-based search for a CPDAG.

Skeleton deletions within each depth level consult the level-start adjacency
sets, so the output does not depend on variable order. Collider orientation
uses the recorded separating sets, followed by Meek closure. Background
knowledge is enforced at the orientation stage; conflicting orientations are
skipped and reported in the run record.
"""
from __future__ import annotations

import time

from ..graph import _bk, apply_meek_rules
from .common import (
    DiscoveryConfig,
    as_citester,
    finish_record,
    orient_by_knowledge,
    orient_colliders,
    stable_skeleton,
)


def pc(source, cfg=None, bk=None, record=None):
    """Run PC-stable on a correlation matrix, dataset, or CI tester.

    Returns a CPDAG over the tester's variables (lexicographic node order).
    """
    cfg = cfg or DiscoveryConfig()
    bk = _bk(bk)
    started = time.perf_counter()
    tester = as_citester(source, cfg)

    g, sepsets = stable_skeleton(tester, cfg, bk)
    conflicts = []
    orient_by_knowledge(g, bk, conflicts)
    orient_colliders(g, sepsets, bk, conflicts)
    g = apply_meek_rules(g, bk, conflicts)

    finish_record(record, "pc", cfg, bk, g, started,
                  ci_tests=getattr(tester, "calls", None),
                  conflicts=conflicts,
                  sepsets={",".join(sorted(k)): sorted(v) for k, v in sepsets.items()})
    return g
