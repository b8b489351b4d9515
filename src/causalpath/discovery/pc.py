"""PC-stable: constraint-based search for a CPDAG.

Skeleton deletions within each depth level consult the level-start adjacency
sets, so the output does not depend on variable order. Orientation is
`close_pattern`, the rule FGES uses too: background knowledge first, then the
colliders the recorded separating sets imply, then Meek closure. Conflicting
orientations are skipped and reported in the run record.
"""
from __future__ import annotations

import time

from ..graph import _bk, close_pattern
from .common import (DiscoveryConfig, as_citester, ci_counters, collider_triples,
                     finish_record, stable_skeleton)


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
    g = close_pattern(g, collider_triples(g, sepsets), bk, conflicts)

    finish_record(record, "pc", cfg, bk, g, started, sepsets,
                  **ci_counters(tester),
                  conflicts=conflicts)
    return g
