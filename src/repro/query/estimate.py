"""Sampling-based cardinality estimation for structural joins.

This module estimates, without running the join, (a) the number of output
pairs and (b) the fraction of descendants with a match, by joining a
systematic sample of the descendant side against the full ancestor side's
*top-level region index* — an O(|sample| · log |A|) probe using the same
containment sweep the workload analyses use.

:meth:`repro.query.engine.PathQueryEngine.explain` prints the estimate
beside each join ("est ~" under ``analyze=True``).
"""

from dataclasses import dataclass

from repro.workloads.selectivity import ancestor_chains


@dataclass(frozen=True)
class JoinEstimate:
    """Estimated outcome of one structural join."""

    pairs: float                 # expected output pairs
    descendant_fraction: float   # expected fraction of D with >= 1 match


def estimate_join(ancestors, descendants, sample_size=256,
                  parent_child=False):
    """Estimate the join between two start-sorted element lists.

    A systematic sample of descendants is fully resolved against the
    ancestor list (chain lookup via one sweep); pair counts and the
    matched-descendant fraction extrapolate directly.
    """
    if not ancestors or not descendants:
        return JoinEstimate(0.0, 0.0)
    step = max(1, len(descendants) // sample_size)
    sample = descendants[::step]
    chains = ancestor_chains(ancestors, sample)
    if parent_child:
        chains = _parent_only(ancestors, sample, chains)
    matched = sum(1 for chain in chains if chain)
    pair_rate = sum(len(chain) for chain in chains) / len(sample)
    return JoinEstimate(
        pairs=pair_rate * len(descendants),
        descendant_fraction=matched / len(sample),
    )


def _parent_only(ancestors, sample, chains):
    out = []
    for descendant, chain in zip(sample, chains):
        out.append(tuple(
            index for index in chain
            if ancestors[index].level == descendant.level - 1
        ))
    return out


def true_join_size(ancestors, descendants, parent_child=False):
    """Exact pair count via one containment sweep (testing reference)."""
    chains = ancestor_chains(ancestors, descendants)
    if parent_child:
        chains = _parent_only(ancestors, descendants, chains)
    return sum(len(chain) for chain in chains)
