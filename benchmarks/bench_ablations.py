"""Design ablations called out by DESIGN.md.

* split-key optimization on/off (Section 3.2's "79 instead of 80" choice);
* buffer-pool size sweep (Section 6.1: "we ran all the algorithms with
  varying buffer pool sizes and found that their performance was not
  essentially affected");
* MPMGJN as an extra merge baseline (Section 2.2's criticism made
  measurable).
"""

from repro.bench.studies import ablation_buffer_sizes, ablation_split_keys
from repro.core.api import structural_join
from repro.workloads.datasets import department_dataset


def test_split_key_optimization(benchmark):
    cells = benchmark.pedantic(
        lambda: ablation_split_keys(target_elements=5000, page_size=2048),
        rounds=1, iterations=1,
    )
    print("\n=== Ablation: split-key optimization ===")
    for cell in cells:
        print("%-16s stabbed elements: %d"
              % (cell.setting, cell.stabbed_elements))
    optimized = next(c for c in cells if "True" in c.setting)
    plain = next(c for c in cells if "False" in c.setting)
    assert optimized.stabbed_elements <= plain.stabbed_elements


def test_buffer_size_insensitivity(benchmark):
    cells = benchmark.pedantic(
        lambda: ablation_buffer_sizes(target_elements=10000,
                                      buffer_sizes=(25, 50, 100, 200)),
        rounds=1, iterations=1,
    )
    print("\n=== Ablation: buffer pool size (Section 6.1) ===")
    for cell in cells:
        print("%-12s misses: %5d  scanned: %6d"
              % (cell.setting, cell.page_misses, cell.elements_scanned))
    scans = {cell.elements_scanned for cell in cells}
    assert len(scans) == 1  # logical work is buffer-size independent
    misses = [cell.page_misses for cell in cells]
    # Ordered probes touch index pages at most once: quadrupling the
    # buffer changes page misses by at most a small factor.
    assert max(misses) <= min(misses) * 3 + 20


def test_mpmgjn_pays_for_rescans(benchmark):
    data = department_dataset(8000, seed=7)

    def run():
        results = {}
        for algorithm in ("mpmgjn", "stack-tree", "xr-stack"):
            outcome = structural_join(data.ancestors, data.descendants,
                                      algorithm=algorithm, collect=False)
            results[algorithm] = outcome
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    print("\n=== Ablation: MPMGJN vs stack-based merges ===")
    for name, outcome in results.items():
        print("%-12s scanned %7d  misses %5d"
              % (name, outcome.stats.elements_scanned, outcome.page_misses))
    # MPMGJN rescans overlapping regions (Section 2.2's criticism).
    assert results["mpmgjn"].stats.elements_scanned > \
        results["stack-tree"].stats.elements_scanned
    assert results["xr-stack"].stats.elements_scanned <= \
        results["stack-tree"].stats.elements_scanned
