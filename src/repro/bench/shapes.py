"""The paper's result shapes: one table of named predicates, one gate.

Section 6 is read by *shape* — which join wins, by what factor, where the
behaviour changes — so that is what this reproduction asserts.  ``SHAPES``
maps every artefact id of the report to its rows, ``{description:
predicate}``; a predicate takes the artefact's measurement and says whether
the shape holds.  ``table2a`` … ``fig8f`` measure a
:class:`~repro.bench.harness.SweepResult`; ``JOIN``, ``S33``, ``UPD``,
``ABL`` and ``SCALE`` what the study of that name in
:mod:`repro.bench.studies` returns.  ``python -m repro.bench`` prints one
``shape ✓/✗`` line per row under its artefact and exits 1 if a row does not
hold.
"""

NIDX, BPLUS, XR = "stack-tree", "b+", "xr-stack"


# -- Tables 2 and 3: elements scanned per step ------------------------------

def _xr_scans_least(sweep):
    return all(
        xr <= nidx and xr <= bplus + max(2, bplus // 20)
        for xr, nidx, bplus in zip(sweep.column(XR), sweep.column(NIDX),
                                   sweep.column(BPLUS)))


def _gap_grows(sweep):
    ratios = [nidx / max(xr, 1)
              for nidx, xr in zip(sweep.column(NIDX), sweep.column(XR))]
    return ratios[-1] > ratios[0]


def _bplus_skips_nested_ancestors(sweep):
    return (sweep.cell(0.05, BPLUS).elements_scanned
            < sweep.cell(0.05, NIDX).elements_scanned)


def _bplus_degenerates_to_nidx(sweep):
    return all(
        abs(bplus - nidx) <= max(10, nidx // 50)
        for bplus, nidx in zip(sweep.column(BPLUS), sweep.column(NIDX)))


def _indexed_never_scan_more(sweep):
    return all(
        max(bplus, xr) <= nidx
        for bplus, xr, nidx in zip(sweep.column(BPLUS), sweep.column(XR),
                                   sweep.column(NIDX)))


def _indexed_track_each_other(sweep):
    # Descendant skipping is "the same in XR-tree indexing and B+-tree
    # indexing" while the protocol can hold Join-A near 99 %; at the low end
    # Join-A collapses with |D| ~ |A| and ancestor skipping hands XR an
    # extra advantage (EXPERIMENTS.md, T3).
    for step in sweep.config.steps:
        xr = sweep.cell(step, XR)
        bplus = sweep.cell(step, BPLUS).elements_scanned
        if xr.join_a >= 0.8:
            if abs(xr.elements_scanned - bplus) > max(50, bplus // 5):
                return False
        elif xr.elements_scanned > bplus + 50:
            return False
    return True


def _xr_collapses_nidx_does_not(sweep):
    def drop(algorithm):
        scanned = sweep.column(algorithm)
        return scanned[0] / max(1, scanned[-1])

    return drop(XR) > 2 * drop(NIDX)


# -- Figure 8: derived elapsed seconds at the two ends of a sweep -----------

def _high(sweep, algorithm):
    return sweep.column(algorithm, "derived_seconds")[0]


def _low(sweep, algorithm):
    return sweep.column(algorithm, "derived_seconds")[-1]


def _xr_beats_nidx_low(sweep):
    return _low(sweep, XR) <= _low(sweep, NIDX)


def _xr_falls(sweep):
    return _high(sweep, XR) / max(_low(sweep, XR), 1e-9) > 1.2


def _bplus_tracks_nidx_low(sweep):
    # Section 6.2: B+ skips many elements but "failed to avoid more disk
    # page scans".
    return _low(sweep, BPLUS) <= _low(sweep, NIDX) * 1.10


def _bplus_ahead_high(sweep):
    # Section 6.3: XR's larger key entries mean more index pages.
    return _high(sweep, BPLUS) <= _high(sweep, XR) * 1.02


def _indexed_beat_nidx_low(sweep):
    return max(_low(sweep, BPLUS), _low(sweep, XR)) < _low(sweep, NIDX) * 0.75


def _bplus_falls(sweep):
    return _low(sweep, BPLUS) < _high(sweep, BPLUS)


def _strict_ordering_low(sweep):
    return _low(sweep, XR) < _low(sweep, BPLUS) < _low(sweep, NIDX)


# -- JOIN: {(algorithm, parent_child): JoinOutcome} -------------------------

def _mpmgjn_rescans(outcomes):
    def scanned(algorithm):
        return outcomes[algorithm, False].stats.elements_scanned

    return scanned("mpmgjn") > scanned(NIDX) >= scanned(XR)


def _parent_child_is_a_subset(outcomes):
    counts = {outcome.pair_count
              for (_, parent_child), outcome in outcomes.items()
              if parent_child}
    return len(counts) == 1 and all(
        0 < outcomes[algorithm, True].pair_count
        <= outcomes[algorithm, False].pair_count
        for algorithm in (NIDX, BPLUS, XR))


def _level_filter_is_free(outcomes):
    return all(
        outcomes[algorithm, True].stats.elements_scanned
        == outcomes[algorithm, False].stats.elements_scanned
        and abs(outcomes[algorithm, True].page_misses
                - outcomes[algorithm, False].page_misses) <= 2
        for algorithm in (NIDX, BPLUS, XR))


# -- S33: {profile: [StabListReport]} ---------------------------------------

def _stab_list_rows(profile):
    def every(bound):
        return lambda study: all(bound(report) for report in study[profile])

    return {
        "%s: stabbed elements never exceed elements indexed" % profile:
            every(lambda r: r.stabbed_elements <= r.elements),
        "%s: stab pages under 35 %% of leaf pages" % profile:
            every(lambda r: r.stab_to_leaf_ratio < 0.35),
        "%s: at most 2 h_d stab pages on any node" % profile:
            every(lambda r: r.max_stab_pages_per_node
                  <= 2 * max(r.nesting, 1)),
    }


def _stabbed_grows_with_nesting(study):
    reports = sorted(study["department"], key=lambda r: r.nesting)
    return reports[-1].stabbed_elements >= reports[0].stabbed_elements


# -- UPD: [UpdateCostReport] ------------------------------------------------

def _within_six_of_bplus(operation):
    def holds(reports):
        by_key = {(r.structure, r.operation): r for r in reports}
        bplus, xr = by_key["b+tree", operation], by_key["xr-tree", operation]
        return (xr.transfers_per_op <= bplus.transfers_per_op + 6.0
                and xr.misses_per_op <= bplus.misses_per_op + 6.0)

    return holds


# -- ABL: {"split keys": [AblationCell], "buffer": [AblationCell]} ----------

def _optimised_split_keys_never_stab_more(ablation):
    stabbed = {cell.setting: cell.stabbed_elements
               for cell in ablation["split keys"]}
    return stabbed["optimize=True"] <= stabbed["optimize=False"]


def _scans_ignore_buffer_size(ablation):
    return len({cell.elements_scanned for cell in ablation["buffer"]}) == 1


def _misses_barely_move_with_buffer_size(ablation):
    misses = [cell.page_misses for cell in ablation["buffer"]]
    return max(misses) <= min(misses) * 3 + 20


# -- SCALE: {scale: SweepResult of the one Join-A = 5 % step} ---------------

def _scan_ratios(study):
    return [study[scale].column(NIDX)[0] / max(1, study[scale].column(XR)[0])
            for scale in sorted(study)]


def _xr_wins_at_every_scale(study):
    return all(ratio > 3 for ratio in _scan_ratios(study))


def _advantage_survives_scaling(study):
    ratios = _scan_ratios(study)
    return ratios[-1] >= ratios[0] * 0.5


def _xr_misses_fewer_at_largest(study):
    largest = study[max(study)]
    return (largest.column(XR, "page_misses")[0]
            < largest.column(NIDX, "page_misses")[0])


def _merge_work_is_linear(study):
    small, large = min(study), max(study)
    growth = study[large].column(NIDX)[0] / study[small].column(NIDX)[0]
    return large / small / 2 < growth < large / small * 2


_TABLE_2 = {
    "XR scans least at every step": _xr_scans_least,
    "the NIDX/XR scan ratio grows as Join-A falls": _gap_grows,
}
_TABLE_3 = {
    "neither indexed join scans more than NIDX": _indexed_never_scan_more,
    "B+ and XR within max(50, B+/5) while realised Join-A >= 0.8, "
    "XR <= B+ + 50 below": _indexed_track_each_other,
    "XR's high/low scan drop is over 2x NIDX's": _xr_collapses_nidx_does_not,
}
_FIGURE_8AB = {
    "XR no slower than NIDX at the lowest Join-A": _xr_beats_nidx_low,
}
_FIGURE_8CD = {
    "B+ within 1.02x of XR at the highest Join-D": _bplus_ahead_high,
    "B+ and XR both under 0.75x NIDX at the lowest Join-D":
        _indexed_beat_nidx_low,
    "B+'s time falls across the sweep": _bplus_falls,
}
_FIGURE_8EF = {
    "XR < B+ < NIDX at the lowest selectivity": _strict_ordering_low,
}

SHAPES = {
    "table2a": {
        **_TABLE_2,
        "B+ skips some nested ancestors (scans fewer than NIDX at 5 %)":
            _bplus_skips_nested_ancestors,
    },
    "table2b": {
        **_TABLE_2,
        "B+ equals NIDX within max(10, NIDX/50) on flat ancestors":
            _bplus_degenerates_to_nidx,
    },
    "table3a": _TABLE_3,
    "table3b": _TABLE_3,
    "fig8a": {
        **_FIGURE_8AB,
        "XR's time falls more than 1.2x across the sweep": _xr_falls,
        "B+ within 1.10x of NIDX at the lowest Join-A":
            _bplus_tracks_nidx_low,
    },
    "fig8b": _FIGURE_8AB,
    "fig8c": _FIGURE_8CD,
    "fig8d": _FIGURE_8CD,
    "fig8e": _FIGURE_8EF,
    "fig8f": _FIGURE_8EF,
    "JOIN": {
        "MPMGJN scans more than Stack-Tree-Desc, XR-stack no more":
            _mpmgjn_rescans,
        "parent-child pairs are a non-empty subset of ancestor-descendant "
        "pairs, the same count under all four algorithms":
            _parent_child_is_a_subset,
        "the level filter is free: same elements scanned, page misses "
        "within 2": _level_filter_is_free,
    },
    "S33": {
        **_stab_list_rows("department"),
        "department: stabbed elements grow with nesting":
            _stabbed_grows_with_nesting,
        **_stab_list_rows("auction"),
    },
    "UPD": {
        "XR insert within +6 transfers/op and +6 misses/op of B+":
            _within_six_of_bplus("insert"),
        "XR delete within +6 transfers/op and +6 misses/op of B+":
            _within_six_of_bplus("delete"),
    },
    "ABL": {
        "optimised split keys never stab more elements":
            _optimised_split_keys_never_stab_more,
        "elements scanned identical across buffer sizes":
            _scans_ignore_buffer_size,
        "page misses within 3x + 20 across buffer sizes":
            _misses_barely_move_with_buffer_size,
    },
    "SCALE": {
        "NIDX/XR scan ratio above 3 at every scale": _xr_wins_at_every_scale,
        "the largest scale's ratio is at least half the smallest's":
            _advantage_survives_scaling,
        "XR misses fewer pages than NIDX at the largest scale":
            _xr_misses_fewer_at_largest,
        "merge work grows linearly with scale (within 2x either way)":
            _merge_work_is_linear,
    },
}
