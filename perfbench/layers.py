"""Per-layer figures of one traced pass, computed from its spans.

Each figure belongs to one charshock module and is expected to move one
end-to-end metric on one workload (see README.md). A layer a workload does
not exercise reports 0 there. Times are span durations in seconds unless the
name says otherwise; a span's self time excludes the spans it called.
"""

from __future__ import annotations

import os

import numpy as np

from spans import LAYERS

# (name, unit, better) of every per-layer figure, in report order.
PER_LAYER = (
    ("radial.solve_s", "s", "lower"),
    ("radial.steps", "count", "lower"),
    ("radial.step_ms", "ms", "lower"),
    ("radial.rhs_calls", "count", "lower"),
    ("radial.rhs_self_s", "s", "lower"),
    ("radial.stencil_calls", "count", "lower"),
    ("radial.stencil_s", "s", "lower"),
    ("radial.loop_self_s", "s", "lower"),
    ("radial.grid_points", "count", "lower"),
    ("radial.point_steps_per_s", "1/s", "higher"),
    ("radial.snapshots", "count", "lower"),
    ("radial.snapshot_mb", "MB", "lower"),
    ("eos.calls", "count", "lower"),
    ("eos.self_s", "s", "lower"),
    ("shortpulse.build_s", "s", "lower"),
    ("shortpulse.seeds_s", "s", "lower"),
    ("foliation.trace_s", "s", "lower"),
    ("foliation.ray_rows", "count", "lower"),
    ("foliation.ray_steps_per_s", "1/s", "higher"),
    ("foliation.stencil_s", "s", "lower"),
    ("foliation.interp_self_s", "s", "lower"),
    ("foliation.derive_per_row", "ratio", "lower"),
    ("foliation.lmu_s", "s", "lower"),
    ("foliation.a1_calls", "count", "lower"),
    ("foliation.a1_s", "s", "lower"),
    ("foliation.classify_s", "s", "lower"),
    ("burgers.solve_s", "s", "lower"),
    ("burgers.steps", "count", "lower"),
    ("burgers.cell_steps_per_s", "1/s", "higher"),
    ("burgers.estimate_s", "s", "lower"),
    ("geometry.frames", "count", "higher"),
    ("geometry.frame_us", "us", "lower"),
    ("harness.cells", "count", "higher"),
    ("harness.cell_s", "s", "lower"),
    ("harness.overhead_s", "s", "lower"),
    ("harness.emit_s", "s", "lower"),
    ("harness.emit_bytes", "B", "lower"),
    ("cli.overhead_s", "s", "lower"),
    ("result.mu_dual_gap", "ratio", "lower"),
    ("result.predictor_gap", "mu", "lower"),
    ("result.t_star_err", "t", "lower"),
    ("result.failed_frac", "ratio", "lower"),
    ("bench.trace_overhead_s", "s", "lower"),
    ("bench.unattributed_s", "s", "lower"),
)

STENCILS = ("radial.d1", "radial.d2")


def _per(num, den):
    return num / den if den else 0.0


def layer_figures(tab, kept, setup_tab, wall):
    """Figures of one traced pass that took ``wall`` seconds.

    ``tab`` holds the pass's spans and ``kept`` the return values named in
    ``workloads.KEEP``; ``setup_tab`` holds the spans of the set-up before
    timing, where the short-pulse data is built.
    """
    f = {}
    in_solve = tab.inside("radial.run_until")
    stencil = tab.where(*STENCILS)
    advance = tab.where("radial.advance")
    hists = kept["radial.run_until"]
    f["radial.solve_s"] = solve = tab.total("radial.run_until")
    f["radial.steps"] = steps = tab.count("radial.advance")
    f["radial.step_ms"] = 1e3 * _per(float(tab.dur[advance].sum()), steps)
    f["radial.rhs_calls"] = tab.count("radial.radial_rhs")
    f["radial.rhs_self_s"] = float(tab.self_s[tab.where("radial.radial_rhs")].sum())
    f["radial.stencil_calls"] = int(np.count_nonzero(stencil & in_solve))
    f["radial.stencil_s"] = float(tab.dur[stencil & in_solve].sum())
    # run_until outside advance: dt choice, its own derived(), snapshot copies
    f["radial.loop_self_s"] = solve - float(tab.dur[advance & in_solve].sum())
    f["radial.grid_points"] = points = sum(len(h.r_grid) for h in hists)
    f["radial.point_steps_per_s"] = _per(points * steps, solve)
    f["radial.snapshots"] = sum(len(h.times) for h in hists)
    f["radial.snapshot_mb"] = sum(h.phi.nbytes + h.dtphi.nbytes for h in hists) / 1e6

    eos_outer = tab.outermost(tab.layer("eos"))
    f["eos.calls"] = int(np.count_nonzero(eos_outer))
    f["eos.self_s"] = float(tab.dur[eos_outer].sum())

    f["shortpulse.build_s"] = setup_tab.total("shortpulse.build_annulus_data")
    f["shortpulse.seeds_s"] = setup_tab.total("shortpulse.bump_seeds",
                                              "shortpulse.solve_seed_ode")

    bundles = kept["foliation.trace_rays"]
    in_trace = tab.inside("foliation.trace_rays")
    f["foliation.trace_s"] = trace = tab.total("foliation.trace_rays")
    f["foliation.ray_rows"] = rows = sum(len(b.times) for b in bundles)
    ray_steps = sum((len(b.times) - 1) * len(b.u) for b in bundles)
    f["foliation.ray_steps_per_s"] = _per(ray_steps, trace)
    f["foliation.stencil_s"] = float(
        tab.dur[stencil & tab.inside("foliation.trace_rays", "foliation.lmu_initial")].sum())
    # trace_rays' own time: sampler interpolation and the RK4 bookkeeping
    f["foliation.interp_self_s"] = float(tab.self_s[tab.where("foliation.trace_rays")].sum())
    # every snapshot derivation takes exactly one d2
    f["foliation.derive_per_row"] = _per(
        int(np.count_nonzero(tab.where("radial.d2") & in_trace)), rows)
    f["foliation.lmu_s"] = tab.total("foliation.lmu_initial")
    f["foliation.a1_calls"] = tab.count("foliation.a1_integral")
    f["foliation.a1_s"] = tab.total("foliation.a1_integral")
    f["foliation.classify_s"] = tab.total("foliation.classify_largeness")

    burgers = kept["burgers.burgers_direct_solve"]
    f["burgers.solve_s"] = bsolve = tab.total("burgers.burgers_direct_solve")
    f["burgers.steps"] = sum(len(h.times) - 1 for h in burgers)
    f["burgers.cell_steps_per_s"] = _per(
        sum(len(h.x) * (len(h.times) - 1) for h in burgers), bsolve)
    f["burgers.estimate_s"] = tab.total("burgers.estimate_blowup_time")

    f["geometry.frames"] = frames = tab.count("geometry.build_frames")
    f["geometry.frame_us"] = 1e6 * _per(
        tab.total("geometry.assemble_metric", "geometry.build_frames"), frames)

    sweeps = kept["harness.run_sweep"]
    f["harness.cells"] = sum(len(s.rows) for s in sweeps)
    # per-cell runtimes from the returned rows: summary.json keys them by
    # a|c|delta and drops cells that differ only in EOS
    f["harness.cell_s"] = cell_s = sum(r["runtime"] for s in sweeps for r in s.rows)
    f["harness.overhead_s"] = tab.total("harness.run_sweep") - cell_s
    f["harness.emit_s"] = tab.total("harness.emit_outputs")
    f["harness.emit_bytes"] = sum(os.path.getsize(p) for paths in kept["harness.emit_outputs"]
                                  for p in paths.values())
    f["cli.overhead_s"] = float(tab.self_s[tab.layer("cli")].sum())

    f["bench.unattributed_s"] = wall - float(tab.dur[tab.parent < 0].sum())
    return f


def layer_totals(tab):
    """Total time, self time and call count of every layer module."""
    out = {}
    for layer in LAYERS:
        mask = tab.layer(layer)
        out[f"{layer}.total_s"] = float(tab.dur[tab.outermost(mask)].sum())
        out[f"{layer}.self_s"] = float(tab.self_s[mask].sum())
        out[f"{layer}.calls"] = int(np.count_nonzero(mask))
    return out
