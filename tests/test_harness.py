"""Sweep orchestration: config round-trip, crash isolation, determinism."""

import csv
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from charshock import harness
from charshock.cli import main
from charshock.errors import ConfigInvalid
from charshock.harness import SweepConfig, emit_outputs, run_sweep

PREDICT_CFG = SweepConfig(a_values=(0.0,), c_values=(1.0,), mode="predict")


# ---------------------------------------------------------------------------
# configuration


def test_config_json_round_trip_bit_exact():
    cfg = SweepConfig(a_values=(0.0, 0.25), c_values=(1.0,), mode="burgers",
                      sigma=-0.2, solver={"grid_n": 512})
    text = cfg.to_json()
    again = SweepConfig.from_json(text)
    assert again == cfg
    assert again.to_json() == text
    assert again.config_hash() == cfg.config_hash()


def test_config_hash_changes_with_content():
    a = SweepConfig(a_values=(0.0,), c_values=(1.0,))
    b = SweepConfig(a_values=(0.0,), c_values=(1.1,))
    assert a.config_hash() != b.config_hash()
    assert len(a.config_hash()) == 16


def test_config_rejects_bad_input():
    with pytest.raises(ConfigInvalid):
        SweepConfig.from_json("{not json")
    with pytest.raises(ConfigInvalid):
        SweepConfig.from_json(json.dumps(
            {"a_values": [0.0], "c_values": [1.0], "bogus_key": 3}))
    with pytest.raises(ConfigInvalid):
        SweepConfig(a_values=(), c_values=(1.0,)).validate()
    with pytest.raises(ConfigInvalid):
        SweepConfig(a_values=(0.0,), c_values=(1.0,), mode="magic").validate()
    with pytest.raises(ConfigInvalid):
        SweepConfig(a_values=(0.0,), c_values=(1.0,), sigma=0.5).validate()
    with pytest.raises(ConfigInvalid):
        SweepConfig(a_values=(0.0,), c_values=(1.0,), mode="euler",
                    delta_values=(0.0,)).validate()


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_NUMBER = st.one_of(st.integers(), _FINITE)
# each mode's solver entries, drawn from the JSON types validate accepts
_SOLVER = {
    "burgers": {"simulate": st.booleans(), "grid_n": st.integers(), "t_end": _NUMBER},
    "predict": {},
    "euler": {"ray_count": st.integers(), "points_per_delta": _NUMBER, "r_min": _NUMBER,
              "sample_dt": st.one_of(st.none(), _NUMBER)},
}
_EOS_RECORD = st.one_of(
    st.builds(lambda g: {"family": "polytropic", "gamma": g}, st.floats(1.01, 6.0)),
    st.just({"family": "chaplygin"}),
    st.lists(st.floats(0.1, 2.0), min_size=4, max_size=6).map(
        lambda eta_sq: {"family": "custom", "eta_sq_table": eta_sq,
                        "h_table": [0.25 * k - 0.5 for k in range(len(eta_sq))]}))


@st.composite
def _configs(draw):
    mode = draw(st.sampled_from(("burgers", "predict", "euler")))
    axis = st.lists(_FINITE, min_size=1, max_size=4).map(tuple)
    deltas = st.lists(st.floats(0.001, 0.999), min_size=1, max_size=3).map(tuple)
    return SweepConfig(
        a_values=draw(axis), c_values=draw(axis), mode=mode,
        delta_values=draw(deltas if mode == "euler" else axis),
        eos_values=tuple(draw(st.lists(_EOS_RECORD, min_size=1, max_size=3))),
        sigma=draw(st.floats(-1.999, -0.001)),
        solver=draw(st.fixed_dictionaries({}, optional=_SOLVER[mode])))


@settings(deadline=None)
@given(cfg=_configs())
def test_config_json_round_trip_property(cfg):
    """Every valid config survives to_json/from_json unchanged, and its hash
    does not depend on the order of the solver's keys."""
    text = cfg.to_json()
    again = SweepConfig.from_json(text)
    assert again == cfg
    assert again.to_json() == text
    reordered = SweepConfig(**{**vars(cfg), "solver": dict(reversed(cfg.solver.items()))})
    assert again.config_hash() == cfg.config_hash() == reordered.config_hash()


# ---------------------------------------------------------------------------
# sweep evaluation


def test_single_cell_burgers_undamped():
    cfg = SweepConfig(a_values=(0.0,), c_values=(1.0,), mode="burgers")
    result = run_sweep(cfg)
    assert len(result.rows) == 1
    row = result.rows[0]
    assert row["status"] == "ok"
    assert row["t_star_predicted"] == pytest.approx(0.0, abs=1e-12)
    assert result.n_failed == 0


def test_burgers_cell_classifies_as_the_command(capsys):
    """A burgers cell classifies the sine profile by its measured compression,
    as the burgers command does: at c = -1 the slope is 1 at x = +-1, a shock
    at t* = 0, not the Global that the nominal c would give.  The cell's
    run_status is the command's status."""
    cfg = SweepConfig(a_values=(0.0,), c_values=(-1.0,), mode="burgers",
                      solver={"simulate": True, "grid_n": 256, "t_end": 0.5})
    row = run_sweep(cfg).rows[0]
    assert main(["burgers", "--c", "-1", "--grid", "256", "--t-end", "0.5"]) == 0
    report = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (row["classification"], row["t_star_predicted"]) == ("Shock", 0.0)
    assert (report["classification"], report["t_star"]) == ("Shock", 0.0)
    assert row["t_star_simulated"] == report["t_star_direct"]
    assert row["status"] == "ok" and row["run_status"] == report["status"] == "Completed"


def test_failed_burgers_cell_keeps_what_it_computed():
    """a = c = 0.5 is Global, and its completed solve shows no blow-up trend:
    the cell fails in the fit, and keeps the classification and run status
    it had before."""
    cfg = SweepConfig(a_values=(0.5,), c_values=(0.5,), mode="burgers",
                      solver={"simulate": True, "grid_n": 256})
    row = run_sweep(cfg).rows[0]
    assert row["status"] == "NoBlowupTrend" and row["error"] != ""
    assert row["classification"] == "Global" and row["run_status"] == "Completed"


def test_damping_sweep_monotone_shock_delay():
    cfg = SweepConfig(a_values=(-0.25, 0.0, 0.25, 0.5, 0.75),
                      c_values=(1.0,), mode="burgers")
    t_stars = [r["t_star_predicted"] for r in run_sweep(cfg).rows]
    assert all(b > a for a, b in zip(t_stars, t_stars[1:]))


def test_predict_mode_classifications():
    cfg = SweepConfig(a_values=(0.0,), c_values=(0.05, 0.12, 0.2),
                      mode="predict")
    rows = run_sweep(cfg).rows
    assert [r["classification"] for r in rows] == [
        "GlobalToSigma", "Indeterminate", "ShockBefore"]
    assert math.isnan(rows[0]["t_star_predicted"])
    assert rows[2]["t_star_predicted"] == pytest.approx(
        -2.0 * np.exp(-1.25), abs=1e-8)


def test_crash_isolation_records_failed_cell():
    cfg = SweepConfig(
        a_values=(0.0,), c_values=(1.0,), mode="euler", delta_values=(0.1,),
        eos_values=({"family": "polytropic", "gamma": 2.0},
                    {"family": "polytropic", "gamma": 0.5}),
        sigma=-1.8, solver={"points_per_delta": 16, "r_min": 1.6, "ray_count": 33})
    result = run_sweep(cfg)
    assert len(result.rows) == 2
    by_status = sorted(r["status"] for r in result.rows)
    assert "ok" in by_status
    assert result.n_failed == 1
    bad = next(r for r in result.rows if r["status"] != "ok")
    assert bad["status"] == "InvalidParameter"
    assert bad["error"] != ""


def test_euler_cell_that_ends_non_finite_reads_ok_with_its_run_status():
    """A run that ends NonFinite is a result, not a failed cell: the row reads
    ok, with run_status NonFinite and the run's message."""
    cfg = SweepConfig(a_values=(0.0,), c_values=(1e150,), mode="euler", delta_values=(0.1,),
                      eos_values=({"family": "chaplygin"},), sigma=-1.9,
                      solver={"points_per_delta": 16, "r_min": 1.6})
    row = run_sweep(cfg).rows[0]
    assert (row["status"], row["run_status"]) == ("ok", "NonFinite")
    assert row["error"] == "non-finite right-hand side at t=-2.000000"


_EULER_SOLVER = {"points_per_delta": 16, "r_min": 1.6, "ray_count": 33}
_NEVER_ENDING = {       # each row's config fields other than delta and sigma (a = 0 if not given)
    "euler-chaplygin-c-1e20": {"mode": "euler", "c_values": (1e20,), "solver": _EULER_SOLVER,
                               "eos_values": ({"family": "chaplygin"},)},
    "euler-r-min-negative": {"mode": "euler", "solver": {**_EULER_SOLVER, "r_min": -0.5}},
    "burgers-c-1e100": {"mode": "burgers", "c_values": (1e100,),
                        "solver": {"simulate": True, "grid_n": 64}},
    "burgers-t-end-1e300": {"mode": "burgers",
                            "solver": {"simulate": True, "grid_n": 64, "t_end": 1e300}},
    "burgers-a-minus-20": {"mode": "burgers", "a_values": (-20.0,),
                           "solver": {"simulate": True, "grid_n": 64, "t_end": 0.5}},
}


@pytest.mark.parametrize("fields", _NEVER_ENDING.values(), ids=_NEVER_ENDING.keys())
def test_cell_that_would_never_end_reads_invalid_parameter(fields):
    """A time step too small to reach t_end in errors.MAX_VALUES steps (a
    steep Chaplygin seed, a huge Burgers compression or t_end, or Burgers
    steps that a = -20 shrinks like e^{a(t+1)}), or a grid
    reaching r = 0, fails its cell with status InvalidParameter instead of
    hanging, ending in Error or breaking down where the 2/r term is infinite."""
    cfg = SweepConfig(**{"a_values": (0.0,), "c_values": (1.0,), "delta_values": (0.1,),
                         "sigma": -1.8, **fields})
    row = run_sweep(cfg).rows[0]
    assert row["status"] == "InvalidParameter" and row["error"] != ""


def test_min_mu_at_sigma_is_nan_when_the_bundle_stops_before_sigma():
    """The run reaches sigma but the rays reach mu <= 0.02 at about t = -1.94,
    so there is no mu at sigma to report."""
    cfg = SweepConfig(
        a_values=(0.0,), c_values=(-20.0,), mode="euler", delta_values=(0.1,),
        sigma=-1.8, solver={"points_per_delta": 16, "r_min": 1.6, "ray_count": 33})
    row = run_sweep(cfg).rows[0]
    assert row["status"] == "ok" and row["run_status"] == "Completed"
    assert math.isnan(row["min_mu_at_sigma"])
    assert row["t_star_simulated"] < -1.9


def test_rows_sorted_by_axes():
    cfg = SweepConfig(a_values=(0.5, 0.0), c_values=(2.0, 1.0),
                      mode="predict")
    rows = run_sweep(cfg).rows
    keys = [(r["a"], r["c"]) for r in rows]
    assert keys == sorted(keys)


def test_two_workers_run_the_cells():
    cfg = SweepConfig(a_values=(0.0, 0.25), c_values=(1.0,), mode="burgers")
    rows = run_sweep(cfg, workers=2).rows
    assert [r["status"] for r in rows] == ["ok", "ok"]


def test_worker_count_below_one_is_rejected():
    for workers in (0, -2):
        with pytest.raises(ConfigInvalid, match="workers must be at least 1"):
            run_sweep(PREDICT_CFG, workers=workers)


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: records max_workers, maps in process."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items):
        return map(fn, items)


def test_pool_is_capped_at_the_cell_count(monkeypatch):
    """No more workers start than there are cells; one cell needs no pool."""
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "sizes", [])
    two = SweepConfig(a_values=(0.0, 0.25), c_values=(1.0,), mode="predict")
    assert [r["status"] for r in run_sweep(two, workers=500).rows] == ["ok", "ok"]
    assert len(run_sweep(two, workers=3).rows) == 2
    assert len(run_sweep(PREDICT_CFG, workers=8).rows) == 1
    assert _InProcessPool.sizes == [2, 2]


def test_euler_cell_classifies_by_the_seed_slope():
    """bump_seeds(c) scales a symmetric bump, so the seed's max phi1' is |c|:
    the cells c = -30 and c = 30 classify alike."""
    cfg = SweepConfig(
        a_values=(0.25,), c_values=(-30.0, 30.0), mode="euler", delta_values=(0.1,),
        sigma=-1.8, solver={"points_per_delta": 16, "r_min": 1.6, "ray_count": 33})
    neg, pos = run_sweep(cfg).rows
    assert neg["classification"] == pos["classification"] == "ShockBefore"
    assert neg["t_star_predicted"] == pos["t_star_predicted"]


def test_euler_mode_cell():
    cfg = SweepConfig(
        a_values=(0.0,), c_values=(1.0,), mode="euler", delta_values=(0.1,),
        sigma=-1.8, solver={"points_per_delta": 16, "r_min": 1.6, "ray_count": 33})
    row = run_sweep(cfg).rows[0]
    assert row["status"] == "ok"
    assert row["run_status"] == "Completed"
    assert 0.0 < row["min_mu_at_sigma"] < 1.0


# ---------------------------------------------------------------------------
# outputs


def test_emit_outputs_schema_and_determinism(tmp_path):
    cfg = SweepConfig(a_values=(0.0, 0.25, 0.5), c_values=(1.0,),
                      mode="burgers")
    d1, d2 = tmp_path / "one", tmp_path / "two"
    emit_outputs(run_sweep(cfg), d1)
    emit_outputs(run_sweep(cfg), d2)

    sweep_text = (d1 / "sweep.csv").read_text()
    lines = sweep_text.strip().split("\n")
    assert lines[0].startswith("a,c,delta,eos,classification,t_star_predicted")
    assert len(lines) == 4
    assert sweep_text == (d2 / "sweep.csv").read_text()      # bit-identical
    assert (d1 / "series.csv").read_text() == (d2 / "series.csv").read_text()

    series = (d1 / "series.csv").read_text().strip().split("\n")
    assert series[0] == "series,x,y"
    ys = [float(row.split(",")[-1]) for row in series[1:]]
    assert ys == sorted(ys)                                  # shock delay grows

    summary = json.loads((d1 / "summary.json").read_text())
    assert summary["n_cells"] == 3
    assert summary["n_failed"] == 0
    assert summary["config_hash"] == cfg.config_hash()
    assert "runtimes" in summary


def test_sweep_csv_parses_for_every_eos(tmp_path):
    eos_values = ({"family": "chaplygin"},
                  {"family": "custom", "h_table": [-1.0, 0.0, 0.5, 1.0],
                   "eta_sq_table": [0.5, 1.0, 1.5, 2.0]},
                  {"family": "polytropic", "gamma": 2.0})
    cfg = SweepConfig(a_values=(0.0,), c_values=(1.0,), mode="predict",
                      eos_values=eos_values)
    emit_outputs(run_sweep(cfg), tmp_path)
    with open(tmp_path / "sweep.csv", newline="") as fh:
        header, *rows = csv.reader(fh)
    assert len(rows) == len(eos_values)
    assert all(len(row) == len(header) for row in rows)
    eos_column = [dict(zip(header, row))["eos"] for row in rows]
    assert sorted(eos_column) == sorted(json.dumps(e, sort_keys=True)
                                        for e in eos_values)
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert len(summary["runtimes"]) == summary["n_cells"] == len(eos_values)


def test_sweep_csv_shows_why_an_euler_run_stopped(tmp_path):
    """A cell whose run leaves the EOS domain is status ok, and its row says
    so: run_status EosDomain, the run's message in error."""
    cfg = SweepConfig(a_values=(0.0,), c_values=(-20.0,), mode="euler",
                      delta_values=(0.2,), sigma=-1.5)
    emit_outputs(run_sweep(cfg), tmp_path)
    with open(tmp_path / "sweep.csv", newline="") as fh:
        (row,) = csv.DictReader(fh)
    assert row["status"] == "ok"
    assert row["run_status"] == "EosDomain"
    assert row["error"].startswith("enthalpy outside")


def test_euler_run_that_breaks_down_at_its_first_step_leaves_the_cell_ok():
    """Data outside the EOS domain at t = -2 end the run at its first step, with
    one snapshot and so no interval to trace rays over: the row still says why
    the run stopped, and the cell is ok."""
    cfg = SweepConfig(a_values=(0.0,), c_values=(-60.0,), mode="euler",
                      delta_values=(0.1,), sigma=-1.5)
    row = run_sweep(cfg).rows[0]
    assert row["status"] == "ok"
    assert row["run_status"] == "EosDomain"
    assert row["error"].endswith("at t=-2.000000")
    assert math.isnan(row["min_mu_at_sigma"]) and math.isnan(row["t_star_simulated"])


def test_emit_outputs_rejects_empty(tmp_path):
    cfg = SweepConfig(a_values=(0.0,), c_values=(1.0,), mode="predict")
    result = run_sweep(cfg)
    result.rows = []
    with pytest.raises(ConfigInvalid):
        emit_outputs(result, tmp_path / "out")
