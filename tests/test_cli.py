"""Command line interface: subcommands, outputs, exit codes."""

import contextlib
import csv
import functools
import io
import json
import math
import re
import shlex
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings, strategies as st

from charshock.cli import build_parser, main
from charshock.eos import make_polytropic
from charshock.foliation import trace_rays
from charshock.radial import RunHistory


def test_burgers_command(tmp_path):
    out = tmp_path / "burgers.csv"
    assert main(["burgers", "--a", "0.0", "--c", "1.0", "--grid", "512",
                 "--t-end", "0.5", "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "t,max_neg_slope,r_of_t,min_mu_closed_form"
    report = json.loads(lines[-1])
    assert set(report) == {"classification", "t_star", "status", "t_star_direct",
                           "confidence_window"}
    assert report["status"] == "Completed"
    assert report["t_star"] == pytest.approx(0.0, abs=1e-12)
    slopes = [float(row.split(",")[1]) for row in lines[1:-1]]
    assert slopes == sorted(slopes)          # steepening toward the shock


def test_seed_data_command(tmp_path):
    out = tmp_path / "seed.csv"
    assert main(["seed-data", "--c", "1.0", "--delta", "0.1",
                 "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "r,phi,dtphi"
    split = lines.index("s,phi0")
    r, phi = np.array([[float(v) for v in row.split(",")[:2]]
                       for row in lines[1:split]]).T
    assert np.all(phi[r <= 2.0] == 0.0)      # supported on the annulus
    assert np.max(np.abs(phi)) > 0.0
    assert np.max(np.abs(phi)) < 0.1 ** 2    # delta^2 amplitude scale


def test_predict_command(tmp_path):
    out = tmp_path / "pred.json"
    assert main(["predict", "--c", "0.2", "--a", "0.0",
                 "--out", str(out)]) == 0
    pred = json.loads(out.read_text())
    assert pred["classification"] == "ShockBefore"
    assert pred["t_star"] == pytest.approx(-2.0 * np.exp(-1.25), abs=1e-8)
    assert main(["predict", "--c", "1e13"]) == 0     # a root even where t* is near -2


@pytest.mark.parametrize("a", ["400", "1e4", "1e5", "1e300", "-400", "-1e4", "-1e5", "-1e300"])
def test_predict_at_huge_damping(a, capsys):
    """predict answers, with a nonzero threshold a*, or names its error in one
    line: no traceback and no quadrature warning for huge |a|."""
    code = main(["predict", "--c", "1", f"--a={a}"])
    out, err = capsys.readouterr()
    if code == 0:
        assert json.loads(out)["a_star"] < 0.0 and err == ""
    else:
        assert code == 1 and err.startswith("error: ") and err.count("\n") == 1


_ODD_FLOATS = (st.floats() | st.floats(-2.0, 0.0)
               | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, 1e300, -1e300,
                                  math.nan, math.inf, -math.inf]))


@settings(deadline=None, max_examples=150)
@example(c=0.1, a=-1e6, sigma=-1.9999)
@example(c=1.0, a=0.0, sigma=-2.0)
@example(c=0.1, a=0.0, sigma=-0.1)          # Indeterminate: no shock time
@example(c=1.0, a=1.7976931348623157e308, sigma=-0.1)     # c_shock = -2/a* overflows
@given(c=_ODD_FLOATS, a=_ODD_FLOATS, sigma=_ODD_FLOATS)
def test_predict_answers_or_names_its_error(c, a, sigma):
    """For any c, a and sigma, finite or not, predict prints strict JSON (no
    NaN or Infinity) and exits 0, or exits 1 with one error: line; no
    traceback and no warning."""
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        code = main(["predict", f"--c={c!r}", f"--a={a!r}", f"--sigma={sigma!r}"])
    assert caught == []
    if code == 0:
        assert json.loads(out.getvalue(), parse_constant=_no_constant)["sigma"] == sigma
        assert err.getvalue() == ""
    else:
        assert code == 1 and err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1


_ODD_VALUES = st.sampled_from([1e300, -1e300, 5e-324, -5e-324, 1e-310, 0.0, -0.0, -1.0,
                               math.nan, math.inf, -math.inf])
_ODD = _ODD_VALUES.map(repr)


def _weighted(*choices):
    """Draws from one of the (weight, strategy) choices, picked with
    probability proportional to its weight; it shrinks toward the first."""
    table = [s for weight, s in choices for _ in range(weight)]
    return st.integers(0, len(table) - 1).flatmap(table.__getitem__)


def _flag(finite):
    """A flag's text: a float from the strategy finite, one of the odd classes
    (+-1e300, subnormal, zero, negative, NaN, inf) or not a number, weighted
    so that most runs get past the parser."""
    return _weighted((12, finite.map(repr)), (3, _ODD),
                     (1, st.sampled_from(["x", "", "1e", "0x10"])))


def _count(small):
    """A count's text: from the strategy small, at most 0, beyond
    errors.MAX_VALUES (never in between, which would allocate arrays of up
    to 800 MB) or not an integer."""
    return _weighted((12, small.map(str)), (1, st.integers(-3, 0).map(str)),
                     (2, st.integers(10**8 + 1, 10**400).map(str)),
                     (1, st.sampled_from(["x", "1.5", "nan"])))


def _no_constant(name):
    raise ValueError(f"{name} is not strict JSON")


def _answers_or_names_its_error(argv):
    """Run the command with numpy's warnings recorded, not raised: exit 0, 1
    or 2, no exception, no RuntimeWarning, exit 1 with exactly one error:
    line, and no flag that the parser does not know (a dropped flag would
    turn the property into a parser test).  Returns the exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
          warnings.catch_warnings(record=True) as caught):
        warnings.simplefilter("always")
        try:
            code = main(argv)
        except SystemExit as exc:       # argparse's usage error
            code = exc.code
    err = err.getvalue()
    event(f"exit {code}")
    assert code in (0, 1, 2) and "Traceback" not in err
    assert "unrecognized arguments" not in err
    assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
    if code == 1:
        assert err.startswith("error: ") and err.count("\n") == 1
    return code, out.getvalue()


@settings(deadline=None, max_examples=100)
@example(a="-1e300", c="1.0", t_end="0.5", grid="64")     # the damping factor overflows
@example(a="0.0", c="5e-324", t_end="0.5", grid="64")     # a/c with a subnormal c
@example(a="0.0", c="1.0", t_end="1e300", grid="64")      # 2e301 steps
@example(a="0.0", c="1e300", t_end="0.5", grid="64")      # the flux overflows
@example(a="0.0", c="1e-310", t_end="0.5", grid="64")     # 1/slope overflows
# blow-up fits without a root: a half-window refit's, twice, and the whole fit's
@example(a="-1.375", c="5.8250068056827925e-37", t_end="0.0", grid="64")
@example(a="1.228924469238259", c="1.9333184129176029", t_end="0.1", grid="64")
@example(a="-1.3212938256759614", c="6.97874101668442e-37", t_end="0.5", grid="64")
@given(a=_flag(st.floats(-2.0, 2.0)), c=_flag(st.floats(-2.0, 2.0)),
       t_end=_flag(st.floats(-1.5, 0.5)), grid=_count(st.integers(64, 128)))
def test_burgers_answers_or_names_its_error(a, c, t_end, grid):
    """As the helper says, and on exit 0 the report line is strict JSON: no
    NaN or Infinity."""
    code, out = _answers_or_names_its_error(["burgers", f"--a={a}", f"--c={c}",
                                             f"--t-end={t_end}", f"--grid={grid}"])
    if code == 0:
        json.loads(out.splitlines()[-1], parse_constant=_no_constant)


@settings(deadline=None, max_examples=100)
@example(c="1e308", delta="0.1", grid="8")   # the bump's scale is inf
@given(c=_flag(st.floats(-2.0, 2.0)), delta=_flag(st.floats(0.0, 1.0)),
       grid=_count(st.integers(1, 64)))
def test_seed_data_answers_or_names_its_error(c, delta, grid):
    _answers_or_names_its_error(["seed-data", f"--c={c}", f"--delta={delta}",
                                 f"--grid={grid}"])


@settings(deadline=None, max_examples=100)
@example(a="0.0", c="1e300", gamma="2.0", t_end="-1.99", points="16")
@example(a="0.0", c="1e5", gamma="1e308", t_end="-1.99", points="16")
@given(a=_flag(st.floats(-2.0, 2.0)), c=_flag(st.floats(-2.0, 2.0)),
       gamma=_flag(st.floats(1.1, 5.0)), t_end=_flag(st.floats(-1.999, -1.98)),
       points=_count(st.integers(1, 32)))
def test_euler_radial_answers_or_names_its_error(a, c, gamma, t_end, points):
    _answers_or_names_its_error(["euler-radial", "--delta", "0.1", "--r-min", "1.6",
                                 f"--a={a}", f"--c={c}", f"--gamma={gamma}",
                                 f"--t-end={t_end}", f"--points-per-delta={points}"])


# the small run _EULER_SMALL at these flags: it reaches t_end; it breaks down at
# its first step, where h leaves the polytropic domain; it breaks down at its
# first step with a Chaplygin h whose derived ray fields overflow
_HISTORIES = {"history": ["--c=1.0"], "broken": ["--c=1e300"],
              "overflowing": ["--c=1e140", "--chaplygin"]}


@functools.cache
def _history_bytes(file):
    """The .npz bytes of the run _HISTORIES[file]."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.npz"
        assert main([*_EULER_SMALL, *_HISTORIES[file], f"--history={path}",
                     f"--out={Path(tmp) / 'run.csv'}"]) == 0
        return path.read_bytes()


# the "history" file with the fields f of its .npz changed, into files that no
# run writes: the fields of all but "short_window" disagree, and that one's
# 64 points r_grid[:64] stop short of the rays at 2 <= r <= 2 + delta
_INCONSISTENT = {
    "no_snapshots": lambda f: dict(times=f["times"][:0], phi=f["phi"][:0],
                                   dtphi=f["dtphi"][:0], start=f["start"][:0]),
    "start_past_grid": lambda f: dict(start=f["start"] + len(f["r_grid"])),
    "phi_1d": lambda f: dict(phi=f["phi"][0], dtphi=f["dtphi"][0]),
    "two_point_grid": lambda f: dict(r_grid=f["r_grid"][:2]),
    "short_times": lambda f: dict(times=f["times"][:-1], start=f["start"][:-1]),
    "descending_times": lambda f: dict(times=f["times"][::-1]),
    "negative_delta": lambda f: dict(delta=-0.1),
    "nan_a": lambda f: dict(a=np.nan),
    "short_window": lambda f: dict(phi=f["phi"][:, :64], dtphi=f["dtphi"][:, :64]),
    # half a cell's shift from index 3 on: foliate exited 0 with a wrong mu
    "uneven_grid": lambda f: dict(r_grid=f["r_grid"] + np.where(
        np.arange(len(f["r_grid"])) >= 3, 0.5 * (f["r_grid"][1] - f["r_grid"][0]), 0.0)),
    "nan_grid": lambda f: dict(r_grid=np.where(np.arange(len(f["r_grid"])) == 5, np.nan,
                                               f["r_grid"])),
    "descending_grid": lambda f: dict(r_grid=f["r_grid"][::-1]),
}


@settings(deadline=None, max_examples=30)
@given(file=st.sampled_from([*_HISTORIES, *_INCONSISTENT, "missing", "json"]),
       rays=_count(st.integers(33, 65)))
def test_foliate_answers_or_names_its_error(file, rays):
    """foliate on the histories of _HISTORIES, the inconsistent files of
    _INCONSISTENT (each an error, never exit 0), a missing file or a JSON
    file, with any --rays."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "run.npz"
        if file in _HISTORIES:
            path.write_bytes(_history_bytes(file))
        elif file in _INCONSISTENT:
            path.write_bytes(_history_bytes("history"))
            with np.load(path) as z:
                fields = {k: z[k] for k in z.files}
            np.savez(path, **{**fields, **_INCONSISTENT[file](fields)})
        elif file == "json":
            path.write_text(json.dumps({"grid_n": "x"}))
        code, _ = _answers_or_names_its_error(["foliate", f"--history={path}",
                                               f"--rays={rays}",
                                               f"--out={Path(tmp) / 'fol.csv'}"])
        assert code != 0 or file not in _INCONSISTENT


def _values(finite, size=2):
    """A JSON list of up to size numbers from finite or the odd values."""
    return st.lists(_weighted((6, finite), (1, _ODD_VALUES)), min_size=1, max_size=size)


@st.composite
def _sweep_config(draw):
    """A sweep config of any mode, its axes and sigma drawn with the odd
    values, and small solver settings with an odd burgers t_end."""
    mode = draw(st.sampled_from(["predict", "burgers", "euler", "x"]))
    size = 1 if mode == "euler" else 2
    cfg = {"mode": mode, "a_values": draw(_values(st.floats(-1.0, 1.0), size)),
           "c_values": draw(_values(st.floats(-2.0, 2.0), size)),
           "sigma": draw(_values(st.floats(-1.99, -1.9), 1))[0]}
    if mode == "euler":
        cfg["delta_values"] = draw(_values(st.floats(0.05, 0.2), 1))
        cfg["solver"] = {"points_per_delta": 16, "r_min": 1.6, "ray_count": 33}
    elif mode == "burgers":
        cfg["solver"] = {"simulate": draw(st.booleans()), "grid_n": 64,
                         "t_end": draw(_values(st.floats(-0.5, 0.5), 1))[0]}
    return cfg


@settings(deadline=None, max_examples=40)
@given(cfg=_sweep_config(), workers=st.sampled_from(["-1", "0", "1", "2", "x"]))
def test_sweep_answers_or_names_its_error(cfg, workers):
    """sweep on a drawn config (NaN and Infinity as JSON literals) with at
    most two workers; a cell that fails names a charshock error, never the
    catch-all status Error."""
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "config.json"
        config.write_text(json.dumps(cfg))
        _answers_or_names_its_error(["sweep", f"--config={config}", f"--out={tmp}",
                                     f"--workers={workers}"])
        if (Path(tmp) / "sweep.csv").exists():
            with open(Path(tmp) / "sweep.csv") as fh:
                assert "Error" not in {row["status"] for row in csv.DictReader(fh)}


def test_euler_and_foliate_round_trip(tmp_path):
    hist_path = tmp_path / "run.npz"
    out = tmp_path / "run.csv"
    assert main(["euler-radial", "--delta", "0.1", "--c", "1.0",
                 "--t-end", "-1.8", "--r-min", "1.6",
                 "--points-per-delta", "16",
                 "--history", str(hist_path), "--out", str(out)]) == 0
    summary = json.loads(out.read_text().strip().split("\n")[-1])
    assert summary["status"] == "Completed"
    assert summary["message"] == ""

    fol = tmp_path / "fol.csv"
    assert main(["foliate", "--history", str(hist_path), "--rays", "33",
                 "--out", str(fol)]) == 0
    lines = fol.read_text().strip().split("\n")
    assert lines[0] == "t,u,r,mu_spacing,mu_transport,mu_predicted"
    last = lines[-1].split(",")
    mu_spacing, mu_transport = float(last[3]), float(last[4])
    assert abs(mu_spacing - mu_transport) <= 0.02 * mu_spacing


def test_foliate_reads_a_windowed_history(tmp_path):
    """euler-radial stores, writes and reports only the window that follows the
    pulse; foliate traces the bundle from that file."""
    hist_path, out = tmp_path / "run.npz", tmp_path / "run.csv"
    assert main(["euler-radial", "--delta", "0.1", "--c", "1.0", "--t-end", "-1.2",
                 "--r-min", "0.5", "--points-per-delta", "16", "--r-stride", "1",
                 "--history", str(hist_path), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    summary = json.loads(lines[-1])
    hist = RunHistory.load(hist_path)
    width = summary["window_points"]
    assert width == hist.phi.shape[1] < hist.r_grid.size
    assert summary["snapshot_bytes"] == 2 * 8 * width * summary["n_snapshots"]
    first = [float(row.split(",")[1]) for row in lines[1:width + 1]]
    assert first == pytest.approx(hist.r_grid[hist.start[0]:hist.start[0] + width].tolist())

    fol = tmp_path / "fol.csv"
    assert main(["foliate", "--history", str(hist_path), "--rays", "33",
                 "--out", str(fol)]) == 0
    rows = fol.read_text().strip().split("\n")[1:]
    assert len(rows) == 33 * len(trace_rays(hist, ray_count=33).times)
    last = rows[-1].split(",")
    assert float(last[0]) == hist.times[-1]
    assert abs(float(last[3]) - float(last[4])) <= 0.02 * float(last[3])


def test_sweep_exit_codes(tmp_path):
    good = tmp_path / "good.json"
    good.write_text(json.dumps({
        "a_values": [0.0, 0.5], "c_values": [1.0], "mode": "burgers"}))
    assert main(["sweep", "--config", str(good),
                 "--out", str(tmp_path / "o1")]) == 0
    assert (tmp_path / "o1" / "sweep.csv").exists()
    assert (tmp_path / "o1" / "summary.json").exists()

    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"a_values": [], "c_values": [1.0]}))
    assert main(["sweep", "--config", str(bad),
                 "--out", str(tmp_path / "o2")]) == 1
    assert main(["sweep", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o3")]) == 1

    failing = tmp_path / "failing.json"
    failing.write_text(json.dumps({
        "a_values": [0.0], "c_values": [1.0], "mode": "euler",
        "delta_values": [0.1], "sigma": -1.8,
        "eos_values": [{"family": "polytropic", "gamma": 0.5}],
        "solver": {"points_per_delta": 16, "r_min": 1.6, "ray_count": 33}}))
    assert main(["sweep", "--config", str(failing),
                 "--out", str(tmp_path / "o4")]) == 2


def _save_zero_history(path):
    """A two-snapshot history of the zero field, saved as path."""
    r = np.linspace(1.0, 3.0, 64)
    RunHistory(r_grid=r, times=np.array([-2.0, -1.9]), phi=np.zeros((2, r.size)),
               dtphi=np.zeros((2, r.size)), a=0.0, delta=0.1, status="Completed",
               eos=make_polytropic(2.0)).save(path)


_EULER_SMALL = ["euler-radial", "--delta", "0.1", "--c", "1", "--t-end", "-1.8",
                "--r-min", "1.6", "--points-per-delta", "16"]
_OVERSIZED = {
    "sample-dt": ["euler-radial", "--sample-dt", "1e-300", "--t-end", "-1.99"],
    "delta": ["euler-radial", "--delta", "1e-300", "--t-end", "-1.99"],
    "points-per-delta": ["euler-radial", "--points-per-delta", "1000000000", "--t-end", "-1.99"],
    "points-per-delta-beyond-float": ["euler-radial", "--points-per-delta", "1" + "0" * 400,
                                      "--t-end", "-1.99"],
    "seed-grid": ["seed-data", "--grid", "1000000000000"],
    "seed-grid-beyond-float": ["seed-data", "--grid", "1" + "0" * 400],
    "burgers-grid": ["burgers", "--grid", "100000000000", "--t-end", "-0.99"],
    "rays": ["foliate", "--rays", "1000000000000"],
    # CFL steps that would take more than MAX_VALUES steps, or that do not move t
    "euler-chaplygin-c": [*_EULER_SMALL, "--chaplygin", "--c", "1e20"],
    "burgers-c": ["burgers", "--grid", "64", "--c", "1e100", "--t-end", "0.5"],
    "burgers-t-end": ["burgers", "--grid", "64", "--t-end", "1e300"],
    "burgers-antidamped": ["burgers", "--grid", "64", "--a=-20", "--t-end", "0.5"],
}


@pytest.mark.parametrize("argv", _OVERSIZED.values(), ids=_OVERSIZED.keys())
def test_oversized_requests_name_their_error(tmp_path, capsys, argv):
    """A count that would size an array beyond errors.MAX_VALUES values (up to
    a terabyte, beyond numpy's largest array, or beyond a double's range) is
    an InvalidParameter raised before the array is allocated, and so is a
    time step that would take more than MAX_VALUES steps to t_end: exit 1
    with one error: line."""
    if argv[0] == "foliate":
        _save_zero_history(tmp_path / "zero.npz")
        argv = argv + ["--history", str(tmp_path / "zero.npz")]
    assert main(argv + ["--out", str(tmp_path / "out.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: InvalidParameter: ") and err.count("\n") == 1
    assert not (tmp_path / "out.csv").exists()


def test_charshock_error_maps_to_exit_1(tmp_path, capsys):
    for argv in (["seed-data", "--delta", "1.5", "--out", str(tmp_path / "x.csv")],
                 ["foliate", "--history", str(tmp_path / "missing.npz")]):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith("error: ")

    # a JSON file given as a history
    typo = tmp_path / "typo.json"
    typo.write_text(json.dumps({"grid_n": "x"}))
    assert main(["foliate", "--history", str(typo)]) == 1
    assert capsys.readouterr().err.startswith("error: ConfigInvalid: ")

    # a grid reaching r = 0, and too few rays
    hist_path = tmp_path / "zero.npz"
    _save_zero_history(hist_path)
    for argv, kind in ((["euler-radial", "--r-min", "0"], "InvalidParameter"),
                       (["foliate", "--history", str(hist_path), "--rays", "9"],
                        "InvalidParameter"),
                       (["predict", "--c", "nan"], "InvalidParameter"),
                       (["predict", "--c", "1", "--a", "nan"], "InvalidParameter"),
                       (["euler-radial", "--c", "nan"], "InvalidParameter"),
                       (["euler-radial", "--a", "nan"], "InvalidParameter"),
                       (["euler-radial", "--snapshot-stride", "-3"], "InvalidParameter"),
                       (["euler-radial", "--r-stride", "0"], "InvalidParameter"),
                       (["seed-data", "--grid", "-5"], "InvalidParameter")):
        assert main(argv) == 1
        assert capsys.readouterr().err.startswith(f"error: {kind}: ")

    # sweep configs of the wrong shape
    base = {"a_values": [0.0], "c_values": [1.0]}
    for cfg in (None, 1, [base], {"c_values": [1.0]}, {**base, "a_values": 1},
                {**base, "c_values": [True]}, {**base, "sigma": "x"},
                {**base, "solver": 1},
                {**base, "mode": "euler", "delta_values": ["x"]},
                {**base, "eos_values": [{"family": "polytropic"}]},
                {**base, "eos_values": ["x"]}, {**base, "eos_values": [{"family": "x"}]},
                # a mistyped solver key, entries and EOS fields of the wrong type
                {**base, "mode": "euler", "delta_values": [0.05], "solver": {"ray_cnt": 33}},
                {**base, "mode": "euler", "delta_values": [0.05], "solver": {"ray_count": "x"}},
                # sigma ends every euler run, and the seed grid is not a setting
                {**base, "mode": "euler", "delta_values": [0.05], "solver": {"t_end": -1.8}},
                {**base, "mode": "euler", "delta_values": [0.05], "solver": {"r_grid_n": 256}},
                # nor is either solver's CFL number
                {**base, "mode": "euler", "delta_values": [0.05], "solver": {"cfl": 0.4}},
                {**base, "mode": "burgers", "solver": {"cfl": 0.5}},
                {**base, "solver": {"simulate": True}},
                {**base, "mode": "burgers", "solver": {"simulate": 1}},
                {**base, "eos_values": [{"family": "polytropic", "gamma": "x"}]},
                {**base, "eos_values": [{"family": "custom", "h_table": ["a"] * 4,
                                         "eta_sq_table": [1.0] * 4}]},
                # NaN and Infinity JSON literals, and ints beyond the float range
                {**base, "c_values": [float("nan")]}, {**base, "a_values": [float("inf")]},
                {**base, "a_values": [10**400]},
                {**base, "mode": "euler", "delta_values": [0.05],
                 "solver": {"points_per_delta": 10**400}},
                {**base, "mode": "euler", "delta_values": [0.05], "solver": {"r_min": 10**400}},
                {**base, "mode": "burgers", "solver": {"simulate": True, "t_end": 10**400}}):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        assert main(["sweep", "--config", str(path), "--out", str(tmp_path / "o")]) == 1
        assert capsys.readouterr().err.startswith("error: ConfigInvalid: ")


def test_the_cfl_number_is_not_a_flag(capsys):
    """Each solver's CFL number is a module constant, so --cfl is an unknown
    flag: argparse's usage error, exit 2."""
    for argv in (["euler-radial", "--cfl", "0.4"], ["burgers", "--cfl", "0.5"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: --cfl" in capsys.readouterr().err


def test_readme_commands_parse():
    """Every charshock command of README's sh blocks parses; nothing runs.  A
    flag that the parser drops cannot stay in an example."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = "".join(re.findall(r"```sh\n(.*?)```", readme, re.S)).replace("\\\n", " ")
    commands = [line for line in blocks.splitlines() if line.startswith("charshock ")]
    assert len(commands) >= 6
    for line in commands:
        build_parser().parse_args(shlex.split(line)[1:])


def test_stdout_stays_open_across_calls(capsys):
    """Writing to stdout (no --out) leaves it open for the next command."""
    for _ in range(2):
        assert main(["predict", "--c", "0.2"]) == 0
        assert json.loads(capsys.readouterr().out)["classification"] == "ShockBefore"
