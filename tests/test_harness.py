import importlib
import json
import math
import pkgutil
import re

import numpy as np
import pytest

from pprquery.harness import (ExperimentConfig, TrialResult, run_experiment,
                              emit, read_results, fit_scaling,
                              eq1_success, eq5_success,
                              CapabilityMismatch, ConfigError,
                              InstanceLoadError, InsufficientPoints,
                              CSV_COLUMNS)
import pprquery
from pprquery.bidir import ConstraintViolation
from pprquery.classic import WalkBudgetExceeded
from pprquery import (FAMILIES, OracleHandle, PprqueryError, bidir, cli,
                      generate, harness, save_edge_list, load_edge_list,
                      exact_single_target, exact_pagerank)
from conftest import chain_graph, mean_queries_by_cell


def tiny_config(**over):
    base = dict(algorithm="monte_carlo",
                instance={"family": "sp_worst", "L": 2, "D": 2, "swap": True},
                deltas=[0.1], trials=2, master_seed=3)
    base.update(over)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_single_trial_singleton(self):
        cfg = tiny_config(instance={"family": "folklore_pair", "L": 1,
                                    "swap": True}, trials=1)
        rows = run_experiment(cfg)
        assert len(rows) == 1
        assert rows[0].success is True

    def test_determinism_byte_identical(self, tmp_path):
        cfg = tiny_config(deltas=[0.1, 0.05], trials=3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        emit(run_experiment(cfg), "csv", a)
        emit(run_experiment(cfg), "csv", b)
        assert a.read_bytes() == b.read_bytes()

    def test_adding_cells_preserves_existing(self):
        short = run_experiment(tiny_config(deltas=[0.1]))
        longer = run_experiment(tiny_config(deltas=[0.1, 0.02]))
        for r_old, r_new in zip(short, longer[:len(short)]):
            assert r_old.estimate == r_new.estimate
            assert r_old.queries == r_new.queries

    @pytest.mark.parametrize("algorithm,caps", [
        ("monte_carlo", []), ("st_jump_mc", ["jump"]),
        ("st_bidir_jump", ["jump"]), ("bippr", []),
        ("single_pair_ppr", ["in_sorted", "adj"]),
        ("sn_avg_full", ["jump", "in_sorted", "adj"])],
        ids=["monte_carlo", "st_jump_mc", "st_bidir_jump", "bippr",
             "single_pair_ppr", "sn_avg_full"])
    def test_threads_match_sequential(self, algorithm, caps):
        # the JUMP solvers' walks from every covered source are one
        # multi-source batch; the last four rows run on set-up values
        # (r_max, derived parameters) computed in the worker processes
        cfg = tiny_config(algorithm=algorithm, capabilities=caps,
                          deltas=[0.1, 0.05, 0.02], trials=2)
        seq = run_experiment(cfg, threads=1)
        par = run_experiment(cfg, threads=3)
        assert [(r.cell, r.trial, r.estimate, r.queries) for r in seq] == \
            [(r.cell, r.trial, r.estimate, r.queries) for r in par]

    @pytest.mark.parametrize("algorithm", ["single_pair_ppr", "sn_avg_full"])
    @pytest.mark.parametrize("deltas", [[0.1], [0.1, 0.05]])
    def test_derive_params_once_per_cell(self, algorithm, deltas,
                                         monkeypatch):
        """Each cell calls derive_params once, in its set-up, before its
        exact solve; its trials share the result, and none calls it."""
        events, derive = [], bidir.derive_params

        def spy(*args, **kwargs):
            events.append("derive")
            return derive(*args, **kwargs)

        def solve(real):
            return lambda *args: events.append("solve") or real(*args)

        for module in (harness, bidir):
            monkeypatch.setattr(module, "derive_params", spy)
        for name in ("exact_single_source", "exact_pagerank"):
            monkeypatch.setattr(harness, name, solve(getattr(harness, name)))
        rows = run_experiment(tiny_config(
            algorithm=algorithm, capabilities=["jump", "in_sorted", "adj"],
            deltas=deltas, trials=3, multipliers={"c_nr": 2.0}))
        assert len(rows) == 3 * len(deltas)
        assert events == ["derive", "solve"] * len(deltas)

    @pytest.mark.parametrize("k", [3, 8])
    def test_config_checked_once(self, k, monkeypatch):
        """run_experiment checks a config once, before any cell, so a
        preset config of k deltas resolves each delta's preset twice: in
        that check and in its cell (each cell used to check it all again,
        k^2 + 2k calls)."""
        calls = []
        for name in ("_check_config", "parameter_presets"):
            def spy(*args, _real=getattr(harness, name), _name=name):
                calls.append(_name)
                return _real(*args)

            monkeypatch.setattr(harness, name, spy)
        rows = run_experiment(tiny_config(
            instance={"family": "sp_avg", "preset": True, "n": 16, "m": 64},
            deltas=[0.2 / 2 ** i for i in range(k)], trials=1))
        assert [r.cell for r in rows] == list(range(k))
        assert calls == ["_check_config"] + ["parameter_presets"] * (2 * k)

    def test_capability_mismatch(self):
        with pytest.raises(CapabilityMismatch):
            run_experiment(tiny_config(algorithm="rbs"))

    def test_unknown_algorithm(self):
        with pytest.raises(ValueError):
            run_experiment(tiny_config(algorithm="nope"))

    def test_instance_errors(self):
        with pytest.raises(InstanceLoadError):
            run_experiment(tiny_config(instance={"file": "/nonexistent"}))
        with pytest.raises(InstanceLoadError):
            run_experiment(tiny_config(instance={"nope": 1}))

    def test_exact_cap_suppresses_success(self, tmp_path):
        cfg = tiny_config(exact_cap=3)  # instance has 9 nodes
        rows = run_experiment(cfg)
        assert all(r.exact is None and r.success is None for r in rows)
        # and the emitted CSV leaves the ground-truth fields blank
        for row in read_results(emit(rows, "csv", tmp_path / "r.csv")):
            assert [row[c] for c in ("exact", "abs_error", "rel_error",
                                     "success")] == ["", "", "", ""]
            assert float(row["estimate"]) >= 0.0 and int(row["q_total"]) > 0

    def test_success_matches_reimplementation(self):
        cfg = tiny_config(trials=5, deltas=[0.1, 0.05])
        for r in run_experiment(cfg):
            want = abs(r.estimate - r.exact) < r.eps * max(r.exact, r.delta)
            assert r.success == want

    @pytest.mark.parametrize("algorithm,caps", [("monte_carlo", []),
                                                ("sn_avg_jump", ["jump"])])
    def test_exact_is_python_float(self, algorithm, caps):
        # the pair and node variants read one entry of a float64 vector;
        # a numpy scalar would print as np.float64(...) under numpy 2
        rows = run_experiment(tiny_config(algorithm=algorithm,
                                          capabilities=caps))
        assert {type(r.exact) for r in rows} == {float}
        assert {type(r.success) for r in rows} == {bool}

    def test_file_instance(self, tmp_path):
        p = tmp_path / "chain.txt"
        save_edge_list(chain_graph(), p)
        cfg = tiny_config(instance={"file": str(p), "s": 0, "t": 1})
        rows = run_experiment(cfg)
        assert rows[0].exact == pytest.approx(0.8)


class TestEmit:
    def test_empty_results_header_only(self, tmp_path):
        p = tmp_path / "empty.csv"
        emit([], "csv", p)
        lines = p.read_text().strip().splitlines()
        assert len(lines) == 1
        assert lines[0] == ",".join(CSV_COLUMNS)

    def test_round_trip(self, tmp_path):
        cfg = tiny_config(deltas=[0.2, 0.1, 0.05, 0.02], trials=2)
        rows = run_experiment(cfg)
        p = tmp_path / "r.csv"
        emit(rows, "csv", p)
        back = read_results(p)
        assert len(back) == len(rows)
        assert float(back[0]["estimate"]) == rows[0].estimate
        # slope from re-ingested file equals slope from memory
        cells = mean_queries_by_cell(rows)
        xs = [d for d, _ in cells.values()]
        ys = [q for _, q in cells.values()]
        by_cell = {}
        for r in back:
            by_cell.setdefault(r["cell"], []).append(float(r["q_total"]))
        xs2 = [float(next(b["delta"] for b in back if b["cell"] == c))
               for c in by_cell]
        ys2 = [sum(v) / len(v) for v in by_cell.values()]
        assert fit_scaling(xs, ys) == pytest.approx(fit_scaling(xs2, ys2))

    def test_json_format(self, tmp_path):
        p = tmp_path / "r.json"
        emit(run_experiment(tiny_config()), "json", p)
        rows = json.loads(p.read_text())
        assert rows and set(rows[0]) == set(CSV_COLUMNS)


class TestFitScaling:
    def test_exact_power_law(self):
        xs = [1, 2, 4, 8, 16]
        ys = [x ** (-2 / 3) for x in xs]
        slope, stderr = fit_scaling(xs, ys)
        assert slope == pytest.approx(-2 / 3, abs=1e-9)
        assert stderr <= 1e-9

    def test_constant(self):
        slope, _ = fit_scaling([1, 2, 4, 8], [5, 5, 5, 5])
        assert slope == pytest.approx(0.0, abs=1e-12)

    def test_insufficient_points(self):
        with pytest.raises(InsufficientPoints):
            fit_scaling([1, 2, 4], [1, 2, 3])

    @pytest.mark.parametrize("k", range(4, 9))
    def test_identical_x_named(self, k):
        # at k = 7 the mean of log(0.2) rounds off it, and a slope with a
        # stderr of about 1.5e15 used to come back
        with pytest.raises(ValueError, match="all x values identical"):
            fit_scaling([0.2] * k, [5, 10, 20, 50, 5, 10, 20, 50][:k])

    @pytest.mark.parametrize("xs, ys, msg", [
        ([1, 2, 4, 8], [0, 1, 2, 3], "point 0: y=0 "),
        ([1, 2, 4, 8], [-1, 1, 2, 3], "point 0: y=-1 "),
        ([0, 2, 4, 8], [1, 1, 2, 3], "point 0: x=0 "),
        ([1, 2, -4, 8], [1, 1, 2, 3], "point 2: x=-4 "),
        ([1, 2, 4, 8], [1, 2, math.nan, 3], "point 2: y=nan "),
        ([1, 2, 4, math.inf], [1, 2, 3, 4], "point 3: x=inf "),
        ([1, 2, 4, 8], [1, 2, 3, -math.inf], "point 3: y=-inf "),
    ])
    def test_rejects_point_without_log(self, xs, ys, msg):
        with pytest.raises(ValueError, match=re.escape(msg)):
            fit_scaling(xs, ys)


# four monte_carlo cells and three bippr cells, all at alpha 0.2
FIT_ROWS = "algorithm,cell,delta,alpha,q_total\n" + "".join(
    f"{alg},{cell},{delta},0.2,{int(1 / delta)}\n" for alg, cell, delta in
    [*(("monte_carlo", i, d) for i, d in enumerate([0.2, 0.1, 0.05, 0.02])),
     *(("bippr", 4 + i, d) for i, d in enumerate([0.2, 0.1, 0.05]))])


def _error(message, verb=""):
    """A usage error line with a literal message."""
    return re.escape(f"pprquery{verb}: error: {message}")


RUN = ["run", "--config", "cfg.json", "--out", "t.csv"]


def _run(over, message, files=None):
    """A run of tiny_config(**over) that must fail with `message`."""
    return ({"cfg.json": tiny_config(**over).to_json(), **(files or {})},
            RUN, message)


# single_pair_ppr on the sp_avg n=16, m=64 preset, and sn_avg_full on the
# sn_avg_full family's
SP = dict(algorithm="single_pair_ppr", capabilities=["in_sorted", "adj"],
          instance={"family": "sp_avg", "preset": True, "n": 16, "m": 64})
SN = dict(SP, algorithm="sn_avg_full",
          capabilities=["jump", "in_sorted", "adj"],
          instance={**SP["instance"], "family": "sn_avg_full"})
SN_PRESET = {"family": "sn_avg_full", "preset": True, "n": 64, "m": 512}
BAD_EDGES = {"bad.txt": "3 2\n0 1\n1 0\n"}  # node 2 has no out-edge
BAD_EDGES_ERROR = _error("edge list bad.txt: header n=3 exceeds m=2 in "
                         "bad.txt: some node has out-degree 0")
EXACT = ["exact", "--graph", "g.txt", "--mode", "source", "--out", "e.csv"]
GENERATE = ["generate", "--out", "x.txt", "--meta", "m.json", "--family"]
PRESET = [*GENERATE, "sp_avg", "--n", "16", "--m", "64", "--preset"]

# Bad input to the CLI, one row each: (id, the input files it writes, as
# text or bytes, argv, a regex of the one error line, which ends stderr)
USAGE_ERRORS = [
    ("fit-missing_file", {"res.csv": FIT_ROWS},
     ["fit", "--results", "no_such.csv"],
     _error("no_such.csv: No such file or directory")),
    *((f"fit-{name}", {"res.csv": FIT_ROWS},
       ["fit", "--results", "res.csv", *flags], _error(message))
      for name, flags, message in [
          ("unknown_x", ["--x", "bogus"], "res.csv has no column 'bogus'"),
          ("unknown_y", ["--y", "bogus"], "res.csv has no column 'bogus'"),
          ("no_rows", ["--algorithm", "rbs"], "res.csv has no rbs rows"),
          ("three_points", ["--algorithm", "bippr"],
           "need >= 4 sweep points, got 3"),
          ("equal_x", ["--x", "alpha"], "all x values identical")]),
    # a config that is not UTF-8 JSON of an object, or names its
    # algorithm or family by a list
    *((f"run-config_{name}", {"cfg.json": text}, RUN, _error(message))
      for name, text, message in [
          ("not_utf8", b'\xff{}', "config is not UTF-8 JSON: 'utf-8' codec "
           "can't decode byte 0xff in position 0: invalid start byte"),
          ("malformed", '{"algorithm": }', "config is not UTF-8 JSON: "
           "Expecting value: line 1 column 15 (char 14)"),
          ("list", '["algorithm"]',
           'config must be a JSON object, got ["algorithm"]'),
          ("number", "5", "config must be a JSON object, got 5"),
          ("null", "null", "config must be a JSON object, got null")]),
    ("run-algorithm_list", *_run({"algorithm": ["monte_carlo"]}, _error(
        "unknown algorithm ['monte_carlo']"))),
    ("run-family_list", *_run(
        {"instance": {"family": ["sp_avg"], "n": 8, "L": 2, "D": 2}},
        _error("unknown family ['sp_avg']"))),
    ("run-family_list_preset", *_run(
        {"instance": {"family": ["sp_avg"], "preset": True, "n": 16,
                      "m": 64}},
        _error("preset instance: no preset for family ['sp_avg']"))),
    # files the OS refuses: no output is written into a missing directory
    ("run-config_missing", {}, ["run", "--config", "no_such.json", "--out",
                                "t.csv"],
     _error("no_such.json: No such file or directory")),
    ("run-config_directory", {}, ["run", "--config", ".", "--out", "t.csv"],
     _error(".: Is a directory")),
    ("run-out_missing_dir", {"cfg.json": tiny_config().to_json()},
     ["run", "--config", "cfg.json", "--out", "no_dir/t.csv"],
     _error("no_dir/t.csv: No such file or directory")),
    ("exact-out_missing_dir", {"g.txt": "2 2\n0 1\n1 0\n"},
     [*EXACT[:-1], "no_dir/e.csv"],
     _error("no_dir/e.csv: No such file or directory")),
    ("generate-out_missing_dir", {},
     ["generate", "--family", "sp_avg", "--n", "16", "--m", "64",
      "--preset", "--out", "no_dir/g.txt"],
     _error("no_dir/g.txt: No such file or directory")),
    # named before g.txt is written
    ("generate-meta_missing_dir", {},
     ["generate", "--family", "sp_avg", "--n", "16", "--m", "64",
      "--preset", "--out", "g.txt", "--meta", "no_dir/m.json"],
     _error("no_dir/m.json: No such file or directory")),
    ("run-zero_threads", {"cfg.json": tiny_config().to_json()},
     ["run", "--config", "cfg.json", "--out", "t.csv", "--threads", "0"],
     _error("threads must be an integer >= 1, got 0")),
    ("run-capability_mismatch", *_run({"algorithm": "rbs"}, _error(
        "rbs needs capabilities ['in_sorted']"))),
    ("run-no_file_or_family", *_run({"instance": {"n": 16}}, _error(
        "instance needs 'file' or 'family'"))),
    ("run-missing_file", *_run({"instance": {"file": "no_such.txt"}}, _error(
        "edge list no_such.txt: no_such.txt not found."))),
    ("run-bad_spec", *_run(
        {"instance": {"family": "sp_avg", "n": 8, "L": 0, "D": 2}},
        _error("sp_avg needs n, L, D >= 1"))),
    # preset used to be read by truthiness: "false" ran the preset path
    ("run-non_bool_preset", *_run(
        {"instance": {"family": "sp_avg", "preset": "false", "n": 16,
                      "m": 64}}, _error("preset='false' must be a bool"))),
    ("run-non_bool_swap", *_run(
        {"instance": {"family": "sp_avg", "n": 8, "L": 2, "D": 2,
                      "swap": "false"}},
        _error("swap='false' must be a bool"))),
    ("run-bad_edge_list", *_run({"instance": {"file": "bad.txt"}},
                                BAD_EDGES_ERROR, BAD_EDGES)),
    ("exact-bad_edge_list", BAD_EDGES,
     ["exact", "--graph", "bad.txt", "--mode", "pagerank", "--out", "e.csv"],
     BAD_EDGES_ERROR),
    # theta = c_theta * delta^(2/3) underflows before L takes its log
    ("run-single_pair_ppr_theta", *_run(
        {**SP, "deltas": [1e-300], "multipliers": {"c_theta": 1e-300}},
        _error("theta underflows to 0.0 (c_theta=1e-300, delta=1e-300)"))),
    # c_nr = 1e-9 leaves derive_params too few walks
    ("run-constraint_single_pair_ppr", *_run(
        {**SP, "multipliers": {"c_nr": 1e-9}},
        _error("constraint walk_count violated: margin 0.00448"))),
    ("run-constraint_sn_avg_full", *_run(
        {**SN, "multipliers": {"c_nr": 1e-9}},
        _error("constraint walk_count violated: margin 0.0003949"))),
    # delta = 1e-300 asks Monte Carlo for about 9.2e302 walks
    ("run-walk_budget", *_run({"deltas": [1e-300]}, _error(
        "1 x 9.21e+302 walks > MAX_WALKS = 268435456"))),
    # monte_carlo at eps 1e-3 on target_large's 100k-node preset: named
    # before the instance is generated
    ("run-walk_budget_before_build", *_run(
        {"eps": 1e-3, "deltas": [1e-4], "instance": {
            "family": "st_avg_full", "preset": True, "n": 20000,
            "m": 400000}},
        _error("1 x 3.684e+11 walks > MAX_WALKS = 268435456"))),
    # bippr's walk count scales by the built graph's r_max: named after
    # the build, before the exact solve
    ("run-walk_budget_bippr", *_run({"algorithm": "bippr", "eps": 1e-4},
                                    _error("1 x 1.427e+10 walks > "
                                           "MAX_WALKS = 268435456"))),
    # eps^2 underflows in the walk count and in gamma; 2^53 walk steps
    ("run-mc_eps", *_run({"eps": 1e-300}, _error(
        "eps=1e-300, delta=0.1: inf walks > MAX_WALKS = 268435456"))),
    ("run-single_pair_ppr_eps", *_run({**SP, "eps": 1e-300}, _error(
        "gamma underflows to 0.0 (c_gamma=1.0, eps=1e-300, L=") + r"\d+\)")),
    ("run-mc_alpha", *_run({"alpha": 1e-17, "exact_cap": 0},
                           _error("alpha=1e-17, count=")
                           + r"\d+: \d\.\d+e\+\d+ steps >= 2\^53")),
    # derive_params at extremes: L past MAX_LEVELS, n_s and eps * delta
    # past MAX_WALKS
    ("run-single_pair_ppr_c_L", *_run(
        {**SP, "multipliers": {"c_L": 1e300}},
        _error("L=7.675e+300 > MAX_LEVELS = 1048576"))),
    ("run-single_pair_ppr_c_ns", *_run(
        {**SP, "multipliers": {"c_ns": 1e300}},
        _error("n_r=223.2 x n_s=2.154e+300 > MAX_WALKS"))),
    ("run-single_pair_ppr_eps_delta", *_run(
        {**SP, "eps": 1e-100, "deltas": [1e-250]},
        _error("n_r=inf x n_s=2.154e+83 > MAX_WALKS"))),
    # 1 - alpha rounds to 1.0: the exact solve takes no finite depth
    ("run-mc_alpha_exact", *_run({"alpha": 1e-300}, _error(
        "alpha=1e-300, tol=1e-12: inf steps > MAX_DEPTH = 1000000"))),
    *((f"exact-{name}", {"g.txt": "2 2\n0 1\n1 0\n"}, [*EXACT, *flags],
       _error(message)) for name, flags, message in [
          ("node_999", ["--node", "999"], "anchor=999 outside [0, 2)"),
          ("node_-1", ["--node", "-1"], "anchor=-1 outside [0, 2)"),
          ("tol_2", ["--tol", "2"], "tol=2.0 outside (0,1)"),
          ("tol_0", ["--tol", "0"], "tol=0.0 outside (0,1)"),
          ("alpha_1.5", ["--alpha", "1.5"], "alpha=1.5 outside (0,1)"),
          ("alpha_1e-300", ["--alpha", "1e-300"],
           "alpha=1e-300, tol=1e-12: inf steps > MAX_DEPTH = 1000000")]),
    ("generate-unknown_family", {},
     ["generate", "--family", "no_such", "--n", "16", "--m", "64",
      "--preset", "--out", "x.txt"],
     _error("argument --family: invalid choice: 'no_such' (choose from "
            + ", ".join(map(repr, FAMILIES)) + ")", " generate")),
    # fields --preset sets itself
    *((f"generate-preset_sets_{flag[2:]}", {}, [*PRESET, flag, val],
       _error(f"--preset sets {flag} itself", " generate"))
      for flag, val in [("--L", "3"), ("--D", "2"), ("--D2", "4"),
                        ("--variant", "avg")]),
    ("generate-preset_bad_alpha", {}, [*PRESET, "--alpha", "1.5"],
     _error("alpha=1.5 outside (0,1)")),
    *((f"generate-{name}", {}, [*GENERATE, *flags], _error(message))
      for name, flags, message in [
          ("bad_spec", ["sp_avg", "--n", "8", "--L", "0", "--D", "2"],
           "sp_avg needs n, L, D >= 1"),
          ("bad_preset_counts",
           ["sp_avg", "--n", "16", "--m", "8", "--preset"],
           "need n <= m <= n^2, got n=16, m=8"),
          ("bad_preset_delta",
           ["sp_avg", "--n", "16", "--m", "64", "--delta", "2", "--preset"],
           "delta=2.0 outside (0,1]"),
          ("bad_variant", ["sp_avg", "--n", "16", "--variant", "bogus"],
           "variant='bogus' must be '', 'worst' or 'avg'"),
          ("d2_not_d", ["st_avg_full", "--n", "8", "--L", "2", "--D", "2",
                        "--D2", "5"], "D2=5 must be 0 or D=2"),
          # sizes past int32 used to end in an OverflowError (the relay's
          # len) or numpy's "Maximum allowed size exceeded" (_pad)
          ("huge_n", ["sp_avg", "--n", str(10 ** 20), "--L", "1", "--D", "1"],
           "200000000000000000003 nodes: int32 ids allow at most 2^31"),
          ("huge_padding_m", ["sp_worst", "--n", "3", "--m", str(10 ** 20),
                              "--L", "1", "--D", "1", "--padding"],
           "100000000000000000000 padding edges: at most 2^31 - 1 fit "
           "int32 offsets")]),
    ("run-huge_padding_m", *_run(
        {"instance": {"family": "sp_worst", "n": 3, "m": 10 ** 20, "L": 1,
                      "D": 1, "padding": True}},
        _error("100000000000000000000 padding edges: at most 2^31 - 1 fit "
               "int32 offsets"))),
]


class TestCli:
    def test_generate_exact_run_fit(self, tmp_path, capsys):
        edge = tmp_path / "g.txt"
        meta = tmp_path / "g.json"
        assert cli.main(["generate", "--family", "sp_worst", "--L", "2",
                         "--D", "2", "--swap", "--out", str(edge),
                         "--meta", str(meta)]) == 0
        assert json.loads(meta.read_text())["pi_post_swap"] == pytest.approx(0.128)

        vec = tmp_path / "v.csv"
        assert cli.main(["exact", "--graph", str(edge), "--mode", "source",
                         "--node", "0", "--out", str(vec)]) == 0
        assert vec.read_text().startswith("node,value")

        cfg = tmp_path / "cfg.json"
        cfg.write_text(tiny_config(deltas=[0.2, 0.1, 0.05, 0.02]).to_json())
        out = tmp_path / "res.csv"
        assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert cli.main(["fit", "--results", str(out)]) == 0
        (tmp_path / "rows.csv").write_text(FIT_ROWS)  # the fit-* rows' input
        assert cli.main(["fit", "--results", str(tmp_path / "rows.csv")]) == 0
        # Monte Carlo makes no IN-SORTED query: no log-log slope exists
        with pytest.raises(SystemExit) as exc:
            cli.main(["fit", "--results", str(out), "--y", "q_in_sorted"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "pprquery: error: point 0: y=0.0 " in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("files,argv,line", [r[1:] for r in USAGE_ERRORS],
                             ids=[r[0] for r in USAGE_ERRORS])
    def test_usage_error(self, tmp_path, monkeypatch, capsys, files, argv,
                         line):
        """Exit status 2, one error line, which `line` matches whole, no
        traceback, and no file beside the row's inputs."""
        monkeypatch.chdir(tmp_path)
        for name, text in files.items():
            (tmp_path / name).write_bytes(
                text if isinstance(text, bytes) else text.encode())
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        errors = [x for x in err.splitlines() if "error:" in x]
        assert len(errors) == 1 and re.fullmatch(line, errors[0])
        assert err.endswith(errors[0] + "\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(files)

    def test_run_names_missing_out_dir_before_any_trial(self, tmp_path,
                                                         monkeypatch):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(tiny_config().to_json())

        def no_trials(*args, **kwargs):
            raise AssertionError("run computed trials before naming --out")

        monkeypatch.setattr(cli, "run_experiment", no_trials)
        with pytest.raises(SystemExit) as exc:
            cli.main(["run", "--config", str(cfg), "--out",
                      str(tmp_path / "no_dir" / "t.csv")])
        assert exc.value.code == 2

    @pytest.mark.parametrize("algorithm,caps", [("monte_carlo", []),
                                                ("st_jump_mc", ["jump"])])
    def test_walk_budget_named_before_any_instance(self, algorithm, caps,
                                                   monkeypatch):
        def no_instance(*args):
            raise AssertionError("an instance was resolved")

        monkeypatch.setattr(harness, "_resolve_instance", no_instance)
        cfg = tiny_config(algorithm=algorithm, capabilities=caps,
                          deltas=[0.5, 1e-4], eps=1e-3)
        with pytest.raises(WalkBudgetExceeded, match=r"1 x 3\.684e\+11 walks"):
            run_experiment(cfg)

    @pytest.mark.parametrize("over,error,message", [
        ({"algorithm": "bippr", "eps": 1e-4}, WalkBudgetExceeded,
         "1 x 1.427e+10 walks > MAX_WALKS"),
        ({"algorithm": "st_bidir_jump", "capabilities": ["jump"],
          "eps": 1e-4}, WalkBudgetExceeded, "1 x 4.512e+09 walks > MAX_WALKS"),
        ({"algorithm": "sn_avg_jump", "capabilities": ["jump"], "eps": 1e-4,
          "instance": SN_PRESET}, WalkBudgetExceeded,
         "1 x 3.598e+11 walks > MAX_WALKS"),
        ({**SP, "multipliers": {"c_nr": 0.1}}, ConstraintViolation,
         "constraint walk_count violated: margin 0.103"),
        ({**SN, "multipliers": {"c_nr": 1e-9}}, ConstraintViolation,
         "constraint walk_count violated: margin 0.0003949"),
        ({**SN, "eps": 1e-7, "instance": SN_PRESET}, WalkBudgetExceeded,
         "n_r=9.119e+09 x n_s=14.14 > MAX_WALKS")],
        ids=["bippr", "st_bidir_jump", "sn_avg_jump", "single_pair_ppr",
             "sn_avg_full", "sn_avg_full-walks"])
    def test_budget_named_before_exact_solve(self, over, error, message,
                                             monkeypatch):
        """A budget that reads the built graph (r_max from its n and m,
        or derive_params on its n) is named once the graph is built,
        before the exact solve and any trial."""
        def no_solve(*args):
            raise AssertionError("the exact solve ran")

        for name in ("exact_single_source", "exact_pagerank"):
            monkeypatch.setattr(harness, name, no_solve)
        with pytest.raises(error, match=re.escape(message)):
            run_experiment(tiny_config(**over))

    @pytest.mark.parametrize("mode,node,solve", [
        ("target", "1", lambda g: exact_single_target(g, 1, 0.2)),
        ("pagerank", "0", lambda g: exact_pagerank(g, 0.2))])
    def test_exact_modes(self, tmp_path, mode, node, solve):
        edge, out = tmp_path / "g.txt", tmp_path / "v.csv"
        save_edge_list(chain_graph(), edge)
        assert cli.main(["exact", "--graph", str(edge), "--mode", mode,
                         "--node", node, "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        want = solve(chain_graph())
        assert lines[0] == "node,value" and len(lines) == 1 + len(want)
        assert [float(x.split(",")[1]) for x in lines[1:]] == want.tolist()

    def test_run_seed_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(tiny_config().to_json())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["run", "--config", str(cfg), "--out", str(a), "--seed", "9"])
        cli.main(["run", "--config", str(cfg), "--out", str(b), "--seed", "10"])
        assert a.read_bytes() != b.read_bytes()

    def test_light_super_source_runs_every_trial(self, tmp_path, capsys):
        # s' is light here (d_out < 2|V_P|), and its JUMP-drawn out-list
        # can miss every light node: the run used to end in IndexError
        # "no light out-neighbor to sample"; that list is read again
        g = tmp_path / "f.txt"
        cli.main(["generate", "--family", "folklore_pair", "--n", "2",
                  "--m", "4", "--delta", "0.1", "--preset", "--out", str(g)])
        results = run_experiment(ExperimentConfig(
            algorithm="sn_avg_full", instance={"file": str(g), "t": 3},
            capabilities=["jump", "in_sorted", "adj"],
            multipliers={"c_tau": 0.001}, trials=20))
        assert len(results) == 20 and all(r.success for r in results)

    def test_generate_preset_applies_padding(self, tmp_path):
        # --padding used to be dropped under --preset
        args = ["generate", "--family", "sp_avg", "--n", "16", "--m", "64",
                "--delta", "0.1", "--preset"]
        plain, padded = tmp_path / "plain.txt", tmp_path / "padded.txt"
        meta = tmp_path / "m.json"
        assert cli.main([*args, "--out", str(plain)]) == 0
        assert cli.main([*args, "--padding", "--out", str(padded),
                         "--meta", str(meta)]) == 0
        g, gp = load_edge_list(plain), load_edge_list(padded)
        assert gp.node_count == g.node_count + 16
        assert gp.edge_count == g.edge_count + 64
        payload = json.loads(meta.read_text())
        assert payload["spec"]["padding"] is True
        assert payload["roles"]["padding"] == [g.node_count, gp.node_count - 1]
        ids = [payload["target_group"], *payload["roles"].values()]
        assert all(type(v) is list and all(type(i) is int for i in v)
                   for v in ids), ids

    def test_preset_generate(self, tmp_path):
        edge = tmp_path / "g.txt"
        assert cli.main(["generate", "--family", "sp_avg", "--n", "64",
                         "--m", "512", "--delta", "0.01", "--preset",
                         "--out", str(edge)]) == 0


class TestConfigErrors:
    """Bad configs fail with a named ConfigError before any instance is
    generated (the instance family here does not even exist); s and t
    outside the graph fail once it is built, before any trial."""

    @pytest.fixture(autouse=True)
    def no_generation(self, monkeypatch):
        def fail(spec):
            raise AssertionError("instance generated for a bad config")

        monkeypatch.setattr(harness, "generate", fail)

    def bad(self, **over):
        return tiny_config(instance={"family": "no_such_family"}, **over)

    def test_unknown_keys_named(self):
        text = json.dumps({"algorithm": "monte_carlo",
                           "instance": {"family": "sp_worst"},
                           "detlas": [0.1], "trails": 2})
        with pytest.raises(ConfigError, match=r"\['detlas', 'trails'\]"):
            ExperimentConfig.from_json(text)

    def test_empty_deltas(self):
        with pytest.raises(ConfigError, match="deltas is empty"):
            run_experiment(self.bad(deltas=[]))

    @pytest.mark.parametrize("delta", [0.0, -0.1, 1.5, math.nan])
    def test_delta_outside_unit_interval(self, delta):
        with pytest.raises(ConfigError, match="outside \\(0,1\\]"):
            run_experiment(self.bad(deltas=[0.1, delta]))

    @pytest.mark.parametrize("name,val", [("eps", 0.0), ("eps", 1.0),
                                          ("p_f", 0.0), ("p_f", 1.0),
                                          ("alpha", 0.0), ("alpha", 1.2)])
    def test_rate_outside_open_unit_interval(self, name, val):
        with pytest.raises(ConfigError, match=f"{name}={val}"):
            run_experiment(self.bad(**{name: val}))

    def test_unknown_algorithm(self):
        with pytest.raises(ConfigError, match="nope"):
            run_experiment(self.bad(algorithm="nope"))

    @pytest.mark.parametrize("algorithm,key", [
        ("monte_carlo", "c_walk"), ("single_pair_ppr", "c_walks"),
        ("power_iteration", "c_walks"), ("sn_avg_full", "rbs_theta")])
    def test_unknown_multiplier(self, algorithm, key):
        # a key the algorithm never reads, such as a typo of c_walks,
        # would otherwise run silently with the default
        with pytest.raises(ConfigError, match=rf"unknown multipliers \['{key}'\]"):
            run_experiment(self.bad(algorithm=algorithm,
                                    capabilities=["jump", "in_sorted", "adj"],
                                    multipliers={key: 1.0}))

    @pytest.mark.parametrize("algorithm,key", [
        ("monte_carlo", "c_walks"), ("bippr", "r_max"), ("rbs", "rbs_theta"),
        ("single_pair_ppr", "c_ns")])
    @pytest.mark.parametrize("val", [0.0, -1.0, math.nan, math.inf, True, "2"])
    def test_multiplier_value_not_finite_positive(self, algorithm, key, val):
        # 0.0 used to run (r_max and rbs_theta silently fell back to their
        # defaults), a string failed late with a bare TypeError
        with pytest.raises(ConfigError, match=re.escape(f"{key}={val!r}")):
            run_experiment(self.bad(algorithm=algorithm,
                                    capabilities=["in_sorted", "adj"],
                                    multipliers={key: val}))

    def test_trials_below_one(self):
        with pytest.raises(ConfigError, match="trials"):
            run_experiment(self.bad(trials=0))

    @pytest.mark.parametrize("name,val", [
        ("trials", True), ("trials", 2.5), ("trials", "3"),
        ("master_seed", True), ("master_seed", 1.5), ("master_seed", -1),
        ("exact_cap", "x"), ("exact_cap", False), ("exact_cap", -1),
        ("deltas", 0.1), ("multipliers", ["c_walks"]),
        ("capabilities", "jump"), ("instance", "sp_worst")])
    def test_mistyped_field_named(self, name, val):
        # True used to run as 1 trial or seed 1, the others failed late
        # with a bare TypeError (exact_cap only after generation), numpy's
        # ValueError (seed -1) or the letters of "jump" as capabilities
        with pytest.raises(ConfigError, match=rf"{name} must be .*"
                                              rf"{re.escape(repr(val))}"):
            run_experiment(tiny_config(**{"instance": {"family": "no_such"},
                                          name: val}))

    @pytest.mark.parametrize("threads", [0, -2, 2.5, "2", True])
    def test_threads_not_an_integer_from_one(self, threads, monkeypatch):
        # 0 and -2 used to run sequentially, 2.5 and "2" failed with a bare
        # TypeError
        def fail(cfg, cell):
            raise AssertionError("a cell ran with a bad thread count")

        monkeypatch.setattr(harness, "_run_cell", fail)
        with pytest.raises(ConfigError, match=r"threads must be an integer >= 1, "
                                              rf"got {re.escape(repr(threads))}"):
            run_experiment(tiny_config(), threads=threads)

    @pytest.mark.parametrize("caps", [["jmp"], [["jump"]]])
    def test_bad_capability_names_named(self, caps):
        with pytest.raises(ConfigError, match="capabilities"):
            run_experiment(self.bad(capabilities=caps))

    @pytest.mark.parametrize("name,val", [("trials", np.int64(2)),
                                          ("master_seed", 0),
                                          ("exact_cap", 0),
                                          ("capabilities", ("jump",)),
                                          ("deltas", (0.1,))])
    def test_integer_and_tuple_fields_accepted(self, name, val):
        with pytest.raises(AssertionError, match="instance generated"):
            run_experiment(self.bad(**{name: val}))

    def test_delta_one_accepted(self):
        with pytest.raises(AssertionError, match="instance generated"):
            run_experiment(self.bad(deltas=[1.0]))

    @pytest.mark.parametrize("instance,key", [
        ({"family": "sp_worst", "L": 2, "D": 2, "Swap": True}, "Swap"),
        ({"family": "sp_avg", "n": 16, "m": 64, "preset": True, "nn": 4},
         "nn"),
        ({"family": "sp_avg", "n": 16, "m": 64, "preset": True, "L": 4}, "L"),
        ({"file": "g.txt", "family": "sp_worst"}, "family")])
    def test_unknown_instance_keys(self, instance, key):
        with pytest.raises(ConfigError, match=rf"unknown instance keys \['{key}'\]"):
            run_experiment(tiny_config(instance=instance))

    @staticmethod
    def no_trials(monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("trial started for a bad config")

        monkeypatch.setattr(harness, "OracleHandle", fail)

    @pytest.mark.parametrize("name,val", [("t", -1), ("t", 10 ** 6),
                                          ("s", -1), ("s", 2), ("s", True),
                                          ("t", 1.5)])
    def test_source_or_target_out_of_range(self, name, val, tmp_path,
                                           monkeypatch):
        self.no_trials(monkeypatch)
        p = tmp_path / "chain.txt"
        save_edge_list(chain_graph(), p)
        cfg = tiny_config(instance={"file": str(p), name: val})
        with pytest.raises(ConfigError, match=rf"{name}={val} outside \[0, 2\)"):
            run_experiment(cfg)

    @pytest.mark.parametrize("over,bad", [
        ({}, "n=None"), ({"n": 16}, "m=None"), ({"n": 16.5, "m": 64}, "n=16.5"),
        ({"n": True, "m": 64}, "n=True"), ({"n": 16, "m": "64"}, "m='64'"),
        ({"n": 0, "m": 64}, "n=0")])
    def test_preset_counts_named(self, over, bad):
        # a missing n used to fail in _resolve_instance with KeyError: 'n',
        # 16.5 with a bare TypeError, True only at generation
        inst = {"family": "sp_avg", "preset": True, **over}
        with pytest.raises(ConfigError, match=rf"preset instance: "
                                              rf"{re.escape(bad)} must be"):
            run_experiment(tiny_config(instance=inst))

    @pytest.mark.parametrize("over,err", [
        ({"family": "no_such"}, "no preset for family 'no_such'"),
        ({"m": 8}, "need n <= m <= n^2, got n=16, m=8"),
        ({"m": 257}, "need n <= m <= n^2, got n=16, m=257"),
        ({"family": "st_avg_adj"}, "st_avg_adj assumes delta <=")])
    def test_bad_preset_named_before_generation(self, over, err):
        # each used to fail at generation: RegimeUndefined or
        # SpecConstraintViolation from parameter_presets
        inst = {"family": "sp_avg", "preset": True, "n": 16, "m": 64, **over}
        with pytest.raises(ConfigError,
                           match=rf"preset instance: {re.escape(err)}"):
            run_experiment(tiny_config(instance=inst, deltas=[0.1, 0.6]))

    def test_preset_numpy_counts_accepted(self):
        inst = {"family": "sp_avg", "preset": True, "n": np.int64(16),
                "m": np.int64(64)}
        with pytest.raises(AssertionError, match="instance generated"):
            run_experiment(tiny_config(instance=inst))

    def test_family_target_out_of_range(self, monkeypatch):
        self.no_trials(monkeypatch)
        monkeypatch.setattr(harness, "generate", generate)
        cfg = tiny_config(instance={"family": "sp_worst", "L": 2, "D": 2,
                                    "swap": True, "t": 10 ** 6})
        with pytest.raises(ConfigError, match=r"t=1000000 outside \[0, "):
            run_experiment(cfg)


SCALAR_QUERIES = ("deg_out", "deg_in", "out_nbr", "in_nbr", "in_sorted",
                  "adj", "jump")


def test_scalar_queries_come_only_from_the_push(monkeypatch):
    """Every estimator in ALGORITHMS asks its queries in batches, but for
    the randomized push (bidir.backward_phase), whose scalar queries are
    DEG-IN, IN-SORTED and DEG-OUT: no other caller of a scalar
    OracleHandle method is left, a super-source view's included."""
    calls, in_push = set(), []
    for name in SCALAR_QUERIES:
        def counted(self, *args, _name=name, _query=getattr(OracleHandle, name)):
            calls.add((_name, bool(in_push)))
            return _query(self, *args)
        monkeypatch.setattr(OracleHandle, name, counted)
    backward = bidir.backward_phase

    def marked(*args):
        in_push.append(True)
        try:
            return backward(*args)
        finally:
            in_push.pop()

    monkeypatch.setattr(bidir, "backward_phase", marked)
    for algorithm, (_, caps, _, _, _) in harness.ALGORITHMS.items():
        run_experiment(ExperimentConfig(
            algorithm=algorithm, capabilities=list(caps),
            instance={"family": "sp_avg", "n": 16, "m": 64, "preset": True},
            deltas=[0.1], trials=1, master_seed=1))
    assert calls == {("deg_in", True), ("in_sorted", True), ("deg_out", True)}


def test_success_predicates():
    assert eq1_success(0.11, 0.1, 0.2, 0.05)
    assert not eq1_success(0.2, 0.1, 0.2, 0.05)
    assert eq5_success(0.11, 0.1, 0.2)
    assert not eq5_success(0.13, 0.1, 0.2)


def test_every_named_value_error_is_a_usage_error():
    """Each ValueError subclass a pprquery module defines derives from
    PprqueryError, the one class the CLI reports as a usage error."""
    named = {}
    for info in pkgutil.iter_modules(pprquery.__path__):
        module = importlib.import_module(f"pprquery.{info.name}")
        named.update((c.__name__, c) for c in vars(module).values()
                     if isinstance(c, type) and issubclass(c, ValueError)
                     and c.__module__ == module.__name__)
    assert {"GraphError", "IndexOutOfRange", "FitError", "ExplosionGuard",
            "RegimeUndefined"} <= named.keys()
    assert [n for n, c in named.items() if not issubclass(c, PprqueryError)] == []
