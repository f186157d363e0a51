import json
import math

import numpy as np
import pytest

from pprquery.harness import (ExperimentConfig, TrialResult, run_experiment,
                              emit, read_results, fit_scaling,
                              mean_queries_by_cell, eq1_success, eq5_success,
                              CapabilityMismatch, ConfigError,
                              InstanceLoadError, InsufficientPoints,
                              CSV_COLUMNS)
from pprquery import cli, generate, harness, save_edge_list
from conftest import chain_graph


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

    def test_threads_match_sequential(self):
        cfg = tiny_config(deltas=[0.1, 0.05, 0.02], trials=2)
        seq = run_experiment(cfg, threads=1)
        par = run_experiment(cfg, threads=3)
        assert [(r.cell, r.trial, r.estimate, r.queries) for r in seq] == \
            [(r.cell, r.trial, r.estimate, r.queries) for r in par]

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

    def test_exact_cap_suppresses_success(self):
        cfg = tiny_config(exact_cap=3)  # instance has 9 nodes
        rows = run_experiment(cfg)
        assert all(r.exact is None and r.success is None for r in rows)

    def test_success_matches_reimplementation(self):
        cfg = tiny_config(trials=5, deltas=[0.1, 0.05])
        for r in run_experiment(cfg):
            want = abs(r.estimate - r.exact) < r.eps * max(r.exact, r.delta)
            assert r.success == want

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


class TestCli:
    def test_generate_exact_run_fit(self, tmp_path):
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

    def test_run_seed_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(tiny_config().to_json())
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        cli.main(["run", "--config", str(cfg), "--out", str(a), "--seed", "9"])
        cli.main(["run", "--config", str(cfg), "--out", str(b), "--seed", "10"])
        assert a.read_bytes() != b.read_bytes()

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

    def test_trials_below_one(self):
        with pytest.raises(ConfigError, match="trials"):
            run_experiment(self.bad(trials=0))

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
                                          ("s", -1), ("s", 2)])
    def test_source_or_target_out_of_range(self, name, val, tmp_path,
                                           monkeypatch):
        self.no_trials(monkeypatch)
        p = tmp_path / "chain.txt"
        save_edge_list(chain_graph(), p)
        cfg = tiny_config(instance={"file": str(p), name: val})
        with pytest.raises(ConfigError, match=rf"{name}={val} outside \[0, 2\)"):
            run_experiment(cfg)

    def test_family_target_out_of_range(self, monkeypatch):
        self.no_trials(monkeypatch)
        monkeypatch.setattr(harness, "generate", generate)
        cfg = tiny_config(instance={"family": "sp_worst", "L": 2, "D": 2,
                                    "swap": True, "t": 10 ** 6})
        with pytest.raises(ConfigError, match=r"t=1000000 outside \[0, "):
            run_experiment(cfg)


def test_success_predicates():
    assert eq1_success(0.11, 0.1, 0.2, 0.05)
    assert not eq1_success(0.2, 0.1, 0.2, 0.05)
    assert eq5_success(0.11, 0.1, 0.2)
    assert not eq5_success(0.13, 0.1, 0.2)
