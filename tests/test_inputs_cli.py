import csv
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import coalattn
from coalattn import bench, cli, oracles, reports
from coalattn.estimators import EstimatorConfig
from coalattn.games import EmbeddingGame, TabularGame
from coalattn.inputs import (
    InputError,
    RunConfig,
    load_config,
    load_input,
    parse_document,
)
from coalattn.meanfield import MeanFieldConfig, solve_fixed_point
from coalattn.oracles import exact_spin_marginals
from coalattn.pipeline import HeadParams
from coalattn.reports import dump_json, run_attend, run_estimate, run_oracle

from conftest import WORKED_TABLE


def _table_doc(**extra):
    doc = {"schema_version": 1, "n": 3, "characteristic_table": list(WORKED_TABLE)}
    doc.update(extra)
    return doc


def _embedding_doc(n=4, d=3, seed=1, **extra):
    rng = np.random.default_rng(seed)
    doc = {
        "schema_version": 1,
        "n": n,
        "d": d,
        "embeddings": rng.normal(size=(n, d)).tolist(),
        "value_projection": rng.normal(size=(d, d)).tolist(),
        "gate_weights": rng.normal(size=d).tolist(),
        "gate_bias": 0.2,
    }
    doc.update(extra)
    return doc


# an integer JSON literal no float can hold
HUGE = 10**400


def _solver_doc():
    return {
        "schema_version": 1,
        "n": 3,
        "fields": [0.423, 0.711, 0.512],
        "couplings": [[0.0, 0.466, 0.312], [0.466, 0.0, 0.278], [0.312, 0.278, 0.0]],
    }


class TestDocumentValidation:
    def test_worked_fixture_parses(self):
        doc = parse_document(_table_doc())
        assert doc.n == 3 and doc.characteristic_table is not None

    def test_nonzero_empty_value_rejected(self):
        bad = _table_doc()
        bad["characteristic_table"][0] = 0.1
        with pytest.raises(InputError, match="characteristic_table"):
            parse_document(bad)

    def test_a_nonzero_empty_coalition_has_one_wording(self):
        bad = _table_doc()
        bad["characteristic_table"][0] = 0.1
        with pytest.raises(InputError) as parsed:
            parse_document(bad)
        with pytest.raises(ValueError) as built:
            TabularGame(bad["characteristic_table"])
        assert str(parsed.value) == "characteristic_table: empty coalition must have value 0, got 0.1"
        assert str(built.value) == "tabular game: empty coalition must have value 0, got 0.1"

    def test_game_exclusivity(self):
        bad = _embedding_doc()
        bad["characteristic_table"] = list(WORKED_TABLE)
        with pytest.raises(InputError, match="mutually exclusive"):
            parse_document(bad)

    def test_missing_schema_version(self):
        bad = _table_doc()
        del bad["schema_version"]
        with pytest.raises(InputError, match="schema_version"):
            parse_document(bad)

    def test_wrong_schema_version(self):
        with pytest.raises(InputError, match="schema_version"):
            parse_document(_table_doc(schema_version=2))

    def test_unknown_keys_rejected(self):
        with pytest.raises(InputError, match="unknown keys"):
            parse_document(_table_doc(tokens=["a", "b", "c"]))

    def test_table_length_must_match_n(self):
        bad = _table_doc(n=4)
        with pytest.raises(InputError, match="16 entries"):
            parse_document(bad)

    def test_embedding_row_count_checked(self):
        bad = _embedding_doc()
        bad["n"] = 5
        with pytest.raises(InputError, match="embeddings"):
            parse_document(bad)

    def test_asymmetric_couplings_rejected(self):
        bad = _solver_doc()
        bad["couplings"][0][1] = 0.9
        with pytest.raises(InputError, match="symmetric"):
            parse_document(bad)

    def test_nonzero_coupling_diagonal_rejected(self):
        bad = _solver_doc()
        bad["couplings"][1][1] = 0.5
        with pytest.raises(InputError, match="diagonal"):
            parse_document(bad)

    def test_asymmetric_couplings_give_one_message_everywhere(self):
        doc = _solver_doc()
        doc["couplings"][0][1] = 0.9
        with pytest.raises(InputError) as parsed:
            parse_document(doc)
        with pytest.raises(ValueError) as solved:
            solve_fixed_point(doc["fields"], doc["couplings"], MeanFieldConfig())
        with pytest.raises(ValueError) as exact:
            exact_spin_marginals(doc["fields"], doc["couplings"], 1.0)
        messages = {str(parsed.value), str(solved.value), str(exact.value)}
        assert messages == {"couplings: matrix must be symmetric"}

    def test_fields_length_checked(self):
        bad = _solver_doc()
        bad["fields"] = [1.0]
        with pytest.raises(InputError, match="fields"):
            parse_document(bad)

    def test_incomplete_head_parameters_rejected(self):
        bad = _embedding_doc()
        del bad["gate_weights"]
        # the head parser's own keys check, as for a head of a multi_head block
        with pytest.raises(InputError, match=r"^head: missing keys: \['gate_weights'\]$"):
            parse_document(bad)

    def test_some_payload_required(self):
        with pytest.raises(InputError, match="needs a game"):
            parse_document({"schema_version": 1, "n": 2})

    def test_multi_head_block(self):
        rng = np.random.default_rng(2)
        d = 3
        head = {
            "value_projection": rng.normal(size=(d, 2)).tolist(),
            "gate_weights": rng.normal(size=d).tolist(),
            "gate_bias": 0.0,
        }
        doc = {
            "schema_version": 1,
            "n": 4,
            "d": d,
            "embeddings": rng.normal(size=(4, d)).tolist(),
            "multi_head": {
                "heads": [head, head],
                "output_projection": rng.normal(size=(4, 3)).tolist(),
            },
        }
        parsed = parse_document(doc)
        assert len(parsed.heads) == 2 and parsed.output_projection.shape == (4, 3)

    def test_parsed_heads_carry_the_document_nonlinearity(self):
        single = _embedding_doc(nonlinearity="tanh")
        assert [h.nonlinearity for h in parse_document(single).heads] == ["tanh"]
        head = {key: single.pop(key) for key in ("value_projection", "gate_weights", "gate_bias")}
        multi = {**single, "multi_head": {"heads": [head, head], "output_projection": np.eye(6, 3).tolist()}}
        assert [h.nonlinearity for h in parse_document(multi).heads] == ["tanh", "tanh"]

    def test_the_built_game_has_the_document_nonlinearity(self):
        single = _embedding_doc(nonlinearity="tanh")
        head = {key: single[key] for key in ("value_projection", "gate_weights", "gate_bias")}
        multi = {key: value for key, value in single.items() if key not in head}
        multi["multi_head"] = {"heads": [head, head], "output_projection": np.eye(6, 3).tolist()}
        for doc in (single, multi):
            assert parse_document(doc).build_game().nonlinearity == "tanh"

    def test_multi_head_projection_rows_checked(self):
        rng = np.random.default_rng(3)
        d = 3
        head = {
            "value_projection": rng.normal(size=(d, 2)).tolist(),
            "gate_weights": rng.normal(size=d).tolist(),
            "gate_bias": 0.0,
        }
        doc = {
            "schema_version": 1,
            "n": 4,
            "d": d,
            "embeddings": rng.normal(size=(4, d)).tolist(),
            "multi_head": {
                "heads": [head, head],
                "output_projection": rng.normal(size=(5, 3)).tolist(),
            },
        }
        with pytest.raises(InputError, match="output_projection"):
            parse_document(doc)

    def test_a_missing_half_of_the_spin_system_is_stored_as_zeros(self):
        solver = _solver_doc()
        fields_only = parse_document({k: v for k, v in solver.items() if k != "couplings"})
        np.testing.assert_array_equal(fields_only.fields, solver["fields"])
        np.testing.assert_array_equal(fields_only.couplings, np.zeros((3, 3)))
        couplings_only = parse_document({k: v for k, v in solver.items() if k != "fields"})
        np.testing.assert_array_equal(couplings_only.fields, np.zeros(3))
        np.testing.assert_array_equal(couplings_only.couplings, solver["couplings"])

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(InputError, match="invalid JSON"):
            load_input(path)


class TestRunConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.coalition_gamma == 0.25 and cfg.spin_gamma == 0.25
        assert cfg.sample_count == 25 and cfg.max_iterations == 25
        assert cfg.tolerance == 1e-4 and cfg.damping == 0.7

    def test_defaults_are_the_engine_defaults(self):
        cfg = RunConfig()
        assert cfg.estimator_config() == EstimatorConfig()
        assert cfg.meanfield_config() == MeanFieldConfig()
        assert cfg.normalization == HeadParams(np.eye(1), [1.0], 0.0).normalization

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"coalition_gamma": 0.0},
            {"damping": 1.0},
            {"mode": "other"},
            {"normalization": "l2"},
            {"sample_count": 0},
            {"spin_gamma": -1.0},
            {"tolerance": 0.0},
            {"max_iterations": 0},
            {"seed": 2**64},
            {"sample_count": 2**32 + 1},
        ],
    )
    def test_rejections(self, kwargs):
        with pytest.raises(InputError) as refusal:
            RunConfig(**kwargs)
        (name,) = kwargs
        assert str(refusal.value).startswith(f"{name}: ")

    def test_file_and_override_precedence(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(json.dumps({"seed": 7, "mode": "classic", "sample_count": 99}))
        cfg = load_config(path, seed=11)
        assert cfg.seed == 11 and cfg.mode == "classic" and cfg.sample_count == 99

    def test_unknown_config_keys_rejected(self, tmp_path):
        path = tmp_path / "config.json"
        for settings in ({"samples": 3}, {"threads": "4"}):
            path.write_text(json.dumps(settings))
            with pytest.raises(InputError) as refusal:
                load_config(path)
            assert str(refusal.value) == f"config file: unknown keys {sorted(settings)}"


class TestReports:
    def test_oracle_on_worked_fixture(self):
        report = run_oracle(parse_document(_table_doc()), RunConfig(coalition_gamma=1.0))
        game = report["game"]
        np.testing.assert_allclose(game["shapley"], [0.5167, 0.7667, 0.5167], atol=5e-5)
        assert game["efficiency_sum"] == pytest.approx(1.8, abs=1e-9)
        assert abs(game["efficiency_gap"]) < 1e-9
        assert "spins" not in report  # no fields and no gate parameters

    def test_oracle_solver_only_zero_couplings(self):
        doc = parse_document(
            {"schema_version": 1, "n": 2, "fields": [0.5, -0.25]}
        )
        cfg = RunConfig(spin_gamma=1.0)
        report = run_oracle(doc, cfg)
        expected = (1.0 + np.tanh(np.array([0.5, -0.25]))) / 2.0
        np.testing.assert_allclose(report["spins"]["alphas"], expected, atol=1e-12)

    def test_oracle_derives_spin_system_from_embeddings_and_gate(self):
        doc = parse_document(_embedding_doc(n=3, d=2, seed=4))
        report = run_oracle(doc, RunConfig())
        assert "spins" in report
        assert len(report["spins"]["alphas"]) == 3

    def test_estimate_requires_game(self):
        with pytest.raises(InputError, match="estimate"):
            run_estimate(parse_document(_solver_doc()), RunConfig())

    def test_estimate_reports_all_blocks(self):
        report = run_estimate(parse_document(_table_doc()), RunConfig(seed=3))
        assert len(report["shapley_hat"]) == 3
        assert len(report["interactions_hat"]) == 3
        assert report["config"]["seed"] == 3

    def test_attend_solver_only_roundtrip(self):
        cfg = RunConfig(spin_gamma=1.0, max_iterations=500, tolerance=1e-9, damping=0.0)
        report = run_attend(parse_document(_solver_doc()), cfg)
        solver = report["solver"]
        assert solver["converged"]
        rerun = run_attend(parse_document(solver["solver_input"]), cfg)
        assert rerun["solver"]["alphas"] == solver["alphas"]

    def test_a_head_and_the_solver_block_report_the_same_solver_keys(self):
        cfg = RunConfig(seed=2)
        head = run_attend(parse_document(_embedding_doc(n=5, d=3, seed=8)), cfg)["heads"][0]
        solver = run_attend(parse_document(head["solver_input"]), cfg)["solver"]
        keys = ("alphas", "alpha_sum", "expected_spins", "converged", "iterations_used", "final_residual", "solver_input")
        assert set(solver) == set(keys)
        assert {key: head[key] for key in keys} == solver
        assert solver["alpha_sum"] == float(np.sum(solver["alphas"]))

    def test_attend_solver_only_matches_independent_iteration(self):
        # independent route: plain-python synchronous iteration to tolerance
        doc = _solver_doc()
        cfg = RunConfig(spin_gamma=1.0, max_iterations=500, tolerance=1e-9, damping=0.0)
        report = run_attend(parse_document(doc), cfg)
        fields = doc["fields"]
        couplings = doc["couplings"]
        spins = [0.0, 0.0, 0.0]
        for _ in range(500):
            new = [
                math.tanh(fields[i] + sum(couplings[i][j] * spins[j] for j in range(3)))
                for i in range(3)
            ]
            if max(abs(a - b) for a, b in zip(new, spins)) < 1e-12:
                break
            spins = new
        expected = [(1.0 + s) / 2.0 for s in spins]
        np.testing.assert_allclose(report["solver"]["alphas"], expected, atol=1e-4)

    def test_oracle_reports_meanfield_next_to_exact_marginals(self):
        cfg = RunConfig(spin_gamma=1.0, max_iterations=500, tolerance=1e-9, damping=0.0)
        report = run_oracle(parse_document(_solver_doc()), cfg)
        spins = report["spins"]
        assert spins["meanfield_converged"]
        gap = max(
            abs(a - b) for a, b in zip(spins["meanfield_alphas"], spins["alphas"])
        )
        assert gap == pytest.approx(spins["meanfield_max_gap"], abs=1e-15)
        # strong couplings: the variational solution sits a few percent off
        assert 0.0 < spins["meanfield_max_gap"] < 0.1

    def test_attend_rejects_embeddings_plus_override(self):
        doc = _embedding_doc()
        doc["fields"] = [0.0, 0.0, 0.0, 0.0]
        with pytest.raises(InputError, match="must not"):
            run_attend(parse_document(doc), RunConfig())

    def test_attend_single_token(self):
        doc = {
            "schema_version": 1,
            "n": 1,
            "d": 2,
            "embeddings": [[1.0, 2.0]],
            "value_projection": [[1.0, 0.0], [0.0, 1.0]],
            "gate_weights": [0.1, -0.2],
            "gate_bias": 0.05,
        }
        cfg = RunConfig(spin_gamma=0.5, damping=0.0, tolerance=1e-10, max_iterations=100)
        report = run_attend(parse_document(doc), cfg)
        head = report["heads"][0]
        alpha = head["alphas"][0]
        expected = (1.0 + math.tanh(1.0 / 0.5)) / 2.0
        assert alpha == pytest.approx(expected, abs=1e-10)
        np.testing.assert_allclose(report["output"], [alpha * 1.0, alpha * 2.0], atol=1e-12)


def test_dump_json_rejects_nan():
    with pytest.raises(ValueError):
        dump_json({"effective_sample_size": [float("nan")]})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_dump_json_rejects_out_of_range_floats(value):
    # a lone value, a float-only list, a list of float-only lists, a mixed
    # list and a float subclass
    for report in (
        {"x": value},
        {"x": [0.5, value, 2.0]},
        {"x": [[0.5], [value]]},
        {"x": [1, value]},
        {"x": np.float64(value)},
    ):
        with pytest.raises(ValueError, match="JSON compliant"):
            dump_json(report)


class TestCli:
    def test_demo_prints_reference_lines(self, capsys):
        assert cli.main(["demo"]) == 0
        out = capsys.readouterr().out
        assert "0.25 0.34 0.41" in out
        assert "0.711" in out

    def test_demo_writes_report(self, tmp_path, capsys):
        out_path = tmp_path / "demo.json"
        assert cli.main(["demo", "--out", str(out_path)]) == 0
        capsys.readouterr()
        report = json.loads(out_path.read_text())
        assert report["shapley_estimate"]["reference"] == 0.711

    def test_estimate_same_seed_byte_identical(self, tmp_path, capsys):
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(_table_doc()))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert cli.main(["estimate", "--input", str(doc_path), "--seed", "9", "--out", str(a)]) == 0
        assert cli.main(["estimate", "--input", str(doc_path), "--seed", "9", "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()

    def test_estimate_single_sample_reports_unit_ess(self, tmp_path, capsys):
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(_table_doc()))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"sample_count": 1}))
        out = tmp_path / "est.json"
        code = cli.main(
            ["estimate", "--input", str(doc_path), "--config", str(cfg_path), "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        report = json.loads(out.read_text())
        assert report["effective_sample_size"] == [1.0, 1.0, 1.0]

    def test_attend_trace_csv(self, tmp_path, capsys):
        doc_path = tmp_path / "solver.json"
        doc_path.write_text(json.dumps(_solver_doc()))
        trace = tmp_path / "trace.csv"
        assert cli.main(["attend", "--input", str(doc_path), "--trace", str(trace)]) == 0
        capsys.readouterr()
        rows = trace.read_text().strip().splitlines()
        assert rows[0] == "iteration,residual"
        assert len(rows) >= 2

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["oracle", "--input", "{table}", "--out", "{missing}"], "--out"),
            (["oracle", "--input", "{table}", "--out", "{directory}"], "--out"),
            (["demo", "--out", "{missing}"], "--out"),
            (["attend", "--input", "{solver}", "--trace", "{missing}"], "--trace"),
            (["bench", "--out", "{missing}"], "--out"),
        ],
        ids=["oracle-missing-dir", "oracle-directory", "demo-missing-dir", "attend-trace", "bench-missing-dir"],
    )
    def test_unwritable_output_paths_are_input_errors(self, tmp_path, capsys, monkeypatch, argv, flag):
        paths = {
            "table": tmp_path / "table.json",
            "solver": tmp_path / "solver.json",
            "missing": tmp_path / "missing" / "out",
            "directory": tmp_path,
        }
        paths["table"].write_text(json.dumps(_table_doc()))
        paths["solver"].write_text(json.dumps(_solver_doc()))
        # one row stands in for the sweep, which criterion 7 runs
        row = dict(
            kind="estimate", n=8, parameter=64, measured_count=1, expected_count=1, count_ok=True, seconds=0.0
        )
        monkeypatch.setattr(cli, "run_bench", lambda cfg: [row])
        code = cli.main([arg.format(**paths) for arg in argv])
        err = capsys.readouterr().err
        assert code == cli.EXIT_INPUT
        assert err.startswith(f"input error: {flag}: ")

    def test_bench_rows_have_the_csv_columns_in_order(self, tmp_path):
        rows = bench.run_bench(RunConfig())
        path = tmp_path / "bench.csv"
        bench.write_bench_csv(rows, path)
        header = path.read_text().splitlines()[0].split(",")
        assert all(list(row) == header for row in rows)

    def test_a_solve_short_of_its_budget_fails_its_count(self, tmp_path, capsys, monkeypatch):
        solve = bench.solve_fixed_point

        def one_short(fields, couplings, cfg):
            return solve(fields, couplings, dataclasses.replace(cfg, max_iterations=cfg.max_iterations - 1))

        monkeypatch.setattr(bench, "solve_fixed_point", one_short)
        path = tmp_path / "bench.csv"
        assert cli.main(["bench", "--out", str(path)]) == cli.EXIT_INTERNAL
        assert capsys.readouterr().err == "4 rows violated the documented operation counts\n"
        iterations = RunConfig().max_iterations
        with open(path, newline="") as handle:
            solver = [row for row in csv.DictReader(handle) if row["kind"] == "solver"]
        assert [int(row["n"]) for row in solver] == list(bench.SOLVER_TOKEN_COUNTS)
        for row in solver:
            n = int(row["n"])
            assert int(row["measured_count"]) == iterations * n * n
            assert int(row["expected_count"]) == (iterations + 1) * n * n
            assert row["count_ok"] == "False"

    def test_missing_input_exit_code(self, tmp_path, capsys):
        assert cli.main(["oracle", "--input", str(tmp_path / "nope.json")]) == cli.EXIT_INPUT
        capsys.readouterr()

    @pytest.mark.parametrize(
        "content",
        [
            b"[" * 100_000 + b"]" * 100_000,
            b'{"schema_version": 1, "n": ' + b"7" * 5000 + b"}",
            b'\xff\xfe{"schema_version": 1}',
        ],
        ids=["nesting", "digits", "encoding"],
    )
    @pytest.mark.parametrize("flag, what", [("--input", "input file"), ("--config", "config file")])
    def test_undecodable_files_are_input_errors(self, tmp_path, capsys, content, flag, what):
        doc_path, bad_path = tmp_path / "doc.json", tmp_path / "bad.json"
        doc_path.write_text(json.dumps(_table_doc()))
        bad_path.write_bytes(content)
        argv = ["estimate", "--input", str(doc_path), flag, str(bad_path)]
        assert cli.main(argv) == cli.EXIT_INPUT
        assert capsys.readouterr().err.startswith(f"input error: {what}: ")

    @pytest.mark.parametrize("depth", [3, 70, 985])
    def test_arrays_nested_past_their_dimension_are_input_errors(self, tmp_path, depth):
        # a fresh process, so the JSON reader runs at the CLI's own call depth
        # and passes nesting about 989 deep on to the document checks
        path = tmp_path / "doc.json"
        path.write_text('{"schema_version": 1, "n": 1, "embeddings": ' + "[" * depth + '"x"' + "]" * depth + "}")
        code = "import sys; from coalattn import cli; sys.exit(cli.main(sys.argv[1:]))"
        env = {**os.environ, "PYTHONPATH": str(Path(coalattn.__file__).resolve().parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", code, "estimate", "--input", str(path)], env=env, capture_output=True, text=True
        )
        assert result.returncode == cli.EXIT_INPUT
        assert result.stderr == "input error: embeddings: expected a 2-d array\n"

    @pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
    @pytest.mark.parametrize("command", ["demo", "oracle", "estimate", "attend", "bench"])
    def test_a_closed_stdout_is_an_input_error(self, tmp_path, command, unbuffered):
        # a fresh process whose stdout is a pipe with its read end closed, so
        # the write or the interpreter's last flush meets a broken pipe
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_table_doc(fields=[0.1, 0.2, 0.3])))
        argv = [command] if command in ("demo", "bench") else [command, "--input", str(path)]
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(coalattn.__file__).resolve().parents[1])
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        read, write = os.pipe()
        os.close(read)
        try:
            result = subprocess.run(
                [sys.executable, "-m", "coalattn.cli", *argv], env=env, stdout=write, stderr=subprocess.PIPE, text=True
            )
        finally:
            os.close(write)
        assert result.returncode == cli.EXIT_INPUT
        assert result.stderr.startswith("input error: stdout: ") and result.stderr.count("\n") == 1

    def test_unknown_flags_are_usage_errors(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_table_doc()))
        with pytest.raises(SystemExit) as usage:
            cli.main(["estimate", "--input", str(path), "--threads", "4"])
        assert usage.value.code == cli.EXIT_INPUT
        assert "unrecognized arguments: --threads 4" in capsys.readouterr().err

    def test_a_non_monotone_table_runs_without_a_word_on_stderr(self, tmp_path):
        # a fresh process, so nothing but the CLI decides where log records go;
        # both singletons are worth more than the pair
        path = tmp_path / "dipped.json"
        path.write_text(json.dumps({"schema_version": 1, "n": 2, "characteristic_table": [0.0, 1.0, 1.0, 0.5]}))
        code = "import sys; from coalattn import cli; sys.exit(cli.main(sys.argv[1:]))"
        env = {**os.environ, "PYTHONPATH": str(Path(coalattn.__file__).resolve().parents[1])}
        result = subprocess.run(
            [sys.executable, "-c", code, "estimate", "--input", str(path)], env=env, capture_output=True, text=True
        )
        assert result.returncode == cli.EXIT_OK
        assert result.stderr == ""

    def test_schema_violation_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        bad = _table_doc()
        bad["characteristic_table"][0] = 0.5
        path.write_text(json.dumps(bad))
        assert cli.main(["oracle", "--input", str(path)]) == cli.EXIT_INPUT
        capsys.readouterr()

    @pytest.mark.parametrize("d", [0, -3])
    def test_a_width_below_one_is_an_input_error(self, tmp_path, capsys, d):
        path = tmp_path / "width.json"
        path.write_text(json.dumps({"schema_version": 1, "n": 1, "d": d, "characteristic_table": [0, 1]}))
        assert cli.main(["oracle", "--input", str(path)]) == cli.EXIT_INPUT
        assert capsys.readouterr().err == "input error: d: must be >= 1\n"

    def test_limit_refusal_exit_code(self, tmp_path, capsys):
        # a table document holds at most 20 tokens, so the game comes from embeddings
        path = tmp_path / "big.json"
        path.write_text(json.dumps(_embedding_doc(n=21, d=2, seed=3)))
        assert cli.main(["oracle", "--input", str(path)]) == cli.EXIT_LIMIT
        err = capsys.readouterr().err
        assert "20" in err  # refusal names the limit

    def test_embeddings_without_a_head_get_one_refusal_from_every_command(self, tmp_path, capsys):
        doc = _embedding_doc(n=3, d=3, seed=4)
        for key in ("value_projection", "gate_weights", "gate_bias"):
            del doc[key]
        path = tmp_path / "headless.json"
        path.write_text(json.dumps(doc))
        for command in ("oracle", "estimate", "attend"):
            assert cli.main([command, "--input", str(path)]) == cli.EXIT_INPUT
            assert capsys.readouterr().err == (
                "input error: document: embeddings need head parameters "
                "(value_projection/gate_weights/gate_bias or a multi_head block)\n"
            ), command

    @pytest.mark.parametrize("command", ["attend", "oracle"])
    def test_zero_embeddings_are_an_input_error(self, tmp_path, capsys, command):
        doc = _embedding_doc(n=3, d=3, seed=4)
        doc["embeddings"] = [[0.0, 0.0, 0.0]] * 3
        path = tmp_path / "zero.json"
        path.write_text(json.dumps(doc))
        assert cli.main([command, "--input", str(path)]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error:")
        assert "embeddings" in err and "shapley scores" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", ["attend", "estimate", "oracle"])
    @pytest.mark.parametrize(
        "embedding_scale, projection",
        [(1e160, np.eye(3)), (1e200, np.full((3, 3), 1e200))],
        ids=["embeddings-1e160", "both-1e200"],
    )
    def test_overflowing_coalition_norms_are_input_errors(
        self, tmp_path, capsys, monkeypatch, command, embedding_scale, projection
    ):
        evaluated = []
        monkeypatch.setattr(EmbeddingGame, "values_by_mask", lambda game, masks: evaluated.append(masks))
        doc = _embedding_doc(n=3, d=3, seed=9)
        doc["embeddings"] = (np.asarray(doc["embeddings"]) * embedding_scale).tolist()
        doc["value_projection"] = projection.tolist()
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        assert cli.main([command, "--input", str(path)]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: head.value_projection: coalition norms overflow float64")
        assert "Traceback" not in err
        assert evaluated == []

    def test_overflow_in_a_later_head_is_refused_before_any_evaluation(self, tmp_path, capsys, monkeypatch):
        evaluated = []
        monkeypatch.setattr(EmbeddingGame, "values_by_mask", lambda game, masks: evaluated.append(masks))
        rng = np.random.default_rng(10)
        n, d = 4, 3
        heads = [
            {"value_projection": scale * rng.normal(size=(d, d)), "gate_weights": rng.normal(size=d), "gate_bias": 0.0}
            for scale in (1.0, 1e300)
        ]
        doc = {
            "schema_version": 1,
            "n": n,
            "embeddings": (1e10 * rng.normal(size=(n, d))).tolist(),
            "multi_head": {
                "heads": [{k: np.asarray(v).tolist() for k, v in head.items()} for head in heads],
                "output_projection": rng.normal(size=(2 * d, d)).tolist(),
            },
        }
        path = tmp_path / "heads.json"
        path.write_text(json.dumps(doc))
        assert cli.main(["attend", "--input", str(path)]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: multi_head.heads[1].value_projection: coalition norms overflow")
        assert evaluated == []

    def test_cli_import_loads_no_scipy(self):
        # every command is a fresh process, and scipy alone would double the
        # cost of importing the CLI
        code = "import sys, coalattn.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
        src = str(Path(coalattn.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True)
        assert result.stdout.strip() == "[]"

    def test_oracle_limit_refused_before_tabulating(self, tmp_path, capsys, monkeypatch):
        tabulated = []
        monkeypatch.setattr(oracles, "tabulate", lambda game: tabulated.append(game.n))
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(_embedding_doc(n=21, d=3, seed=6)))
        assert cli.main(["oracle", "--input", str(path)]) == cli.EXIT_LIMIT
        err = capsys.readouterr().err
        assert "at most 20 tokens, got 21" in err
        assert tabulated == []

    def test_oracle_spin_limit_refused_before_tabulating(self, tmp_path, capsys, monkeypatch):
        # a single head's spin system has one spin per token, so the game
        # fits its limit but the exact spin marginals do not
        tabulated = []
        monkeypatch.setattr(oracles, "tabulate", lambda game: tabulated.append(game.n))
        path = tmp_path / "spins.json"
        path.write_text(json.dumps(_embedding_doc(n=17, d=3, seed=6)))
        assert cli.main(["oracle", "--input", str(path)]) == cli.EXIT_LIMIT
        err = capsys.readouterr().err
        assert "exact spin marginals: exact enumeration supports at most 16 tokens, got 17" in err
        assert tabulated == []

    def test_oracle_reports_sixteen_tokens(self, tmp_path, capsys):
        path, out = tmp_path / "doc.json", tmp_path / "r.json"
        path.write_text(json.dumps(_embedding_doc(n=16, d=3, seed=16)))
        assert cli.main(["oracle", "--input", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["game"]["n"] == 16
        assert len(report["game"]["interactions"]) == 16
        assert len(report["spins"]["alphas"]) == 16

    @pytest.mark.parametrize(
        "setting", [{"sample_count": 25.0}, {"seed": 1.5}, {"max_iterations": True}]
    )
    def test_integer_config_fields_reject_floats_and_bools(self, tmp_path, capsys, setting):
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(_embedding_doc()))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(setting))
        code = cli.main(["attend", "--input", str(doc_path), "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_INPUT
        (name,) = setting
        assert err.startswith(f"input error: {name}: expected an integer")

    @pytest.mark.parametrize(
        "doc, config, field",
        [
            ({**_solver_doc(), "fields": [0.1, HUGE, 0.2]}, {}, "fields"),
            (_embedding_doc(gate_bias=HUGE), {}, "gate_bias"),
            (_embedding_doc(), {"tolerance": HUGE}, "tolerance"),
        ],
        ids=["array", "scalar", "config"],
    )
    def test_integers_beyond_float_range_are_input_errors(self, tmp_path, capsys, doc, config, field):
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(doc))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = cli.main(["attend", "--input", str(doc_path), "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_INPUT
        assert err.startswith("input error:") and field in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, setting",
        [
            ("attend", "coalition_gamma"),
            ("estimate", "coalition_gamma"),
            ("oracle", "coalition_gamma"),
            ("oracle", "spin_gamma"),
        ],
    )
    def test_a_temperature_the_values_overflow_is_an_input_error(self, tmp_path, capsys, command, setting):
        # 1e-310 is positive and finite, but a game value of 0.02 divided by
        # it is past the float64 range
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(_embedding_doc(n=6, d=4, seed=5)))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({setting: 1e-310}))
        code = cli.main([command, "--input", str(doc_path), "--config", str(cfg_path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_INPUT
        assert err.startswith(f"input error: {setting}: 1e-310 is too small")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "command, config",
        [(command, {"coalition_gamma": 1e-300, "spin_gamma": 1e-300}) for command in ("attend", "estimate", "oracle")]
        # the solver's quotient saturates tanh; only the oracle's exact spin
        # marginals need it finite
        + [(command, {"spin_gamma": 1e-310}) for command in ("attend", "estimate")],
    )
    def test_tiny_temperatures_the_values_fit_give_reports(self, tmp_path, capsys, command, config):
        # warnings are errors here, so a solver overflow warning would end in exit 4
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(_embedding_doc(n=6, d=4, seed=5)))
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        code = cli.main([command, "--input", str(doc_path), "--config", str(cfg_path)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_OK
        assert json.loads(captured.out)["config"]["spin_gamma"] == config["spin_gamma"]
        assert "Warning" not in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize(
        "system",
        [
            {"fields": [1e308, 1e308, 1e308]},
            # one pair's coupling is finite, but s.C.s adds it twice
            {"fields": [0.0, 0.0], "couplings": [[0.0, 1e308], [1e308, 0.0]]},
        ],
        ids=["fields", "couplings"],
    )
    def test_spin_energies_past_float64_are_an_input_error(self, tmp_path, capsys, system):
        # no temperature mends such energies, so the oracle names the spin
        # system, not spin_gamma; the solver saturates tanh and still reports
        doc_path = tmp_path / "spins.json"
        doc_path.write_text(json.dumps({"schema_version": 1, "n": len(system["fields"]), **system}))
        assert cli.main(["oracle", "--input", str(doc_path)]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: fields, couplings: spin energies overflow float64")
        assert "Warning" not in err and "Traceback" not in err
        assert cli.main(["attend", "--input", str(doc_path)]) == cli.EXIT_OK
        captured = capsys.readouterr()
        assert json.loads(captured.out)["solver"]["solver_input"]["fields"] == system["fields"]
        assert "Warning" not in captured.err and "Traceback" not in captured.err

    @pytest.mark.parametrize("command", ["attend", "estimate", "oracle"])
    @pytest.mark.parametrize(
        "doc, field",
        [
            (
                {"n": 2, "embeddings": [[1], [2]], "value_projection": [[1]], "gate_weights": [1e308], "gate_bias": 0},
                "head.gate_weights",
            ),
            ({"n": 2, "characteristic_table": [0, 1e308, 1e308, -1e308]}, "characteristic_table"),
            (
                {
                    "n": 1,
                    "embeddings": [[1.0]],
                    "multi_head": {
                        "heads": [{"value_projection": [[2.0]], "gate_weights": [1.0], "gate_bias": 0.0}],
                        "output_projection": [[1e308]],
                    },
                },
                "multi_head.output_projection",
            ),
        ],
        ids=["gate-logits", "table-differences", "output-projection"],
    )
    def test_overflows_past_any_temperature_are_refused_at_parse(self, tmp_path, capsys, command, doc, field):
        doc_path, cfg_path = tmp_path / "doc.json", tmp_path / "cfg.json"
        doc_path.write_text(json.dumps({"schema_version": 1, **doc}))
        cfg_path.write_text(json.dumps({"coalition_gamma": 1e300}))
        for argv in ([command, "--input", str(doc_path)], [command, "--input", str(doc_path), "--config", str(cfg_path)]):
            assert cli.main(argv) == cli.EXIT_INPUT
            err = capsys.readouterr().err
            assert err.startswith(f"input error: {field}: ")
            assert "Warning" not in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["attend", "oracle"])
    @pytest.mark.parametrize(
        "doc",
        [
            # couplings of 1e308 and -1e308 by the parity of i + j: one undamped
            # step forms inf - inf in couplings @ spins
            {
                "n": 5,
                "fields": [1.0] * 5,
                "couplings": [[0.0 if i == j else (-1.0) ** (i + j + 1) * 1e308 for j in range(5)] for i in range(5)],
            },
            {"n": 3, "couplings": [[0.0, 1e308, 1e308], [1e308, 0.0, 1e308], [1e308, 1e308, 0.0]]},
        ],
        ids=["mixed-signs", "one-signed"],
    )
    def test_local_fields_past_float64_are_refused_at_parse(self, tmp_path, capsys, command, doc):
        doc_path, cfg_path = tmp_path / "doc.json", tmp_path / "cfg.json"
        doc_path.write_text(json.dumps({"schema_version": 1, **doc}))
        cfg_path.write_text(json.dumps({"damping": 0.0}))
        assert cli.main([command, "--input", str(doc_path), "--config", str(cfg_path)]) == cli.EXIT_INPUT
        err = capsys.readouterr().err
        assert err.startswith("input error: fields, couplings: local fields overflow float64")
        assert "Traceback" not in err

    def test_oracle_reports_an_explicit_spin_system_without_deriving_one(self, tmp_path, capsys):
        # both tokens' game values are zero, so no spin system can be derived
        doc = {
            "schema_version": 1,
            "n": 2,
            "embeddings": [[0.0], [0.0]],
            "value_projection": [[1.0]],
            "gate_weights": [0.5],
            "gate_bias": 0.0,
            "fields": [0.5, -0.25],
            "couplings": [[0, 0.1], [0.1, 0]],
        }
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(doc))
        code = cli.main(["oracle", "--input", str(doc_path)])
        captured = capsys.readouterr()
        assert code == cli.EXIT_OK, captured.err
        assert json.loads(captured.out)["spins"]["fields"] == [0.5, -0.25]

    @pytest.mark.parametrize("sample_count", [2**32 + 1, 2**62, 10**30])
    def test_sample_counts_past_the_bound_are_input_errors(self, tmp_path, capsys, sample_count):
        doc_path, cfg_path = tmp_path / "doc.json", tmp_path / "cfg.json"
        doc_path.write_text(json.dumps(_embedding_doc()))
        cfg_path.write_text(json.dumps({"sample_count": sample_count}))
        for command in ("estimate", "attend"):
            assert cli.main([command, "--input", str(doc_path), "--config", str(cfg_path)]) == cli.EXIT_INPUT
            assert capsys.readouterr().err.startswith("input error: sample_count: must be at most ")

    def test_running_out_of_memory_is_a_limit_refusal(self, tmp_path, capsys, monkeypatch):
        def exhausted(game, cfg):
            raise MemoryError("Unable to allocate 32.0 GiB")

        monkeypatch.setattr(reports, "estimate_all", exhausted)
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(_embedding_doc()))
        assert cli.main(["estimate", "--input", str(doc_path)]) == cli.EXIT_LIMIT
        assert capsys.readouterr().err == "limit refusal: out of memory: Unable to allocate 32.0 GiB\n"

    @pytest.mark.parametrize(
        "command, doc, config",
        [
            # token 2's contexts hold 1e300 and -1e300, so its log-weights span 2e308
            (command, {"n": 3, "characteristic_table": [0, 1e300, -1e300, 0, 0, 0, 0, 0]}, {"coalition_gamma": 1e-8})
            for command in ("oracle", "estimate")
        ]
        # every -H(S)/gamma is finite, but they span about 2e308
        + [("oracle", {"n": 3, "fields": [1e154, 0.0, 0.0]}, {"spin_gamma": 1e-154})],
        ids=["oracle-tilted", "estimate-gibbs", "oracle-spins"],
    )
    def test_log_weights_spanning_past_float64_give_reports(self, tmp_path, capsys, command, doc, config):
        doc_path, cfg_path = tmp_path / "doc.json", tmp_path / "cfg.json"
        doc_path.write_text(json.dumps({"schema_version": 1, **doc}))
        cfg_path.write_text(json.dumps(config))
        assert cli.main([command, "--input", str(doc_path), "--config", str(cfg_path)]) == cli.EXIT_OK
        captured = capsys.readouterr()
        json.loads(captured.out)
        assert "Warning" not in captured.err and "Traceback" not in captured.err

    def test_oracle_report_tabulates_the_game_once(self, tmp_path, capsys, monkeypatch):
        sizes = []
        evaluate = EmbeddingGame.values_by_mask

        def counting(game, masks):
            sizes.append(np.asarray(masks).size)
            return evaluate(game, masks)

        monkeypatch.setattr(EmbeddingGame, "values_by_mask", counting)
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_embedding_doc(n=12, d=4, seed=7)))
        assert cli.main(["oracle", "--input", str(path), "--out", str(tmp_path / "r.json")]) == 0
        capsys.readouterr()
        assert sum(sizes) == 2**12

    def test_attend_trace_is_the_first_heads_solve(self, tmp_path, capsys):
        rng = np.random.default_rng(8)
        n, d, d_v = 5, 3, 2
        heads = [
            {
                "value_projection": rng.normal(size=(d, d_v)).tolist(),
                "gate_weights": rng.normal(size=d).tolist(),
                "gate_bias": 0.1,
            }
            for _ in range(2)
        ]
        doc = {
            "schema_version": 1,
            "n": n,
            "embeddings": rng.normal(size=(n, d)).tolist(),
            "multi_head": {"heads": heads, "output_projection": rng.normal(size=(2 * d_v, d)).tolist()},
        }
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(doc))
        out, trace = tmp_path / "report.json", tmp_path / "trace.csv"
        argv = ["attend", "--input", str(doc_path), "--out", str(out), "--trace", str(trace)]
        assert cli.main(argv) == 0
        capsys.readouterr()
        head0 = json.loads(out.read_text())["heads"][0]
        rows = trace.read_text().strip().splitlines()
        assert rows[0] == "iteration,residual"
        assert len(rows) - 1 == head0["iterations_used"] + 1
        assert [int(row.split(",")[0]) for row in rows[1:]] == list(range(len(rows) - 1))
        assert float(rows[-1].split(",")[1]) == head0["final_residual"]

    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"schema_version": 1, "n": 2, "fields": ["0.5", True]}, "fields"),
            (_embedding_doc(embeddings=[[0.1, 0.2, True]] + [[0.3, 0.1, 0.2]] * 3), "embeddings"),
            (_table_doc(characteristic_table=[0.0, 0.2, 0.5, "1.2", 0.4, 0.8, 1.0, 1.8]), "characteristic_table"),
        ],
        ids=["string-in-fields", "bool-in-embeddings", "string-in-table"],
    )
    def test_strings_and_bools_in_arrays_are_input_errors(self, tmp_path, capsys, doc, field):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code = cli.main(["attend", "--input", str(path)])
        err = capsys.readouterr().err
        assert code == cli.EXIT_INPUT
        assert err.startswith(f"input error: {field}: ")

    def test_oracle_cli_writes_report(self, tmp_path, capsys):
        doc_path = tmp_path / "doc.json"
        doc_path.write_text(json.dumps(_table_doc()))
        out = tmp_path / "oracle.json"
        assert cli.main(["oracle", "--input", str(doc_path), "--out", str(out)]) == 0
        capsys.readouterr()
        report = json.loads(out.read_text())
        assert report["game"]["efficiency_sum"] == pytest.approx(1.8, abs=1e-9)
