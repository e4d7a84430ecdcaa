import argparse
import dataclasses
import hashlib
import json
import os
import warnings

import pytest

from tanglewalk import (
    HuboLayout,
    RunConfig,
    decode_hubo,
    encode_hubo,
    generate_tangle,
    iterative_qaoa,
    to_ising,
    walk_cost,
)
from tanglewalk import ConfigError, cli, graphs, maxsat
from tanglewalk.cli import ExperimentConfig, _workers, build_parser, main
from tanglewalk.graphs import graph_to_dict


@pytest.fixture
def tangle2_file(tmp_path, tangle2):
    path = tmp_path / "tangle2.json"
    path.write_text(json.dumps(graph_to_dict(tangle2)))
    return str(path)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


class TestGenerate:
    def test_writes_valid_graph(self, tmp_path):
        out = tmp_path / "g.json"
        assert main(["generate", "--seed", "3", "--nodes", "3", "-o", str(out)]) == 0
        data = read_json(out)
        assert data["n"] == 3

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--seed", "5", "--nodes", "2", "-o", str(a)])
        main(["generate", "--seed", "5", "--nodes", "2", "-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_matches_library(self, tmp_path):
        out = tmp_path / "g.json"
        main(["generate", "--seed", "7", "--nodes", "2", "--max-weight", "1", "-o", str(out)])
        assert read_json(out) == graph_to_dict(generate_tangle(7, 2, 1, 0.25))


class TestOracle:
    def test_tangle2_output(self, tangle2_file, capsys):
        assert main(["oracle", tangle2_file]) == 0
        out = capsys.readouterr().out
        assert "min_cost 0" in out
        assert out.count("walk ") == 4

    def test_cap_exit_code(self, tangle2_file):
        assert main(["oracle", tangle2_file, "--length", "20", "--cap", "10"]) == 4

    @pytest.mark.parametrize("cap", ["0", "-1"])
    def test_cap_below_one_is_domain_error(self, tangle2_file, capsys, cap):
        assert main(["oracle", tangle2_file, "--cap", cap]) == 3
        assert "enumeration cap must be >= 1" in capsys.readouterr().err


class TestEncode:
    def test_hubo_meta(self, tangle2_file, tmp_path):
        out = tmp_path / "p.json"
        assert main(["encode", tangle2_file, "--kind", "hubo", "-o", str(out)]) == 0
        data = read_json(out)
        assert data["meta"] == {"kind": "hubo", "T": 2, "N": 2, "bits_per_step": 2}
        assert data["n_vars"] == 4

    def test_invalid_length_exit_code(self, tangle2_file, tmp_path):
        code = main(
            ["encode", tangle2_file, "--length", "0", "-o", str(tmp_path / "p.json")]
        )
        assert code == 3


class TestSolve:
    def test_planted_instance_reaches_zero(self, tangle2_file, tmp_path):
        out = tmp_path / "run.json"
        code = main(
            [
                "solve", tangle2_file, "--kind", "hubo", "--p", "1",
                "--shots", "400", "--iters", "5", "--run-seed", "0",
                "--target", "0", "-o", str(out),
            ]
        )
        assert code == 0
        record = read_json(out)
        assert record["best_energy"] == 0
        assert record["decoded_walk"]["walk_cost"] == 0

    def test_encode_then_solve_matches_library(self, tangle2, tangle2_file, tmp_path):
        poly_file = tmp_path / "p.json"
        main(["encode", tangle2_file, "--kind", "hubo", "-o", str(poly_file)])
        out = tmp_path / "run.json"
        code = main(
            [
                "solve", str(poly_file), "--graph", tangle2_file,
                "--p", "1", "--dbeta", "0.75", "--dgamma", "0.30",
                "--shots", "400", "--alpha", "0.1", "--iters", "5",
                "--run-seed", "3", "-o", str(out),
            ]
        )
        assert code == 0
        layout = HuboLayout.for_graph(tangle2, 2)
        config = RunConfig(
            p=1, dbeta=0.75, dgamma=0.30, shots=400, alpha=0.1, iterations=5, seed=3
        )

        def decoder(bits):
            d = decode_hubo(bits, layout, tangle2)
            entry = {
                "feasible": d.feasible,
                "valid": d.valid,
                "bad_steps": list(d.bad_steps),
                "invalid_edges": list(d.invalid_edges),
                "steps": list(d.steps) if d.steps is not None else None,
            }
            if d.steps is not None:
                entry["walk_cost"] = walk_cost(tangle2, d.steps)
            return entry

        record = iterative_qaoa(
            to_ising(encode_hubo(tangle2, 2)), "hubo", config,
            layout=layout, decoder=decoder,
        )
        assert read_json(out) == json.loads(json.dumps(record.to_dict()))

    def test_graph_and_encoded_input_write_identical_json(self, tangle2_file, tmp_path):
        penalties = ["--kind", "qubo", "--one-hot-penalty", "0.3", "--edge-penalty", "0.7"]
        by_graph, poly, by_poly = (tmp_path / name for name in ("g.json", "p.json", "e.json"))
        assert main(["solve", tangle2_file, *penalties, "-o", str(by_graph)]) == 0
        assert main(["encode", tangle2_file, *penalties, "-o", str(poly)]) == 0
        assert main(["solve", str(poly), "--graph", tangle2_file, "-o", str(by_poly)]) == 0
        assert by_graph.read_bytes() == by_poly.read_bytes()

    def test_target_zero_stops_a_non_dyadic_run(self, tmp_path):
        # With penalties 0.3 and 0.7 the optimal walks' energies sum to
        # 1.94e-15 to 3.0e-15, not 0; every other energy is at least 0.3.
        graph, out = tmp_path / "g.json", tmp_path / "run.json"
        main(["generate", "--seed", "2", "--nodes", "2", "--max-weight", "1", "-o", str(graph)])
        penalties = ["--kind", "qubo", "--one-hot-penalty", "0.3", "--edge-penalty", "0.7"]
        assert main(["solve", str(graph), *penalties, "--target", "0", "-o", str(out)]) == 0
        record = read_json(out)
        assert record["optimum_iteration"] == 1
        assert record["termination"] == "optimum_sampled"
        assert record["best_energy"] == 1.942890293094024e-15  # stored as sampled
        assert record["decoded_walk"]["walk_cost"] == 0

    def test_qubo_kind_reaches_zero(self, tangle2_file, tmp_path):
        out = tmp_path / "run.json"
        code = main(
            [
                "solve", tangle2_file, "--kind", "qubo", "--p", "1",
                "--shots", "4000", "--iters", "5", "--run-seed", "1",
                "--target", "0", "-o", str(out),
            ]
        )
        assert code == 0
        record = read_json(out)
        assert record["best_energy"] == 0
        assert record["decoded_walk"]["valid"] is True

    def test_histogram_csv(self, tangle2_file, tmp_path):
        out, hist = tmp_path / "run.json", tmp_path / "hist.csv"
        main(
            [
                "solve", tangle2_file, "--kind", "hubo", "--shots", "100",
                "--iters", "2", "-o", str(out), "--hist", str(hist),
            ]
        )
        lines = hist.read_text().splitlines()
        assert lines[0] == "iteration,energy,frequency"
        assert len(lines) > 1

    def test_over_memory_budget_exits_four(self, tmp_path, capsys):
        graph = tmp_path / "wide.json"
        main(["generate", "--seed", "1", "--nodes", "4", "--max-weight", "3", "-o", str(graph)])
        out = tmp_path / "run.json"
        assert main(["solve", str(graph), "--kind", "qubo", "-o", str(out)]) == 4
        assert "over the memory budget" in capsys.readouterr().err
        assert not out.exists()

    def test_polynomial_without_meta_is_config_error(self, tmp_path, tangle2_file):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"n_vars": 2, "terms": []}))
        assert main(["solve", str(bad), "--graph", tangle2_file]) == 2

    @pytest.mark.parametrize(
        "meta",
        [
            {},
            {"kind": "hubo"},
            "x",
            {"kind": "qubo", "T": "3", "N": 2},
            {"kind": "hubo", "T": 9, "N": 2, "bits_per_step": 2},  # 18 variables, not 4
        ],
        ids=[
            "empty", "hubo-without-sizes", "not-an-object", "qubo-T-not-an-integer",
            "T-of-another-width",
        ],
    )
    def test_unusable_meta_is_config_error(self, tmp_path, tangle2_file, capsys, meta):
        enc = tmp_path / "enc.json"
        assert main(["encode", tangle2_file, "--kind", "hubo", "-o", str(enc)]) == 0
        data = read_json(enc)
        data["meta"] = meta
        enc.write_text(json.dumps(data))
        assert main(["solve", str(enc), "--graph", tangle2_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "'meta'" in err


class TestSweep:
    def test_csv_shape(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep", "--seed", "1", "--nodes", "2", "--kind", "hubo",
                "--p", "1,2", "--dbetas", "0.3,0.7", "--dgammas", "0.1,0.3",
                "-o", str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "p,dbeta,dgamma,p_opt"
        assert len(lines) == 1 + 2 * 2 * 2

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--seed", "2", "--nodes", "2", "--p", "1", "--dbetas",
                "0.2,0.8", "--dgammas", "0.2", ]
        main(args + ["-o", str(a)])
        main(args + ["-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_worker_pool_matches_serial(self, tmp_path, monkeypatch):
        serial, pooled = tmp_path / "serial.csv", tmp_path / "pooled.csv"
        args = ["sweep", "--seed", "3", "--nodes", "2", "--max-weight", "1",
                "--p", "1", "--dbetas", "0.2,0.5,0.8,1.1", "--dgammas", "0.1,0.3"]
        main(args + ["-o", str(serial)])
        monkeypatch.setenv("TANGLEWALK_WORKERS", "2")
        main(args + ["-o", str(pooled)])
        assert serial.read_bytes() == pooled.read_bytes()

    @pytest.mark.parametrize(
        "requested,tasks,expected",
        [("1000000", 10**9, 4), ("1000000", 3, 3), ("3", 10**9, 3), ("0", 5, 1), ("-7", 5, 1)],
    )
    def test_worker_count_clamped(self, monkeypatch, requested, tasks, expected):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("TANGLEWALK_WORKERS", requested)
        assert _workers(tasks) == expected

    @pytest.mark.parametrize("axis", ["nan", "inf"])
    def test_non_finite_axis_is_config_error(self, tmp_path, capsys, axis):
        out = tmp_path / "s.csv"
        code = main(
            ["sweep", "--seed", "1", "--nodes", "2", "--kind", "hubo", "--p", "1",
             "--dbetas", axis, "--dgammas", "0.1", "-o", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    def test_bad_worker_env_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TANGLEWALK_WORKERS", "lots")
        code = main(
            ["sweep", "--seed", "1", "--nodes", "2", "--max-weight", "1",
             "--p", "1", "--dbetas", "0.2", "--dgammas", "0.1",
             "-o", str(tmp_path / "s.csv")]
        )
        assert code == 2


class TestCompile:
    def test_metrics_report(self, tmp_path):
        out = tmp_path / "compile.json"
        code = main(
            [
                "compile", "--seed", "1", "--nodes", "2", "--max-weight", "1",
                "--kind", "hubo", "--topology", "grid:2x2", "--method", "parity",
                "-o", str(out),
            ]
        )
        assert code == 0
        report = read_json(out)
        assert report["metrics"]["two_qubit_count"] > 0
        assert report["method"] in ("parity", "parity-fallback")

    def test_naive_vs_parity(self, tmp_path):
        reports = {}
        for method in ("naive", "parity"):
            out = tmp_path / f"{method}.json"
            main(
                [
                    "compile", "--seed", "1", "--nodes", "3", "--max-weight", "1",
                    "--kind", "hubo", "--topology", "linear:9", "--method", method,
                    "-o", str(out),
                ]
            )
            reports[method] = read_json(out)
        assert (
            reports["parity"]["metrics"]["two_qubit_count"]
            <= reports["naive"]["metrics"]["two_qubit_count"]
        )

    def test_wcnf_export(self, tmp_path):
        wcnf = tmp_path / "layout.wcnf"
        code = main(
            [
                "compile", "--seed", "1", "--nodes", "2", "--max-weight", "1",
                "--kind", "hubo", "--topology", "linear:4", "--wcnf-out", str(wcnf),
                "-o", str(tmp_path / "c.json"),
            ]
        )
        assert code == 0
        assert wcnf.read_text().startswith("p wcnf ")

    @pytest.mark.parametrize(
        "placement",
        [["--method", "naive", "--layout-seed", "-1"], ["--topology", "linear:3"]],
        ids=["negative-layout-seed", "topology-too-small"],
    )
    def test_unplaceable_circuit_is_domain_error(self, tmp_path, capsys, tangle2_file, placement):
        out = tmp_path / "c.json"
        assert main(["compile", "--graph", tangle2_file, *placement, "-o", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("method", [[], ["--method", "parity"]], ids=["default", "parity"])
    def test_layout_seed_without_naive_is_config_error(
        self, tmp_path, capsys, monkeypatch, tangle2_file, method
    ):
        def no_encoding(*args):
            raise AssertionError("encoded before the flags were checked")

        monkeypatch.setattr(cli, "_encode", no_encoding)
        out = tmp_path / "c.json"
        argv = ["compile", "--graph", tangle2_file, *method, "--layout-seed", "5", "-o", str(out)]
        assert main(argv) == 2
        assert "--layout-seed" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_topology_is_config_error(self, tmp_path):
        code = main(
            ["compile", "--seed", "1", "--topology", "ring:4", "-o", str(tmp_path / "c.json")]
        )
        assert code == 2


class TestNoise:
    def test_paper_numbers(self, tmp_path):
        out = tmp_path / "noise.json"
        assert main(["noise", "--e", "1.24e-3", "--gates", "2865", "-o", str(out)]) == 0
        data = read_json(out)
        assert 0.028 <= data["p_good"] <= 0.030
        assert abs(data["shots"] - 1.4e5) / 1.4e5 < 0.05


class TestPipeline:
    def test_end_to_end_summary(self, tmp_path, capsys):
        out = tmp_path / "pipe.json"
        code = main(
            [
                "pipeline", "--seed", "1", "--nodes", "2", "--kind", "hubo",
                "--p", "1", "--shots", "400", "--iters", "5",
                "--seeds", "0,1", "--target", "0", "-o", str(out),
            ]
        )
        assert code == 0
        data = read_json(out)
        assert len(data["runs"]) == 2
        for run in data["runs"]:
            assert run["oracle_min"] == 0
            assert run["record"]["decoded_walk"]["walk_cost"] == 0
        assert "best_E" in capsys.readouterr().out

    def test_rerun_is_bit_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = [
            "pipeline", "--seed", "2", "--nodes", "2", "--kind", "hubo",
            "--shots", "200", "--iters", "2", "--seeds", "0",
        ]
        main(args + ["-o", str(a)])
        main(args + ["-o", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_invalid_length_aborts_with_domain_exit(self, tmp_path):
        code = main(
            [
                "pipeline", "--seed", "1", "--nodes", "2", "--length", "0",
                "--seeds", "0", "-o", str(tmp_path / "x.json"),
            ]
        )
        assert code == 3

    def test_config_file_round_trip(self, tmp_path):
        cfg = tmp_path / "exp.toml"
        cfg.write_text(
            'kind = "hubo"\nseed = 1\nnodes = 2\nshots = 200\niters = 2\n'
            "seeds = [0, 1]\ntarget = 0\n"
            f'output = "{tmp_path / "out.json"}"\n'
        )
        assert main(["pipeline", "--config", str(cfg)]) == 0
        assert (tmp_path / "out.json").exists()

    def test_config_file_is_closed(self, tmp_path):
        cfg = tmp_path / "exp.toml"
        cfg.write_text('kind = "qubo"\nshots = 7\n')
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            parsed = ExperimentConfig.from_file(str(cfg))
        assert (parsed.kind, parsed.shots) == ("qubo", 7)
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_unknown_kind_rejected_when_built(self):
        with pytest.raises(ConfigError, match="kind"):
            ExperimentConfig(kind="x")

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "exp.toml"
        cfg.write_text("bogus = 3\n")
        assert main(["pipeline", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize(
        "flags,settings",
        [
            pytest.param([], "", id="defaults"),
            pytest.param(
                ["--hubo-penalty", "37.0", "--one-hot-penalty", "12.0", "--edge-penalty", "6.0"],
                "hubo_penalty = 37.0\none_hot_penalty = 12.0\nedge_penalty = 6.0\n",
                id="penalties-hubo",
            ),
            pytest.param(
                ["--kind", "qubo", "--one-hot-penalty", "12.0", "--edge-penalty", "6.0"],
                'kind = "qubo"\none_hot_penalty = 12.0\nedge_penalty = 6.0\n',
                id="penalties-qubo",
            ),
        ],
    )
    def test_flags_and_config_file_write_identical_json(self, tmp_path, flags, settings):
        by_flags, by_file = tmp_path / "flags.json", tmp_path / "file.json"
        cfg = tmp_path / "exp.toml"
        cfg.write_text(settings + f'output = "{by_file}"\n')
        assert main(["pipeline", *flags, "-o", str(by_flags)]) == 0
        assert main(["pipeline", "--config", str(cfg)]) == 0
        assert by_flags.read_bytes() == by_file.read_bytes()
        saved = read_json(by_flags)["config"]
        assert saved["target"] == 0.0
        for flag, value in zip(flags[::2], flags[1::2]):
            assert str(saved[flag[2:].replace("-", "_")]) == value

    @pytest.mark.parametrize(
        "argv", [["solve", "g.json"], ["sweep"], ["compile"], ["generate"], ["encode", "g.json"]]
    )
    def test_subcommand_defaults_are_the_config_defaults(self, argv):
        args = vars(build_parser().parse_args(argv))
        defaults = vars(ExperimentConfig())
        shared = set(args) & set(defaults) - {"target", "graph", "output"}
        assert shared, argv
        for name in shared:
            expected = str(defaults[name]) if (argv[0], name) == ("sweep", "p") else defaults[name]
            assert args[name] == expected, name
        if argv[0] == "solve":
            assert args["target"] is None

    def test_oracle_and_compile_defaults_are_the_library_constants(self, monkeypatch):
        monkeypatch.setattr(graphs, "ORACLE_SEQUENCE_CAP", 7)
        monkeypatch.setattr(maxsat, "DEFAULT_MAX_ORDER", 3)
        parser = build_parser()
        assert parser.parse_args(["oracle", "g.json"]).cap == 7
        assert parser.parse_args(["compile"]).max_order == 3

    def test_flags_are_the_config_fields(self):
        # Each pipeline flag must be an ExperimentConfig field and each field
        # a flag; the parsed namespace cannot show this, as the subparser's
        # set_defaults puts every field in it.
        subparsers = next(
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        dests = {action.dest for action in subparsers.choices["pipeline"]._actions}
        assert dests - {"help", "config"} == {f.name for f in dataclasses.fields(ExperimentConfig)}

    def test_worker_pool_matches_serial(self, tmp_path, monkeypatch):
        serial, pooled = tmp_path / "serial.json", tmp_path / "pooled.json"
        args = ["pipeline", "--seed", "2", "--nodes", "2", "--shots", "200", "--iters", "3",
                "--seeds", "0,1"]
        assert main(args + ["-o", str(serial)]) == 0
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        monkeypatch.setenv("TANGLEWALK_WORKERS", "2")
        assert _workers(2) == 2
        assert main(args + ["-o", str(pooled)]) == 0
        assert serial.read_bytes() == pooled.read_bytes()


SMALL = ["--seed", "1", "--nodes", "2", "--max-weight", "1"]


@pytest.mark.parametrize(
    "argv,files",
    [
        pytest.param(["compile", *SMALL, "--topology", "grid:3"], {}, id="grid-without-x"),
        pytest.param(["compile", *SMALL, "--topology", "linear:abc"], {}, id="linear-not-int"),
        pytest.param(["compile", *SMALL, "--topology", "grid:2x"], {}, id="grid-no-cols"),
        pytest.param(["sweep", *SMALL, "--p", "1,x"], {}, id="sweep-p"),
        pytest.param(["sweep", *SMALL, "--dbetas", "0.1:1.0"], {}, id="range-two-parts"),
        pytest.param(["sweep", *SMALL, "--dbetas", "abc"], {}, id="axis-not-float"),
        pytest.param(["sweep", *SMALL, "--dgammas", "0:1:0"], {}, id="range-count-zero"),
        pytest.param(["pipeline", *SMALL, "--seeds", "0,a"], {}, id="pipeline-seeds"),
        pytest.param(
            ["pipeline", "--config", "exp.toml"], {"exp.toml": b"seeds = [0, a]\n"},
            id="config-seeds",
        ),
        pytest.param(
            ["pipeline", "--config", "exp.toml"], {"exp.toml": b'shots = "x"\n'},
            id="config-type",
        ),
        pytest.param(
            ["pipeline", "--config", "exp.toml"], {"exp.toml": b"run_seed = 7\n"},
            id="config-run-seed-is-unknown",
        ),
        pytest.param(
            ["pipeline", "--config", "exp.toml"], {"exp.toml": b"shots = true\n"},
            id="config-boolean",
        ),
        pytest.param(
            ["pipeline", "--config", "exp.toml"], {"exp.toml": b"target = nan\n"},
            id="config-target-nan",
        ),
        pytest.param(["oracle", "."], {}, id="graph-is-a-directory"),
        pytest.param(["oracle", "bad.json"], {"bad.json": b"{not json"}, id="invalid-json"),
        pytest.param(["oracle", "bad.json"], {"bad.json": b"\xff\xfe"}, id="not-utf8"),
    ],
)
def test_malformed_input_is_config_error(tmp_path, monkeypatch, capsys, argv, files):
    monkeypatch.chdir(tmp_path)
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


RUN_SETTINGS = [
    ["--shots", "0"], ["--iters", "0"], ["--alpha", "0"], ["--alpha", "1.5"],
    ["--target", "nan"], ["--target", "inf"],
]
BAD_SCHEDULES = {  # each subcommand's schedule flags, one bad value each
    "solve": [["--p", "0"], ["--dbeta", "inf"], ["--dgamma", "nan"]],
    "pipeline": [["--p", "0"], ["--dbeta", "nan"], ["--dgamma", "inf"]],
    "sweep": [["--p", "0"], ["--p", "1,0"], ["--dbetas", "0.2,inf"], ["--dgammas", "nan"]],
    "compile": [["--p", "0"], ["--dbeta", "inf"], ["--dgamma", "nan"]],
}


@pytest.mark.parametrize(
    "command,setting",
    [
        *((command, setting) for command in ("solve", "pipeline") for setting in RUN_SETTINGS),
        *((command, setting) for command, bad in BAD_SCHEDULES.items() for setting in bad),
        ("solve", ["--run-seed", "-1"]),
        ("pipeline", ["--seeds", "-1"]),
    ],
    ids=lambda value: value if isinstance(value, str) else "".join(value),
)
def test_bad_run_setting_is_config_error(
    tmp_path, monkeypatch, capsys, tangle2_file, command, setting
):
    # Rejected at the boundary: before the instance is encoded, with nothing written.
    def no_encoding(*args):
        raise AssertionError("encoded before the run settings were checked")

    monkeypatch.setattr(cli, "_encode", no_encoding)
    out = tmp_path / "out"
    if command == "solve":
        argv = ["solve", tangle2_file]
    elif command == "compile":
        argv = ["compile", "--graph", tangle2_file, "--circuit-out", str(tmp_path / "gates")]
    else:
        argv = [command, "--graph", tangle2_file]
    assert main([*argv, *setting, "-o", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tangle2.json"]


@pytest.mark.parametrize(
    "command,penalty",
    [
        ("encode", ["--kind", "qubo", "--one-hot-penalty", "inf"]),
        ("encode", ["--kind", "qubo", "--edge-penalty", "nan"]),
        ("solve", ["--hubo-penalty", "nan"]),
        ("pipeline", ["--kind", "qubo", "--edge-penalty", "inf"]),
        ("sweep", ["--hubo-penalty", "nan"]),
        ("compile", ["--hubo-penalty", "nan"]),
        ("compile", ["--kind", "qubo", "--one-hot-penalty", "inf"]),
    ],
    ids=lambda value: value if isinstance(value, str) else "".join(value),
)
def test_non_finite_penalty_is_domain_error(tmp_path, capsys, tangle2_file, command, penalty):
    # Refused before any term is built, with nothing written.
    out = tmp_path / "out"
    if command in ("encode", "solve"):
        argv = [command, tangle2_file]
    else:
        argv = [command, "--graph", tangle2_file]
    if command == "solve":
        argv += ["--hist", str(tmp_path / "hist")]
    elif command == "compile":
        argv += ["--circuit-out", str(tmp_path / "gates")]
    assert main([*argv, *penalty, "-o", str(out)]) == 3
    assert capsys.readouterr().err == "error: penalty multipliers must be positive and finite\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tangle2.json"]


@pytest.mark.parametrize("command", ["encode", "solve"])
@pytest.mark.parametrize(
    "penalty",
    [["--kind", "qubo", "--one-hot-penalty", "1e308"], ["--hubo-penalty", "1e308"]],
    ids=["qubo", "hubo"],
)
def test_overflowing_penalty_is_domain_error(tmp_path, capsys, tangle2_file, command, penalty):
    # Finite flags whose terms sum past the largest float: refused, nothing written.
    out = tmp_path / "out"
    assert main([command, tangle2_file, *penalty, "-o", str(out)]) == 3
    assert "penalty multipliers too large" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["tangle2.json"]


@pytest.mark.parametrize(
    "command,flags,code",
    [("solve", [], 3), ("pipeline", [], 0), ("pipeline", ["--target=-1e300"], 3)],
    ids=["solve", "pipeline", "pipeline-unreached-target"],
)
def test_huge_finite_penalty_warns_nothing(tmp_path, capsys, command, flags, code):
    # 1e300 passes the encoders, but the energies it gives square past the
    # largest float.  The first feedback update refuses them; pipeline without
    # a target meets its optimum in iteration 1, before any update, as it did.
    graph = str(tmp_path / "g.json")
    assert main(["generate", "--seed", "2", "--nodes", "2", "--max-weight", "1", "-o", graph]) == 0
    argv = [command, graph] if command == "solve" else [command, "--graph", graph]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        status = main([*argv, "--kind", "qubo", "--one-hot-penalty", "1e300", *flags])
    assert status == code
    assert ("error: penalty multipliers too large" in capsys.readouterr().err) == (code == 3)


def test_unknown_flag_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["generate", "--bogus"])
    assert err.value.code == 2


def encoded_with_text_coefficient():
    assert main(["encode", "tangle2.json", "--kind", "hubo", "-o", "enc.json"]) == 0
    data = read_json("enc.json")
    data["terms"][0]["c"] = "x"
    return data


@pytest.mark.parametrize(
    "argv,data",
    [
        pytest.param(["oracle", "bad.json"], 5, id="graph-not-an-object"),
        pytest.param(
            ["oracle", "bad.json"], {"n": 2, "weights": 5, "edges": []}, id="weights-not-a-list"
        ),
        pytest.param(["solve", "bad.json"], 5, id="solve-input-not-an-object"),
        pytest.param(
            ["solve", "bad.json", "--graph", "tangle2.json"],
            encoded_with_text_coefficient,
            id="coefficient-not-a-number",
        ),
    ],
)
def test_json_of_the_wrong_shape_is_domain_error(
    tmp_path, monkeypatch, capsys, tangle2_file, argv, data
):
    monkeypatch.chdir(tmp_path)  # where tangle2_file wrote tangle2.json
    if callable(data):
        data = data()
    (tmp_path / "bad.json").write_text(json.dumps(data))
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith("error: ")


# Each command's artifacts on a 2-node instance (8 QUBO or 4 HUBO qubits),
# pinned: a change on the solve or compile path that moves one output byte
# fails here.  Penalties 0.3 and 0.7 make the Ising coefficients non-dyadic,
# so the optima's energies round apart and the rounding slack is exercised.
# The naive compile places 4 HUBO qubits on 8, so its SWAPs move qubits both
# onto free physical qubits and past other logical ones.  The p=2 compiles
# hold two diagonal runs between RY layers, so a run's plan meets another's.
FLOAT_PENALTIES = ["--one-hot-penalty", "0.3", "--edge-penalty", "0.7", "--hubo-penalty", "0.3"]
SWEEP_GRID = ["--p", "1,2", "--dbetas", "0.3,0.7", "--dgammas", "0.1,0.3"]
SIDE = "{name}.side"  # the --hist or --circuit-out file a command writes beside "-o name"
PINNED_COMMANDS = {  # name -> argv
    "encode-qubo": ["encode", "g.json", "--kind", "qubo"],
    "encode-hubo": ["encode", "g.json", "--kind", "hubo"],
    "encode-qubo-float": ["encode", "g.json", "--kind", "qubo", *FLOAT_PENALTIES],
    "encode-hubo-float": ["encode", "g.json", "--kind", "hubo", *FLOAT_PENALTIES],
    "solve-graph": ["solve", "g.json", "--kind", "hubo", "--run-seed", "1", "--hist", SIDE],
    "solve-encoded": [
        "solve", "encode-qubo-float", "--graph", "g.json", "--target", "0", "--hist", SIDE,
    ],
    "sweep-hubo": ["sweep", "--graph", "g.json", "--kind", "hubo", *SWEEP_GRID],
    "sweep-qubo-float": [
        "sweep", "--graph", "g.json", "--kind", "qubo", *FLOAT_PENALTIES, *SWEEP_GRID,
    ],
    "pipeline": [
        "pipeline", "--seed", "2", "--nodes", "2", "--max-weight", "1", "--kind", "qubo",
        "--shots", "200", "--seeds", "0,1",
    ],
    "compile-parity": [
        "compile", "--graph", "g.json", "--topology", "heavy-hex:1", "--circuit-out", SIDE,
    ],
    "compile-naive": [
        "compile", "--graph", "g.json", "--topology", "linear:8", "--method", "naive",
        "--layout-seed", "3", "--circuit-out", SIDE,
    ],
    "compile-parity-p2": [
        "compile", "--graph", "g.json", "--p", "2", "--topology", "heavy-hex:1",
        "--circuit-out", SIDE,
    ],
    "compile-naive-p2": [
        "compile", "--graph", "g.json", "--p", "2", "--topology", "heavy-hex:1",
        "--method", "naive", "--circuit-out", SIDE,
    ],
}
PINNED_DIGESTS = {  # SHA-256 of stdout, then "name", then "name.side"
    "encode-qubo": "b61030d559193385bbe62debf965f50b4cbf0a5ab5f9324bfbccda607d0c70f1",
    "encode-hubo": "379fc328b867c3e9fd24af91186340ce44f9ef531cc6e180fc135ee9cbec5312",
    "encode-qubo-float": "d3bf593fbe2ae35996161d226c78329b1e11ae7ef0fabf0311fae3cacd979265",
    "encode-hubo-float": "54be31ebfb757be73bd5cbf2f08af7e586df7cf98f6e2304889e26cd9d046158",
    "solve-graph": "fdad664825729cb94d5eb0cec97dbef40817436aa5499a4f6fac66d1e0b2b696",
    "solve-encoded": "c21b62f15b206cc7f52595eff5a23166281e7915d607af9bcf6328fa31ed3d4f",
    "sweep-hubo": "a2a0b26a95cbd2a65ef2a31881a69f24c083ca41511ca77bc4c57349e583ce08",
    "sweep-qubo-float": "c42741d8328139f4865f343f595a899da2ba8aabb4d7d36d63aae3e697cbbe43",
    "pipeline": "8cc75242ad435e4815aa25640300451fb226bc2de79011875c09dd020b6beafe",
    "compile-parity": "0a03060b4da647ac734922add6f657ada5bee5a4cbb467f5580427a0a93ddfaf",
    "compile-naive": "80a30ec7903e9eed1e4cc9df1d72679cd79cd5312525c821ebc5768d36c5b87b",
    "compile-parity-p2": "b2c4a50bc62336f01fc13e630eda044369e3ef8260ab0c91fa76f1c501659274",
    "compile-naive-p2": "8e341c7d01aff079cc3156cb5e7a78d5d4f4af77166986c6736cc54a8b52cb55",
}


def test_solver_artifacts_match_pinned_digests(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    main(["generate", "--seed", "2", "--nodes", "2", "--max-weight", "1", "-o", "g.json"])
    digests = {}
    for name, argv in PINNED_COMMANDS.items():
        argv = [arg.format(name=name) for arg in argv]
        assert main([*argv, "-o", name]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode())  # pipeline's table
        for path in [name, *(arg for arg in argv if arg.endswith(".side"))]:
            digest.update((tmp_path / path).read_bytes())
        digests[name] = digest.hexdigest()
    assert digests == PINNED_DIGESTS
