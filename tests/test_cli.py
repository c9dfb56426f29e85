"""Configuration parsing, experiment dispatch, output determinism."""

import json

import pytest

from bistable_qubit import cli
from bistable_qubit.cli import ConfigError, parse_config


class TestParseConfig:
    def test_missing_experiment_named(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config("{}")

    def test_empty_experiment_named(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config('{"experiment": ""}')

    def test_unknown_experiment(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config('{"experiment": "tomography"}')

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="qubit.f_centre_hz"):
            parse_config('{"experiment": "perr", "qubit": {"f_centre_hz": 1.0}}')

    def test_unknown_top_level_key(self):
        with pytest.raises(ConfigError, match="colour"):
            parse_config('{"experiment": "perr", "colour": 3}')

    def test_frequency_ordering_invariant(self):
        with pytest.raises(ConfigError, match="qubit"):
            parse_config('{"experiment": "perr", "qubit": {"f_low_hz": 6.0e9}}')

    def test_bad_pinned_mode(self):
        with pytest.raises(ConfigError, match="pinned_mode"):
            parse_config('{"experiment": "perr", "tls": {"pinned_mode": "X"}}')

    def test_defaults_fill_reference_device_values(self):
        cfg = parse_config('{"experiment": "ramsey"}')
        assert cfg.qubit.delta_tls == pytest.approx(374e3)
        assert cfg.qubit.t_pi == pytest.approx(48e-9)
        assert cfg.qubit.t_readout == pytest.approx(2e-6)
        assert cfg.qubit.t_reset == pytest.approx(6e-6)
        assert cfg.tls.gamma_hl == pytest.approx(0.05)
        assert cfg.params["shots"] == 200

    def test_mode_names_normalized(self):
        cfg = parse_config('{"experiment": "ramsey", "tls": {"pinned_mode": "L"}}')
        assert cfg.pinned_mode == 1

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="JSON"):
            parse_config("{not json")


class TestRun:
    def test_manifest_derived_block(self, tmp_path):
        cfg = parse_config(json.dumps({"experiment": "perr", "out_dir": str(tmp_path)}))
        assert cli.run(cfg) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        derived = manifest["derived"]
        assert derived["tau_opt_s"] == pytest.approx(1.33e-6, rel=0.01)
        assert derived["estimation_bandwidth_hz"] == pytest.approx(107.2e3, rel=0.01)
        assert derived["estimation_bandwidth_overlapped_readout_hz"] == pytest.approx(
            136e3, rel=0.01
        )
        assert derived["p_err_static"] == pytest.approx(0.0443, abs=3e-4)

    def test_manifest_references_all_outputs(self, tmp_path):
        import hashlib

        cfg = parse_config(
            json.dumps(
                {
                    "experiment": "ak",
                    "out_dir": str(tmp_path),
                    "ak": {"n_t": 20, "n_trajectories": 500},
                }
            )
        )
        cli.run(cfg)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        produced = {p.name for p in tmp_path.iterdir()} - {"manifest.json"}
        listed = {o["file"] for o in manifest["outputs"]}
        assert listed == produced
        for entry in manifest["outputs"]:
            digest = hashlib.sha256((tmp_path / entry["file"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]

    def test_byte_identical_reruns(self, tmp_path):
        outputs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            cfg = parse_config(
                json.dumps(
                    {
                        "experiment": "syndrome-sweep",
                        "seed": 77,
                        "out_dir": str(out),
                        "syndrome_sweep": {"n_cycles": 2000, "gammas_hz": [0.0, 3e3]},
                    }
                )
            )
            cli.run(cfg)
            outputs.append((out / "syndrome_sweep.csv").read_bytes())
        assert outputs[0] == outputs[1]

    def test_seed_changes_data(self, tmp_path):
        payloads = []
        for seed in (1, 2):
            out = tmp_path / str(seed)
            cfg = parse_config(
                json.dumps(
                    {
                        "experiment": "ramsey",
                        "seed": seed,
                        "out_dir": str(out),
                        "ramsey": {"n_tau": 8, "shots": 40},
                    }
                )
            )
            cli.run(cfg)
            payloads.append((out / "ramsey.csv").read_bytes())
        assert payloads[0] != payloads[1]

    def test_csv_headers_present(self, tmp_path):
        cfg = parse_config(
            json.dumps(
                {
                    "experiment": "heatmap",
                    "out_dir": str(tmp_path),
                    "heatmap": {"n_splitting": 5, "n_switching": 6},
                }
            )
        )
        cli.run(cfg)
        first = (tmp_path / "heatmap.csv").read_text().splitlines()[0]
        assert first == "splitting_2pi_delta_over_omega,gamma_t_cyc,log10_improvement"

    def test_replicas_column(self, tmp_path):
        cfg = parse_config(
            json.dumps(
                {
                    "experiment": "ramsey",
                    "out_dir": str(tmp_path),
                    "replicas": 2,
                    "ramsey": {"n_tau": 4, "shots": 10},
                }
            )
        )
        cli.run(cfg)
        lines = (tmp_path / "ramsey.csv").read_text().splitlines()
        replicas = {line.split(",")[0] for line in lines[1:]}
        assert replicas == {"0", "1"}


class TestMain:
    def test_subcommand_round_trip(self, tmp_path):
        rc = cli.main(
            [
                "perr",
                "--out",
                str(tmp_path),
                "--seed",
                "3",
            ]
        )
        assert rc == 0
        assert (tmp_path / "perr.csv").exists()

    def test_config_experiment_mismatch(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text('{"experiment": "ramsey"}')
        rc = cli.main(["perr", "--config", str(config)])
        assert rc == 2
        assert "config names experiment" in capsys.readouterr().err

    def test_shots_flag_rejected_for_closed_forms(self, capsys):
        rc = cli.main(["heatmap", "--shots", "5"])
        assert rc == 2
        assert "--shots" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "experiment, text, extra, named",
        [
            ("perr", '{"experiment": "perr", "bogus": 1}', [], "bogus"),
            ("perr", '{"experiment": "perr",', [], "c.json"),
            ("perr", None, [], "c.json"),
            ("ramsey", "{}", ["--shots", "0"], "ramsey.shots"),
            ("ramsey", '{"ramsey": {"n_tau": "x"}}', [], "ramsey.n_tau"),
            ("perr", '{"seed": true}', [], "seed"),
        ],
        ids=[
            "unknown-key", "malformed-json", "missing-file", "zero-shots", "string-count", "boolean-seed"
        ],
    )
    def test_config_error_exit_code(self, tmp_path, capsys, experiment, text, extra, named):
        config = tmp_path / "c.json"
        if text is not None:
            config.write_text(text)
        rc = cli.main([experiment, "--config", str(config), "--out", str(tmp_path / "out"), *extra])
        assert rc == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_shots_flag_maps_to_cycles(self, tmp_path):
        rc = cli.main(
            [
                "syndrome-sweep",
                "--out",
                str(tmp_path),
                "--shots",
                "500",
                "--seed",
                "9",
            ]
        )
        assert rc == 0
        line = (tmp_path / "syndrome_sweep.csv").read_text().splitlines()[1]
        assert line.split(",")[3] == "500"
