"""Configuration parsing, experiment dispatch, output determinism."""

import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bistable_qubit import cli
from bistable_qubit.cli import ConfigError, parse_config


def _leaves(schema, path=()):
    for key, spec in schema.items():
        if isinstance(spec, dict):
            yield from _leaves(spec, path + (key,))
        else:
            yield path + (key,), spec


LEAVES = list(_leaves(cli.SCHEMA))
JSON_VALUES = (
    st.none()
    | st.booleans()
    | st.integers(-(10**6), 10**6)
    | st.floats(allow_nan=False)
    | st.text(max_size=4)
    | st.lists(st.integers(-5, 5), max_size=2)
    | st.dictionaries(st.text(max_size=2), st.integers(), max_size=1)
)
JSON_KIND = {bool: "boolean", int: "integer", float: "number", str: "string", list: "array", dict: "object"}


def _kind(value):
    return JSON_KIND.get(type(value), "null")


def _wrong_type(default):
    """Values of a JSON type the key does not take (an integer passes for a number)."""
    if default is None:
        return st.nothing()
    allowed = {_kind(default)} | ({"integer"} if isinstance(default, float) else set())
    wrong = JSON_VALUES.filter(lambda v: _kind(v) not in allowed)
    if isinstance(default, list):
        wrong = wrong | _wrong_type(default[0] if default else 0.0).map(lambda v: [1, v])
    return wrong


def _out_of_domain(default, domain):
    """Values of the key's own JSON type that its domain rejects."""
    if domain is None:
        return st.nothing()
    if isinstance(default, list):
        values = st.lists(st.integers(-3, 3) | st.floats(allow_nan=False), max_size=3)
    elif isinstance(default, float):
        values = st.integers(-(10**6), 10**6) | st.floats(allow_nan=False)
    elif isinstance(default, int):
        values = st.integers(-(10**6), 10**6)
    else:
        values = JSON_VALUES
    return values.filter(lambda v: not cli.DOMAINS[domain](v))


def _nan(default):
    """NaN where the key takes a number, alone or as a list item."""
    if isinstance(default, float):
        return st.just(math.nan)
    if isinstance(default, list) and not (default and isinstance(default[0], int)):
        return st.just([0.0, math.nan])
    return st.nothing()


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_every_bad_value_is_rejected_naming_its_key(data):
    path, (default, domain) = data.draw(st.sampled_from(LEAVES))
    value = data.draw(_wrong_type(default) | _out_of_domain(default, domain) | _nan(default))
    doc = {"experiment": "perr"}
    if len(path) == 1:
        doc[path[0]] = value
    else:
        doc[path[0]] = {path[1]: value}
    with pytest.raises(ConfigError, match=re.escape(".".join(path))):
        parse_config(json.dumps(doc))


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

    def test_mitigate_with_fewer_taus_than_fit_parameters(self, tmp_path):
        doc = {
            "experiment": "mitigate",
            "out_dir": str(tmp_path),
            "mitigate": {"rows": 1, "n_tau": 2, "n_reps": 1},
        }
        assert cli.run(parse_config(json.dumps(doc))) == 0
        manifest = (tmp_path / "manifest.json").read_text()
        assert '"no_feedback_mixture_ok": false' in manifest

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
            ("heatmap", '{"heatmap": {"splitting_min": 0}}', [], "heatmap.splitting_min"),
            ("ramsey", '{"ramsey": {"tau_max_s": -1}}', [], "ramsey.tau_max_s"),
            ("rb", '{"rb": {"depths": []}}', [], "rb.depths"),
            ("rb", '{"rb": {"depths": [4, 2, 8]}}', [], "rb.depths"),
            ("rb", '{"rb": {"depths": [1, 2]}}', [], "rb.depths"),
            ("rb", '{"rb": {"depths": [1, 2.5, 4]}}', [], "rb.depths"),
            ("rb", '{"rb": {"idle_between_windows_s": -1}}', [], "rb.idle_between_windows_s"),
            ("ramsey", '{"ramsey": {"frame": "middle"}}', [], "ramsey.frame"),
            ("perr", '{"perr": {"alpha": 2}}', [], "perr.alpha"),
            ("perr", '{"perr": {"t2_s": 0}}', [], "perr.t2_s"),
            ("perr", '{"perr": {"gammas_hz": ["a"]}}', [], "perr.gammas_hz"),
            ("syndrome-sweep", '{"syndrome_sweep": {"gammas_hz": [-1]}}', [], "syndrome_sweep.gammas_hz"),
            ("ak", '{"ak": {"gamma_hz": -1}}', [], "ak.gamma_hz"),
            ("ramsey", '{"tls": {"gamma_hl_hz": 0, "gamma_lh_hz": 0}}', [], "tls.pinned_mode"),
            ("perr", '{"qubit": {"t1_s": NaN}}', [], "qubit.t1_s"),
            ("perr", '{"perr": {"t_wall_s": NaN}}', [], "perr.t_wall_s"),
            ("mitigate", '{"mitigate": {"idle_between_rows_s": -1}}', [], "mitigate.idle_between_rows_s"),
            ("perr", '{"qubit": {"f_high_hz": Infinity}}', [], "qubit.f_high_hz"),
            ("ramsey", '{"tls": {"gamma_lh_hz": Infinity}}', [], "tls.gamma_lh_hz"),
        ],
        ids=[
            "unknown-key", "malformed-json", "missing-file", "zero-shots", "string-count", "boolean-seed",
            "zero-log-axis", "negative-tau-max", "no-depths", "unsorted-depths", "two-depths",
            "fractional-depth", "negative-rb-idle", "unknown-frame", "visibility-above-1", "zero-t2",
            "string-rate", "negative-sweep-rate", "negative-ak-rate", "frozen-unpinned", "nan-t1",
            "nan-t-wall", "negative-mitigate-idle", "infinite-frequency", "infinite-rate",
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


# Golden outputs: data-file SHA-256 of small pinned configs, as written by
# artifact version 0.1.0.  Speed-ups must keep them byte-identical.  A
# deliberate change of the random streams or of the arithmetic behind a state
# must update these hashes together with a bump of ``__version__`` (the
# manifest's ``artifact_version``).
GOLDEN_VERSION = "0.1.0"
GOLDEN = {
    "mitigate-switching-blocks": (
        {
            "experiment": "mitigate",
            "seed": 41,
            "tls": {"gamma_hl_hz": 5e4, "gamma_lh_hz": 5e4},
            "mitigate": {"rows": 2, "n_tau": 12, "n_reps": 6, "block_size": 3},
        },
        {
            "mitigate_nofb.csv": "a5b1e7b512308074b7852ce3548e9787c88303600f19d4763357496f6cfe0db7",
            "mitigate_fb.csv": "11b40dca6f80ef5ee4efa4fed19d97d35d5f5eb14c884fa991c5047cbfa598e9",
            "mitigate_trace.csv": "bf65c8cd53b51ce4d8326f824595805ef49ba04f32f6c5cf991b2971331e6cee",
            "mitigate_avg.csv": "937a432737a4e831c3c372f589de987df861275362258d6cf0a65730b6d9d4f6",
        },
    ),
    "ramsey-pinned-instantaneous": (
        {
            "experiment": "ramsey",
            "seed": 42,
            "protocol": {"finite_pulses": False},
            "tls": {"gamma_hl_hz": 0.0, "gamma_lh_hz": 0.0, "pinned_mode": "L"},
            "ramsey": {"n_tau": 16, "shots": 40},
        },
        {"ramsey.csv": "baa818f9d4b96057c2c4d1b57ea64b6bbdbc2756497463b7b0e6b965aba31c58"},
    ),
    "syndrome-sweep": (
        {
            "experiment": "syndrome-sweep",
            "seed": 43,
            "syndrome_sweep": {"n_cycles": 3000, "gammas_hz": [0, 1e5]},
        },
        {"syndrome_sweep.csv": "b1b87eec5e9d40b710fdd7962465559ab183ac2651c16962cbc1abddaa32b436"},
    ),
    "rb-switching": (
        {
            "experiment": "rb",
            "seed": 44,
            "tls": {"gamma_hl_hz": 1e4, "gamma_lh_hz": 1e4},
            "rb": {"depths": [1, 4, 16, 64], "n_sequences": 4, "shots_per_sequence": 2, "n_windows": 2},
        },
        {
            "rb_timeseries.csv": "bea4c5146f8c8ae096bd080fa0b54b3ae8c80bd862ad78df4df4c7576c0c179e",
            "rb_survivals.csv": "909a2119e4151810ea06fe4550a4423ab30679199975b8ee126ba052fa23c0a4",
        },
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_data_files(tmp_path, name):
    doc, expected = GOLDEN[name]
    assert cli.run(parse_config(json.dumps(dict(doc, out_dir=str(tmp_path))))) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["artifact_version"] == GOLDEN_VERSION
    assert {o["file"]: o["sha256"] for o in manifest["outputs"]} == expected
