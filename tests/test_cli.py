"""Configuration parsing, experiment dispatch, output determinism."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bistable_qubit import benchmarking, cli, protocol, streams
from bistable_qubit.bloch import QubitParams
from bistable_qubit.cli import ConfigError, parse_config
from bistable_qubit.protocol import make_environment

from scalar_engine import executor_run, schedule_run


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


def _strict_json(text):
    """Parse ``text`` as RFC 8259 JSON, where NaN and Infinity tokens do not exist."""

    def reject(token):
        raise ValueError(f"not a JSON token: {token}")

    return json.loads(text, parse_constant=reject)


class TestRun:
    def test_manifest_derived_block(self, tmp_path):
        cfg = parse_config(json.dumps({"experiment": "perr", "out_dir": str(tmp_path)}))
        assert cli.run(cfg) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        derived = manifest["derived"]
        assert derived["tau_opt_s"] == pytest.approx(1.33e-6, rel=0.01)
        assert derived["tau_probe_s"] == derived["tau_opt_s"]
        assert derived["estimation_bandwidth_hz"] == pytest.approx(107.2e3, rel=0.01)
        assert derived["estimation_bandwidth_overlapped_readout_hz"] == pytest.approx(
            136e3, rel=0.01
        )
        assert derived["p_err_static"] == pytest.approx(0.0443, abs=3e-4)
        # A set probe time is reported as used; the optimum stays the optimum.
        doc = {"experiment": "perr", "out_dir": str(tmp_path), "protocol": {"tau_probe_s": 1e-6}}
        assert cli.run(parse_config(json.dumps(doc))) == 0
        derived = json.loads((tmp_path / "manifest.json").read_text())["derived"]
        assert derived["tau_opt_s"] == pytest.approx(1.33e-6, rel=0.01)
        assert derived["tau_probe_s"] == 1e-6
        assert derived["estimation_bandwidth_hz"] == pytest.approx(1 / (1e-6 + 8e-6))

    def test_report_counts_the_draws_of_each_stream(self, tmp_path):
        # A pinned, frozen defect draws no dwell; every cycle reads two uniforms.
        mit = {"rows": 3, "n_tau": 4, "n_reps": 5, "block_size": 2}
        doc = {"experiment": "mitigate", "out_dir": str(tmp_path), "replicas": 2,
               "tls": {"gamma_hl_hz": 0.0, "gamma_lh_hz": 0.0, "pinned_mode": "H"}, "mitigate": mit}
        assert cli.run(parse_config(json.dumps(doc))) == 0
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        cycles = 3 * mit["rows"] * mit["n_tau"] * mit["n_reps"]
        counts = {"defect_draws": 0, "readout_draws": 2 * cycles, "sequences_words": 0}
        assert manifest["report"] == {"draws": {"replica_0": counts, "replica_1": counts}}
        # Switching: the stationary initial mode and the dwells are counted too.
        doc = dict(doc, replicas=1, tls={"gamma_hl_hz": 1e3, "gamma_lh_hz": 2e3})
        assert cli.run(parse_config(json.dumps(doc))) == 0
        draws = json.loads((tmp_path / "manifest.json").read_text())["report"]["draws"]["replica_0"]
        assert draws["readout_draws"] == 2 * cycles and draws["defect_draws"] > 4 * cycles
        doc = {"experiment": "rb", "out_dir": str(tmp_path), "rb": {"depths": [1, 4, 16], "n_sequences": 3}}
        assert cli.run(parse_config(json.dumps(doc))) == 0
        draws = json.loads((tmp_path / "manifest.json").read_text())["report"]["draws"]["replica_0"]
        assert draws["sequences_words"] > 0
        doc = {"experiment": "perr", "out_dir": str(tmp_path)}
        assert cli.run(parse_config(json.dumps(doc))) == 0
        assert json.loads((tmp_path / "manifest.json").read_text())["report"] == {"draws": {}}

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
        for n_tau, n_reps in ((2, 1), (1, 2)):
            doc = {
                "experiment": "mitigate",
                "out_dir": str(tmp_path),
                "mitigate": {"rows": 1, "n_tau": n_tau, "n_reps": n_reps},
            }
            assert cli.run(parse_config(json.dumps(doc))) == 0
            fits = _strict_json((tmp_path / "manifest.json").read_text())["fringe_fits"]["replica_0"]
            assert fits["no_feedback_mixture_ok"] is False
            assert fits["no_feedback_f1_hz"] is None and fits["no_feedback_f2_hz"] is None
            # Three frequencies need 7 taus: no amplitude is measured.
            assert fits["feedback_principal_amplitude"] is None and fits["feedback_sideband_ratio"] is None

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

    def test_undetermined_decay_stays_out_of_the_rb_mean(self, tmp_path, monkeypatch):
        # As many depths as fit parameters: this fit converges (ok) but leaves
        # the decay undetermined, with decay_err in the thousands.  The other
        # arm's fit is determined, so each arm's flag must come from its own fit.
        survivals = np.array([1.0, 0.5, 0.5])
        undetermined = benchmarking.fit_exponential([1, 30, 55], survivals, benchmarking._survival_weights(survivals, 1))
        assert undetermined.ok and undetermined.decay_err > 1
        depths = np.array([1, 4, 16, 64, 128])
        survivals = 0.5 + 0.5 * 0.99**depths
        determined = benchmarking.fit_exponential(depths, survivals, benchmarking._survival_weights(survivals, 100))
        assert determined.ok and determined.decay_err <= 1
        for undetermined_arm in ("nofb", "fb"):
            fits = {"nofb": determined, "fb": determined, undetermined_arm: undetermined}
            calls = []

            def fit_exponential(*args):  # a window fits its open-loop arm, then its feedback arm
                calls.append(None)
                return fits["nofb" if len(calls) % 2 else "fb"]

            monkeypatch.setattr(benchmarking, "fit_exponential", fit_exponential)
            out = tmp_path / undetermined_arm
            doc = {"experiment": "rb", "out_dir": str(out), "rb": dict(SMALL["rb"]["rb"], n_windows=2)}
            assert cli.run(parse_config(json.dumps(doc))) == 0
            summary = _strict_json((out / "manifest.json").read_text())["rb_summary"]["replicas"]["replica_0"]
            assert len(calls) == 4
            for arm, fit in fits.items():
                flagged = fit is undetermined
                assert summary[f"n_windows_flagged_{arm}"] == (2 if flagged else 0), (undetermined_arm, arm)
                assert summary[f"mean_r_native_{arm}"] == (None if flagged else fit.r_native), (undetermined_arm, arm)


# 1/delta_tls with instantaneous pulses: both modes give the same outcome law.
NO_CONTRAST = '{"protocol": {"tau_probe_s": 2.6737967914438504e-06, "finite_pulses": false}}'


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
            ("mitigate", '{"qubit": {"t_readout_s": Infinity}}', [], "qubit.t_readout_s"),
            ("mitigate", '{"qubit": {"t_reset_s": Infinity}}', [], "qubit.t_reset_s"),
            ("mitigate", '{"mitigate": {"idle_between_rows_s": Infinity}}', [], "mitigate.idle_between_rows_s"),
            ("rb", '{"rb": {"idle_between_windows_s": Infinity}}', [], "rb.idle_between_windows_s"),
            ("mitigate", '{"qubit": {"rabi_rate_rad_s": Infinity}}', [], "qubit.rabi_rate_rad_s"),
            ("mitigate", NO_CONTRAST, [], "protocol.tau_probe_s"),
            ("rb", NO_CONTRAST, [], "protocol.tau_probe_s"),
            ("syndrome-sweep", NO_CONTRAST, [], "protocol.tau_probe_s"),
            ("perr", '{"qubit": {"t1_s": 1%s}}' % ("0" * 400), [], "qubit.t1_s"),
            ("mitigate", '{"mitigate": {"tau_max_s": %d}}' % (2**1024 - 1), [], "mitigate.tau_max_s"),
            ("syndrome-sweep", '{"syndrome_sweep": {"gammas_hz": [1%s]}}' % ("0" * 400), [],
             "syndrome_sweep.gammas_hz[0]"),
            ("perr", "{}", ["--seed", str(2**64)], "seed"),
            ("ramsey", '{"ramsey": {"n_tau": %d}}' % 10**19, [], "ramsey.n_tau"),
            ("mitigate", '{"mitigate": {"n_tau": %d}}' % 10**19, [], "mitigate.n_tau"),
            ("mitigate", '{"mitigate": {"rows": %d}}' % 10**19, [], "mitigate.rows"),
            ("mitigate", '{"mitigate": {"n_reps": %d}}' % 10**19, [], "mitigate.n_reps"),
            ("rb", '{"rb": {"depths": [1, 2, %d]}}' % 2**63, [], "rb.depths"),
            ("heatmap", '{"heatmap": {"n_splitting": %d}}' % 10**19, [], "heatmap.n_splitting"),
            ("heatmap", '{"heatmap": {"n_switching": %d}}' % 10**19, [], "heatmap.n_switching"),
            ("ak", '{"ak": {"n_t": %d}}' % 10**19, [], "ak.n_t"),
            ("ak", '{"ak": {"gamma_hz": 1e300, "n_t": 3, "n_trajectories": 5}}', [], "ak.gamma_hz"),
            ("ramsey", '{"ramsey": {"virtual_detuning_hz": 3e307}}', [], "ramsey.virtual_detuning_hz"),
            ("mitigate", '{"mitigate": {"det_nofb_hz": 3e307}}', [], "mitigate.det_nofb_hz"),
            ("mitigate", '{"mitigate": {"det_fb_hz": -3e307}}', [], "mitigate.det_fb_hz"),
            ("ramsey", '{"qubit": {"f_high_hz": 1.7e308, "f_low_hz": -1.7e308}}', [], "qubit.f_high_hz"),
        ],
        ids=[
            "unknown-key", "malformed-json", "missing-file", "zero-shots", "string-count", "boolean-seed",
            "zero-log-axis", "negative-tau-max", "no-depths", "unsorted-depths", "two-depths",
            "fractional-depth", "negative-rb-idle", "unknown-frame", "visibility-above-1", "zero-t2",
            "string-rate", "negative-sweep-rate", "negative-ak-rate", "frozen-unpinned", "nan-t1",
            "nan-t-wall", "negative-mitigate-idle", "infinite-frequency", "infinite-rate",
            "infinite-readout", "infinite-reset", "infinite-mitigate-idle", "infinite-rb-idle",
            "infinite-rabi-rate", "no-contrast-mitigate", "no-contrast-rb", "no-contrast-sweep",
            "integer-beyond-float-t1", "integer-beyond-float-tau-max", "integer-beyond-float-rate",
            "seed-beyond-64-bits", "oversized-ramsey-taus", "oversized-mitigate-taus", "oversized-mitigate-rows",
            "oversized-mitigate-reps", "oversized-rb-depth",
            "oversized-heatmap-splittings", "oversized-heatmap-switching", "oversized-ak-grid",
            "oversized-ak-flips", "overflowing-ramsey-phase", "overflowing-open-loop-phase",
            "overflowing-feedback-phase", "overflowing-splitting",
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

    def test_ak_rate_is_bounded_by_the_expected_flips_per_trajectory(self):
        # 0.5 * gamma_hz * t_max flips per trajectory, t_max = 3/delta_tls when
        # ak.t_max_s is 0; the bound is the array-length domain of the size keys.
        bound = 2 * 10**7 / (3.0 / QubitParams.defaults().delta_tls)
        inside = parse_config(json.dumps({"experiment": "ak", "ak": {"gamma_hz": bound * (1 - 1e-9)}}))
        assert inside.params["gamma_hz"] == bound * (1 - 1e-9)
        with pytest.raises(ConfigError, match="^ak.gamma_hz: "):
            parse_config(json.dumps({"experiment": "ak", "ak": {"gamma_hz": bound * (1 + 1e-9)}}))

    def test_unused_section_is_checked_but_not_built(self, tmp_path, capsys):
        # MitigationConfig, which rejects a zero block size, is built for
        # mitigate runs only.  The schema still checks the section's types and
        # domains, so an oversized tau grid is rejected before anything is built.
        config = tmp_path / "c.json"
        config.write_text('{"mitigate": {"block_size": 0}}')
        assert cli.main(["perr", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "perr.csv").exists()
        for bad in ('"x"', "10000000000000000000"):
            config.write_text('{"mitigate": {"n_tau": %s}}' % bad)
            assert cli.main(["perr", "--config", str(config), "--out", str(tmp_path / "bad")]) == 2
            assert "mitigate.n_tau" in capsys.readouterr().err

    def test_no_contrast_probe_time_still_runs_ramsey(self, tmp_path):
        # The probe time only decodes syndromes; a fringe sweep runs none.
        config = tmp_path / "c.json"
        config.write_text(NO_CONTRAST[:-1] + ', "ramsey": {"n_tau": 4, "shots": 5}}')
        assert cli.main(["ramsey", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "ramsey.csv").exists()

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

    @pytest.mark.parametrize("experiment", ["mitigate", "rb"])
    def test_feedback_retunes_to_a_far_low_mode(self, tmp_path, experiment):
        # f_low < f_high / 2: f_high - delta_tls is not f_low, and a frame
        # retuned to it would not sit on a mode.
        doc = {"qubit": FAR_LOW_MODE, **SMALL[experiment]}
        config = tmp_path / "c.json"
        config.write_text(json.dumps(doc))
        assert cli.main([experiment, "--config", str(config), "--out", str(tmp_path / "out")]) == 0


FAR_LOW_MODE = {"f_high_hz": 1469297933.871, "f_low_hz": 41650888.684}
SMALL = {
    "mitigate": {"mitigate": {"rows": 1, "n_tau": 3, "n_reps": 2}},
    "rb": {"rb": {"depths": [1, 2, 4], "n_sequences": 2, "shots_per_sequence": 1}},
}

# Schema-driven fuzzing.  Every key of the shared sections and of the
# experiment's own section is drawn from its type, with caps that keep a run
# cheap: sample sizes 1-6 (1-2 for the replicas and RB windows, which multiply
# the others and the RB fits), lab times (keys in s) up to 1 ms and idles up
# to 10 ms, rates (keys in Hz) up to 1e5, other numbers up to twice their
# default, a Rabi rate of at least 1e6 rad/s and a splitting of at least 1 kHz,
# which bounds the optimal probe time by 0.5 ms.
# The caps leave values outside some domains (a zero T1, a visibility above 1),
# so both exits are exercised.
DETUNING = st.floats(-1e7, 1e7)
FUZZ = {
    ("seed",): st.integers(0, 2**64 - 1),
    ("replicas",): st.integers(1, 2),
    ("rb", "n_windows"): st.integers(1, 2),
    ("qubit", "rabi_rate_rad_s"): st.floats(1e6, 1e10),
    ("tls", "pinned_mode"): st.sampled_from([None, "H", "L", 0, 1]),
    ("ramsey", "frame"): st.sampled_from(["high", "low"]),
    ("ramsey", "virtual_detuning_hz"): DETUNING,
    ("mitigate", "det_nofb_hz"): DETUNING,
    ("mitigate", "det_fb_hz"): DETUNING,
    ("rb", "depths"): st.lists(st.integers(0, 64), min_size=3, max_size=5, unique=True).map(sorted),
}
SHARED = {"seed", "replicas", "qubit", "tls", "protocol"}
KEY_PATHS = {".".join(path[: i + 1]) for path, _ in LEAVES for i in range(len(path))}


def _fuzz_value(path, default):
    if path in FUZZ:
        return FUZZ[path]
    if isinstance(default, bool):
        return st.booleans()
    if isinstance(default, int):
        return st.integers(1, 6)  # a sample size
    if isinstance(default, list):
        return st.lists(_fuzz_value(path, 0.0), max_size=3)
    key = path[-1]
    if key.endswith("_hz"):
        return st.floats(0.0, 1e5)
    if key.endswith("_s"):
        return st.floats(0.0, 1e-2 if key.startswith("idle") else 1e-3)
    return st.floats(0.0, 2.0 * default)


@st.composite
def fuzz_configs(draw, experiments=tuple(cli.EXPERIMENTS)):
    experiment = draw(st.sampled_from(experiments))
    section = experiment.replace("-", "_")
    doc = {"experiment": experiment}
    for path, (default, _) in LEAVES:
        if path[0] in SHARED | {section} and path[-1] not in ("f_high_hz", "f_low_hz"):
            value = draw(_fuzz_value(path, default))
            if len(path) == 1:
                doc[path[0]] = value
            else:
                doc.setdefault(path[0], {})[path[1]] = value
    f_high = draw(st.floats(2e3, 1e10))
    f_low = draw(st.floats(0.0, 1.0)) * (f_high - 1e3)  # f_low << f_high included
    doc["qubit"].update(f_high_hz=f_high, f_low_hz=f_low)
    return doc


@settings(max_examples=120, deadline=None)
@given(doc=fuzz_configs())
@example(doc={"experiment": "mitigate", "qubit": FAR_LOW_MODE, **SMALL["mitigate"]})
@example(doc={"experiment": "perr", "qubit": {"t1_s": 5e-324}})  # 1/T2 overflows: T2 = 0
@example(doc={"experiment": "syndrome-sweep", "syndrome_sweep": {"n_cycles": 5, "gammas_hz": [5e-324]}})
@example(doc={"experiment": "perr", "perr": {"t2_s": 5e-324}})  # tau / t2 overflows on the contrast grid
@example(doc={"experiment": "heatmap", "heatmap": {"t_pi_s": 5e-324}})  # pi / t_pi overflows
@example(doc={"experiment": "heatmap", "heatmap": {"splitting_max": 5e-324}})  # the cycle time overflows
@example(doc={"experiment": "heatmap", "heatmap": {"splitting_max": 1e200}})  # its square overflows: a traceback
# A subnormal splitting over a pulse floor that rounds to 0: a 0 / 0 cell.
@example(doc={"experiment": "heatmap", "heatmap": {"splitting_min": 5e-324, "alpha": 1.0, "t_pi_s": 1e-300}})
def test_schema_drawn_config_runs_or_names_its_key(doc):
    # Exit 0 with a strict-JSON manifest and data files a rerun reproduces
    # byte for byte, or exit 2 naming a key path; never a traceback, and no
    # warning (a float extreme that warns writes nan).
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings():
        warnings.simplefilter("error")
        config = Path(tmp) / "c.json"
        config.write_text(json.dumps(doc))
        data = []
        for run in ("a", "b"):
            out = Path(tmp) / run
            err = io.StringIO()
            with contextlib.redirect_stderr(err):
                rc = cli.main([doc["experiment"], "--config", str(config), "--out", str(out)])
            if rc == 2:
                named = err.getvalue().removeprefix("configuration error: ").split(": ")[0]
                assert re.sub(r"\[\d+\]$", "", named) in KEY_PATHS, err.getvalue()
                return
            assert rc == 0
            manifest = _strict_json((out / "manifest.json").read_text())
            data.append({o["file"]: (out / o["file"]).read_bytes() for o in manifest["outputs"]})
        assert data[0] == data[1]


def _recorded_run(doc, out, scalar):
    """``cli.run`` of ``doc`` into ``out``, with the scalar engine's stand-ins patched in if ``scalar``:
    its data files, its manifest's report and every environment's clock, mode, next switch and draws."""
    envs = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "make_environment", lambda *args: envs.append(make_environment(*args)) or envs[-1])
        if scalar:
            mp.setattr(protocol.CycleSchedule, "run", schedule_run)
            mp.setattr(benchmarking.SequenceExecutor, "run", executor_run)
        assert cli.run(parse_config(json.dumps(dict(doc, out_dir=str(out))))) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    files = {o["file"]: (out / o["file"]).read_bytes() for o in manifest["outputs"]}
    return files, manifest["report"], [(env.clock, env.xi, env.switch_at, env.draw_counts()) for env in envs]


@settings(max_examples=150, derandomize=True, deadline=None)
@given(doc=fuzz_configs(("ramsey", "mitigate", "rb", "syndrome-sweep")), small_blocks=st.booleans())
# Rows of 2250 cycles, several stages each; about one cycle in a few hundred has a switch land in it.
@example(doc={"experiment": "mitigate", "tls": {"gamma_hl_hz": 400.0, "gamma_lh_hz": 150.0},
              "mitigate": {"n_tau": 25, "n_reps": 30, "rows": 2, "block_size": 4, "idle_between_rows_s": 1e-4}},
         small_blocks=False)
# Runs longer than two schedules: redrawn each cycle, or switching so fast that most cycles run alone.
@example(doc={"experiment": "syndrome-sweep", "syndrome_sweep": {"n_cycles": 2 * protocol.CHUNK + 3,
                                                                 "gammas_hz": [0.0, 1e6], "t_walls_s": [0.0, 8e-6]}},
         small_blocks=False)
@example(doc={"experiment": "ramsey", "replicas": 2, "tls": {"gamma_hl_hz": 1e6, "gamma_lh_hz": 3e5},
              "ramsey": {"n_tau": 4, "shots": 40}}, small_blocks=True)
# Switches between sequences and within most of them, depth 0 included, over windows and idles.
@example(doc={"experiment": "rb", "tls": {"gamma_hl_hz": 1e5, "gamma_lh_hz": 6e4},
              "rb": {"depths": [0, 8, 40], "n_sequences": 4, "shots_per_sequence": 3, "n_windows": 3,
                     "idle_between_windows_s": 2e-5}}, small_blocks=True)
def test_staged_runs_equal_the_scalar_engine(doc, small_blocks):
    # The staged cycle and RB runs against every cycle and run on its own: the same
    # bytes, draws and final environments.  With small blocks, a run spans many stages
    # and the buffers refill within them.
    try:
        parse_config(json.dumps(doc))
    except ConfigError:
        return
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        if small_blocks:
            mp.setattr(protocol, "CHUNK", 3)
            mp.setattr(streams, "BLOCK", 12)
        staged, scalar = (_recorded_run(doc, Path(tmp) / str(flag), flag) for flag in (False, True))
        assert staged == scalar


def _reference_csv(header, rows):
    """The writer as one ``_fmt`` call per value: the byte reference for ``_write_csv``."""
    return ",".join(header) + "\n" + "".join(",".join(cli._fmt(v) for v in row) + "\n" for row in rows)


def _broadcast_rows(columns):
    """The rows of broadcast ``columns``: each list as an object array of its elements as they are."""
    arrays = [c if isinstance(c, np.ndarray) else np.array(c, dtype=object) for c in columns]
    return list(zip(*(a.ravel() for a in np.broadcast_arrays(*arrays))))


def test_csv_writer_prints_every_value_as_fmt(tmp_path):
    floats = [0.1, math.nan, math.inf, -math.inf, -0.0, 1e-300, 5e-324, 123456789012.5, 2.0, -1 / 3]
    lists = [  # 1-D columns along the table's last axis
        floats,
        [i * 7 - 20 for i in range(10)],  # int
        [f"arm{i}" for i in range(10)],  # str
        [i % 2 == 0 for i in range(10)],  # bool
        [None] * 10,
        [None if i % 3 == 0 else x for i, x in enumerate(floats)],  # None in some rows, float in others
        [np.float64(x) for x in floats],  # numpy float
        [np.int64(i - 3) for i in range(10)],  # numpy int
        [np.bool_(i % 2) for i in range(10)],  # numpy bool
        [floats[0], 1, "s", None, True, np.float64(2.5), np.int64(4), np.bool_(1), 1e-300, -0.0],  # one of each
        [10**13, 0.5, 3, 2.0, 10**13 + 1, -0.0, 7, 1e13, 0, 5e-324],  # ints and floats: 10**13 keeps its digits
        [10**13],  # one value, spread over the table
    ]
    arrays = [
        np.array(floats),  # float, a row broadcast
        np.array(floats).reshape(10, 1)[:3],  # float, a column broadcast
        np.array(floats[::-1] * 3).reshape(3, 10),  # float, the full table
        np.array(-0.0),  # float, 0-d
        np.array(5e-324),
        np.array([[-(2**63)], [0], [2**62]]),  # int, a column broadcast
        np.arange(30, dtype=np.uint64).reshape(3, 10),  # unsigned int, the full table
        np.array(10**13),  # int, 0-d
        np.array([True, False, True]).reshape(3, 1),  # bool, a column broadcast
        np.arange(10) % 3 == 0,  # bool, a row broadcast
        np.array(None),  # object, 0-d
        np.array([None, 1.5, "s", None, 2, True, np.float64(-0.0), math.nan, 10**13, None], dtype=object),
        np.array(floats, dtype=np.float32),  # float32: the value widened exactly, as _fmt prints it
    ]
    columns = lists + arrays
    header = [f"c{k}" for k in range(len(columns))]
    path = tmp_path / "mixed.csv"
    cli._write_csv(path, header, columns)
    rows = _broadcast_rows(columns)
    assert len(rows) == 30
    assert path.read_bytes() == _reference_csv(header, rows).encode("utf-8")
    # Zero-row tables: an empty axis empties the broadcast, whatever the other columns hold.
    for columns in ([np.zeros((0, 2)), np.array(1.5), [3, 4.5]], [[], np.array([]), np.array(None)]):
        cli._write_csv(path, ["a", "b", "c"], columns)
        assert _broadcast_rows(columns) == []
        assert path.read_bytes() == b"a,b,c\n"
    # Tables longer than three blocks: a column as large as the table is formatted block by block,
    # a broadcasting one once and taken by index; the float kernel's boundary values included.
    n = 3 * cli._BLOCK_ROWS + 1
    edges = boundary_floats()
    narrow = edges[np.abs(edges) < 1e38].astype(np.float32)
    for columns in (
        [np.resize(edges, n), np.arange(n) - 5000, np.resize(narrow, n), np.arange(n) % 3 == 0, np.array(2.5), [10**13],
         np.array(["s"])],
        [np.arange(4)[:, None] - 2, edges[:3100], (np.arange(3100) * 7919).astype(np.uint64),
         np.resize(edges[3100:], (4, 3100)), np.array([[None]], dtype=object), [f"c{j}" for j in range(3100)],
         np.resize(narrow, (4, 1))],
    ):
        header = [f"c{k}" for k in range(len(columns))]
        cli._write_csv(path, header, columns)
        rows = _broadcast_rows(columns)
        assert len(rows) >= n
        assert path.read_bytes() == _reference_csv(header, rows).encode("utf-8")
    # A NUL byte would vanish with the padding: a str cell holding one is refused, naming its column.
    for cell in (["a", "b\x00"], np.array(["a", "\x00b"], dtype=object)):
        with pytest.raises(ValueError, match="'c1'"):
            cli._write_csv(path, ["c0", "c1"], [[1, 2], cell])


def boundary_floats() -> np.ndarray:
    """Floats at every edge of the ``textfmt`` float kernel, both signs: each power of ten and
    its neighbours, 12-digit ties and ties that carry into the next decade, the exponents where
    '%.12g' changes notation (e = -5, -4, 11, 12) and the specials."""
    powers = [float(f"1e{j}") for j in range(-323, 309)]
    values = [math.nextafter(p, to) for p in powers for to in (0.0, math.inf)] + powers
    values += [(k + 0.5) * 10.0**j for j in range(-30, 40) for k in (10**11, 123456789012, 10**12 - 2)]
    values += [999999999999.5 * 10.0**j for j in range(-30, 40)]
    values += [m * 10.0**e for e in (-5, -4, 11, 12) for m in (1.0, 9.999999999994, 9.999999999995, 9.9999999999999)]
    values += [0.0, math.nan, math.inf, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]
    return np.concatenate([values, np.negative(values)])


# Golden outputs: data-file SHA-256 of small pinned configs, as written by
# artifact version 0.6.0.  Speed-ups must keep them byte-identical.  A
# deliberate change of the random streams, of the arithmetic behind a state or
# of the fit solver must update these hashes together with a bump of
# ``__version__`` (the manifest's ``artifact_version``).
GOLDEN_VERSION = "0.6.0"
GOLDEN = {
    "mitigate-switching-blocks": (
        {
            "experiment": "mitigate",
            "seed": 41,
            "tls": {"gamma_hl_hz": 5e4, "gamma_lh_hz": 5e4},
            "mitigate": {"rows": 2, "n_tau": 12, "n_reps": 6, "block_size": 3},
        },
        {
            "mitigate_nofb.csv": "b1aeb37f439d6e44127a6db0c6926f3f78e7a2f4e45cbeb654b6911eff40c95b",
            "mitigate_fb.csv": "19c2b06bed1142bab7981da8a3807363211b67b1da2fcb7a22ec18ffcfd714f8",
            "mitigate_trace.csv": "ce0829fb9e53b489c96aa24239c7c8e807322dee2cefc3c41e19d51f1597922c",
            "mitigate_avg.csv": "b4ccbd721bafcb9002cfd0a20c2ede65d5459ff17b92d97a4b59cc267123ac47",
        },
    ),
    # Two replicas: the data files stack each replica's (row, tau, rep) grids.
    "mitigate-switching-replicas": (
        {
            "experiment": "mitigate",
            "seed": 59,
            "replicas": 2,
            "tls": {"gamma_hl_hz": 5e4, "gamma_lh_hz": 5e4},
            "mitigate": {"rows": 2, "n_tau": 10, "n_reps": 4, "block_size": 2},
        },
        {
            "mitigate_nofb.csv": "07ed3420d22a5e85fc7748f50bd5a73159cf2169618c6d075c0e454b26281617",
            "mitigate_fb.csv": "2b60c2fe3c629d90af4bd0496bdbcede111db56b40fecd476ff1963f035a10aa",
            "mitigate_trace.csv": "95ef7f1cddadbb8f188d7123e71b8f59d27d25522d97f79d3ccb414fb5f6ce8a",
            "mitigate_avg.csv": "37c4a3791a6747c67e70de928d9067c8674edca17672e945383a51dacf93c5f0",
        },
    ),
    # Instantaneous pulses under switching: cycles a switch lands in, in both
    # frames, with the zero-duration pulses that advance no lab time.
    "mitigate-switching-instantaneous": (
        {
            "experiment": "mitigate",
            "seed": 52,
            "protocol": {"finite_pulses": False},
            "tls": {"gamma_hl_hz": 5e4, "gamma_lh_hz": 5e4},
            "mitigate": {"rows": 2, "n_tau": 12, "n_reps": 6, "block_size": 2},
        },
        {
            "mitigate_nofb.csv": "8b32bd611ca5dbfdd601706e309c0315b25f13cfb6a8b4d8a6b6458d6d1ef886",
            "mitigate_fb.csv": "7aa4046a7ffdf9df8e6837a33ac5fc97ca93c5c09b327a185ea0da709f698250",
            "mitigate_trace.csv": "1d14733952021f8a3269bbc396673d31c753812a0131291bdb10cb0bd6571b72",
            "mitigate_avg.csv": "a3b419f19f5a9409d8561c1c9078abae25e42a98c82a2f4349a35c5d6a0d59aa",
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
        {"ramsey.csv": "ec1d2c2041511d7fdd914f2c44e4a9e34c08d766731565d9c37ad9533c3f6858"},
    ),
    # 100 us mean dwell against ~10 us cycles: the defect switches tens of
    # times in the run, inside and between the controller's finite-pulse cycles.
    "ramsey-switching-finite": (
        {
            "experiment": "ramsey",
            "seed": 46,
            "tls": {"gamma_hl_hz": 1e4, "gamma_lh_hz": 1e4},
            "ramsey": {"n_tau": 12, "shots": 30},
        },
        {"ramsey.csv": "337081b1bf4ffa21c8e096d73e52b5559573624aae79b8eddcc3e9ab8d3abdda"},
    ),
    # A frozen H mode with finite pulses over two replicas: every shot of a tau
    # is staged, and p_model is filled.
    "ramsey-pinned-finite-replicas": (
        {
            "experiment": "ramsey",
            "seed": 55,
            "replicas": 2,
            "tls": {"gamma_hl_hz": 0.0, "gamma_lh_hz": 0.0, "pinned_mode": "H"},
            "ramsey": {"n_tau": 8, "shots": 30},
        },
        {"ramsey.csv": "6ec98ad5130aaeb43a6bf93ab5ddf8986f9bb1913765f76560886eb05b2f49a0"},
    ),
    # Instantaneous pulses: the frozen rows redraw the mode every cycle, the
    # switching rows run some cycles alone, each at two dead times.
    "syndrome-sweep-instantaneous": (
        {
            "experiment": "syndrome-sweep",
            "seed": 56,
            "protocol": {"finite_pulses": False},
            "syndrome_sweep": {"n_cycles": 3000, "gammas_hz": [0, 3e3], "t_walls_s": [2e-6, 8e-6]},
        },
        {"syndrome_sweep.csv": "874542a2c5a3d1b24a59e588d5fd12ac51636ea1873ff39b613905c4faa97346"},
    ),
    "syndrome-sweep": (
        {
            "experiment": "syndrome-sweep",
            "seed": 43,
            "syndrome_sweep": {"n_cycles": 3000, "gammas_hz": [0, 1e5]},
        },
        {"syndrome_sweep.csv": "04e17c742b7b117852ea247b2479e9588d420fd5d94a34c6041d376f34e3d1ae"},
    ),
    "rb-switching": (
        {
            "experiment": "rb",
            "seed": 44,
            "tls": {"gamma_hl_hz": 1e4, "gamma_lh_hz": 1e4},
            "rb": {"depths": [1, 4, 16, 64], "n_sequences": 4, "shots_per_sequence": 2, "n_windows": 2},
        },
        {
            "rb_timeseries.csv": "642fdba2b186e1197941ed9520276019df4c67820d5de507aa8eaebd7bb14216",
            "rb_survivals.csv": "163d77eaa8d2a8616d699c7b79b9af7b1a734b63179e3b30a13e07d001c00e06",
        },
    ),
    # 6 s mean dwell: nearly every run is switch-free, so repeated shots and
    # both arms reuse the executor's per-(mode, frame) state of a sequence.
    "rb-slow-switching": (
        {
            "experiment": "rb",
            "seed": 45,
            "tls": {"gamma_hl_hz": 1 / 6, "gamma_lh_hz": 1 / 6},
            "rb": {
                "depths": [1, 4, 16, 64, 256],
                "n_sequences": 100,
                "shots_per_sequence": 4,
                "n_windows": 3,
                "idle_between_windows_s": 2.0,
            },
        },
        {
            "rb_timeseries.csv": "186a1855d96358d94e6aa515e32a67ae6552a7ae9a1d221a609934c63ec965a5",
            "rb_survivals.csv": "9f5175fedba74573aa4efbdbdf409d0e2bd603df8f0306e13b2026aa55ce0e6f",
        },
    ),
    # A frozen L defect: the open-loop arm runs at f_high and the feedback arm
    # mostly at f_low, so every sequence runs in both frames; depth 0 runs the
    # recovery alone, and an idle separates the two windows.
    "rb-pinned-low-depth-zero": (
        {
            "experiment": "rb",
            "seed": 51,
            "tls": {"gamma_hl_hz": 0.0, "gamma_lh_hz": 0.0, "pinned_mode": "L"},
            "rb": {
                "depths": [0, 1, 3, 16, 65],
                "n_sequences": 6,
                "shots_per_sequence": 3,
                "n_windows": 2,
                "idle_between_windows_s": 0.5,
            },
        },
        {
            "rb_timeseries.csv": "39433afba66679060a7288653939396448280288c2300cad8ce6cab7ac3ae1c2",
            "rb_survivals.csv": "5ce0c8fbbabd1da59670784a655fa3b712c85825cc6194542dd988c430c654fa",
        },
    ),
    # Instantaneous pulses under switching over two replicas: the syndrome's
    # zero-length pulses advance the staged clock by 0.0, depth 0 runs the
    # recovery alone, and switches land inside sequences.
    "rb-instantaneous-replicas": (
        {
            "experiment": "rb",
            "seed": 57,
            "replicas": 2,
            "protocol": {"finite_pulses": False},
            "tls": {"gamma_hl_hz": 1e4, "gamma_lh_hz": 1e4},
            "rb": {"depths": [0, 2, 8, 32], "n_sequences": 6, "shots_per_sequence": 3},
        },
        {
            "rb_timeseries.csv": "14731c202d98f7dca776a463997ecefea8f5264fab79bbb3effc988155ad55fb",
            "rb_survivals.csv": "ed550c1b37172165ed3f1ee053ed530bc646e42e61187077ecd0e58246399d18",
        },
    ),
    # 10 us mean dwell against sequences of up to ~25 us: most long sequences
    # run alone, short ones between switches are staged, and a short idle
    # separates the windows.
    "rb-fast-switching-windows": (
        {
            "experiment": "rb",
            "seed": 58,
            "tls": {"gamma_hl_hz": 1e5, "gamma_lh_hz": 1e5},
            "rb": {
                "depths": [1, 8, 64, 256],
                "n_sequences": 5,
                "shots_per_sequence": 2,
                "n_windows": 2,
                "idle_between_windows_s": 1e-3,
            },
        },
        {
            "rb_timeseries.csv": "af99016f3757c247a9a18cc14c448e7cec371a5ca5ab51f92e945b0eaf6743a1",
            "rb_survivals.csv": "b8745a636836d0c809e045c251868c66f5e0d94ed0e20b9165fe35b726d07067",
        },
    ),
    # The oracle layer: the improvement map on log and linear axes (the default
    # switching range reaches cells where p_err clamps at 1/2), the A-K Monte
    # Carlo with switching over two MC_CHUNK blocks, and the error budgets.
    "heatmap-log": (
        {"experiment": "heatmap", "seed": 47, "heatmap": {"n_splitting": 9, "n_switching": 13}},
        {
            "heatmap.csv": "a53df12bb353c3842930380a09a7d28f23668f7344d13799aa8e9f447883ae6e",
            "heatmap_zero_contour.csv": "711cd3ceffdbc87fb877aa15fa3e73bd93074a8b95fec2ce7f52f795784a151f",
        },
    ),
    "heatmap-linear": (
        {"experiment": "heatmap", "seed": 48, "heatmap": {"n_splitting": 11, "n_switching": 14, "log_axes": False}},
        {
            "heatmap.csv": "259bd46edff04d1c6e18b791d15d35d11b90fdec78f4427993cb8ea7fb37af64",
            "heatmap_zero_contour.csv": "5d2929d70a74a7fdb9e3c836b1d947db438838ae10b06b7acaa25bf408ebbab5",
        },
    ),
    # At the smallest splitting p_err clamps at 1/2, so blind driving wins over
    # the whole switching axis: that row's contour is NaN and the contour file
    # leaves it out.
    "heatmap-nan-contour": (
        {
            "experiment": "heatmap",
            "seed": 60,
            "heatmap": {"splitting_min": 1e-3, "splitting_max": 1.0, "n_splitting": 7, "n_switching": 9},
        },
        {
            "heatmap.csv": "b084df766bf51026d6b882a6417cfd2ad164739fac583812f2c9f3479d93794d",
            "heatmap_zero_contour.csv": "9c3e89a64d4780b348f4060669fbbad4a5dc82caebf40b0648e89cf7224a41f1",
        },
    ),
    "ak-mc-two-chunks": (
        {"experiment": "ak", "seed": 49, "ak": {"gamma_hz": 1e6, "n_t": 9, "n_trajectories": 20003}},
        {"ak.csv": "953b90a11547ede39c2518e35f5fd16981f01c81d28b0db5a2117641323798ae"},
    ),
    # Two chunks on 200 grid points: frozen, and switching with a tail of passes
    # per chunk, each on the trajectories still on the grid.
    "ak-mc-frozen": (
        {"experiment": "ak", "seed": 53, "ak": {"gamma_hz": 0, "n_trajectories": 20003}},
        {"ak.csv": "64f2d352c41a693ad5021ca3bae3b30845c89e285aba2eef829790f088074d06"},
    ),
    "ak-mc-blocks": (
        {"experiment": "ak", "seed": 54, "ak": {"gamma_hz": 1e6, "n_t": 200, "n_trajectories": 20003}},
        {"ak.csv": "6577c8c272df83018a999aa79b05d29fee36f44b709dcad8f6b16b3cc21c6f2a"},
    ),
    "perr": (
        {"experiment": "perr", "seed": 50},
        {
            "perr.csv": "62a7bd4f310c5d405e0ae4035f9daaee68bc8b54f40f673eae7b7551683785ae",
            "perr_contrast.csv": "45a76b23207e4c587e8dbb8b5b6367360c234b22a7eba0a6f0f1de63aea29c73",
        },
    ),
}


@pytest.mark.parametrize("name", list(GOLDEN))
def test_golden_data_files(tmp_path, name):
    doc, expected = GOLDEN[name]
    assert cli.run(parse_config(json.dumps(dict(doc, out_dir=str(tmp_path))))) == 0
    manifest = _strict_json((tmp_path / "manifest.json").read_text())
    assert manifest["artifact_version"] == GOLDEN_VERSION
    assert {o["file"]: o["sha256"] for o in manifest["outputs"]} == expected


# numpy picks its SIMD kernels by CPU, and some of them round differently from
# others (np.exp and np.power under AVX-512).  Switching the highest groups off
# in a child process stands in for an older CPU: the data files must not move.
SIMD_OFF = "X86_V3 X86_V4 AVX512_ICL AVX512_SPR"
GOLDEN_HASHES = """
import json, os, sys, tempfile
import bistable_qubit.cli as cli
hashes = {}
for name, doc in json.loads(sys.argv[1]).items():
    with tempfile.TemporaryDirectory() as out:
        assert cli.run(cli.parse_config(json.dumps(dict(doc, out_dir=out)))) == 0, name
        with open(os.path.join(out, "manifest.json")) as f:
            hashes[name] = {o["file"]: o["sha256"] for o in json.load(f)["outputs"]}
print(json.dumps(hashes))
"""


def test_golden_data_files_do_not_depend_on_the_simd_kernels():
    docs = {name: doc for name, (doc, _) in GOLDEN.items()}
    assert len(docs) == 20
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=SIMD_OFF,
               PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", GOLDEN_HASHES, json.dumps(docs)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {name: GOLDEN[name][1] for name in docs}
