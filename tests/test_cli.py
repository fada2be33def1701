"""End-to-end command-line behavior: exit codes, files, determinism."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from pfclab.cli import build_parser, main
from pfclab.designs import PAIR_B


def run(capsys, *argv):
    rc = main(list(argv))
    cap = capsys.readouterr()
    return rc, cap.out, cap.err


def write_pair_file(path, C_num, C_den, P_num, P_den, label="custom"):
    path.write_text(
        json.dumps(
            {
                "label": label,
                "C": {"num": C_num, "den": C_den},
                "P": {"num": P_num, "den": P_den},
            }
        )
    )
    return str(path)


def load_meta(path):
    meta = json.loads(path.read_text())
    assert {"command", "version", "seed", "config", "timestamp"} <= set(meta)
    return meta


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class TestVerify:
    def test_builtin_pair_passes(self, capsys):
        rc, out, _ = run(capsys, "verify", "--pair", "a")
        assert rc == 0
        assert "not strongly stabilizable" in out
        assert "result: PASS" in out
        assert out.count("PASS") >= 5

    def test_plant_only_report(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "--plant", "pendulum-position", "--pair", "none"
        )
        assert rc == 0
        assert "not strongly stabilizable" in out

    def test_angle_plant_is_stabilizable(self, capsys):
        rc, out, _ = run(
            capsys, "verify", "--plant", "pendulum-angle", "--pair", "none"
        )
        assert rc == 0
        assert "not strongly stabilizable" not in out
        assert "strongly stabilizable" in out

    def test_broken_pair_fails(self, capsys, tmp_path):
        broken = write_pair_file(
            tmp_path / "broken.json", [1.0], [-1.0, 1.0], [0.0], [1.0]
        )
        rc, out, _ = run(capsys, "verify", "--pair-file", broken)
        assert rc == 1
        assert "FAIL" in out

    def test_malformed_pair_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        rc, _, err = run(capsys, "verify", "--pair-file", str(bad))
        assert rc == 2
        assert "malformed" in err

    def test_missing_pair_file(self, capsys, tmp_path):
        rc, _, err = run(
            capsys, "verify", "--pair-file", str(tmp_path / "nope.json")
        )
        assert rc == 2
        assert "cannot read" in err

    def test_unknown_pair_label(self, capsys):
        rc, _, err = run(capsys, "verify", "--pair", "z")
        assert rc == 2
        assert "unknown pair" in err

    def test_unknown_plant(self, capsys):
        rc, _, err = run(capsys, "verify", "--plant", "bicycle", "--pair", "a")
        assert rc == 2
        assert "unknown plant" in err

    def test_missing_json_key(self, capsys, tmp_path):
        pair = tmp_path / "no_p.json"
        pair.write_text(json.dumps({"C": {"num": [1.0], "den": [1.0]}}))
        rc, _, err = run(capsys, "verify", "--pair-file", str(pair))
        assert rc == 2
        assert "'P'" in err
        pair.write_text(json.dumps({"C": [1.0], "P": {"num": [1.0], "den": [1.0]}}))
        rc, _, err = run(capsys, "verify", "--pair-file", str(pair))
        assert rc == 2
        assert "'C'" in err
        plant = tmp_path / "no_den.json"
        plant.write_text(json.dumps({"num": [1.0]}))
        rc, _, err = run(
            capsys, "verify", "--plant", f"file:{plant}", "--pair", "none"
        )
        assert rc == 2
        assert "'den'" in err
        for num in (1.0, [None], [[1.0]], [{}], [True]):
            plant.write_text(json.dumps({"num": num, "den": [1.0, 1.0]}))
            rc, _, err = run(
                capsys, "verify", "--plant", f"file:{plant}", "--pair", "none"
            )
            assert rc == 2
            assert "'num'" in err
        # a 401-digit integer has no double, as 1e400 has none
        for big in ("1" + "0" * 400, "1e400"):
            plant.write_text('{"num": [%s], "den": [1, 1]}' % big)
            rc, _, err = run(
                capsys, "verify", "--plant", f"file:{plant}", "--pair", "none"
            )
            assert rc == 2
            assert err == "error: polynomial coefficients must be finite\n"
        # the report starts only after the pair has loaded
        unit = {"num": [1], "den": [1]}
        for bad, key in (
            ({"C": {"num": [[1]], "den": [1]}, "P": unit}, "'num'"),
            ({"label": None, "C": unit, "P": unit}, "'label'"),
        ):
            pair.write_text(json.dumps(bad))
            rc, out, err = run(capsys, "verify", "--pair-file", str(pair))
            assert (rc, out) == (2, "")
            assert key in err


# ---------------------------------------------------------------------------
# synthesize
# ---------------------------------------------------------------------------


class TestSynthesize:
    def test_order_zero_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["synthesize", "--n", "0"])
        assert exc.value.code == 2

    def test_easy_plant_success(self, capsys, tmp_path):
        plant = tmp_path / "easy.json"
        plant.write_text(json.dumps({"num": [1.0], "den": [-1.0, 1.0]}))
        rc, out, _ = run(
            capsys,
            "synthesize",
            "--n", "1",
            "--plant", f"file:{plant}",
            "--population", "40",
            "--generations", "30",
            "--seed", "0",
            "--out", str(tmp_path / "run"),
        )
        assert rc == 0
        assert "success" in out
        assert "independent verification: PASS" in out
        result = json.loads((tmp_path / "run" / "synthesis.json").read_text())
        assert result["success"] is True
        assert result["best_F"] < 0
        assert len(result["history"]) == 31
        assert result["ga"]["population"] == 40
        hist = np.genfromtxt(
            tmp_path / "run" / "synthesis_history.csv", delimiter=",", names=True
        )
        assert hist["best_F"].tolist() == pytest.approx(result["history"])
        load_meta(tmp_path / "run" / "synthesis_metadata.json")

    def test_unsuccessful_search_exits_one(self, capsys, tmp_path):
        rc, out, _ = run(
            capsys,
            "synthesize",
            "--n", "3",
            "--population", "12",
            "--generations", "2",
            "--seed", "0",
            "--out", str(tmp_path),
        )
        assert rc == 1
        assert "no stabilizing pair found" in out
        result = json.loads((tmp_path / "synthesis.json").read_text())
        assert result["success"] is False

    def test_bad_ga_flags(self, capsys, tmp_path):
        rc, _, err = run(
            capsys,
            "synthesize",
            "--n", "1",
            "--population", "1",
            "--out", str(tmp_path),
        )
        assert rc == 2
        assert "population" in err

    def test_nonfinite_ga_flags(self, capsys, tmp_path):
        for flags, field in (
            (["--mutation-rate", "1", "--mutation-scale", "inf"], "mutation_scale"),
            (["--init-range", " -inf", "1"], "init_range"),
        ):
            rc, _, err = run(
                capsys, "synthesize", "--n", "1", *flags, "--out", str(tmp_path)
            )
            assert rc == 2
            assert err.startswith("error: " + field)
        assert not any(tmp_path.iterdir())

    @pytest.mark.filterwarnings("error")
    def test_overflowing_init_range(self, capsys, tmp_path):
        # the last range passes GaConfig; a later generation's blend overflows
        late = ["--population", "6", "--generations", "10", "--crossover-rate", "1"]
        for flags in (
            ["--init-range", " -1e308", "1e308"],
            ["--init-range", " -8e307", "8e307"],
            ["--init-range", " -4e307", "4e307", *late],
        ):
            rc, _, err = run(capsys, "synthesize", "--n", "1", *flags, "--out", str(tmp_path))
            assert rc == 2
            assert err.startswith("error: init_range is too wide")
            assert err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.filterwarnings("error")
    def test_overflowing_mutation(self, capsys, tmp_path):
        # the first generation's kept child has a gene mutated past the largest double
        flags = ["--population", "2", "--elitism", "1", "--generations", "2"]
        flags += ["--mutation-rate", "1", "--mutation-scale", "1e3"]
        rc, _, err = run(capsys, "synthesize", "--n", "1", *flags, "--out", str(tmp_path))
        assert rc == 2
        assert err == "error: mutation_scale is too large: a mutated gene overflowed\n"
        # a later blend's overflow keeps its own message
        flags = ["--population", "6", "--generations", "10", "--crossover-rate", "1"]
        flags += ["--init-range", " -4e307", "4e307"]
        rc, _, err = run(capsys, "synthesize", "--n", "1", *flags, "--out", str(tmp_path))
        assert err == "error: init_range is too wide: the search overflowed (Range exceeds valid bounds)\n"
        assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# response emitters
# ---------------------------------------------------------------------------


class TestStep:
    def test_pair_b_settles_at_dc_gain(self, capsys, tmp_path):
        rc, out, _ = run(
            capsys,
            "step", "--pair", "b", "--t-end", "60", "--out", str(tmp_path),
        )
        assert rc == 0
        data = np.genfromtxt(tmp_path / "step.csv", delimiter=",", names=True)
        assert data["y"][-1] == pytest.approx(10.0 / 3.0, rel=0.01)
        meta = load_meta(tmp_path / "step_metadata.json")
        assert meta["command"] == "step"
        assert meta["config"]["pair"] == "b"

    def test_deterministic_bytes(self, capsys, tmp_path):
        for d in ("one", "two"):
            rc, _, _ = run(
                capsys,
                "step", "--pair", "a", "--t-end", "5", "--out",
                str(tmp_path / d),
            )
            assert rc == 0
        a = (tmp_path / "one" / "step.csv").read_bytes()
        b = (tmp_path / "two" / "step.csv").read_bytes()
        assert a == b
        m1 = json.loads((tmp_path / "one" / "step_metadata.json").read_text())
        m2 = json.loads((tmp_path / "two" / "step_metadata.json").read_text())
        m1.pop("timestamp")
        m2.pop("timestamp")
        assert m1 == m2

    def test_unstable_loop_writes_nothing(self, capsys, tmp_path):
        # pair b is designed for the position plant; on the angle plant
        # its loop diverges
        rc, _, err = run(
            capsys,
            "step", "--pair", "b", "--plant", "pendulum-angle",
            "--out", str(tmp_path / "out"),
        )
        assert rc == 1
        assert "unstable" in err
        assert not (tmp_path / "out").exists()

    def test_infinite_t_end_is_usage_error(self, capsys, tmp_path):
        for command in ("step", "angle"):
            with pytest.raises(SystemExit) as exc:
                main([command, "--t-end", "inf", "--out", str(tmp_path)])
            assert exc.value.code == 2
            assert "--t-end: must be positive and finite" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_step_count_overflow_is_usage_error(self, capsys, tmp_path):
        # pair a at dt = 1 also trips the fast-pole rule, whose step count overflows
        for command in ("step", "angle"):
            for pair, t_end, dt in (("b", "1e300", "1e-10"), ("a", "1e308", "1")):
                rc, _, err = run(
                    capsys, command, "--pair", pair, "--t-end", t_end, "--dt", dt,
                    "--out", str(tmp_path),
                )
                assert rc == 2
                assert err == "error: t_end / dt overflows: dt is too small for t_end\n"
        assert not any(tmp_path.iterdir())

    def test_oversized_grid_is_usage_error(self, capsys, tmp_path):
        # numpy refuses both grids at once; grids it would allocate stay untested
        for command in ("step", "angle", "noise"):
            for t_end in ("1e12", "1e300"):
                rc, out, err = run(
                    capsys, command, "--pair", "b", "--t-end", t_end, "--dt", "1e-3",
                    "--out", str(tmp_path),
                )
                assert (rc, out) == (2, "")
                assert err == "error: time grid too long to allocate: dt is too small for t_end\n"
        assert not any(tmp_path.iterdir())


class TestAngle:
    def test_angle_decays(self, capsys, tmp_path):
        rc, out, _ = run(
            capsys, "angle", "--pair", "a", "--t-end", "60", "--out", str(tmp_path)
        )
        assert rc == 0
        data = np.genfromtxt(tmp_path / "angle.csv", delimiter=",", names=True)
        assert data["y"][0] == pytest.approx(0.0, abs=1e-12)
        assert abs(data["y"][-1]) < 1e-3
        load_meta(tmp_path / "angle_metadata.json")


class TestBode:
    def test_noise_channel_peak(self, capsys, tmp_path):
        rc, out, _ = run(
            capsys,
            "bode", "--pair", "b", "--channel", "e2", "--out", str(tmp_path),
        )
        assert rc == 0
        assert "grid peak" in out
        data = np.genfromtxt(tmp_path / "bode.csv", delimiter=",", names=True)
        assert len(data["omega"]) == 1000
        assert 27.0 < data["mag_db"].max() < 33.0

    def test_bare_plant_needs_no_pair(self, capsys, tmp_path):
        rc, out, _ = run(
            capsys,
            "bode", "--channel", "plant", "--pair", "none",
            "--out", str(tmp_path),
        )
        assert rc == 0
        assert "note:" not in out

    def test_axis_pole_note(self, capsys, tmp_path):
        plant = tmp_path / "osc.json"
        plant.write_text(json.dumps({"num": [1.0], "den": [1.0, 0.0, 1.0]}))
        rc, out, _ = run(
            capsys,
            "bode", "--channel", "plant", "--plant", f"file:{plant}",
            "--pair", "none", "--out", str(tmp_path),
        )
        assert rc == 0
        assert "note: pole near the evaluated imaginary axis" in out


class TestNoise:
    def test_writes_six_channels(self, capsys, tmp_path):
        rc, out, _ = run(
            capsys,
            "noise", "--pair", "b", "--t-end", "50", "--dt", "0.1",
            "--out", str(tmp_path),
        )
        assert rc == 0
        data = np.genfromtxt(tmp_path / "noise.csv", delimiter=",", names=True)
        assert set(data.dtype.names) == {"t", "e1", "e2", "e3", "e4", "e5", "e6"}
        assert len(data["t"]) == 500
        assert "per-channel peak" in out

    def test_infinite_frequency_is_usage_error(self, capsys, tmp_path):
        for flag in ("--freq-lo=-inf", "--freq-hi=inf"):
            rc, _, err = run(capsys, "noise", "--pair", "b", flag, "--out", str(tmp_path))
            assert rc == 2
            assert err == "error: freq_interval must be finite\n"
        assert not any(tmp_path.iterdir())

    def test_dt_not_below_t_end_is_usage_error(self, capsys, tmp_path):
        for argv in (["--dt", "300"], ["--t-end", "1", "--dt", "1"]):
            rc, _, err = run(capsys, "noise", "--pair", "b", *argv, "--out", str(tmp_path))
            assert rc == 2
            assert err == "error: dt must be smaller than t_end\n"
        assert not any(tmp_path.iterdir())

    def test_unstable_loop_is_analysis_failure(self, capsys, tmp_path):
        broken = write_pair_file(
            tmp_path / "broken.json", [1.0], [-1.0, 1.0], [0.0], [1.0]
        )
        for argv in (["noise"], ["angle"], ["bode", "--channel", "h"]):
            out = tmp_path / argv[0]
            rc, _, err = run(
                capsys, *argv, "--pair-file", broken, "--out", str(out)
            )
            assert rc == 1
            assert "unstable" in err
            assert not out.exists()  # no CSV, no metadata


# ---------------------------------------------------------------------------
# Monte Carlo emitters
# ---------------------------------------------------------------------------


class TestMonteCarlo:
    def test_robustness_outputs(self, capsys, tmp_path):
        rc, out, _ = run(
            capsys,
            "robustness", "--pair", "a", "--trials", "20", "--seed", "3",
            "--out", str(tmp_path),
        )
        assert rc == 0
        rep = json.loads((tmp_path / "robustness.json").read_text())
        assert rep["trials"] == 20
        assert rep["seed"] == 3
        assert len(rep["pole_cloud"]) == 200
        cloud = np.genfromtxt(
            tmp_path / "robustness_cloud.csv", delimiter=",", names=True
        )
        assert len(cloud["trial"]) == 200
        assert "of 20 trials unstable" in out

    def test_fragility_outputs_and_determinism(self, capsys, tmp_path):
        for d in ("one", "two"):
            rc, _, _ = run(
                capsys,
                "fragility", "--pair", "b", "--trials", "15", "--seed", "1",
                "--out", str(tmp_path / d),
            )
            assert rc == 0
        a = (tmp_path / "one" / "fragility.json").read_bytes()
        b = (tmp_path / "two" / "fragility.json").read_bytes()
        assert a == b
        assert (tmp_path / "one" / "fragility_cloud.csv").read_bytes() == (
            tmp_path / "two" / "fragility_cloud.csv"
        ).read_bytes()

    def test_fragility_rejects_unnormalized_pair(self, capsys, tmp_path):
        pair = write_pair_file(
            tmp_path / "p.json", [1.0], [2.0, 1.0], [0.0], [1.0]
        )
        rc, _, err = run(
            capsys, "fragility", "--pair-file", pair, "--trials", "5",
            "--out", str(tmp_path),
        )
        assert rc == 2
        assert "normalized" in err

    def test_nonfinite_sigma_is_usage_error(self, capsys, tmp_path):
        for command in ("robustness", "fragility"):
            for sigma in ("nan", "inf"):
                rc, _, err = run(
                    capsys, command, "--pair", "b", "--sigma", sigma,
                    "--out", str(tmp_path),
                )
                assert rc == 2
                assert err == "error: sigma must be finite and nonnegative\n"
        assert not any(tmp_path.iterdir())


# ---------------------------------------------------------------------------
# modern walkthrough
# ---------------------------------------------------------------------------


class TestModern:
    def test_prints_design_with_verdicts(self, capsys):
        rc, out, _ = run(capsys, "modern")
        assert rc == 0
        assert "controllability matrix (rank 4)" in out
        assert "observability matrix (rank 4)" in out
        assert "(3.33333s^2 - 3.33333) / (s^4 + 6s^3 + 15s^2 + 18s + 10)" in out
        assert "improper; unstable" in out
        assert "proper; stable" in out
        assert "right-half-plane cancellation" in out


# ---------------------------------------------------------------------------
# output directory resolution
# ---------------------------------------------------------------------------


class TestOutputDir:
    def test_env_var_default(self, capsys, tmp_path, monkeypatch):
        target = tmp_path / "from_env"
        monkeypatch.setenv("PFCLAB_OUT", str(target))
        rc, _, _ = run(capsys, "step", "--pair", "a", "--t-end", "2")
        assert rc == 0
        assert (target / "step.csv").exists()

    def test_flag_overrides_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("PFCLAB_OUT", str(tmp_path / "env"))
        explicit = tmp_path / "flag"
        rc, _, _ = run(
            capsys, "step", "--pair", "a", "--t-end", "2", "--out", str(explicit)
        )
        assert rc == 0
        assert (explicit / "step.csv").exists()
        assert not (tmp_path / "env").exists()

    @pytest.mark.parametrize("blocked", ["step.csv", "step_metadata.json"])
    def test_unwritable_artifact_is_usage_error(self, capsys, tmp_path, blocked):
        (tmp_path / blocked).mkdir()
        rc, out, err = run(
            capsys, "step", "--pair", "a", "--t-end", "2", "--out", str(tmp_path)
        )
        assert (rc, out) == (2, "")
        assert err.startswith("error: cannot write")
        assert blocked in err

    @pytest.mark.parametrize("command", ["verify", "modern"])
    def test_print_only_commands_say_they_write_nothing(self, capsys, tmp_path, command):
        # --out stays accepted so one command line serves every command
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "writes no files" in " ".join(capsys.readouterr().out.split())
        with pytest.raises(SystemExit):
            main(["--help"])
        listing = " ".join(capsys.readouterr().out.split())
        assert listing.count("writes no files") == 2
        rc, _, _ = run(capsys, command, "--out", str(tmp_path / "never"))
        assert rc == 0
        assert not (tmp_path / "never").exists()


# ---------------------------------------------------------------------------
# option table
# ---------------------------------------------------------------------------

REPO = Path(__file__).resolve().parents[1]

COMMON = {"--out": None, "--mass": 0.3}
PLANT = {"--plant": "pendulum-position"}
PAIR = {"--pair": "a", "--pair-file": None}
SEED = {"--seed": 0}
MC = {"--trials": 1000, "--sigma": 0.02}

# every subcommand's option strings with their defaults
OPTIONS = {
    "verify": {**PLANT, **PAIR, **COMMON},
    "synthesize": {
        "--n": None, **SEED, "--population": 200, "--generations": 500,
        "--crossover-rate": 0.9, "--mutation-rate": 0.1, "--mutation-scale": 0.2,
        "--elitism": 2, "--init-range": (-12.0, 12.0), **PLANT, **COMMON,
    },
    "step": {"--t-end": 60.0, "--dt": 1e-3, **PLANT, **PAIR, **COMMON},
    "angle": {"--t-end": 60.0, "--dt": 1e-3, **PAIR, **COMMON},
    "bode": {
        "--channel": "h", "--w-min": 1e-2, "--w-max": 1e2, "--points": 1000,
        **PLANT, **PAIR, **COMMON,
    },
    "noise": {
        "--sines": 4000, "--amp": 0.01, "--freq-lo": 0.5, "--freq-hi": 1.5,
        "--t-end": 200.0, "--dt": 0.05, **SEED, **PLANT, **PAIR, **COMMON,
    },
    "robustness": {**MC, **SEED, **PAIR, **COMMON},
    "fragility": {**MC, **SEED, **PLANT, **PAIR, **COMMON},
    "modern": COMMON,
}


def parser_options():
    sub = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    return {
        name: {
            flag: action.default
            for action in p._actions
            for flag in action.option_strings
            if flag not in ("-h", "--help")
        }
        for name, p in sub.choices.items()
    }


def test_option_table():
    assert parser_options() == OPTIONS


def test_readme_command_table_matches_options():
    rows = [
        [cell.strip() for cell in line.strip("|").split("|")]
        for line in (REPO / "README.md").read_text().splitlines()
        if line.startswith("| `")
    ]
    assert [row[0].strip("`") for row in rows] == list(OPTIONS)
    for name, plant, pair, seed, _ in rows:
        opts = OPTIONS[name.strip("`")]
        assert (plant == "yes") == ("--plant" in opts), name
        assert (pair == "yes") == ("--pair" in opts and "--pair-file" in opts), name
        assert (seed == "yes") == ("--seed" in opts), name


# ---------------------------------------------------------------------------
# pinned artifacts of scripts/reproduce_all.py
# ---------------------------------------------------------------------------

REPRODUCE_FILES = [
    "angle_b/angle.csv",
    "angle_b/angle_metadata.json",
    "bode_e2_b/bode.csv",
    "bode_e2_b/bode_metadata.json",
    "bode_h_b/bode.csv",
    "bode_h_b/bode_metadata.json",
    "fragility_a/fragility.json",
    "fragility_a/fragility_cloud.csv",
    "fragility_a/fragility_metadata.json",
    "fragility_b/fragility.json",
    "fragility_b/fragility_cloud.csv",
    "fragility_b/fragility_metadata.json",
    "noise_b/noise.csv",
    "noise_b/noise_metadata.json",
    "robustness_a/robustness.json",
    "robustness_a/robustness_cloud.csv",
    "robustness_a/robustness_metadata.json",
    "robustness_b/robustness.json",
    "robustness_b/robustness_cloud.csv",
    "robustness_b/robustness_metadata.json",
    "step_a/step.csv",
    "step_a/step_metadata.json",
    "step_b/step.csv",
    "step_b/step_metadata.json",
]

# SHA-256 over every artifact of `reproduce_all.py --skip-search` (metadata
# parsed, timestamp dropped) and the script's stdout with the output root
# removed (Python 3.11.7, numpy 2.4.6 with its bundled OpenBLAS, the same
# with OPENBLAS_NUM_THREADS=1 and 2); another LAPACK build may round the pole
# clouds otherwise.  Re-recorded when the noise response became a factored
# complex product: only noise_b/noise.csv changed, each cell within 1.7e-14
# of the sine-table sum, the time column and the other 23 files unchanged.
REPRODUCE_SHA256 = "c201ec07c6bab23e5bd92a6087bcd61d0f38e9d0ae606123daed112336407d4d"


def test_reproduce_artifacts_pinned(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run(
        [sys.executable, str(REPO / "scripts" / "reproduce_all.py"),
         "--skip-search", "--out", str(tmp_path)],
        capture_output=True, text=True, env=env, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    files = sorted(
        p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*") if p.is_file()
    )
    assert files == REPRODUCE_FILES
    h = hashlib.sha256()
    for rel in files:
        h.update(rel.encode() + b"\0")
        data = (tmp_path / rel).read_bytes()
        if rel.endswith("_metadata.json"):
            meta = json.loads(data)
            meta.pop("timestamp")
            data = json.dumps(meta, sort_keys=True).encode()
        h.update(data + b"\0")
    h.update(proc.stdout.replace(str(tmp_path), "<out>").encode())
    assert h.hexdigest() == REPRODUCE_SHA256
