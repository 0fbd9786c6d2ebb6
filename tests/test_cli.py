import argparse
import importlib
import json
import multiprocessing
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import super_scrambler
from super_scrambler import cli
from super_scrambler.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def no_ensemble(*args, **kwargs):
    raise AssertionError("work ran before the precondition check")


class TestVerify:
    def test_all_identities_pass(self, capsys):
        code, out, _ = run_cli(["verify"], capsys)
        assert code == 0
        assert out.count("[PASS]") == 12
        assert "[FAIL]" not in out

    def test_json_output(self, capsys):
        code, out, _ = run_cli(["verify", "--json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"] is True


class TestGhz:
    def test_n12_first_block_entropy(self, capsys):
        code, out, _ = run_cli(["ghz", "--n", "12"], capsys)
        assert code == 0
        assert "entropy(prefix(4)): 4" in out

    def test_localized_same_entropy_quadratic_gates(self, capsys):
        code, out, _ = run_cli(["ghz", "--n", "12", "--localized"], capsys)
        assert code == 0
        assert "entropy(prefix(4)): 4" in out
        gates = int(out.split("gates: ")[1].splitlines()[0])
        assert gates <= 6 * 12 * 12

    def test_invalid_n_is_usage_error(self, capsys):
        code, _, err = run_cli(["ghz", "--n", "4"], capsys)
        assert code == 2
        assert "multiple of 3" in err

    def test_stabilizer_dump(self, capsys):
        code, out, _ = run_cli(["ghz", "--n", "3", "--dump-stabilizers"], capsys)
        assert code == 0
        assert "XYY" in out and "ZZI" in out and "ZIZ" in out

    def test_bad_cut_prints_nothing(self, capsys):
        code, out, err = run_cli(["ghz", "--n", "6", "--cut", "2", "--cut", "9"], capsys)
        assert code == 2
        assert out == ""
        assert err == "error: cut 9 out of range 0..6\n"

    def test_valid_cuts_output(self, capsys):
        code, out, _ = run_cli(["ghz", "--n", "6", "--cut", "2", "--cut", "6"], capsys)
        assert code == 0
        assert out == "gates: 4\nentropy(prefix(2)): 2\nentropy(prefix(6)): 0\n"


class TestRandom:
    def test_writes_reproducible_csv(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        flags = ["random", "--n", "8", "--steps", "40", "--reals", "3",
                 "--seed", "9", "--sample-every", "4"]
        assert run_cli(flags + ["--out", str(out_a)], capsys)[0] == 0
        assert run_cli(flags + ["--out", str(out_b)], capsys)[0] == 0
        assert out_a.read_bytes() == out_b.read_bytes()
        summary = json.loads((tmp_path / "a.summary.json").read_text())
        assert summary["config"]["n_qubits"] == 8
        manifest = json.loads((tmp_path / "a.csv.manifest.json").read_text())
        assert str(out_a) in manifest["outputs"]
        assert manifest["rng_seed"] == 9

    def test_oracle_check_passes(self, capsys):
        code, out, _ = run_cli(
            ["random", "--n", "6", "--steps", "30", "--reals", "2",
             "--seed", "4", "--oracle-check"],
            capsys,
        )
        assert code == 0
        assert "oracle check passed" in out

    @pytest.mark.parametrize("oracle", [[], ["--oracle-check"]])
    @pytest.mark.parametrize(
        "steps", [["--steps", "0"], ["--steps", "5", "--sample-every", "10"]]
    )
    def test_one_sample_run_writes_its_files(self, tmp_path, capsys, steps, oracle):
        out = tmp_path / "x.csv"
        flags = ["random", "--n", "6", *steps, "--reals", "1", "--seed", "1",
                 "--out", str(out), *oracle]
        assert run_cli(flags, capsys)[0] == 0
        assert out.read_text().splitlines() == [
            "step,mean_entropy,stderr,realizations", "0,0,0,1"
        ]
        summary = json.loads((tmp_path / "x.summary.json").read_text())
        assert summary["saturation_step"] is None
        assert summary["saturation_step_error"] == "plateau needs at least 2 samples"
        assert (tmp_path / "x.csv.manifest.json").exists()

    def test_rerun_from_manifest_reproduces_outputs(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        flags = ["random", "--n", "8", "--steps", "40", "--reals", "3",
                 "--seed", "13", "--out", str(out)]
        assert run_cli(flags, capsys)[0] == 0
        first = out.read_bytes()
        out.unlink()
        code, _, _ = run_cli(
            ["random", "--from-manifest", str(out) + ".manifest.json"], capsys
        )
        assert code == 0
        assert out.read_bytes() == first

    def test_thread_cap_env_var(self, tmp_path, capsys, monkeypatch):
        out_serial = tmp_path / "s.csv"
        out_par = tmp_path / "p.csv"
        flags = ["random", "--n", "8", "--steps", "30", "--reals", "4", "--seed", "2"]
        assert run_cli(flags + ["--out", str(out_serial)], capsys)[0] == 0
        monkeypatch.setenv("SUPER_SCRAMBLER_THREADS", "2")
        assert run_cli(flags + ["--out", str(out_par)], capsys)[0] == 0
        assert out_serial.read_bytes() == out_par.read_bytes()

    @pytest.mark.parametrize("cap", ["0", "-3", "two"])
    def test_thread_cap_not_positive_usage_error(self, capsys, monkeypatch, cap):
        monkeypatch.setenv("SUPER_SCRAMBLER_THREADS", cap)
        flags = ["random", "--n", "6", "--steps", "5", "--reals", "2", "--seed", "1"]
        code, _, err = run_cli(flags, capsys)
        assert code == 2
        assert "SUPER_SCRAMBLER_THREADS must be a positive integer" in err

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 6\nsteps = 20\nreals = 2\nseed = 5\n")
        code, out, _ = run_cli(
            ["random", "--config", str(cfg), "--steps", "10"], capsys
        )
        assert code == 0

    def test_config_file_bad_value_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 6\nsteps = 20\nreals = 2\nseed = 5\ncut = abc\n")
        code, _, err = run_cli(["random", "--config", str(cfg)], capsys)
        assert code == 2
        assert str(cfg) in err and "'cut'" in err

    def test_config_file_unknown_key_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 6\nsteps = 20\nreals = 2\nseed = 5\nsaple_every = 3\n")
        code, _, err = run_cli(["random", "--config", str(cfg)], capsys)
        assert code == 2
        assert str(cfg) in err and "'saple_every'" in err

    def test_config_file_line_without_equals_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# settings\n\nn = 6  # qubits\n   \nsteps 20\n")
        code, out, err = run_cli(["random", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {cfg}:5: expected key = value\n"

    @pytest.mark.parametrize(
        "text, line, key",
        [
            ("n = 6\nsteps = 1\nreals = 1\nseed = 5\nn = 9\n", 5, "n"),
            ("n = 6\nsample-every = 2\n# again\nsample_every = 3\n", 4, "sample_every"),
        ],
        ids=["same-spelling", "dash-and-underscore"],
    )
    def test_config_file_duplicate_key_usage_error(
        self, text, line, key, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("super_scrambler.cli.run_random_ensemble", no_ensemble)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        code, out, err = run_cli(["random", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {cfg}:{line}: duplicate key {key!r}\n"

    def test_config_file_not_utf8_usage_error(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("super_scrambler.cli.run_random_ensemble", no_ensemble)
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"n = 6\nsteps = 1\xff\nreals = 1\nseed = 5\n")
        code, out, err = run_cli(["random", "--config", str(cfg)], capsys)
        assert code == 2
        assert out == ""
        assert err == (
            "error: 'utf-8' codec can't decode byte 0xff in position 15: invalid start byte\n"
        )

    def test_config_file_skips_blank_and_comment_lines(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# settings\n\nn = 6\n  # more\nsteps = 10\nreals = 1\nseed = 5\n")
        code, _, err = run_cli(["random", "--config", str(cfg)], capsys)
        assert code == 0, err

    def test_missing_flags_usage_error(self, capsys):
        code, _, err = run_cli(["random", "--n", "6"], capsys)
        assert code == 2
        assert "--steps" in err

    @pytest.mark.parametrize(
        "flags",
        [["--cut", "11"], ["--cut", "-1"], ["--sample-every", "0"]],
    )
    def test_bad_cut_or_sample_every_usage_error(self, flags, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code, _, err = run_cli(
            ["random", "--n", "10", "--steps", "5", "--reals", "1", "--seed", "1",
             "--out", str(out)] + flags,
            capsys,
        )
        assert code == 2
        assert err.startswith("error: ")
        assert not out.exists()

    def test_oracle_check_n_limit_before_ensemble(self, capsys, monkeypatch):
        monkeypatch.setattr("super_scrambler.cli.run_random_ensemble", no_ensemble)
        code, _, err = run_cli(
            ["random", "--n", "60", "--steps", "10", "--reals", "4",
             "--seed", "1", "--oracle-check"],
            capsys,
        )
        assert code == 2
        assert "n <= 16" in err

    def test_negative_seed_before_ensemble(self, capsys, monkeypatch):
        monkeypatch.setattr("super_scrambler.cli.run_random_ensemble", no_ensemble)
        code, out, err = run_cli(
            ["random", "--n", "6", "--steps", "5", "--reals", "1", "--seed", "-1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "error: rng_seed must be non-negative, got -1\n"

    def test_oracle_check_empty_cut_usage_error(self, capsys):
        code, _, err = run_cli(
            ["random", "--n", "6", "--steps", "10", "--reals", "1",
             "--seed", "1", "--cut", "0", "--oracle-check"],
            capsys,
        )
        assert code == 2
        assert "nonempty proper cut" in err

    @pytest.mark.parametrize(
        "offset, shown",
        [(1.0, "1.0"), (1e-5, "1e-05"), (float("nan"), "nan")],
        ids=["1.0", "1e-05", "nan"],
    )
    def test_oracle_check_mismatch_fails(self, offset, shown, capsys, monkeypatch):
        # 1e-5 is past the check's 1e-6 tolerance but inside a looser 1e-3
        from super_scrambler.oracle import OperatorWavefunction

        entropy = OperatorWavefunction.entropy
        monkeypatch.setattr(
            OperatorWavefunction,
            "entropy",
            lambda self, region: entropy(self, region) + offset,
        )
        code, out, err = run_cli(
            ["random", "--n", "6", "--steps", "30", "--reals", "2",
             "--seed", "4", "--oracle-check"],
            capsys,
        )
        assert code == 1
        assert "oracle check passed" not in out
        assert f"oracle mismatch: realization 0 step 0: tableau 0.0 oracle {shown}" in err

    def test_oracle_check_stops_at_the_first_failing_realization(
        self, capsys, monkeypatch
    ):
        from super_scrambler.oracle import OperatorWavefunction
        from super_scrambler.tableau import SuperStabilizerTableau

        entropy = OperatorWavefunction.entropy
        monkeypatch.setattr(
            OperatorWavefunction,
            "entropy",
            lambda self, region: entropy(self, region) + 1.0,
        )
        made = []
        new_all_x = SuperStabilizerTableau.new_all_x.__func__

        def counted_new_all_x(cls, n):
            made.append(n)
            return new_all_x(cls, n)

        monkeypatch.setattr(
            SuperStabilizerTableau, "new_all_x", classmethod(counted_new_all_x)
        )
        monkeypatch.setenv("SUPER_SCRAMBLER_THREADS", "1")
        code, _, err = run_cli(
            ["random", "--n", "6", "--steps", "30", "--reals", "3",
             "--seed", "4", "--oracle-check"],
            capsys,
        )
        assert code == 1
        assert err.startswith("oracle mismatch: realization 0 step 0:")
        assert made == [6]

    @pytest.mark.parametrize(
        "key, value",
        [("n_qubits", 12.7), ("time_steps", 20.5), ("realizations", 1.0),
         ("rng_seed", "7"), ("sample_every", True)],
    )
    def test_rerun_from_manifest_non_integer_value(self, key, value, tmp_path, capsys):
        _, manifest = self._first_run(tmp_path, capsys)
        record = json.loads(manifest.read_text())
        record["config"][key] = value
        manifest.write_text(json.dumps(record))
        code, out, err = run_cli(["random", "--from-manifest", str(manifest)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {key} must be an integer, got {value!r}\n"

    def test_rerun_from_manifest_non_integral_cut(self, tmp_path, capsys):
        _, manifest = self._first_run(tmp_path, capsys)
        record = json.loads(manifest.read_text())
        record["config"]["cut"] = [1.5, 2]
        manifest.write_text(json.dumps(record))
        code, out, err = run_cli(["random", "--from-manifest", str(manifest)], capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "integer" in err

    @pytest.mark.parametrize(
        "key, value, message",
        [("rng_seed", -1, "rng_seed must be non-negative, got -1"),
         ("cut", True, "cut must be a site count or a site list, got True"),
         ("cut", False, "cut must be a site count or a site list, got False"),
         ("output", 5, "output must be a path string, got 5"),
         ("output", ["a.csv"], "output must be a path string, got ['a.csv']"),
         ("cut", [True, 2], "cut sites must be integers, got [True, 2]"),
         ("cut", 6.5, "cut must be a site count or a site list, got 6.5"),
         ("cut", "3", "cut must be a site count or a site list, got '3'"),
         ("cut", {"a": 1}, "cut must be a site count or a site list, got {'a': 1}")],
        ids=["negative-seed", "cut-true", "cut-false", "output-int", "output-list",
             "cut-bool-site", "cut-float", "cut-string", "cut-object"],
    )
    def test_rerun_from_manifest_bad_value_before_ensemble(
        self, key, value, message, tmp_path, capsys, monkeypatch
    ):
        _, manifest = self._first_run(tmp_path, capsys)
        record = json.loads(manifest.read_text())
        record["config"][key] = value
        manifest.write_text(json.dumps(record))
        monkeypatch.setattr("super_scrambler.cli.run_random_ensemble", no_ensemble)
        code, out, err = run_cli(["random", "--from-manifest", str(manifest)], capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "flag, path",
        [("--out", "missing/r.csv"), ("--out", "."), ("--out", "r\0.csv"),
         ("--manifest", "missing/m.json")],
        ids=["missing-folder", "folder", "nul-byte", "manifest-in-missing-folder"],
    )
    def test_unwritable_output_io_error_before_ensemble(
        self, flag, path, tmp_path, capsys, monkeypatch
    ):
        target = str(tmp_path / path)
        monkeypatch.setattr("super_scrambler.cli.run_random_ensemble", no_ensemble)
        code, out, err = run_cli(
            ["random", "--n", "6", "--steps", "5", "--reals", "1", "--seed", "1",
             flag, target],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert err == f"error: cannot write {target}\n"

    @pytest.mark.parametrize("name", ["r.csv", "r.summary.json"])
    def test_manifest_that_is_an_output_usage_error_before_ensemble(
        self, name, tmp_path, capsys, monkeypatch
    ):
        monkeypatch.setattr("super_scrambler.cli.run_random_ensemble", no_ensemble)
        manifest = tmp_path / name
        code, out, err = run_cli(
            ["random", "--n", "6", "--steps", "20", "--reals", "2", "--seed", "1",
             "--out", str(tmp_path / "r.csv"), "--manifest", str(manifest)],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: --manifest {manifest} is also an output\n"
        assert list(tmp_path.iterdir()) == []

    def test_unwritable_summary_io_error_before_ensemble(self, tmp_path, capsys):
        summary = tmp_path / "r.summary.json"
        summary.mkdir()
        code, out, err = run_cli(
            ["random", "--n", "6", "--steps", "20", "--reals", "2", "--seed", "1",
             "--out", str(tmp_path / "r.csv")],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert err == f"error: cannot write {summary}\n"
        assert list(tmp_path.iterdir()) == [summary]

    def test_unwritable_default_manifest_io_error_before_ensemble(
        self, tmp_path, capsys, monkeypatch
    ):
        # the manifest beside the CSV is checked with the outputs
        monkeypatch.setattr("super_scrambler.cli.run_random_ensemble", no_ensemble)
        manifest = tmp_path / "r.csv.manifest.json"
        manifest.mkdir()
        code, out, err = run_cli(
            ["random", "--n", "6", "--steps", "20", "--reals", "2", "--seed", "1",
             "--out", str(tmp_path / "r.csv")],
            capsys,
        )
        assert code == 3
        assert out == ""
        assert err == f"error: cannot write {manifest}\n"
        assert list(tmp_path.iterdir()) == [manifest]

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_out_io_error_before_ensemble(self, source, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("super_scrambler.cli.run_random_ensemble", no_ensemble)
        monkeypatch.chdir(tmp_path)
        argv = ["random", "--n", "6", "--steps", "5", "--reals", "1", "--seed", "1"]
        if source == "flag":
            argv += ["--out", ""]
        else:
            (tmp_path / "run.cfg").write_text("out =\n")
            argv += ["--config", "run.cfg"]
        listing = sorted(tmp_path.iterdir())
        code, out, err = run_cli(argv, capsys)
        assert code == 3
        assert out == ""
        assert err == "error: cannot write ''\n"
        assert sorted(tmp_path.iterdir()) == listing

    def test_failed_write_leaves_recorded_outputs(self, tmp_path, capsys, monkeypatch):
        out, _ = self._first_run(tmp_path, capsys)
        recorded = {path: path.read_bytes() for path in tmp_path.iterdir()}

        def full_disk(summary, path):
            raise OSError("No space left on device")

        monkeypatch.setattr("super_scrambler.cli.write_summary", full_disk)
        code, stdout, err = run_cli(
            ["random", "--n", "8", "--steps", "40", "--reals", "3", "--seed", "14",
             "--out", str(out)],
            capsys,
        )
        assert code == 3
        assert stdout == ""
        assert err == "error: No space left on device\n"
        assert {path: path.read_bytes() for path in tmp_path.iterdir()} == recorded

    def test_killed_worker_is_one_error_line(self, tmp_path, capsys, monkeypatch):
        # as the kernel's OOM killer would end a worker: SIGKILL, no cleanup
        from super_scrambler import cli, experiments

        monkeypatch.setenv("SUPER_SCRAMBLER_THREADS", "2")
        if cli.max_workers() < 2 or multiprocessing.get_start_method() != "fork":
            pytest.skip("needs two forked pool workers, which see the patch")
        parent = os.getpid()

        def killed(*args):
            assert os.getpid() != parent, "the realization ran in the test process"
            os.kill(os.getpid(), signal.SIGKILL)

        # the forked worker draws its circuit through the patched module
        monkeypatch.setattr(experiments, "circuit_stream", killed)
        code, stdout, err = run_cli(
            ["random", "--n", "6", "--steps", "5", "--reals", "2", "--seed", "1",
             "--out", str(tmp_path / "run.csv")],
            capsys,
        )
        assert code == 1
        assert stdout == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert list(tmp_path.iterdir()) == []

    def test_interrupted_write_leaves_no_staged_directory(
        self, tmp_path, capsys, monkeypatch
    ):
        def interrupted(summary, path):
            raise KeyboardInterrupt

        monkeypatch.setattr("super_scrambler.cli.write_summary", interrupted)
        with pytest.raises(KeyboardInterrupt):
            main(["random", "--n", "6", "--steps", "5", "--reals", "1", "--seed", "1",
                  "--out", str(tmp_path / "run.csv")])
        assert list(tmp_path.iterdir()) == []

    def _first_run(self, tmp_path, capsys, *extra):
        out = tmp_path / "run.csv"
        flags = ["random", "--n", "8", "--steps", "40", "--reals", "3",
                 "--seed", "13", "--out", str(out), *extra]
        assert run_cli(flags, capsys)[0] == 0
        return out, tmp_path / "run.csv.manifest.json"

    def test_rerun_from_manifest_keeps_empty_cut(self, tmp_path, capsys):
        out, manifest = self._first_run(tmp_path, capsys, "--cut", "0")
        assert json.loads(manifest.read_text())["config"]["cut"] == []
        first = out.read_bytes()
        out.unlink()
        code, _, err = run_cli(["random", "--from-manifest", str(manifest)], capsys)
        assert code == 0, err
        assert out.read_bytes() == first

    def test_rerun_from_manifest_keeps_non_prefix_cut(self, tmp_path, capsys):
        out, manifest = self._first_run(tmp_path, capsys)
        record = json.loads(manifest.read_text())
        record["config"]["cut"] = [2, 5, 7]
        record["outputs"] = {}
        manifest.write_text(json.dumps(record))
        code, _, err = run_cli(["random", "--from-manifest", str(manifest)], capsys)
        assert code == 0, err
        summary = json.loads((tmp_path / "run.summary.json").read_text())
        assert summary["config"]["cut"] == [2, 5, 7]

    def test_rerun_from_manifest_version_mismatch(self, tmp_path, capsys):
        _, manifest = self._first_run(tmp_path, capsys)
        record = json.loads(manifest.read_text())
        record["version"] = "0.0.0-other"
        manifest.write_text(json.dumps(record))
        code, _, err = run_cli(["random", "--from-manifest", str(manifest)], capsys)
        assert code == 2
        assert "0.0.0-other" in err

    def test_rerun_from_manifest_of_another_subcommand(
        self, tmp_path, capsys, monkeypatch
    ):
        manifest = tmp_path / "ghz.json"
        ghz = ["ghz", "--n", "6", "--cut", "2", "--manifest", str(manifest)]
        assert run_cli(ghz, capsys)[0] == 0
        monkeypatch.setattr("super_scrambler.cli.run_random_ensemble", no_ensemble)
        code, out, err = run_cli(
            ["random", "--from-manifest", str(manifest),
             "--n", "6", "--steps", "5", "--reals", "1", "--seed", "1"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {manifest}: written by 'ghz', not 'random'\n"

    def test_rerun_from_manifest_digest_mismatch(self, tmp_path, capsys):
        _, manifest = self._first_run(tmp_path, capsys)
        record = json.loads(manifest.read_text())
        summary_path = str(tmp_path / "run.summary.json")
        record["outputs"][summary_path] = "0" * 64
        manifest.write_text(json.dumps(record))
        code, _, err = run_cli(["random", "--from-manifest", str(manifest)], capsys)
        assert code == 1
        assert err.startswith(f"error: {summary_path} does not match its digest")
        assert json.loads(manifest.read_text()) == record

    def test_rerun_from_manifest_needs_a_digest_per_output(
        self, tmp_path, capsys, monkeypatch
    ):
        out, manifest = self._first_run(tmp_path, capsys)
        record = json.loads(manifest.read_text())
        record["outputs"] = {str(out): record["outputs"][str(out)]}
        manifest.write_text(json.dumps(record))
        monkeypatch.setattr("super_scrambler.cli.run_random_ensemble", no_ensemble)
        code, out_text, err = run_cli(["random", "--from-manifest", str(manifest)], capsys)
        assert code == 3
        assert out_text == ""
        assert err == "error: bad manifest: 1 output digests for 2 outputs\n"

    def test_digest_mismatch_leaves_recorded_outputs(self, tmp_path, capsys):
        out, manifest = self._first_run(tmp_path, capsys)
        record = json.loads(manifest.read_text())
        summary_path = tmp_path / "run.summary.json"
        summary_path.write_bytes(b'{"recorded": "elsewhere"}\n')
        record["outputs"][str(summary_path)] = "0" * 64
        manifest.write_text(json.dumps(record))
        csv_bytes = out.read_bytes()
        listing = sorted(tmp_path.iterdir())
        code, _, err = run_cli(["random", "--from-manifest", str(manifest)], capsys)
        assert code == 1, err
        assert summary_path.read_bytes() == b'{"recorded": "elsewhere"}\n'
        assert out.read_bytes() == csv_bytes
        assert sorted(tmp_path.iterdir()) == listing  # nothing staged is left

    @pytest.mark.parametrize(
        "content", ["{not json", "[]", '{"version": "0.1.0"}', '{"config": 3}']
    )
    def test_unreadable_manifest_io_error(self, content, tmp_path, capsys):
        manifest = tmp_path / "bad.json"
        manifest.write_text(content)
        code, _, err = run_cli(["random", "--from-manifest", str(manifest)], capsys)
        assert code == 3
        assert err.startswith("error: bad manifest")

    def test_source_order_flag_manifest_config_file(self, tmp_path, capsys):
        manifest = tmp_path / "first.json"
        flags = ["random", "--n", "8", "--steps", "40", "--reals", "3",
                 "--seed", "13", "--sample-every", "4", "--manifest", str(manifest)]
        assert run_cli(flags, capsys)[0] == 0
        cfg = tmp_path / "run.cfg"
        out = tmp_path / "c.csv"
        cfg.write_text(f"seed = 99\nsample_every = 5\ncut = 2\nout = {out}\n")
        rerun = tmp_path / "second.json"
        code, _, err = run_cli(
            ["random", "--from-manifest", str(manifest), "--config", str(cfg),
             "--reals", "2", "--manifest", str(rerun)],
            capsys,
        )
        assert code == 0, err
        config = json.loads(rerun.read_text())["config"]
        assert config["realizations"] == 2  # flag over manifest
        assert config["rng_seed"] == 13  # manifest over config file
        assert config["sample_every"] == 4
        assert config["cut"] == [1, 2, 3, 4]
        assert config["output"] == str(out)  # config file fills what is left
        assert out.exists()

    HUGE_CUT = 1180591620717411303424  # 2**70, past any C ssize_t

    @pytest.mark.parametrize("source", ["flag", "config", "manifest"])
    def test_huge_cut_usage_error_before_ensemble(
        self, source, tmp_path, capsys, monkeypatch
    ):
        flags = ["random", "--n", "8", "--steps", "1", "--reals", "1", "--seed", "1"]
        if source == "flag":
            flags += ["--cut", str(self.HUGE_CUT)]
        elif source == "config":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"cut = {self.HUGE_CUT}\n")
            flags += ["--config", str(cfg)]
        else:
            _, manifest = self._first_run(tmp_path, capsys)
            record = json.loads(manifest.read_text())
            record["config"]["cut"] = self.HUGE_CUT
            manifest.write_text(json.dumps(record))
            flags = ["random", "--from-manifest", str(manifest)]
        monkeypatch.setattr("super_scrambler.cli.run_random_ensemble", no_ensemble)
        code, out, err = run_cli(flags, capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: cut {self.HUGE_CUT} out of range 0..8\n"

    def _zeroed_manifest(self, tmp_path, capsys, edit):
        """A recorded run whose manifest has zeroed digests and `edit` applied
        to its config."""
        _, manifest = self._first_run(tmp_path, capsys)
        record = json.loads(manifest.read_text())
        record["outputs"] = {path: "0" * 64 for path in record["outputs"]}
        edit(record["config"])
        manifest.write_text(json.dumps(record))
        return manifest

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda c: c.update(bogus=1), "unknown key 'bogus'"),
         (lambda c: c.pop("sample_every"), "no key 'sample_every'")],
        ids=["unknown-key", "missing-key"],
    )
    def test_rerun_from_manifest_with_other_keys_io_error(
        self, edit, message, tmp_path, capsys, monkeypatch
    ):
        manifest = self._zeroed_manifest(tmp_path, capsys, edit)
        monkeypatch.setattr("super_scrambler.cli.run_random_ensemble", no_ensemble)
        code, out, err = run_cli(["random", "--from-manifest", str(manifest)], capsys)
        assert code == 3
        assert out == ""
        assert err == f"error: bad manifest: config has {message}\n"

    @pytest.mark.parametrize(
        "cut", [4, [1, 1, 2, 3, 4], [4, 3, 2, 1]], ids=["int", "repeated", "unsorted"]
    )
    def test_rerun_from_manifest_checks_digests_of_any_cut_spelling(
        self, cut, tmp_path, capsys
    ):
        out, manifest = self._first_run(tmp_path, capsys)
        first = out.read_bytes()
        record = json.loads(manifest.read_text())
        record["config"]["cut"] = cut
        manifest.write_text(json.dumps(record))
        out.unlink()
        code, _, err = run_cli(["random", "--from-manifest", str(manifest)], capsys)
        assert (code, err) == (0, "")
        assert out.read_bytes() == first
        record["outputs"] = {path: "0" * 64 for path in record["outputs"]}
        manifest.write_text(json.dumps(record))
        code, _, err = run_cli(["random", "--from-manifest", str(manifest)], capsys)
        assert code == 1
        assert "does not match its digest" in err

    def test_rerun_with_changed_settings_says_digests_are_not_checked(
        self, tmp_path, capsys
    ):
        manifest = self._zeroed_manifest(tmp_path, capsys, lambda c: None)
        code, _, err = run_cli(
            ["random", "--from-manifest", str(manifest), "--seed", "9"], capsys
        )
        assert code == 0
        assert err == (
            f"note: settings differ from {manifest}; "
            "its output digests are not checked\n"
        )

    def test_rerun_from_manifest_bad_value_under_a_flag_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        manifest = self._zeroed_manifest(
            tmp_path, capsys, lambda c: c.update(n_qubits="abc")
        )
        monkeypatch.setattr("super_scrambler.cli.run_random_ensemble", no_ensemble)
        code, out, err = run_cli(
            ["random", "--from-manifest", str(manifest), "--n", "8"], capsys
        )
        assert code == 2
        assert out == ""
        assert err == f"error: {manifest}: n_qubits must be an integer, got 'abc'\n"

    @pytest.mark.parametrize(
        "threads, affinity, cpu_count, workers",
        [("64", {0, 1}, 8, 2), ("1", {0, 1, 2}, 8, 1), ("64", None, 3, 3),
         ("64", None, None, 1)],
        ids=["affinity-caps", "below-cap", "cpu-count-caps", "cpu-count-unknown"],
    )
    def test_worker_count_capped_at_usable_cpus(
        self, threads, affinity, cpu_count, workers, capsys, monkeypatch
    ):
        from super_scrambler import cli

        if affinity is None:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        else:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: affinity)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        requested = []
        ensemble = cli.run_random_ensemble

        def one_process(config, max_workers, **kwargs):
            requested.append(max_workers)
            return ensemble(config, max_workers=1, **kwargs)

        monkeypatch.setattr(cli, "run_random_ensemble", one_process)
        monkeypatch.setenv("SUPER_SCRAMBLER_THREADS", threads)
        flags = ["random", "--n", "6", "--steps", "5", "--reals", "64", "--seed", "1"]
        assert run_cli(flags, capsys)[0] == 0
        assert requested == [workers]


class TestRunProgram:
    def test_ghz_program_file(self, tmp_path, capsys):
        path = tmp_path / "ghz.prog"
        path.write_text("N 3\nT 1\nC3 1 2 3\n")
        code, out, _ = run_cli(
            [
                "run-program",
                str(path),
                "--entropy-cuts",
                "1,2",
                "--dump-stabilizers",
            ],
            capsys,
        )
        assert code == 0
        assert "entropy(prefix(1)): 1" in out
        assert sorted(
            line for line in out.splitlines() if set(line) <= set("IXZY") and line
        ) == ["XYY", "ZIZ", "ZZI"]

    def test_state_space_order_directive(self, tmp_path, capsys):
        forward = tmp_path / "f.prog"
        forward.write_text("N 3\nT 1\nC3 1 2 3\n")
        reversed_file = tmp_path / "r.prog"
        reversed_file.write_text("@state-space-order\nN 3\nC3 1 2 3\nT 1\n")
        _, out_f, _ = run_cli(
            ["run-program", str(forward), "--dump-stabilizers"], capsys
        )
        _, out_r, _ = run_cli(
            ["run-program", str(reversed_file), "--dump-stabilizers"], capsys
        )
        assert out_f == out_r

    def test_empty_program(self, tmp_path, capsys):
        path = tmp_path / "empty.prog"
        path.write_text("N 3\n")
        code, out, _ = run_cli(
            ["run-program", str(path), "--entropy-cuts", "1", "--dump-stabilizers"],
            capsys,
        )
        assert code == 0
        assert "entropy(prefix(1)): 0" in out
        assert "ZII" in out

    def test_repeated_index_parse_error(self, tmp_path, capsys):
        path = tmp_path / "bad.prog"
        path.write_text("N 3\nC3 1 1 2\n")
        code, _, err = run_cli(["run-program", str(path)], capsys)
        assert code == 2
        assert "line 2" in err and "repeated" in err

    def test_bad_cut_prints_nothing(self, tmp_path, capsys):
        path = tmp_path / "ghz.prog"
        path.write_text("N 3\nT 1\nC3 1 2 3\n")
        code, out, err = run_cli(
            ["run-program", str(path), "--entropy-cuts", "1,5", "--dump-stabilizers"],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err == "error: cut 5 out of range 0..3\n"

    @pytest.mark.parametrize("cuts, item", [(",,", ""), ("1,,2", ""), ("", ""),
                                            ("1,", ""), ("a", "a"), ("1,2.5", "2.5")])
    def test_bad_entropy_cut_item_usage_error(self, cuts, item, capsys, monkeypatch):
        # checked before the program file is read: this one does not exist
        monkeypatch.setattr("super_scrambler.cli.parse_program", no_ensemble)
        argv = ["run-program", "/nonexistent.prog", "--entropy-cuts", cuts]
        code, out, err = run_cli(argv, capsys)
        assert code == 2
        assert out == ""
        assert err == f"error: --entropy-cuts: bad cut {item!r}\n"

    def test_file_not_utf8_usage_error(self, tmp_path, capsys):
        path = tmp_path / "bad.prog"
        path.write_bytes(b"N 3\nT 1\xff\n")
        code, out, err = run_cli(["run-program", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert err == (
            "error: 'utf-8' codec can't decode byte 0xff in position 7: invalid start byte\n"
        )

    def test_missing_file_is_io_error(self, capsys):
        code, out, err = run_cli(["run-program", "/nonexistent.prog"], capsys)
        assert code == 3
        assert out == ""
        assert err == "error: [Errno 2] No such file or directory: '/nonexistent.prog'\n"


@pytest.mark.parametrize(
    "path", ["missing/m.json", ".", "m\0.json"], ids=["missing-folder", "folder", "nul-byte"]
)
@pytest.mark.parametrize(
    "argv",
    [["verify"], ["ghz", "--n", "6"], ["run-program", "{dir}/ghz.prog"]],
    ids=["verify", "ghz", "run-program"],
)
def test_unwritable_manifest_io_error_before_any_work(
    argv, path, tmp_path, capsys, monkeypatch
):
    for work in ("verify_gate_tables", "build_ghz_program", "parse_program"):
        monkeypatch.setattr(f"super_scrambler.cli.{work}", no_ensemble)
    (tmp_path / "ghz.prog").write_text("N 3\nT 1\nC3 1 2 3\n")
    target = str(tmp_path / path)
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    code, out, err = run_cli([*argv, "--manifest", target], capsys)
    assert code == 3
    assert out == ""
    assert err == f"error: cannot write {target}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["ghz.prog"]


@pytest.mark.parametrize(
    "argv",
    [["verify"], ["ghz", "--n", "6"], ["run-program", "ghz.prog"],
     ["random", "--n", "6", "--steps", "5", "--reals", "1", "--seed", "1", "--out", "r.csv"]],
    ids=["verify", "ghz", "run-program", "random"],
)
def test_empty_manifest_io_error_before_any_work(argv, tmp_path, capsys, monkeypatch):
    for work in ("verify_gate_tables", "build_ghz_program", "parse_program",
                 "run_random_ensemble"):
        monkeypatch.setattr(f"super_scrambler.cli.{work}", no_ensemble)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "ghz.prog").write_text("N 3\nT 1\nC3 1 2 3\n")
    code, out, err = run_cli([*argv, "--manifest", ""], capsys)
    assert code == 3
    assert out == ""
    assert err == "error: cannot write ''\n"
    assert [p.name for p in tmp_path.iterdir()] == ["ghz.prog"]


MANIFEST_KEYS = ["subcommand", "config", "version", "rng_seed", "started", "finished",
                 "outputs"]


class TestManifests:
    """Every subcommand writes the same manifest fields, in the same order."""

    def read(self, path, subcommand):
        manifest = json.loads(path.read_text())
        assert list(manifest) == MANIFEST_KEYS
        assert manifest["subcommand"] == subcommand
        assert manifest["version"] == super_scrambler.__version__
        return manifest

    def test_verify(self, tmp_path, capsys):
        path = tmp_path / "v.json"
        assert run_cli(["verify", "--manifest", str(path)], capsys)[0] == 0
        manifest = self.read(path, "verify")
        assert manifest["config"] == {"json": False}
        assert manifest["rng_seed"] is None
        assert manifest["outputs"] == {}

    @pytest.mark.parametrize(
        "flags, cuts", [(["--entropy-cuts", "1,2"], [1, 2]), ([], None)],
        ids=["with-cuts", "without-cuts"],
    )
    def test_run_program(self, flags, cuts, tmp_path, capsys):
        program = tmp_path / "ghz.prog"
        program.write_text("N 3\nT 1\nC3 1 2 3\n")
        path = tmp_path / "r.json"
        argv = ["run-program", str(program), *flags, "--manifest", str(path)]
        assert run_cli(argv, capsys)[0] == 0
        manifest = self.read(path, "run-program")
        assert manifest["config"] == {"file": str(program), "entropy_cuts": cuts}
        assert manifest["rng_seed"] is None
        assert manifest["outputs"] == {}

    def test_ghz_records_default_cut(self, tmp_path, capsys):
        path = tmp_path / "g.json"
        assert run_cli(["ghz", "--n", "9", "--manifest", str(path)], capsys)[0] == 0
        manifest = self.read(path, "ghz")
        assert manifest["config"] == {"n": 9, "localized": False, "cut": [3]}
        assert manifest["rng_seed"] is None
        assert manifest["outputs"] == {}

    def test_random_manifest_flag_replaces_default_path(self, tmp_path, capsys):
        out, path = tmp_path / "run.csv", tmp_path / "m.json"
        argv = ["random", "--n", "6", "--steps", "10", "--reals", "2", "--seed", "21",
                "--out", str(out), "--manifest", str(path)]
        assert run_cli(argv, capsys)[0] == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "m.json", "run.csv", "run.summary.json"
        ]
        manifest = self.read(path, "random")
        assert manifest["rng_seed"] == manifest["config"]["rng_seed"] == 21
        assert list(manifest["outputs"]) == [str(out), str(tmp_path / "run.summary.json")]


class TestEntryPoint:
    def test_module_invocation(self):
        src = Path(super_scrambler.__file__).resolve().parents[1]
        proc = subprocess.run(
            [sys.executable, "-m", "super_scrambler.cli", "verify"],
            env=dict(os.environ, PYTHONPATH=str(src)),
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "[PASS]" in proc.stdout


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ghz", "--n", "300000000"], "n_qubits 300000000 is over the limit of 10000 qubits"),
        (["ghz", "--n", "1227", "--localized"],
         "the GHZ program on 1227 qubits has 1002050 gates, over the limit of 1000000 gates"),
        (["run-program", "{dir}/huge.prog"], "line 1: N 2000000 is over the limit of 10000 qubits"),
        (["random", "--n", "300000000", "--steps", "0", "--reals", "1", "--seed", "1"],
         "n_qubits 300000000 is over the limit of 10000 qubits"),
        (["random", "--n", "6", "--steps", "1", "--reals", "1000000000", "--seed", "1"],
         "realizations 1000000000 is over the limit of 10000 realizations"),
        (["random", "--n", "6", "--steps", "1000000000000", "--reals", "1", "--seed", "1"],
         "the run stores 1000000000001 entropy samples, over the limit of 10000000 samples"),
    ],
    ids=["ghz-qubits", "ghz-gates", "run-program-qubits", "random-qubits", "random-reals",
         "random-samples"],
)
def test_size_over_its_limit_usage_error_before_any_work(
    argv, message, tmp_path, capsys, monkeypatch
):
    # each stub stands in for the first allocation of that size
    monkeypatch.setattr(super_scrambler.SuperStabilizerTableau, "new_all_x", no_ensemble)
    monkeypatch.setattr(super_scrambler.Region, "prefix", no_ensemble)
    monkeypatch.setattr("super_scrambler.experiments.T", no_ensemble)
    monkeypatch.setattr("super_scrambler.experiments.localize_c3", no_ensemble)
    monkeypatch.setattr("super_scrambler.cli.run_random_ensemble", no_ensemble)
    (tmp_path / "huge.prog").write_text("N 2000000\nT 1\n")
    argv = [arg.replace("{dir}", str(tmp_path)) for arg in argv]
    code, out, err = run_cli(argv, capsys)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


def run_exiting(argv, capsys):
    """`run_cli`, with the code of a `SystemExit` that argparse raises for
    `--version` or a usage error taken as the exit code."""
    try:
        code = main(argv)
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParserReuse:
    """`main` builds its parser on its first call and reuses it after."""

    @pytest.fixture
    def built(self, monkeypatch):
        """The number of `argparse.ArgumentParser`s constructed while the test runs."""
        count = [0]
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            count[0] += 1
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        return count

    def test_one_build_per_process(self, tmp_path, capsys, built):
        (tmp_path / "ghz.prog").write_text("N 3\nT 1\nC3 1 2 3\n")
        importlib.reload(cli)  # an empty cache, as in a new process
        argvs = [
            ["verify"],
            ["ghz", "--n", "6"],
            ["run-program", str(tmp_path / "ghz.prog"), "--entropy-cuts", "1"],
            ["random", "--n", "6", "--steps", "5", "--reals", "1", "--seed", "1"],
            ["ghz"],
            ["--version"],
        ]
        assert [run_exiting(argv, capsys)[0] for argv in argvs] == [0, 0, 0, 0, 2, 0]
        assert built[0] == 5  # the main parser and one per subcommand

    def test_import_builds_no_parser(self, built):
        importlib.reload(cli)
        assert built[0] == 0

    def test_argparse_exits_raise(self, capsys):
        code, out, err = run_exiting(["ghz"], capsys)
        assert (code, out) == (2, "")
        assert err.startswith("usage: super-scrambler ghz ")
        assert err.endswith("error: the following arguments are required: --n\n")
        assert run_exiting(["--version"], capsys) == (0, f"{super_scrambler.__version__}\n", "")

    @pytest.mark.parametrize(
        "first, second",
        [
            (["ghz", "--n", "6", "--cut", "1", "--cut", "2"], ["ghz", "--n", "6"]),
            (["verify", "--json"], ["verify"]),
            (["run-program", "ghz.prog", "--dump-stabilizers"],
             ["run-program", "ghz.prog", "--entropy-cuts", "1"]),
            (["random", "--n", "6", "--steps", "5", "--reals", "1", "--seed", "1",
              "--oracle-check"],
             ["random", "--n", "6", "--steps", "5", "--reals", "1", "--seed", "1"]),
            (["ghz"], ["ghz", "--n", "3"]),
            (["--version"], ["verify"]),
        ],
        ids=["ghz-cuts", "verify-json", "run-program-dump", "random-oracle-check",
             "usage-error", "version"],
    )
    def test_nothing_carries_over(self, first, second, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "ghz.prog").write_text("N 3\nT 1\nC3 1 2 3\n")
        cli.build_parser.cache_clear()
        fresh = run_exiting(second, capsys)
        cli.build_parser.cache_clear()
        run_exiting(first, capsys)
        assert run_exiting(second, capsys) == fresh
        assert cli.build_parser.cache_info().misses == 1
        assert fresh[0] == 0
        assert "oracle check passed" not in fresh[1]
