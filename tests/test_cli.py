"""Tests for the command-line interface."""

import argparse

import numpy as np
import pytest

from repro.cli import build_parser, main
from repro.core import OperatorConfig, preprocess
from repro.geometry import ParallelBeamGeometry


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_known_commands(self):
        p = build_parser()
        assert p.parse_args(["info"]).command == "info"
        args = p.parse_args(["preprocess", "--angles", "10", "--channels", "8"])
        assert args.angles == 10
        assert args.partition_size == OperatorConfig().partition_size

    @pytest.mark.parametrize("argv", [
        ["preprocess", "--angles", "8", "--channels", "8", "--kernel", "ell"],
        ["preprocess", "--angles", "8", "--channels", "8", "--buffer-kb", "8"],
        ["scenario", "cone", "--kernel", "buffered"],
        ["serve", "--spool", "s", "--kernel", "buffered"],
    ])
    def test_no_command_takes_a_kernel_or_buffer_size(self, argv, capsys):
        """A plan is the same for every kernel, so no flag selects one."""
        with pytest.raises(SystemExit):
            build_parser().parse_args(argv)

    def test_invalid_solver_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["reconstruct", "--solver", "bogus"])

    @pytest.mark.parametrize("command,keeps", [
        ("scenario", lambda row: True),
        ("reconstruct", lambda row: row.prior is None),
        ("pipeline", lambda row: row.slab),
        ("submit", lambda row: row.slab),
    ])
    def test_solver_choices_filter_the_table(self, command, keeps):
        """Each --solver list is a filter of the solver table, in its order."""
        from repro.solvers import SOLVER_TABLE

        subcommands = next(
            action for action in build_parser()._actions
            if isinstance(action, argparse._SubParsersAction)
        )
        solver = next(
            action for action in subcommands.choices[command]._actions
            if action.dest == "solver"
        )
        assert list(solver.choices) == [row.name for row in SOLVER_TABLE if keeps(row)]

    @pytest.mark.parametrize("argv", [
        ["preprocess", "--angles", "10", "--channels", "8"],
        ["scenario", "cone"],
        ["reconstruct", "--demo", "ADS1"],
        ["pipeline", "run", "--demo"],
    ])
    def test_tune_flag_is_gone(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([*argv, "--tune", "auto"])
        assert exc.value.code == 2
        assert "--tune" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["process:2", "process", "frob", "thread:x", "0"])
    def test_bad_workers_spec_exits_2(self, spec, capsys):
        """A malformed spec (``process`` mode is gone) is an argparse
        error naming the problem, not a traceback."""
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["reconstruct", "--demo", "ADS1", "--workers", spec])
        assert exc.value.code == 2
        assert "argument --workers" in capsys.readouterr().err

    def test_tune_subcommand_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["tune", "show"])
        assert exc.value.code == 2
        assert "invalid choice: 'tune'" in capsys.readouterr().err


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "ADS1" in out and "RDS2" in out
        assert "Theta" in out

    def test_preprocess_and_reconstruct_from_file(self, tmp_path, capsys):
        op_file = tmp_path / "op.npz"
        assert main([
            "preprocess", "--angles", "30", "--channels", "24",
            "-o", str(op_file),
        ]) == 0
        assert op_file.exists()

        # Build a sinogram file matching the operator's geometry.
        from repro.io import load_operator
        from repro.phantoms import shepp_logan

        operator = load_operator(op_file)
        sino = operator.project_image(shepp_logan(24))
        sino_file = tmp_path / "sino.npz"
        np.savez(sino_file, sinogram=sino)

        out_file = tmp_path / "recon.npz"
        assert main([
            "reconstruct", "--sinogram", str(sino_file),
            "--operator", str(op_file), "--iterations", "5",
            "-o", str(out_file),
        ]) == 0
        with np.load(out_file) as data:
            assert data["reconstruction"].shape == (24, 24)

    def test_reconstruct_demo(self, tmp_path, capsys):
        out_file = tmp_path / "demo.npz"
        assert main([
            "reconstruct", "--demo", "ADS1", "--scale", "0.0625",
            "--iterations", "3", "-o", str(out_file),
        ]) == 0
        out = capsys.readouterr().out
        assert "PSNR" in out
        assert out_file.exists()

    def test_reconstruct_requires_input(self, capsys):
        assert main(["reconstruct"]) == 2

    @pytest.mark.parametrize("flags,needs", [
        (["--solver", "icd", "--ranks", "2"], "num_ranks > 1"),
        (["--solver", "fbp", "--checkpoint", "ck.npz"], "checkpoint/resume/health"),
    ])
    def test_table_refusal_is_an_error_before_preprocessing(
        self, tmp_path, capsys, flags, needs
    ):
        """A solver the table refuses exits 2 with one 'error:' line;
        nothing is preprocessed (no cache status line) or written."""
        from repro import obs

        out_file = tmp_path / "refused.npz"
        with obs.capture() as cap:
            code = main([
                "reconstruct", "--demo", "ADS1", "--scale", "0.0625",
                *flags, "--cache", "off", "-o", str(out_file),
            ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and needs in captured.err
        assert "Traceback" not in captured.err and captured.out == ""
        assert not any(s.name.startswith("preprocess") for s in cap.spans)
        assert not out_file.exists()

    def test_negative_iterations_is_an_error(self, tmp_path):
        """--iterations -1 fails instead of saving the all-zero start."""
        out_file = tmp_path / "neg.npz"
        with pytest.raises(ValueError, match=">= 0"):
            main([
                "reconstruct", "--demo", "ADS1", "--scale", "0.0625",
                "--iterations", "-1", "--cache", "off", "-o", str(out_file),
            ])
        assert not out_file.exists()

    @pytest.mark.parametrize("flag", [["--dtype", "float64"], ["--dtype", "float32"]])
    def test_loaded_operator_rejects_preprocessing_flags(self, tmp_path, capsys, flag):
        """A loaded operator is already built: --dtype has no
        preprocessing left to configure, whichever precision it names."""
        op_file = tmp_path / "op.npz"
        assert main([
            "preprocess", "--angles", "12", "--channels", "16", "--cache", "off",
            "-o", str(op_file),
        ]) == 0
        sino_file = tmp_path / "sino.npz"
        np.savez(sino_file, sinogram=np.ones((12, 16)))
        capsys.readouterr()
        assert main([
            "reconstruct", "--sinogram", str(sino_file), "--operator", str(op_file),
            "--iterations", "1", "--cache", "off", "-o", str(tmp_path / "r.npz"),
            *flag,
        ]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "r.npz").exists()

    def test_loaded_operator_takes_workers(self, tmp_path):
        """--workers re-points a loaded operator; the image is unchanged."""
        op_file = tmp_path / "op.npz"
        assert main([
            "preprocess", "--angles", "12", "--channels", "16", "--cache", "off",
            "-o", str(op_file),
        ]) == 0
        sino_file = tmp_path / "sino.npz"
        np.savez(sino_file, sinogram=np.random.default_rng(0).random((12, 16)))
        images = []
        for extra in ([], ["--workers", "thread:2"]):
            out = tmp_path / f"r{len(images)}.npz"
            assert main([
                "reconstruct", "--sinogram", str(sino_file), "--operator",
                str(op_file), "--iterations", "3", "--cache", "off", "-o", str(out),
                *extra,
            ]) == 0
            images.append(np.load(out)["reconstruction"])
        assert np.array_equal(images[0], images[1])

    def test_scale_command(self, capsys):
        assert main([
            "scale", "--dataset", "RDS1", "--machine", "theta",
            "--mode", "strong", "--nodes-start", "32", "--steps", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "strong scaling" in out and "A_p" in out

    def test_scale_weak_mode(self, capsys):
        assert main([
            "scale", "--dataset", "ADS2", "--machine", "bluewaters",
            "--mode", "weak", "--steps", "3",
        ]) == 0
        out = capsys.readouterr().out
        assert "weak scaling" in out


class TestPlanCacheCLI:
    """The `--cache` flag and the `cache` maintenance subcommand.

    The autouse conftest fixture points REPRO_CACHE_DIR at a per-test
    temp dir, so `--cache auto` (the default) is hermetic here.
    """

    ARGS = ["preprocess", "--angles", "24", "--channels", "16"]

    def test_preprocess_miss_then_hit(self, tmp_path, capsys):
        assert main(self.ARGS + ["-o", str(tmp_path / "a.npz")]) == 0
        first = capsys.readouterr().out
        assert "plan cache miss" in first
        assert "stored plan for reuse" in first

        assert main(self.ARGS + ["-o", str(tmp_path / "b.npz")]) == 0
        second = capsys.readouterr().out
        assert "plan cache hit" in second
        assert "skipped ordering/tracing/transpose" in second

    def test_cli_then_api_is_one_request(self, tmp_path, capsys):
        """The flags' defaults are ``OperatorConfig``'s: the API call
        after the CLI call hits the entry the CLI stored."""
        cachedir = tmp_path / "plans"
        argv = self.ARGS + ["--cache", str(cachedir), "-o", str(tmp_path / "a.npz")]
        assert main(argv) == 0
        assert "plan cache miss" in capsys.readouterr().out
        _, report = preprocess(ParallelBeamGeometry(24, 16), cache=cachedir)
        assert report.cache_hit
        assert len(list(cachedir.glob("*.npz"))) == 1

    def test_serve_defaults_are_service_config(self):
        from repro.service import ServiceConfig

        args = build_parser().parse_args(["serve", "--spool", "s"])
        config = ServiceConfig(spool="s")
        for flag, field in [
            ("queue_limit", "queue_limit"),
            ("max_batch", "max_batch"), ("coalesce_window", "coalesce_window_s"),
            ("rate_limit", "rate_limit"), ("rate_burst", "rate_burst"),
            ("result_ttl", "result_ttl_s"), ("spool_cap", "spool_cap_bytes"),
        ]:
            assert getattr(args, flag) == getattr(config, field), flag
        assert (args.retries, args.backoff) == (
            config.retry.max_retries, config.retry.backoff_base
        )

    def test_cache_off_stays_silent(self, tmp_path, capsys):
        assert main(
            self.ARGS + ["--cache", "off", "-o", str(tmp_path / "a.npz")]
        ) == 0
        out = capsys.readouterr().out
        assert "plan cache" not in out
        assert main(
            self.ARGS + ["--cache", "off", "-o", str(tmp_path / "b.npz")]
        ) == 0
        assert "plan cache hit" not in capsys.readouterr().out

    def test_explicit_cache_dir(self, tmp_path, capsys):
        cachedir = tmp_path / "plans"
        argv = self.ARGS + ["--cache", str(cachedir), "-o", str(tmp_path / "a.npz")]
        assert main(argv) == 0
        assert "plan cache miss" in capsys.readouterr().out
        assert list(cachedir.glob("*.npz"))
        argv[-1] = str(tmp_path / "b.npz")
        assert main(argv) == 0
        assert "plan cache hit" in capsys.readouterr().out

    def test_reconstruct_demo_uses_cache(self, tmp_path, capsys):
        argv = [
            "reconstruct", "--demo", "ADS1", "--scale", "0.0625",
            "--iterations", "2", "-o", str(tmp_path / "r.npz"),
        ]
        assert main(argv) == 0
        assert "plan cache miss" in capsys.readouterr().out
        assert main(argv) == 0
        assert "plan cache hit" in capsys.readouterr().out

    def test_cache_list_info_clear(self, tmp_path, capsys):
        assert main(["cache", "list"]) == 0
        assert "is empty" in capsys.readouterr().out

        assert main(
            self.ARGS + ["--dtype", "float32", "-o", str(tmp_path / "a.npz")]
        ) == 0
        capsys.readouterr()

        assert main(["cache", "list"]) == 0
        out = capsys.readouterr().out
        assert "24x16" in out and "float32" in out
        assert "1 entries" in out

        key = [
            line.split()[0] for line in out.splitlines() if "24x16" in line
        ][0]
        assert main(["cache", "info", key]) == 0
        info = capsys.readouterr().out
        assert "num_angles" in info and key in info

        assert main(["cache", "info"]) == 2  # key required
        assert main(["cache", "info", "feedface"]) == 1  # no match

        assert main(["cache", "clear"]) == 0
        assert "removed 1 entries" in capsys.readouterr().out
        assert main(["cache", "list"]) == 0
        assert "is empty" in capsys.readouterr().out

    def test_cache_prune_respects_cap(self, tmp_path, capsys):
        assert main(self.ARGS + ["-o", str(tmp_path / "a.npz")]) == 0
        assert main([
            "preprocess", "--angles", "26", "--channels", "16",
            "-o", str(tmp_path / "b.npz"),
        ]) == 0
        capsys.readouterr()
        # A tiny cap keeps only the most recent entry.
        assert main(["cache", "prune", "--max-mb", "0.001"]) == 0
        assert "evicted 1 entries" in capsys.readouterr().out
        assert main(["cache", "list"]) == 0
        assert "1 entries" in capsys.readouterr().out
