"""End-to-end command-line checks."""

from __future__ import annotations

import json

import pytest

from crossnest.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEnumerateAndCount:
    def test_enumerate_fillings(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "enumerate-fillings",
            "--shape", "2,2", "--rows", "1,1", "--cols", "1,1",
        )
        assert code == 0
        assert out.split("\n\n") == ["0 1\n1 0", "1 0\n0 1\n"]

    def test_count(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "count",
            "--shape", "2,2", "--rows", "1,1", "--cols", "1,1",
            "--pattern", "I2",
        )
        assert code == 0
        assert out.strip() == "1"

    def test_bad_shape_is_usage_error(self, capsys):
        code, _, err = run_cli(
            capsys,
            "count",
            "--shape", "1,2", "--rows", "1,1", "--cols", "1,1",
            "--pattern", "I2",
        )
        assert code == 2
        assert "error" in err


class TestStats:
    def test_stats_from_file(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("4\n1 3 1\n2 4 1\n")
        code, out, _ = run_cli(capsys, "stats", "--graph", str(path))
        assert code == 0
        lines = dict(line.split() for line in out.strip().splitlines())
        assert lines == {"cross": "2", "nest": "1", "cross*": "2", "nest*": "1"}

    def test_stats_bad_format(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("4\n1 3\n")
        code, _, err = run_cli(capsys, "stats", "--graph", str(path))
        assert code == 2


class TestCodecCommands:
    def test_encode_decode_delta_round_trip(self, capsys, tmp_path):
        graph_text = "4\n1 3 1\n2 4 2\n"
        path = tmp_path / "graph.txt"
        path.write_text(graph_text)
        code, out, _ = run_cli(capsys, "encode", "--mode", "delta", "-i", str(path))
        assert code == 0
        filling_path = tmp_path / "filling.txt"
        filling_path.write_text(out)
        code, out2, _ = run_cli(
            capsys, "decode", "--mode", "delta", "-i", str(filling_path)
        )
        assert code == 0
        assert out2.strip() == graph_text.strip()

    def test_encode_decode_lr_round_trip(self, capsys, tmp_path):
        graph_text = "4\n1 3 1\n2 4 1\n"
        path = tmp_path / "graph.txt"
        path.write_text(graph_text)
        code, out, _ = run_cli(capsys, "encode", "--mode", "lr", "-i", str(path))
        assert code == 0
        assert out == "0 1\n1 0\n"
        filling_path = tmp_path / "filling.txt"
        filling_path.write_text(out)
        code, out2, _ = run_cli(
            capsys, "decode", "--mode", "lr", "-i", str(filling_path)
        )
        assert code == 0
        assert out2.strip() == graph_text.strip()

    def test_encode_lr_edgeless_graph(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("3\n")
        code, out, _ = run_cli(capsys, "encode", "--mode", "lr", "-i", str(path))
        assert code == 0
        assert out == "0 0\n"

    def test_encode_lr_single_vertex_untaggable(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("1\n")
        code, _, err = run_cli(capsys, "encode", "--mode", "lr", "-i", str(path))
        assert code == 2
        assert "untaggable" in err


class TestBiject:
    def test_filling_level(self, capsys, tmp_path):
        path = tmp_path / "filling.txt"
        path.write_text("0 1\n1 0\n")
        code, out, _ = run_cli(
            capsys,
            "biject", "--t", "2", "--direction", "fwd", "-i", str(path),
        )
        assert code == 0
        assert out == "1 0\n0 1\n"

    def test_graph_level(self, capsys, tmp_path):
        # The 2-crossing is a forward input (its nesting order is 1).
        path = tmp_path / "graph.txt"
        path.write_text("4\n1 3 1\n2 4 1\n")
        code, out, _ = run_cli(
            capsys,
            "biject", "--t", "2", "--direction", "fwd",
            "--level", "graph", "-i", str(path),
        )
        assert code == 0
        assert out.strip().splitlines()[0] == "4"
        assert out.strip() == "4\n1 4 1\n2 3 1"

    def test_precondition_violation_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "filling.txt"
        path.write_text("1 0\n0 1\n")
        code, _, err = run_cli(
            capsys,
            "biject", "--t", "2", "--direction", "fwd", "-i", str(path),
        )
        assert code == 2
        assert "error" in err


class TestVerifyAndExperiment:
    def test_verify_pass_exit_zero(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--p1", "I2", "--p2", "J2",
            "--max-cells", "5", "--max-total", "3",
        )
        assert code == 0
        assert "PASS" in out

    def test_verify_fail_exit_one(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--p1", "I2", "--p2", "J3",
            "--max-cells", "5", "--max-total", "3",
        )
        assert code == 1
        assert "FAIL" in out

    @pytest.mark.parametrize(
        "option, value",
        [("--max-cells", "-1"), ("--max-total", "-2"), ("--jobs", "0")],
    )
    def test_verify_rejects_empty_sweep(self, capsys, option, value):
        code, out, err = run_cli(
            capsys, "verify", "--p1", "I2", "--p2", "J2", option, value
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_experiment_machine_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "experiment", "catalan", "--bounds", "n=3",
            "--format", "machine",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["experimentId"] == "catalan"
        assert payload["verdict"] == "pass"
        assert payload["counts"]["catalan(3)"] == 5

    def test_experiment_bad_bounds(self, capsys):
        code, _, err = run_cli(
            capsys, "experiment", "catalan", "--bounds", "nonsense"
        )
        assert code == 2

    def test_unknown_experiment_rejected_by_parser(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "made_up"])
        assert excinfo.value.code == 2


class TestExperimentRejectsIgnoredOrEmptyBounds:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--bounds", "N=3"],
            ["--bounds", "n=-3"],
            ["--jobs", "-5"],
            ["--bounds", "n=2,n=3"],
        ],
        ids=["unknown-key", "negative-bound", "jobs-below-one", "repeated-key"],
    )
    def test_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "experiment", "catalan", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestClosedOutput:
    def test_closed_stdout_is_not_a_usage_error(self):
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        # A pipe whose reader is already gone: the first write fails.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            result = subprocess.run(
                [
                    sys.executable, "-m", "crossnest.cli", "enumerate-fillings",
                    "--shape", "4,4,3,2", "--rows", "3,3,2,2", "--cols", "3,3,2,2",
                ],
                stdout=write_end, stderr=subprocess.PIPE, text=True,
                env=env, timeout=120,
            )
        finally:
            os.close(write_end)
        assert result.returncode == 141
        assert result.stderr == ""
