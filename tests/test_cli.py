"""End-to-end command-line checks."""

from __future__ import annotations

import json
from itertools import combinations

import pytest

from crossnest import experiments
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

    def test_enumerate_more_rows_than_the_recursion_limit(self, capsys):
        zeros = ",".join(["0"] * 1500)
        code, out, _ = run_cli(
            capsys,
            "enumerate-fillings",
            "--shape", ",".join(["1"] * 1500), "--rows", zeros, "--cols", "0",
        )
        assert code == 0
        assert out == "0\n" * 1500

    def test_enumerate_more_columns_than_the_recursion_limit(self, capsys):
        # Row fills step like an odometer, so a long row costs no stack.
        code, out, _ = run_cli(
            capsys,
            "enumerate-fillings",
            "--shape", "1500,1500", "--rows", "1,0",
            "--cols", ",".join(["1"] + ["0"] * 1499),
        )
        assert code == 0
        assert out == "1" + " 0" * 1499 + "\n" + "0" + " 0" * 1499 + "\n"

    def test_too_deep_input_is_usage_error(self, capsys, monkeypatch):
        # No listing recurses, so a recursion past the limit is forced.
        def too_deep(*_):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(experiments, "run_experiment", too_deep)
        code, out, err = run_cli(capsys, "experiment", "thm3_5")
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestStats:
    def test_stats_from_file(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("4\n1 3 1\n2 4 1\n")
        code, out, _ = run_cli(capsys, "stats", "--graph", str(path))
        assert code == 0
        lines = dict(line.split() for line in out.strip().splitlines())
        assert lines == {"cross": "2", "nest": "1", "cross*": "2", "nest*": "1"}

    def test_stats_weak_orders_exceed_strict(self, capsys, tmp_path):
        # The double edge (1, 3) crosses (2, 4) twice and nests with itself.
        path = tmp_path / "graph.txt"
        path.write_text("4\n1 3 2\n2 4 1\n")
        code, out, _ = run_cli(capsys, "stats", "--graph", str(path))
        assert code == 0
        lines = dict(line.split() for line in out.strip().splitlines())
        assert lines == {"cross": "2", "nest": "1", "cross*": "3", "nest*": "2"}

    def test_stats_bad_format(self, capsys, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("4\n1 3\n")
        code, _, err = run_cli(capsys, "stats", "--graph", str(path))
        assert code == 2

    def test_statistics_cost_edges_not_vertices(self, capsys, tmp_path):
        # The chain scan reads only the rows that hold an edge, so one edge
        # on 10**18 vertices asks for no per-vertex memory.
        path = tmp_path / "graph.txt"
        path.write_text("1000000000000000000\n1 2 1\n")
        code, out, _ = run_cli(capsys, "stats", "--graph", str(path))
        assert code == 0
        lines = dict(line.split() for line in out.strip().splitlines())
        assert lines == {"cross": "1", "nest": "1", "cross*": "1", "nest*": "1"}

    def test_graph_bijection_costs_edges_not_vertices(self, tmp_path):
        # The bijection runs on the four vertices that carry an edge, so
        # the other 10**18 - 4 ask for no memory.  The CLI runs in a child
        # capped at 1 GiB of address space, so a route that allocates per
        # vertex ends in exit 2 there instead of filling the host's memory.
        import resource
        import subprocess
        import sys

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        path = tmp_path / "graph.txt"
        path.write_text("1000000000000000000\n1 3 1\n2 4 1\n")
        result = subprocess.run(
            [
                sys.executable, "-m", "crossnest", "biject", "--t", "2",
                "--direction", "fwd", "--level", "graph", "-i", str(path),
            ],
            capture_output=True, text=True, env=source_env(), timeout=120,
            preexec_fn=cap_memory,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "1000000000000000000\n1 4 1\n2 3 1\n"

    def test_too_large_input_is_usage_error(self, capsys, tmp_path):
        # The delta encoding of 10**18 vertices prints a staircase of
        # 10**18 - 1 rows, which asks for more memory than the address space
        # holds, so the allocation fails at once on any host.
        path = tmp_path / "graph.txt"
        path.write_text("1000000000000000000\n1 2 1\n")
        code, out, err = run_cli(
            capsys, "encode", "--mode", "delta", "-i", str(path)
        )
        assert code == 2
        assert out == ""
        assert err == "error: input too large to process: out of memory\n"


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

    def test_encode_lr_uses_the_tag_rule(self, capsys, tmp_path, monkeypatch):
        from crossnest import codec

        rule = codec.tag_isolated
        tagged = []

        def spy(graph):
            lrg = rule(graph)
            tagged.append(lrg.isolated_openings)
            return lrg

        monkeypatch.setattr(codec, "tag_isolated", spy)
        path = tmp_path / "graph.txt"
        path.write_text("6\n1 3 1\n2 4 1\n")
        code, out, _ = run_cli(capsys, "encode", "--mode", "lr", "-i", str(path))
        assert code == 0
        assert out == "0 0 0\n0 1\n1 0\n"
        assert tagged == [frozenset({5})]


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

    @pytest.mark.parametrize(
        "edges, direction",
        [
            ([(1, 3, 1), (2, 4, 1)], "fwd"),
            ([(1, 4, 1), (2, 3, 1)], "bwd"),
            ([(1, 3, 1), (2, 4, 1), (3, 5, 1)], "fwd"),
            ([(1, 4, 1), (2, 5, 2), (3, 6, 1)], "fwd"),
        ],
    )
    def test_graph_level_isolated_vertices_only_relabel(
        self, capsys, tmp_path, edges, direction
    ):
        # Two isolated vertices inserted anywhere among the n vertices of a
        # graph with none: the image is the graph's image, its vertices
        # relabelled as the insertion relabels the input's.
        path = tmp_path / "graph.txt"

        def biject(n, edges):
            lines = [str(n)] + [f"{u} {v} {mult}" for u, v, mult in edges]
            path.write_text("\n".join(lines) + "\n")
            code, out, _ = run_cli(
                capsys,
                "biject", "--t", "2", "--direction", direction,
                "--level", "graph", "-i", str(path),
            )
            assert code == 0
            head, *rest = out.splitlines()
            assert int(head) == n
            return sorted(tuple(map(int, line.split())) for line in rest)

        n = max(v for _, v, _ in edges)
        image = biject(n, edges)
        assert image != sorted(edges)
        for kept in combinations(range(1, n + 3), n):
            place = dict(zip(range(1, n + 1), kept))
            moved = [(place[u], place[v], mult) for u, v, mult in edges]
            expected = sorted((place[u], place[v], mult) for u, v, mult in image)
            assert biject(n + 2, moved) == expected

    def test_precondition_violation_is_usage_error(self, capsys, tmp_path):
        path = tmp_path / "filling.txt"
        path.write_text("1 0\n0 1\n")
        code, _, err = run_cli(
            capsys,
            "biject", "--t", "2", "--direction", "fwd", "-i", str(path),
        )
        assert code == 2
        assert "error" in err

    @pytest.mark.parametrize("direction", ["fwd", "bwd"])
    def test_order_one_rejects_a_nonzero_filling(self, capsys, tmp_path, direction):
        # I_1 = J_1 is one nonzero cell, as at the graph level, where one
        # edge is already 1 pairwise nested edge.
        path = tmp_path / "filling.txt"
        path.write_text("1 0\n0 1\n")
        code, out, err = run_cli(
            capsys, "biject", "--t", "1", "--direction", direction, "-i", str(path),
        )
        assert code == 2
        assert out == ""
        assert "must avoid" in err


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
        "argv",
        [
            ("--max-cells", "-1"),
            ("--max-total", "-2"),
            ("--jobs", "0"),
            ("--max-total", "1"),
            ("--p1", "I3", "--p2", "J3", "--max-cells", "8"),
        ],
        ids=[
            "--max-cells--1",
            "--max-total--2",
            "--jobs-0",
            "more-ones-than-total",
            "no-shape-holds-either",
        ],
    )
    def test_verify_rejects_empty_sweep(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", "--p1", "I2", "--p2", "J2", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_empty_sweep_error_says_why(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--p1", "I3", "--p2", "J2",
            "--max-cells", "3", "--max-total", "2",
        )
        assert code == 2
        assert "I3 has 3 1-entries, more than --max-total 2" in err
        assert "J2 needs a 2x2 rectangle of cells, more than --max-cells 3" in err

    @pytest.mark.parametrize(
        "p1, p2, cells, total, code",
        [("I1", "J2", "3", "2", 1), ("I3", "J3", "9", "3", 0)],
    )
    def test_sweep_that_compares_something_runs(
        self, capsys, p1, p2, cells, total, code
    ):
        # Only I1 occurs within 3 cells; I3 and J3 fit a 3x3 shape exactly.
        got, out, _ = run_cli(
            capsys, "verify", "--p1", p1, "--p2", p2,
            "--max-cells", cells, "--max-total", total,
        )
        assert got == code
        assert ("FAIL" if code else "PASS") in out

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
            ["--bounds", "n=2,n=3"],
        ],
        ids=["unknown-key", "negative-bound", "repeated-key"],
    )
    def test_usage_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "experiment", "catalan", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    def test_odd_vertex_count(self, capsys):
        code, out, err = run_cli(
            capsys, "experiment", "noy_matchings", "--bounds", "vertices=13"
        )
        assert code == 2
        assert out == ""
        assert err == "error: perfect matchings need an even vertex count\n"

    def test_odd_total_degree(self, capsys):
        code, out, err = run_cli(
            capsys, "experiment", "thm3_5", "--bounds", "n=4,total_degree=5"
        )
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")

    @pytest.mark.parametrize(
        "bounds, reason",
        [
            ("k=3", "n=7 is below the 8 vertices of the k=3 patterns"),
            ("n=5", "n=5 is below the 6 vertices of the k=2 patterns"),
            ("n=6,m=2", "m=2 is below the 3 edges of the k=2 patterns"),
        ],
    )
    def test_cor3_9_bounds_that_compare_nothing(self, capsys, bounds, reason):
        # Both patterns of order k have 2k + 2 vertices and k + 1 edges.
        code, out, err = run_cli(capsys, "experiment", "cor3_9", "--bounds", bounds)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")
        assert reason in err

    def test_cor3_9_smallest_bounds_that_compare_something_run(self, capsys):
        code, out, _ = run_cli(capsys, "experiment", "cor3_9", "--bounds", "n=6,m=3")
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize(
        "bounds, message",
        [("n=-1", "below its least value"), ("k=3,x=1", "reads no bound 'x'")],
    )
    def test_cor3_9_bad_bounds_keep_their_own_error(self, capsys, bounds, message):
        code, _, err = run_cli(capsys, "experiment", "cor3_9", "--bounds", bounds)
        assert code == 2
        assert message in err

    def test_jobs_rejected_by_parser(self, capsys):
        # The experiments run in one process, so there is no --jobs to take.
        with pytest.raises(SystemExit) as excinfo:
            main(["experiment", "catalan", "--jobs", "2"])
        assert excinfo.value.code == 2
        assert capsys.readouterr().out == ""


def source_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH."""
    import os
    from pathlib import Path

    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env


class TestClosedOutput:
    def test_closed_stdout_is_not_a_usage_error(self):
        import os
        import subprocess
        import sys

        env = source_env()
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


class TestRunAsModule:
    def test_python_m_crossnest_runs_the_cli(self):
        import subprocess
        import sys

        result = subprocess.run(
            [
                sys.executable, "-m", "crossnest", "experiment", "catalan",
                "--bounds", "n=3", "--format", "machine",
            ],
            capture_output=True, text=True, env=source_env(), timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["counts"]["catalan(3)"] == 5
