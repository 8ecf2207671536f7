"""CLI smoke and argument-handling tests."""

import argparse
import json

import pytest

from repro.cli import ALGORITHMS, build_parser, main, parse_fault_plan
from repro.core.graph import Graph
from repro.datasets.generators import social_graph
from repro.datasets.io import write_edge_list


class TestParser:
    def test_requires_a_graph_source(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_dataset_and_edge_list_exclusive(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--dataset", "wiki", "--edge-list", "x.txt"]
            )

    def test_defaults(self):
        args = build_parser().parse_args(["--dataset", "wiki"])
        assert args.algorithm == "pagerank"
        assert args.mode == "hybrid"
        assert args.cluster == "local"


class TestMain:
    def test_runs_on_edge_list(self, tmp_path, capsys):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
        path = tmp_path / "ring.txt"
        write_edge_list(g, path)
        rc = main(["--edge-list", str(path), "--algorithm", "sssp",
                   "--mode", "push", "--workers", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "sssp" in out
        assert "supersteps" in out

    def test_trace_output(self, tmp_path, capsys):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        path = tmp_path / "chain.txt"
        write_edge_list(g, path)
        rc = main(["--edge-list", str(path), "--algorithm", "wcc",
                   "--mode", "bpull", "--workers", "2", "--trace"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "updated" in out  # trace table header

    def test_in_memory_flag(self, tmp_path, capsys):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        path = tmp_path / "chain.txt"
        write_edge_list(g, path)
        rc = main(["--edge-list", str(path), "--mode", "push",
                   "--in-memory", "--supersteps", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "disk I/O   : 0B" in out

    def test_hybrid_reports_switches(self, tmp_path, capsys):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        path = tmp_path / "chain.txt"
        write_edge_list(g, path)
        rc = main(["--edge-list", str(path), "--algorithm", "sssp",
                   "--mode", "hybrid", "--workers", "2", "--buffer", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "mode trace" in out

    def test_amazon_cluster(self, tmp_path, capsys):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        path = tmp_path / "chain.txt"
        write_edge_list(g, path)
        rc = main(["--edge-list", str(path), "--cluster", "amazon",
                   "--supersteps", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "amazon" in out


class TestMainWithDataset:
    def test_dataset_run(self, capsys):
        rc = main(["--dataset", "livej", "--algorithm", "pagerank",
                   "--mode", "bpull", "--supersteps", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "livej" in out
        assert "supersteps : 2" in out

    def test_dataset_in_memory(self, capsys):
        rc = main(["--dataset", "livej", "--algorithm", "wcc",
                   "--mode", "push", "--in-memory",
                   "--supersteps", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "disk I/O   : 0B" in out

    def test_stats_flag(self, capsys):
        rc = main(["--dataset", "livej", "--stats"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "B_perp" in out
        assert "supersteps" not in out  # no job ran


@pytest.fixture(scope="module")
def tiny_edge_list(tmp_path_factory):
    """A small but non-trivial graph shared by the smoke tests."""
    graph = social_graph(num_vertices=60, avg_degree=4, seed=7)
    path = tmp_path_factory.mktemp("cli") / "tiny.txt"
    write_edge_list(graph, path)
    return str(path)


class TestSmokeEveryAlgorithm:
    """``main()`` must exit 0 for every supported --algorithm."""

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_algorithm_runs(self, algorithm, tiny_edge_list, capsys):
        rc = main(["--edge-list", tiny_edge_list,
                   "--algorithm", algorithm, "--mode", "hybrid",
                   "--workers", "2", "--buffer", "50",
                   "--supersteps", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "supersteps" in out

    def test_stats(self, tiny_edge_list, capsys):
        rc = main(["--edge-list", tiny_edge_list, "--stats"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "B_perp" in out


class TestTraceOut:
    def test_jsonl_trace_parses(self, tiny_edge_list, tmp_path, capsys):
        out_path = tmp_path / "trace.jsonl"
        rc = main(["--edge-list", tiny_edge_list,
                   "--algorithm", "pagerank", "--mode", "hybrid",
                   "--workers", "2", "--buffer", "50",
                   "--supersteps", "4",
                   "--trace-out", str(out_path)])
        report = capsys.readouterr().out
        assert rc == 0
        assert str(out_path) in report
        lines = out_path.read_text().splitlines()
        assert lines
        events = [json.loads(line) for line in lines]
        names = {e["name"] for e in events}
        assert {"load_graph", "superstep", "update", "worker"} <= names
        for event in events:
            assert event["kind"] in ("span", "instant")
            assert isinstance(event["ts"], float)

    def test_chrome_trace_parses(self, tiny_edge_list, tmp_path, capsys):
        out_path = tmp_path / "trace.json"
        rc = main(["--edge-list", tiny_edge_list,
                   "--algorithm", "sssp", "--mode", "hybrid",
                   "--workers", "2", "--buffer", "50",
                   "--supersteps", "4",
                   "--trace-out", str(out_path),
                   "--trace-format", "chrome"])
        assert rc == 0
        doc = json.loads(out_path.read_text())
        records = doc["traceEvents"]
        phases = {r["ph"] for r in records}
        assert phases <= {"M", "X", "i"}
        assert any(r["ph"] == "X" and r["name"] == "superstep"
                   for r in records)

    def test_trace_out_with_table_flag(self, tiny_edge_list, tmp_path,
                                       capsys):
        out_path = tmp_path / "trace.jsonl"
        rc = main(["--edge-list", tiny_edge_list, "--mode", "push",
                   "--workers", "2", "--supersteps", "3",
                   "--trace", "--trace-out", str(out_path)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "updated" in out  # the existing --trace table survives
        assert out_path.exists()

    def test_bad_format_rejected(self, tiny_edge_list, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["--edge-list", tiny_edge_list,
                 "--trace-out", str(tmp_path / "t"),
                 "--trace-format", "xml"]
            )


class TestFaultPlanSpec:
    def test_single_crash(self):
        (plan,) = parse_fault_plan("crash@3:w1")
        assert (plan.kind, plan.superstep, plan.worker) == ("crash", 3, 1)

    def test_worker_defaults_to_zero(self):
        (plan,) = parse_fault_plan("crash@2")
        assert plan.worker == 0

    def test_straggler_factor_and_repeat(self):
        (plan,) = parse_fault_plan("straggler@4:w2x2.5*3")
        assert plan.kind == "straggler"
        assert plan.factor == 2.5
        assert plan.repeat == 3

    def test_checkpoint_kind_aliases(self):
        plans = parse_fault_plan("ckpt-write@2,ckpt-corrupt@4")
        assert [p.kind for p in plans] == [
            "checkpoint_write", "checkpoint_corrupt",
        ]

    @pytest.mark.parametrize("bad", [
        "", "crash", "crash@", "meteor@3", "crash@0", "crash@3:w-1",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_fault_plan(bad)

    def test_kill_kind_rejected_as_value_error(self):
        with pytest.raises(ValueError, match="'kill'") as info:
            parse_fault_plan("kill@2")
        kinds = ("crash", "straggler", "ckpt-write", "ckpt-corrupt")
        assert all(repr(kind) in str(info.value) for kind in kinds)


class TestResilienceFlags:
    def test_fault_plan_run_reports_recovery(self, tiny_edge_list,
                                             capsys):
        rc = main(["--edge-list", tiny_edge_list,
                   "--algorithm", "pagerank", "--mode", "push",
                   "--workers", "2", "--buffer", "50",
                   "--supersteps", "5",
                   "--fault-plan", "crash@3:w1",
                   "--checkpoint-interval", "2",
                   "--restart-backoff", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "faults     : crash@3/w1" in out
        assert "recovery   : 1 restarts" in out
        assert "checkpoints:" in out

    def test_chaos_flags_accepted(self, tiny_edge_list, capsys):
        rc = main(["--edge-list", tiny_edge_list, "--mode", "push",
                   "--workers", "2", "--buffer", "50",
                   "--supersteps", "4",
                   "--chaos-probability", "0.5",
                   "--chaos-seed", "7",
                   "--checkpoint-interval", "1"])
        assert rc == 0

    def test_checkpoint_dir_then_resume(self, tiny_edge_list, tmp_path,
                                        capsys):
        ckpt_dir = str(tmp_path / "ckpts")
        common = ["--edge-list", tiny_edge_list, "--mode", "push",
                  "--workers", "2", "--buffer", "50",
                  "--checkpoint-interval", "2"]
        rc = main(common + ["--supersteps", "5",
                            "--checkpoint-dir", ckpt_dir])
        assert rc == 0
        capsys.readouterr()
        rc = main(common + ["--supersteps", "8",
                            "--resume-from", ckpt_dir])
        out = capsys.readouterr().out
        assert rc == 0
        assert "resumed    : after superstep 4" in out
