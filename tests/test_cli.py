"""Tests for the command-line interface."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.datasets.base import Dataset
from repro.datasets.io import write_dataset


@pytest.fixture
def dataset_file(tmp_path: Path) -> Path:
    path = tmp_path / "data.txt"
    records = [
        [1, 2, 3, 4],
        [2, 3, 4, 5],
        [10, 11, 12, 13],
        [10, 11, 12, 14],
        [20, 21, 22],
    ]
    write_dataset(Dataset(records, name="clitest"), path)
    return path


class TestParser:
    def test_requires_subcommand(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_join_defaults(self) -> None:
        args = build_parser().parse_args(["join", "data.txt"])
        assert args.threshold == 0.5
        assert args.algorithm == "cpsjoin"

    def test_unknown_algorithm_rejected(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["join", "data.txt", "--algorithm", "magic"])

    def test_experiment_names_restricted(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "table99"])


class TestJoinCommand:
    def test_join_to_stdout(self, dataset_file, capsys) -> None:
        exit_code = main(["join", str(dataset_file), "--threshold", "0.5", "--algorithm", "allpairs"])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "first,second" in captured.out
        assert "0,1" in captured.out
        assert "2,3" in captured.out

    def test_join_to_file(self, dataset_file, tmp_path, capsys) -> None:
        out = tmp_path / "pairs.csv"
        exit_code = main(
            ["join", str(dataset_file), "--algorithm", "cpsjoin", "--seed", "3", "--out", str(out)]
        )
        assert exit_code == 0
        text = out.read_text()
        assert text.startswith("first,second")
        assert "0,1" in text

    def test_join_with_repetitions_override(self, dataset_file, capsys) -> None:
        exit_code = main(
            ["join", str(dataset_file), "--algorithm", "cpsjoin", "--seed", "1", "--repetitions", "2"]
        )
        assert exit_code == 0


class TestRSJoinCommand:
    @pytest.fixture
    def right_file(self, tmp_path: Path) -> Path:
        path = tmp_path / "right.txt"
        records = [
            [1, 2, 3, 4],
            [30, 31, 32],
        ]
        write_dataset(Dataset(records, name="cliright"), path)
        return path

    @pytest.mark.parametrize("algorithm", ["cpsjoin", "naive"])
    def test_join_with_right_reports_cross_pairs(self, dataset_file, right_file, algorithm, capsys) -> None:
        exit_code = main(
            [
                "join",
                str(dataset_file),
                "--right",
                str(right_file),
                "--threshold",
                "0.5",
                "--algorithm",
                algorithm,
                "--seed",
                "3",
            ]
        )
        assert exit_code == 0
        captured = capsys.readouterr()
        # Left record 0 == right record 0; pairs are (left index, right index).
        assert "first,second" in captured.out
        assert "0,0" in captured.out
        assert "2,3" not in captured.out

    def test_join_with_right_and_backend_workers(self, dataset_file, right_file, capsys) -> None:
        exit_code = main(
            [
                "join",
                str(dataset_file),
                "--right",
                str(right_file),
                "--algorithm",
                "cpsjoin",
                "--seed",
                "3",
                "--backend",
                "numpy",
                "--workers",
                "2",
            ]
        )
        assert exit_code == 0


class TestIndexCommand:
    def test_build_requires_subcommand(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["index"])

    def test_build_then_query(self, dataset_file, tmp_path, capsys) -> None:
        index_path = tmp_path / "data.index.idx"
        exit_code = main(
            [
                "index",
                "build",
                str(dataset_file),
                "--threshold",
                "0.5",
                "--out",
                str(index_path),
                "--backend",
                "numpy",
            ]
        )
        assert exit_code == 0
        assert index_path.exists()
        captured = capsys.readouterr()
        assert "indexed 5 records" in captured.out

        queries = tmp_path / "queries.txt"
        write_dataset(Dataset([[1, 2, 3, 4], [50, 51, 52]], name="cliq"), queries)
        out = tmp_path / "matches.csv"
        exit_code = main(["index", "query", str(index_path), str(queries), "--out", str(out)])
        assert exit_code == 0
        text = out.read_text()
        assert text.startswith("query,match,similarity")
        assert "0,0,1.000000" in text  # query 0 equals record 0
        assert "\n1," not in text  # query 1 matches nothing

    def test_query_with_insert_grows_index(self, dataset_file, tmp_path, capsys) -> None:
        index_path = tmp_path / "data.index.idx"
        main(["index", "build", str(dataset_file), "--out", str(index_path)])
        queries = tmp_path / "queries.txt"
        write_dataset(Dataset([[100, 101, 102], [100, 101, 102, 103]], name="cliq"), queries)
        exit_code = main(
            ["index", "query", str(index_path), str(queries), "--insert", "--out", str(tmp_path / "m.csv")]
        )
        assert exit_code == 0
        # The second query must have matched the freshly inserted first one.
        text = (tmp_path / "m.csv").read_text()
        assert "1,5," in text
        captured = capsys.readouterr()
        assert "index grown to 7 records" in captured.err

    def test_query_rejects_non_index_pickle(self, dataset_file, tmp_path) -> None:
        import pickle

        bogus = tmp_path / "bogus.pkl"
        bogus.write_bytes(pickle.dumps({"not": "an index"}))
        with pytest.raises(SystemExit):
            main(["index", "query", str(bogus), str(dataset_file)])

    def test_build_candidates_choice_restricted(self, dataset_file, tmp_path) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["index", "build", str(dataset_file), "--out", "x.idx", "--candidates", "magic"]
            )

    def test_build_writes_versioned_format(self, dataset_file, tmp_path) -> None:
        import json

        import numpy as np

        index_path = tmp_path / "data.idx"
        main(["index", "build", str(dataset_file), "--out", str(index_path)])
        with np.load(index_path, allow_pickle=False) as archive:
            manifest = json.loads(archive["manifest"].tobytes().decode("utf-8"))
        assert manifest["format_version"] == 3
        assert manifest["records"] == 5

    def test_query_refuses_legacy_pickle_with_rebuild_hint(self, dataset_file, tmp_path) -> None:
        # Index files of the old pickle formats are refused, never unpickled.
        import pickle

        from repro.datasets.io import read_dataset
        from repro.index import SimilarityIndex

        legacy = tmp_path / "legacy.pkl"
        index = SimilarityIndex.build(read_dataset(dataset_file).records, 0.5, seed=2)
        legacy.write_bytes(pickle.dumps(index))
        with pytest.raises(SystemExit, match="repro-join index build"):
            main(["index", "query", str(legacy), str(dataset_file)])


class TestServeCommand:
    def test_serve_defaults(self) -> None:
        args = build_parser().parse_args(["serve"])
        assert args.input is None
        assert args.data_dir is None
        assert args.port == 0
        assert args.max_batch == 64
        assert args.max_linger_ms == 2.0
        assert args.snapshot_every == 512
        assert not args.no_wal_sync

    def test_serve_executor_choice_restricted(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--executor", "magic"])

    def test_serve_kill_restart_matches_offline_index_query(self, dataset_file, tmp_path) -> None:
        # The acceptance property end-to-end over real processes: serve,
        # insert, SIGKILL, restart (WAL replay), and compare every answer
        # against the offline `repro-join index query` on the same data.
        import os
        import signal
        import subprocess
        import sys
        import time

        from repro.service import ServiceClient

        data_dir = tmp_path / "state"
        port_file = tmp_path / "port.txt"
        environment = dict(os.environ)
        environment["PYTHONPATH"] = (
            "src" + (os.pathsep + environment["PYTHONPATH"] if "PYTHONPATH" in environment else "")
        )

        def start_server():
            process = subprocess.Popen(
                [
                    sys.executable, "-m", "repro.cli", "serve", str(dataset_file),
                    "--data-dir", str(data_dir), "--seed", "7", "--backend", "numpy",
                    "--port-file", str(port_file), "--no-wal-sync",
                ],
                env=environment,
                cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
            )
            deadline = time.monotonic() + 60.0
            while not port_file.exists() and time.monotonic() < deadline:
                assert process.poll() is None, "server exited before binding"
                time.sleep(0.05)
            assert port_file.exists(), "server did not report its port"
            host, port = port_file.read_text().split()
            return process, host, int(port)

        inserted = [[100, 101, 102], [100, 101, 103]]
        probes = [[1, 2, 3, 4], [100, 101, 102], [50, 51]]
        process, host, port = start_server()
        try:
            with ServiceClient.connect(host, port, retry_for=10.0) as client:
                for record in inserted:
                    client.insert(record)
                before_kill = client.query_batch(probes)
        finally:
            process.send_signal(signal.SIGKILL)
            process.wait(timeout=30)
        port_file.unlink()

        process, host, port = start_server()
        try:
            with ServiceClient.connect(host, port, retry_for=10.0) as client:
                assert client.stats()["server"]["wal_replayed"] == len(inserted)
                after_restart = client.query_batch(probes)
        finally:
            process.send_signal(signal.SIGTERM)
            process.wait(timeout=30)
        assert after_restart == before_kill

        # Offline reference: the same collection built the same way.
        from repro.datasets.io import read_dataset
        from repro.index import SimilarityIndex

        offline = SimilarityIndex.build(
            read_dataset(dataset_file).records + [tuple(r) for r in inserted],
            0.5,
            backend="numpy",
            seed=7,
        )
        assert after_restart == offline.query_batch([tuple(p) for p in probes])


class TestBadSettings:
    """A setting the library refuses ends in exit status 2 and one error line."""

    def _assert_usage_error(self, argv, message, capsys) -> None:
        with pytest.raises(SystemExit) as raised:
            main(argv)
        assert raised.value.code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert err.startswith(f"repro-join {argv[0]}: error: ") and message in err

    def test_join_workers_zero(self, dataset_file, capsys) -> None:
        self._assert_usage_error(
            ["join", str(dataset_file), "--workers", "0"], "workers must be at least 1", capsys
        )

    def test_join_threshold_above_one(self, dataset_file, capsys) -> None:
        self._assert_usage_error(
            ["join", str(dataset_file), "--threshold", "1.5"], "threshold must be in", capsys
        )

    def test_index_build_workers_zero(self, dataset_file, tmp_path, capsys) -> None:
        out = tmp_path / "never.idx"
        self._assert_usage_error(
            ["index", "build", str(dataset_file), "--workers", "0", "--out", str(out)],
            "workers must be at least 1",
            capsys,
        )
        assert not out.exists()

    def test_serve_max_batch_zero(self, dataset_file, capsys) -> None:
        self._assert_usage_error(
            ["serve", str(dataset_file), "--max-batch", "0"], "max_batch must be at least 1", capsys
        )


class TestGenerateAndStats:
    def test_generate_then_stats_roundtrip(self, tmp_path, capsys) -> None:
        out = tmp_path / "uniform.txt"
        exit_code = main(["generate", "UNIFORM005", "--scale", "0.05", "--seed", "5", "--out", str(out)])
        assert exit_code == 0
        assert out.exists()

        exit_code = main(["stats", str(out)])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "records:" in captured.out
        assert "avg set size:" in captured.out

    def test_generate_unknown_profile(self, tmp_path) -> None:
        with pytest.raises(KeyError):
            main(["generate", "NOPE", "--out", str(tmp_path / "x.txt")])


class TestExperimentCommand:
    def test_table1_runs(self, capsys) -> None:
        exit_code = main(["experiment", "table1", "--scale", "0.05", "--seed", "2"])
        assert exit_code == 0
        captured = capsys.readouterr()
        assert "dataset" in captured.out
        assert "NETFLIX" in captured.out
