"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from repro.data import load_database


@pytest.fixture
def db_file(tmp_path):
    path = tmp_path / "db.npz"
    code = main(
        [
            "generate",
            "--profile", "chengdu",
            "-n", "10",
            "--points-scale", "0.2",
            "--seed", "3",
            "--out", str(path),
        ]
    )
    assert code == 0
    return path


class TestGenerate:
    def test_creates_loadable_database(self, db_file):
        db = load_database(db_file)
        assert len(db) == 10

    def test_csv_output(self, tmp_path):
        path = tmp_path / "db.csv"
        assert main(["generate", "-n", "3", "--out", str(path)]) == 0
        assert len(load_database(path)) == 3


class TestStats:
    def test_prints_statistics(self, db_file, capsys):
        assert main(["stats", "--db", str(db_file)]) == 0
        out = capsys.readouterr().out
        assert "# of trajectories" in out
        assert "10" in out


class TestBaselines:
    def test_lists_25(self, capsys):
        assert main(["baselines"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 25
        assert "Span-Search" in lines


class TestSimplify:
    def test_baseline_method(self, db_file, tmp_path):
        out = tmp_path / "small.npz"
        code = main(
            [
                "simplify",
                "--db", str(db_file),
                "--ratio", "0.3",
                "--method", "Bottom-Up(E,SED)",
                "--out", str(out),
            ]
        )
        assert code == 0
        original = load_database(db_file)
        simplified = load_database(out)
        assert simplified.total_points < original.total_points

    def test_unknown_method_raises(self, db_file, tmp_path):
        with pytest.raises(KeyError):
            main(
                [
                    "simplify",
                    "--db", str(db_file),
                    "--ratio", "0.3",
                    "--method", "Middle-Out",
                    "--out", str(tmp_path / "x.npz"),
                ]
            )


class TestServe:
    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--help"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert "--shards" in out and "--executor" in out

    def test_serves_request_file_with_ingest(self, db_file, tmp_path, capsys):
        # a second database streamed in mid-session
        extra = tmp_path / "extra.npz"
        main(["generate", "-n", "4", "--seed", "9", "--out", str(extra)])
        workload = tmp_path / "w.json"
        main(
            [
                "workload", "--db", str(db_file), "-n", "5",
                "--seed", "2", "--out", str(workload),
            ]
        )
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            "\n".join(
                [
                    json.dumps({"op": "range", "workload": str(workload)}),
                    json.dumps({"op": "count", "workload": str(workload)}),
                    json.dumps({"op": "histogram", "grid": 8}),
                    json.dumps({"op": "knn", "ids": [0, 1], "k": 2}),
                    json.dumps({"op": "ingest", "db": str(extra)}),
                    json.dumps({"op": "range", "workload": str(workload)}),
                ]
            )
        )
        capsys.readouterr()
        code = main(
            [
                "serve", "--db", str(db_file), "--shards", "2",
                "--requests", str(requests), "--stats",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        responses = [json.loads(x) for x in lines if x.startswith("{")]
        assert [r["op"] for r in responses] == [
            "range", "count", "histogram", "knn", "ingest", "range",
        ]
        assert responses[4]["added"] == 4
        assert responses[5]["epoch"] == 1
        assert "requests" in "".join(lines)  # stats block printed

    def test_bad_request_line_keeps_serving(self, db_file, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            "\n".join(
                [
                    json.dumps({"op": "histogram", "grid": 4}),
                    json.dumps({"op": "knn", "ids": [9999], "k": 2}),  # bad id
                    json.dumps({"op": "histogram", "grid": 4}),
                ]
            )
        )
        code = main(
            ["serve", "--db", str(db_file), "--requests", str(requests)]
        )
        assert code == 1  # failures are reported in the exit code...
        lines = [
            json.loads(x)
            for x in capsys.readouterr().out.strip().splitlines()
            if x.startswith("{")
        ]
        # ...but every request got a response line, good ones included
        assert len(lines) == 3
        assert "error" in lines[1] and "9999" in lines[1]["error"]
        assert lines[0]["op"] == "histogram" and lines[2]["op"] == "histogram"
        assert lines[2]["cached"]  # the service kept serving (and caching)

    def test_responses_out_file(self, db_file, tmp_path):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(json.dumps({"op": "histogram", "grid": 4}))
        out = tmp_path / "responses.jsonl"
        code = main(
            [
                "serve", "--db", str(db_file),
                "--requests", str(requests), "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text().strip())
        assert payload["total"] == load_database(db_file).total_points


class TestQuery:
    def test_range_query_matches_engine(self, db_file, tmp_path, capsys):
        workload_path = tmp_path / "w.json"
        main(
            [
                "workload", "--db", str(db_file), "-n", "6",
                "--seed", "4", "--out", str(workload_path),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "query", "--db", str(db_file), "--shards", "3",
                "--type", "range", "--workload", str(workload_path),
            ]
        )
        assert code == 0
        response = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        from repro.queries import QueryEngine
        from repro.workloads import RangeQueryWorkload

        db = load_database(db_file)
        expected = QueryEngine(db).evaluate(
            RangeQueryWorkload.load(workload_path)
        )
        assert [set(ids) for ids in response["results"]] == expected

    def test_knn_and_similarity_types(self, db_file, capsys):
        assert (
            main(
                [
                    "query", "--db", str(db_file), "--type", "knn",
                    "--ids", "0", "--k", "2", "--eps", "50",
                ]
            )
            == 0
        )
        knn_out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "neighbors" in knn_out
        assert (
            main(
                [
                    "query", "--db", str(db_file), "--type", "similarity",
                    "--ids", "0", "--delta", "10.0",
                ]
            )
            == 0
        )
        sim_out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "results" in sim_out

    @pytest.mark.parametrize("index", ["grid"])
    def test_index_backend_round_trip(self, db_file, tmp_path, capsys, index):
        """--index grid answers exactly like a single-database engine."""
        workload_path = tmp_path / "w.json"
        main(
            [
                "workload", "--db", str(db_file), "-n", "6",
                "--seed", "4", "--out", str(workload_path),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "query", "--db", str(db_file), "--shards", "3",
                "--type", "range", "--workload", str(workload_path),
                "--index", index,
            ]
        )
        assert code == 0
        response = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        from repro.queries import QueryEngine
        from repro.workloads import RangeQueryWorkload

        db = load_database(db_file)
        expected = QueryEngine(db).evaluate(RangeQueryWorkload.load(workload_path))
        assert [set(ids) for ids in response["results"]] == expected

    def test_serve_accepts_index_backend(self, db_file, tmp_path, capsys):
        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"op": "knn", "ids": [0], "k": 2, "eps": 50.0})
        )
        code = main(
            [
                "serve", "--db", str(db_file), "--index", "grid",
                "--requests", str(requests), "--stats",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "grid index" in out
        assert "knn_requests" in out

    def test_unknown_index_backend_exits(self, db_file, capsys):
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "query", "--db", str(db_file), "--type", "histogram",
                    "--index", "rtree",
                ]
            )
        assert exc.value.code == 2
        assert "'grid'" in capsys.readouterr().err

    def test_missing_required_params_exit(self, db_file):
        with pytest.raises(SystemExit):
            main(["query", "--db", str(db_file), "--type", "range"])
        with pytest.raises(SystemExit):
            main(["query", "--db", str(db_file), "--type", "similarity",
                  "--ids", "0"])


class TestEvaluate:
    def test_scores_tasks(self, db_file, tmp_path, capsys):
        out = tmp_path / "small.npz"
        main(
            [
                "simplify",
                "--db", str(db_file),
                "--ratio", "0.5",
                "--method", "Top-Down(E,SED)",
                "--out", str(out),
            ]
        )
        capsys.readouterr()
        code = main(
            [
                "evaluate",
                "--original", str(db_file),
                "--simplified", str(out),
                "--n-queries", "10",
                "--tasks", "range", "similarity",
            ]
        )
        assert code == 0
        text = capsys.readouterr().out
        assert "range" in text and "similarity" in text
        assert "F1" in text


class TestQueryErrors:
    def test_bad_id_yields_json_error_and_exit_1(self, db_file, capsys):
        code = main(
            ["query", "--db", str(db_file), "--type", "knn", "--ids", "9999"]
        )
        assert code == 1
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert "error" in out and "9999" in out["error"]
