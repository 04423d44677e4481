"""Tests for the command-line interface."""

import numpy as np
import pytest

from repro.cli import main
from repro.graphs import load_graph, ring_graph, save_graph, with_random_weights


@pytest.fixture()
def graph_file(tmp_path):
    path = str(tmp_path / "graph.json")
    save_graph(ring_graph(24), path)
    return path


@pytest.fixture()
def weighted_file(tmp_path):
    path = str(tmp_path / "weighted.json")
    graph = with_random_weights(ring_graph(16), np.random.default_rng(0))
    save_graph(graph, path)
    return path


class TestGenerate:
    def test_generate_expander(self, tmp_path, capsys):
        out = str(tmp_path / "expander.json")
        assert main(["generate", "expander", "32", "-o", out]) == 0
        graph = load_graph(out)
        assert graph.num_nodes == 32
        assert "wrote" in capsys.readouterr().out

    def test_generate_weighted(self, tmp_path):
        out = str(tmp_path / "weighted.json")
        assert main(
            ["generate", "ring", "16", "-o", out, "--weighted"]
        ) == 0
        from repro.graphs import WeightedGraph

        assert isinstance(load_graph(out), WeightedGraph)

    def test_generate_deterministic(self, tmp_path):
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        main(["generate", "expander", "32", "-o", a, "--seed", "7"])
        main(["generate", "expander", "32", "-o", b, "--seed", "7"])
        assert sorted(load_graph(a).edges()) == sorted(load_graph(b).edges())

    def test_unknown_family_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "nope", "16", "-o", str(tmp_path / "x")])


class TestInfo:
    def test_info_output(self, graph_file, capsys):
        assert main(["info", graph_file]) == 0
        out = capsys.readouterr().out
        assert "tau_mix" in out
        assert "connected         True" in out

    def test_info_weighted(self, weighted_file, capsys):
        assert main(["info", weighted_file]) == 0
        assert "weights" in capsys.readouterr().out


class TestRoute:
    def test_route_permutation(self, tmp_path, capsys):
        out = str(tmp_path / "expander.json")
        main(["generate", "expander", "48", "-o", out])
        assert main(["route", out, "--seed", "1"]) == 0
        text = capsys.readouterr().out
        assert "delivered    True" in text

    def test_route_explicit_packets(self, tmp_path, capsys):
        out = str(tmp_path / "expander.json")
        main(["generate", "expander", "48", "-o", out])
        assert main(["route", out, "--packets", "20"]) == 0
        assert "packets      20" in capsys.readouterr().out


class TestMst:
    def test_mst_weighted(self, tmp_path, capsys):
        out = str(tmp_path / "g.json")
        main(["generate", "expander", "32", "-o", out, "--weighted"])
        assert main(["mst", out]) == 0
        assert "verified     True" in capsys.readouterr().out

    def test_mst_unweighted_gets_weights(self, graph_file, capsys):
        assert main(["mst", graph_file]) == 0
        assert "attaching" in capsys.readouterr().out


class TestParser:
    def test_no_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])


class TestMincutCommand:
    def test_mincut_runs(self, tmp_path, capsys):
        out = str(tmp_path / "ring.json")
        main(["generate", "ring", "12", "-o", out])
        assert main(["mincut", out, "--trees", "3"]) == 0
        text = capsys.readouterr().out
        assert "cut value    2" in text


class TestCliqueCommand:
    def test_clique_runs(self, tmp_path, capsys):
        out = str(tmp_path / "exp.json")
        main(["generate", "expander", "32", "-o", out])
        assert main(["clique", out, "--sample", "0.3"]) == 0
        assert "delivered    True" in capsys.readouterr().out


class TestRuntimeFlags:
    """The runtime surface: --trace and --backend."""

    def _expander(self, tmp_path, n=32):
        out = str(tmp_path / "exp.json")
        main(["generate", "expander", str(n), "-o", out])
        return out

    def test_route_trace_sums_to_cost(self, tmp_path, capsys):
        """Acceptance: summed ledger charges in the JSONL trace equal the
        routing cost printed by the command."""
        from repro.runtime import read_jsonl_trace, sum_ledger_charges

        graph = self._expander(tmp_path, 48)
        trace = str(tmp_path / "trace.jsonl")
        assert main(["route", graph, "--seed", "1", "--trace", trace]) == 0
        text = capsys.readouterr().out
        cost = int(text.split("rounds")[1].split()[0].replace(",", ""))
        events = list(read_jsonl_trace(trace))
        kinds = {event.kind for event in events}
        assert {"run_start", "run_end", "ledger_charge"} <= kinds
        assert sum_ledger_charges(events, prefix="route/instance") == cost

    def test_route_trace_is_line_delimited_json(self, tmp_path, capsys):
        import json

        graph = self._expander(tmp_path)
        trace = str(tmp_path / "trace.jsonl")
        assert main(["route", graph, "--trace", trace]) == 0
        with open(trace) as handle:
            for line in handle:
                record = json.loads(line)
                assert {"seq", "kind", "name", "payload"} <= set(record)

    def test_route_native_backend(self, tmp_path, capsys):
        graph = self._expander(tmp_path, 16)
        assert main(
            ["route", graph, "--backend", "native", "--seed", "1"]
        ) == 0
        assert "delivered    True" in capsys.readouterr().out

    def test_backends_agree_on_route_cost(self, tmp_path, capsys):
        graph = self._expander(tmp_path, 16)
        main(["route", graph, "--seed", "4"])
        oracle_out = capsys.readouterr().out
        main(["route", graph, "--seed", "4", "--backend", "native"])
        native_out = capsys.readouterr().out
        line = [l for l in oracle_out.splitlines() if "rounds" in l]
        assert line and line[0] in native_out

    def test_mst_on_native_backend_exits_2(self, tmp_path, capsys):
        graph = self._expander(tmp_path)
        assert main(["mst", graph, "--backend", "native"]) == 2
        assert "oracle" in capsys.readouterr().err


class TestRecoveryFlags:
    """The self-healing surface: --recovery, and --cache as the restart."""

    def _expander(self, tmp_path, n=32):
        out = str(tmp_path / "exp.json")
        main(["generate", "expander", str(n), "-o", out])
        return out

    def test_cache_rerun_matches(self, tmp_path, capsys):
        """Re-running with the same --cache restarts from the stored
        build and prints the cold run's report."""
        graph = self._expander(tmp_path)
        capsys.readouterr()
        cache = str(tmp_path / "cache")
        outputs = []
        for _ in range(2):
            assert main(
                ["route", graph, "--seed", "2", "--cache", cache]
            ) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert "delivered    True" in outputs[0]
        assert len(list((tmp_path / "cache").iterdir())) == 1

    def test_self_heal_survives_permanent_crash(self, tmp_path, capsys):
        graph = self._expander(tmp_path)
        spec = "crash=6@rounds:1-1000000"
        assert main(
            ["route", graph, "--seed", "2", "--faults", spec,
             "--recovery", "self-heal"]
        ) == 0
        out = capsys.readouterr().out
        assert "delivered    True" in out
        assert "recovery" in out

    def test_timeout_prints_culprits_and_exits_3(self, tmp_path, capsys):
        graph = self._expander(tmp_path)
        assert main(
            ["route", graph, "--seed", "2",
             "--faults", "drop=0.999,attempts=3"]
        ) == 3
        err = capsys.readouterr().err
        assert "delivery failed" in err
        assert "exhausted:" in err


class TestServe:
    def _expander(self, tmp_path):
        path = str(tmp_path / "expander.json")
        main(["generate", "expander", "48", "-o", path, "--seed", "3"])
        return path

    def _requests_file(self, tmp_path, count=3):
        import json

        path = str(tmp_path / "requests.jsonl")
        with open(path, "w") as handle:
            for index in range(count):
                handle.write(
                    json.dumps({"op": "route", "id": f"r{index}"}) + "\n"
                )
        return path

    def test_serve_requests_file(self, tmp_path, capsys):
        import json

        graph = self._expander(tmp_path)
        requests = self._requests_file(tmp_path)
        out = str(tmp_path / "responses.jsonl")
        assert main(
            ["serve", graph, "--requests", requests, "-o", out,
             "--seed", "1"]
        ) == 0
        err = capsys.readouterr().err
        assert "session ready" in err
        assert "served 3 response(s)" in err
        responses = [
            json.loads(line) for line in open(out) if line.strip()
        ]
        assert [r["id"] for r in responses] == ["r0", "r1", "r2"]
        assert all(r["result"]["delivered"] for r in responses)
        # Identical requests from one warm session cost identical rounds.
        assert len({r["rounds"] for r in responses}) == 1

    def test_serve_with_cache_and_update(self, tmp_path, capsys):
        import json

        graph = self._expander(tmp_path)
        cache = str(tmp_path / "cache")
        requests = str(tmp_path / "requests.jsonl")
        with open(requests, "w") as handle:
            handle.write(json.dumps({"op": "route", "id": "a"}) + "\n")
            handle.write(
                json.dumps({"update": {"edges_added": [[0, 25]]}}) + "\n"
            )
            handle.write(json.dumps({"op": "route", "id": "b"}) + "\n")
        out = str(tmp_path / "responses.jsonl")
        assert main(
            ["serve", graph, "--requests", requests, "-o", out,
             "--seed", "1", "--cache", cache]
        ) == 0
        assert "cached=False" in capsys.readouterr().err
        responses = [
            json.loads(line) for line in open(out) if line.strip()
        ]
        assert len(responses) == 3
        assert "update" in responses[1]

        # A second serve run over the same graph+config hits the cache.
        assert main(
            ["serve", graph, "--requests", requests, "-o", out,
             "--seed", "1", "--cache", cache]
        ) == 0
        assert "cached=True" in capsys.readouterr().err

    def test_recover_skip_ignores_blank_lines(self, tmp_path, capsys):
        """--recover resumes by *parsed* records: the journal's record
        mark counts records serve_jsonl consumed, so blank input lines
        must not shift the resume point (re-serving or skipping)."""
        import json

        graph = self._expander(tmp_path)
        journal = str(tmp_path / "journal.jsonl")
        requests = str(tmp_path / "requests.jsonl")
        with open(requests, "w") as handle:
            handle.write("\n")
            for index in range(3):
                handle.write(
                    json.dumps({"op": "route", "id": f"r{index}"})
                    + "\n\n"
                )
        out = str(tmp_path / "responses.jsonl")
        assert main(
            ["serve", graph, "--requests", requests, "-o", out,
             "--seed", "1", "--journal", journal]
        ) == 0
        assert "served 3 response(s)" in capsys.readouterr().err

        with open(requests, "a") as handle:
            handle.write(
                "\n" + json.dumps({"op": "route", "id": "r3"}) + "\n"
            )
        assert main(
            ["serve", graph, "--requests", requests, "-o", out,
             "--seed", "1", "--journal", journal, "--recover"]
        ) == 0
        err = capsys.readouterr().err
        assert "resuming at record 3" in err
        assert "served 1 response(s)" in err
        responses = [
            json.loads(line) for line in open(out) if line.strip()
        ]
        assert [r["id"] for r in responses] == ["r3"]

    def test_recover_after_torn_store_replays_the_update_once(
        self, tmp_path, capsys
    ):
        """Kill after an update, tear every store entry and the
        journal's last mark line, then ``--recover``: the update is
        replayed exactly once and partial + recovered responses equal
        an uninterrupted run on every deterministic field."""
        import json
        import os

        from repro.rng import derive_rng
        from repro.runtime.journal import _scan_lines
        from repro.runtime.chaos import truncate_journal_tail

        graph_path = self._expander(tmp_path)
        graph = load_graph(graph_path)
        n = graph.num_nodes
        neighbours = set(graph.indices[graph.indptr[0]:graph.indptr[1]])
        added = next(w for w in range(1, n) if w not in neighbours)
        rng = derive_rng(3, n)
        records = [
            {
                "op": "route",
                "args": {
                    "sources": list(range(n)),
                    "destinations": [int(x) for x in rng.permutation(n)],
                },
                "id": f"req-{index}",
            }
            for index in range(8)
        ]
        records.insert(4, {"update": {
            "edges_removed": [[0, int(min(neighbours))]],
            "edges_added": [[0, added]],
        }})

        def serve(name, count, *flags):
            requests = str(tmp_path / f"{name}-requests.jsonl")
            with open(requests, "w") as handle:
                for record in records[:count]:
                    handle.write(json.dumps(record) + "\n")
            out = str(tmp_path / f"{name}.jsonl")
            assert main(
                ["serve", graph_path, "--requests", requests, "-o", out,
                 "--seed", "3", *flags]
            ) == 0
            transient = ("wall_s", "service_s", "sojourn_s",
                         "retry_backoff_s")
            responses = [
                {k: v for k, v in json.loads(line).items()
                 if k not in transient}
                for line in open(out) if line.strip()
            ]
            return responses, capsys.readouterr().err

        full, _ = serve(
            "full", len(records), "--cache", str(tmp_path / "store-ref")
        )
        assert full[4]["update"]["edges_removed"] == 1

        store = str(tmp_path / "store")
        journal = str(tmp_path / "journal.jsonl")
        partial, _ = serve(
            "partial", 5, "--cache", store, "--journal", journal
        )
        assert len(partial) == 5

        torn = [name for name in os.listdir(store) if name.endswith(".ckpt")]
        assert torn
        for name in torn:
            path = os.path.join(store, name)
            with open(path, "r+b") as handle:
                handle.truncate(os.path.getsize(path) // 2)
        with open(journal, "rb") as handle:
            last_line = handle.read().splitlines(keepends=True)[-1]
        assert truncate_journal_tail(journal, len(last_line))
        with open(journal, encoding="utf-8") as handle:
            state, __ = _scan_lines(handle.read().split("\n"))
        _, updates, stamps, _, mark = state
        assert (len(updates), stamps, mark) == (1, [5], 5)

        rest, err = serve(
            "rest", len(records), "--cache", store, "--journal", journal,
            "--recover",
        )
        assert "replayed 1 update(s)" in err
        assert [r.get("id") for r in rest] == [
            f"req-{index}" for index in range(4, 8)
        ]
        assert all("error" not in r for r in rest)
        assert partial + rest == full

    def test_serve_batched(self, tmp_path, capsys):
        import json

        graph = self._expander(tmp_path)
        requests = str(tmp_path / "requests.jsonl")
        demands = {
            "sources": list(range(48)),
            "destinations": [(v + 7) % 48 for v in range(48)],
        }
        with open(requests, "w") as handle:
            for index in range(4):
                handle.write(
                    json.dumps(
                        {"op": "route", "args": demands, "id": str(index)}
                    ) + "\n"
                )
        out = str(tmp_path / "responses.jsonl")
        assert main(
            ["serve", graph, "--requests", requests, "-o", out,
             "--seed", "1", "--batch", "4"]
        ) == 0
        responses = [
            json.loads(line) for line in open(out) if line.strip()
        ]
        assert len(responses) == 4
        assert all(r["batch_size"] == 4 for r in responses)
        assert all("rounds_amortized" in r for r in responses)


class TestBench:
    def test_list_names_every_suite(self, capsys):
        assert main(["bench", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("kernels", "tripwire", "serve-soak", "load-curve"):
            assert name in out

    def test_unknown_suite_exits_2(self, capsys):
        assert main(["bench", "warp-speed"]) == 2
        assert "unknown bench suite" in capsys.readouterr().err

    def test_out_with_many_suites_exits_2(self, tmp_path, capsys):
        out = str(tmp_path / "x.json")
        assert main(["bench", "faults", "kernels", "--out", out]) == 2
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value", [("--seed", "1"), ("--out", "x.json")]
    )
    def test_check_rejects_seed_and_out(self, flag, value, tmp_path, capsys):
        """The gate runs at each baseline's own seed and writes nothing,
        so either flag could only be silently wrong."""
        results = str(tmp_path / "results")
        argv = ["bench", "faults", "--check", "--results", results]
        assert main(argv + [flag, value]) == 2
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "x.json").exists()

    def test_quick_run_then_check_round_trips(self, tmp_path, capsys):
        import json

        results = str(tmp_path / "results")
        assert main(
            ["bench", "faults", "--quick", "--results", results]
        ) == 0
        out = capsys.readouterr().out
        assert "faults" in out and "quick tier" in out
        path = f"{results}/faults.quick.json"
        record = json.load(open(path))
        assert record["schema"] == "repro-bench/v1"
        assert record["quick"] is True
        # The freshly written baseline gates clean against itself.
        assert main(
            ["bench", "faults", "--check", "--results", results]
        ) == 0
        assert "faults: OK" in capsys.readouterr().out

    def test_check_without_baseline_fails_naming_the_fix(
        self, tmp_path, capsys
    ):
        results = str(tmp_path / "empty")
        assert main(
            ["bench", "faults", "--check", "--results", results]
        ) == 1
        out = capsys.readouterr().out
        assert "no committed baseline" in out
        assert "repro bench faults --quick" in out
