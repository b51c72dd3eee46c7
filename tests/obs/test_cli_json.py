"""The ``--json`` CLI contract: exactly one JSON object on stdout,
warnings on stderr, across search/explain/verify/metrics."""

import json

import pytest

from repro.cli import main

DOCS = {
    "first": "alpha beta alpha gamma",
    "second": "beta gamma delta",
    "third": "alpha gamma epsilon beta alpha",
    "fourth": "alpha beta beta",
}


@pytest.fixture(scope="module")
def index_dir(tmp_path_factory):
    base = tmp_path_factory.mktemp("cli_json")
    docs = base / "docs"
    docs.mkdir()
    for name, text in DOCS.items():
        (docs / f"{name}.txt").write_text(text)
    idx = base / "idx"
    assert main(["index", str(docs), str(idx)]) == 0
    return str(idx)


def _run_json(capsys, argv):
    """Run a CLI command and parse stdout as exactly one JSON object."""
    assert main(argv) == 0
    captured = capsys.readouterr()
    payload = json.loads(captured.out)  # whole stream must be one object
    assert isinstance(payload, dict)
    return payload, captured.err


def test_search_json_single_object(index_dir, capsys):
    payload, _ = _run_json(
        capsys, ["search", index_dir, "alpha beta", "--json"]
    )
    assert payload["query"] == "alpha beta"
    assert payload["scheme"] == "sumbest"
    assert payload["results"], "query matches the corpus"
    assert payload["results"][0]["rank"] == 1
    assert payload["limit_hit"] is None
    assert payload["degraded"] is False
    # Without --profile there is no trace and no wall time.
    assert payload["trace"] is None
    assert payload["wall_ms"] is None


def test_search_profile_json_has_trace(index_dir, capsys):
    payload, _ = _run_json(
        capsys, ["search", index_dir, "alpha beta", "--json", "--profile"]
    )
    assert payload["trace"] is not None
    assert payload["trace"]["rows_out"] >= len(payload["results"])
    assert payload["wall_ms"] >= 0
    assert payload["metrics"]["rows_charged"] >= 0


def test_search_process_profile_json_keeps_executor_and_trace(
    index_dir, capsys
):
    """Workers return their trace subtree, so --profile keeps a process
    search on worker processes."""
    payload, err = _run_json(capsys, [
        "search", index_dir, "alpha beta", "--json", "--profile",
        "--shards", "2", "--executor", "process",
    ])
    if payload["executor"] != "process":
        pytest.skip(f"process executor unavailable here: {err.strip()}")
    assert payload["shards"] == 2
    assert payload["trace"] is not None
    assert payload["trace"]["op"] == "ParallelMerge"
    assert payload["trace"]["rows_out"] == len(payload["results"])
    assert payload["wall_ms"] >= 0
    serial, _ = _run_json(capsys, ["search", index_dir, "alpha beta", "--json"])
    assert payload["results"] == serial["results"]


def test_search_serial_shards_json_reports_the_shards(index_dir, capsys):
    """In-process shards are sharded execution too: the payload names
    the shard count and the executor, and the answer is the unsharded
    one."""
    payload, err = _run_json(capsys, [
        "search", index_dir, "alpha beta", "--json",
        "--shards", "2", "--executor", "serial",
    ])
    assert payload["executor"] == "serial"
    assert payload["shards"] == 2
    assert payload["shards_pruned"] == 0
    assert err == ""
    unsharded, _ = _run_json(capsys, [
        "search", index_dir, "alpha beta", "--json", "--shards", "1",
    ])
    assert "shards" not in unsharded
    assert payload["results"] == unsharded["results"]


def test_search_thread_executor_is_a_config_error(
    index_dir, capsys, monkeypatch
):
    argv = ["search", index_dir, "alpha beta", "--shards", "2"]
    assert main([*argv, "--executor", "thread"]) == 2
    err = capsys.readouterr().err
    assert "executor: must be one of serial, process" in err
    monkeypatch.setenv("REPRO_EXEC", "thread")
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "REPRO_EXEC: must be one of serial, process" in err


def test_search_audit_json(index_dir, capsys):
    payload, _ = _run_json(
        capsys, ["search", index_dir, "alpha beta", "--json", "--audit"]
    )
    assert payload["audit"] is not None
    assert payload["audit"]["ok"] is True
    assert payload["audit"]["query"] == "alpha beta"
    assert payload["audit"]["checked"] == len(payload["results"])


def test_search_audit_text_mode(index_dir, capsys):
    assert main(["search", index_dir, "alpha beta", "--audit"]) == 0
    out = capsys.readouterr().out
    assert "audit ok" in out


def test_search_audit_skipped_on_degraded(index_dir, capsys):
    payload, err = _run_json(
        capsys,
        ["search", index_dir, "alpha beta", "--json", "--audit",
         "--max-rows", "1", "--on-limit", "partial"],
    )
    assert payload["degraded"] is True
    assert payload["audit"] is None
    assert "audit skipped" in err


def test_search_json_limit_warning_on_stderr(index_dir, capsys):
    payload, err = _run_json(
        capsys,
        ["search", index_dir, "alpha beta", "--json",
         "--max-rows", "1", "--on-limit", "partial"],
    )
    assert payload["degraded"] is True
    assert payload["limit_hit"] == "max_rows"
    assert "limit hit" in err


def test_explain_json(index_dir, capsys):
    payload, _ = _run_json(
        capsys, ["explain", index_dir, "alpha beta", "--json"]
    )
    assert payload["plan"].splitlines()[0]
    assert payload["applied_optimizations"]
    assert payload["rewrite_log"] is None
    assert payload["trace"] is None


def test_explain_json_trace_rules_names_fired_rules(index_dir, capsys):
    payload, _ = _run_json(
        capsys,
        ["explain", index_dir, "alpha beta", "--json",
         "--trace-rules", "--analyze"],
    )
    log = payload["rewrite_log"]
    assert isinstance(log, list)
    fired = {e["rule"] for e in log if e["applied"]}
    assert fired == set(payload["applied_optimizations"])
    for event in log:
        if event["applied"]:
            assert event["cost_before"] is not None
            assert event["cost_after"] is not None
    assert payload["trace"] is not None


def test_verify_json(index_dir, capsys):
    payload, _ = _run_json(capsys, ["verify", index_dir, "--json"])
    assert payload["ok"] is True
    assert payload["format"] == "store"
    assert "index.pk" in payload["files"]


def test_metrics_json_and_prometheus(index_dir, capsys):
    payload, _ = _run_json(capsys, ["metrics"])
    assert isinstance(payload, dict)
    assert main(["metrics", "--format", "prom"]) == 0
    out = capsys.readouterr().out
    # Indexing above fsynced store files through the process registry.
    assert "# TYPE" in out
