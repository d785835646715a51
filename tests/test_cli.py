"""Tests for the command-line interface."""

import pytest

from repro import cli


@pytest.fixture(autouse=True)
def small_pipeline(monkeypatch):
    """Point the CLI at a tiny cached pipeline so tests stay fast."""
    from repro.experiments import common

    original = common.get_pipeline

    def tiny(seed=0, scale=None, workload=common.DEFAULT_WORKLOAD):
        return original(seed, 1.0, workload)

    monkeypatch.setattr(common, "get_pipeline", tiny)


def test_derive_prints_rules(capsys):
    assert cli.main(["derive", "--type", "inode:ext4"]) == 0
    out = capsys.readouterr().out
    assert "winning rule" in out
    assert "inode:ext4" in out


def test_check_prints_summary(capsys):
    assert cli.main(["check"]) == 0
    out = capsys.readouterr().out
    assert "transaction_t" in out and "#Ob" in out


def test_docgen_prints_comment_block(capsys):
    assert cli.main(["docgen", "--type", "inode:ext4"]) == 0
    out = capsys.readouterr().out
    assert out.strip().startswith("/*")


def test_violations_summary(capsys):
    assert cli.main(["violations", "--examples", "2"]) == 0
    out = capsys.readouterr().out
    assert "events" in out


def test_stats(capsys):
    assert cli.main(["stats"]) == 0
    assert "lock_ops" in capsys.readouterr().out


def test_trace_text_and_binary(tmp_path, capsys):
    text_path = tmp_path / "trace.txt"
    assert cli.main(["trace", str(text_path)]) == 0
    assert text_path.read_text().startswith("# lockdoc-trace")
    bin_path = tmp_path / "trace.bin"
    assert cli.main(["trace", str(bin_path)]) == 0
    assert bin_path.read_bytes().startswith(b"LDOC1")


def test_experiment_tab2(capsys):
    assert cli.main(["experiment", "tab2"]) == 0
    assert "sec_lock" in capsys.readouterr().out


def test_unknown_experiment_rejected():
    with pytest.raises(SystemExit):
        cli.main(["experiment", "nope"])


def test_no_command_rejected():
    with pytest.raises(SystemExit):
        cli.main([])


@pytest.mark.parametrize("command", [
    ["derive"], ["check"], ["violations"], ["experiment", "tab2"],
    ["races"], ["fuzz", "report", "corpus.json"], ["staticcheck", "report"],
])
def test_derivation_commands_have_no_jobs_option(command):
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--jobs", "2"])
    assert exc.value.code == 2


def test_fuzz_run_rejects_zero_jobs(capsys):
    assert cli.main(["fuzz", "run", "--jobs", "0"]) == 2
    assert capsys.readouterr().err == "error: --jobs 0 must be >= 1\n"


def test_lockorder_command(capsys):
    assert cli.main(["lockorder"]) == 0
    out = capsys.readouterr().out
    assert "lock-order graph" in out
    assert "no multi-lock order cycles observed" in out


def test_lockorder_racer_workload(capsys):
    assert cli.main(["lockorder", "--workload", "racer", "--scale", "1"]) == 0
    out = capsys.readouterr().out
    assert "cycle[3]" in out
    assert "racer_a" in out


def test_races_racer_workload(capsys):
    assert cli.main(["races", "--workload", "racer", "--scale", "1"]) == 0
    out = capsys.readouterr().out
    assert "rule-confirmed race" in out
    assert "race_obj.counter" in out
    assert "unordered pair" in out


def test_races_racer_safe_workload(capsys):
    assert cli.main(["races", "--workload", "racer-safe", "--scale", "1"]) == 0
    out = capsys.readouterr().out
    assert "no unordered conflicting accesses found" in out
    assert "rule-confirmed race" not in out


def test_races_mix_workload(capsys):
    assert cli.main(["races", "--workload", "mix"]) == 0
    assert "race detection:" in capsys.readouterr().out


def test_docpatch_command(capsys):
    assert cli.main(["docpatch", "--type", "inode"]) == 0
    assert "documentation patch" in capsys.readouterr().out


def test_sql_command(tmp_path, capsys):
    out = tmp_path / "db.sqlite"
    assert cli.main(["sql", str(out)]) == 0
    assert out.exists()
    assert "accesses" in capsys.readouterr().out


def test_analyze_round_trip(tmp_path, capsys):
    trace_path = tmp_path / "run.bin"
    assert cli.main(["trace", str(trace_path)]) == 0
    capsys.readouterr()
    assert cli.main(["analyze", str(trace_path), "--type", "inode:ext4"]) == 0
    out = capsys.readouterr().out
    assert "inode:ext4" in out and "winning rule" in out


def test_derive_json_export(tmp_path, capsys):
    out = tmp_path / "rules.json"
    assert cli.main(["derive", "--json", str(out)]) == 0
    from repro.core.rulesio import rules_from_json

    rules = rules_from_json(out.read_text())
    assert any(r.type_key == "inode:ext4" for r in rules)


def test_health_command(tmp_path, capsys):
    trace = tmp_path / "run.bin"
    assert cli.main(["trace", str(trace)]) == 0
    capsys.readouterr()
    assert cli.main(["health", str(trace)]) == 0
    out = capsys.readouterr().out
    assert "trace health" in out
    assert "salvage ratio" in out


def test_corrupt_then_health_round_trip(tmp_path, capsys):
    trace = tmp_path / "run.txt"
    bad = tmp_path / "bad.txt"
    assert cli.main(["trace", str(trace)]) == 0
    capsys.readouterr()
    argv = ["corrupt", str(trace), str(bad), "--ops", "mangle:0.05", "--seed", "1"]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "applied" in out and bad.exists()
    assert bad.read_text() != trace.read_text()
    assert cli.main(["health", str(bad), "--budget", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "parse diagnostics" in out


def test_health_reports_budget_breach_with_exit_one(tmp_path, capsys):
    trace = tmp_path / "run.txt"
    bad = tmp_path / "bad.txt"
    assert cli.main(["trace", str(trace)]) == 0
    assert cli.main(["corrupt", str(trace), str(bad), "--ops", "mangle:0.9"]) == 0
    capsys.readouterr()
    assert cli.main(["health", str(bad), "--budget", "0.25"]) == 1
    assert "EXCEEDED" in capsys.readouterr().out


def test_corrupt_rejects_unknown_operator(tmp_path, capsys):
    trace = tmp_path / "run.txt"
    assert cli.main(["trace", str(trace)]) == 0
    capsys.readouterr()
    out = tmp_path / "bad.txt"
    assert cli.main(["corrupt", str(trace), str(out), "--ops", "nope:1"]) == 2
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("suffix", [".txt", ".bin"])
def test_file_commands_reject_missing_input(tmp_path, capsys, suffix):
    missing = str(tmp_path / f"nope{suffix}")
    out = str(tmp_path / f"out{suffix}")
    for argv in (
        ["analyze", missing],
        ["health", missing],
        ["corrupt", missing, out],
        ["staticcheck", "report", "--rules", missing],
    ):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err
        assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("suffix", [".txt", ".bin"])
def test_file_commands_reject_empty_input(tmp_path, capsys, suffix):
    empty = tmp_path / f"empty{suffix}"
    empty.write_bytes(b"")
    out = str(tmp_path / f"out{suffix}")
    for argv in (
        ["analyze", str(empty)],
        ["health", str(empty)],
        ["corrupt", str(empty), out],
        ["staticcheck", "report", "--rules", str(empty)],
    ):
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1


def test_staticcheck_run(tmp_path, capsys):
    import json

    out = tmp_path / "static.json"
    argv = ["staticcheck", "run", "--findings", "3", "--json", str(out)]
    assert cli.main(argv) == 0
    stdout = capsys.readouterr().out
    assert "Static outliers" in stdout
    assert "precision 1.00 recall 1.00" in stdout
    payload = json.loads(out.read_text())
    assert payload["score"]["fp"] == 0 and payload["score"]["fn"] == 0
    assert payload["planted"]


def test_staticcheck_report_with_rules_file(tmp_path, capsys):
    rules = tmp_path / "rules.json"
    assert cli.main(["derive", "--json", str(rules)]) == 0
    capsys.readouterr()
    assert cli.main(["staticcheck", "report", "--rules", str(rules)]) == 0
    out = capsys.readouterr().out
    assert "Fusion report" in out
    assert "static-only" in out
    assert "Rule agreement" in out


def test_staticcheck_report_rejects_malformed_rules(tmp_path, capsys):
    bad = tmp_path / "rules.json"
    bad.write_text("{\"format\": 99}")
    assert cli.main(["staticcheck", "report", "--rules", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.strip().splitlines()) == 1


def test_contention_command(capsys):
    assert cli.main(["contention", "--limit", "5"]) == 0
    assert "lock-usage statistics" in capsys.readouterr().out


def test_relations_command(capsys):
    assert cli.main(["relations"]) == 0
    assert "EO-rule object relations" in capsys.readouterr().out


class TestRemoteFlag:
    """`--remote` behavior without a live daemon."""

    def test_remote_falls_back_locally_when_daemon_down(
        self, tmp_path, monkeypatch, capsys
    ):
        # Point the client at a socket nobody serves: the command must
        # print a one-line degraded notice and produce the *same*
        # stdout as the local path.
        monkeypatch.setenv("LOCKDOC_SERVE_DIR", str(tmp_path / "nosrv"))
        assert cli.main(["check", "--remote"]) == 0
        remote = capsys.readouterr()
        assert remote.err.startswith("degraded: ")
        assert "computing locally" in remote.err
        assert cli.main(["check"]) == 0
        local = capsys.readouterr()
        assert remote.out == local.out
        assert local.err == ""

    def test_remote_rejects_no_cache(self, capsys):
        assert cli.main(["derive", "--remote", "--no-cache"]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "--no-cache" in err

    def test_serve_status_reports_down(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("LOCKDOC_SERVE_DIR", str(tmp_path / "nosrv"))
        assert cli.main(["serve", "status"]) == 2
        assert "not running" in capsys.readouterr().out

    def test_serve_stop_when_down_is_an_error(
        self, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("LOCKDOC_SERVE_DIR", str(tmp_path / "nosrv"))
        assert cli.main(["serve", "stop", "--timeout", "0.2"]) == 2
        assert "error:" in capsys.readouterr().err
