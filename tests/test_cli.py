"""Tests for the command-line interface."""

import json
import re

import pytest

from repro.cli import build_parser, main


def test_list_workloads(capsys):
    assert main(["list-workloads"]) == 0
    out = capsys.readouterr().out
    for name in ("explore", "filter", "covid", "sales", "sdss"):
        assert name in out


def test_show_workload(capsys):
    assert main(["show", "--workload", "explore"]) == 0
    out = capsys.readouterr().out
    assert "Q1:" in out and "Cars" in out


def test_show_unknown_workload_errors():
    with pytest.raises(KeyError):
        main(["show", "--workload", "does-not-exist"])


def test_generate_requires_queries():
    with pytest.raises(SystemExit):
        main(["generate"])


def test_generate_from_inline_queries(tmp_path, capsys):
    html = tmp_path / "iface.html"
    json_path = tmp_path / "iface.json"
    code = main(
        [
            "generate",
            "--query",
            "SELECT hp, mpg FROM Cars WHERE hp BETWEEN 50 AND 60",
            "--query",
            "SELECT hp, mpg FROM Cars WHERE hp BETWEEN 60 AND 90",
            "--scale",
            "0.12",
            "--taxonomy",
            "--html",
            str(html),
            "--json",
            str(json_path),
        ]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "Interface with" in out
    assert "explore" in out  # taxonomy report printed
    assert html.exists() and html.read_text().startswith("<!DOCTYPE html>")
    payload = json.loads(json_path.read_text())
    assert payload["views"]


def test_generate_from_queries_file(tmp_path, capsys):
    queries_file = tmp_path / "queries.sql"
    queries_file.write_text(
        "-- comment line\n"
        "SELECT p, count(*) FROM T WHERE a = 1 GROUP BY p\n"
        "SELECT p, count(*) FROM T WHERE a = 2 GROUP BY p\n"
    )
    code = main(
        ["generate", "--queries-file", str(queries_file), "--scale", "0.12"]
    )
    assert code == 0
    assert "Interface with" in capsys.readouterr().out


def test_generate_from_workload(capsys):
    code = main(["generate", "--workload", "explore", "--scale", "0.12"])
    assert code == 0
    out = capsys.readouterr().out
    assert "view 0" in out
    # the search summary surfaces the executor's columnar executions
    assert "columnar: executions=" in out


def test_generate_summary_names_fallback_reason(capsys):
    """A workload with correlated subqueries reports its columnar executions
    and no routing to another engine."""
    code = main(["generate", "--workload", "sales", "--scale", "0.12"])
    assert code == 0
    out = capsys.readouterr().out
    line = next(ln for ln in out.splitlines() if ln.startswith("columnar:"))
    assert re.match(r"columnar: executions=[1-9]", line), line
    assert "plan-gated" not in line and "reason" not in line, line


def test_generate_summary_counts_process_workers_columnar_executions(capsys):
    """A process run's columnar line adds the workers' executions, which
    arrive in the run's metrics under ``workers.*``."""
    code = main(
        ["generate", "--workload", "filter", "--backend", "process", "--scale", "0.12"]
    )
    assert code == 0
    out = capsys.readouterr().out
    line = next(ln for ln in out.splitlines() if ln.startswith("columnar:"))
    assert re.fullmatch(r"columnar: executions=\d+ workers=[1-9]\d*", line), line
    assert "not merged" not in out


def test_parser_structure():
    parser = build_parser()
    args = parser.parse_args(["generate", "--workload", "explore"])
    assert args.command == "generate" and args.workload == "explore"
    args = parser.parse_args(["list-workloads"])
    assert args.command == "list-workloads"
