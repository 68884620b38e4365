"""repro.analysis: per-checker fixture triples, framework, CLI, self-run.

Every checker gets (at least) one snippet that must fire, one that must
not, and one silenced by a ``# repro: allow-<rule>`` pragma; the framework
tests cover pragma parsing, baseline matching under line drift, and the
CLI's output formats and exit-code contract.  The final test runs the
analyzer over the repository itself and is the static mirror of the CI
``static-analysis`` gate: zero unsuppressed findings on ``src`` + ``tests``.
"""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    Baseline,
    all_checkers,
    analyze_source,
    build_project,
    project_from_sources,
    run_checkers,
)
from repro.analysis.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, main

REPO_ROOT = Path(__file__).resolve().parent.parent


def findings_for(source: str, rule: str, path: str = "snippet.py"):
    result = analyze_source(textwrap.dedent(source), path=path, select=[rule])
    return [f for f in result.findings if f.rule == rule], result.suppressed


def project_findings(sources: dict[str, str], rule: str):
    project = project_from_sources(
        {path: textwrap.dedent(src) for path, src in sources.items()}
    )
    result = run_checkers(project, all_checkers([rule]))
    return [f for f in result.findings if f.rule == rule], result.suppressed


# -- unordered-iteration -------------------------------------------------------


def test_unordered_iteration_fires_on_set_loop():
    fired, _ = findings_for(
        """
        def collect(items):
            pending = set(items)
            out = []
            for item in pending:
                out.append(item)
            return out
        """,
        "unordered-iteration",
    )
    assert len(fired) == 1
    assert "sorted" in fired[0].message


def test_unordered_iteration_fires_on_inline_set_and_join():
    fired, _ = findings_for(
        """
        def label(names):
            return ",".join({n.lower() for n in names})
        """,
        "unordered-iteration",
    )
    assert len(fired) == 1


def test_unordered_iteration_quiet_on_sorted_and_membership():
    fired, _ = findings_for(
        """
        def collect(items, probe):
            pending = set(items)
            hits = [probe in pending]
            total = len(pending) + sum(pending)
            for item in sorted(pending):
                hits.append(item)
            return hits, total
        """,
        "unordered-iteration",
    )
    assert fired == []


def test_unordered_iteration_quiet_on_reused_name():
    # a name assigned both a list and a set stays ambiguous: no finding
    # (regression guard for the columnar IN_LIST `options` false positive)
    fired, _ = findings_for(
        """
        def evaluate(children, rows):
            options = [c for c in children]
            chosen = [o for o in options]
            options = set(r[0] for r in rows)
            return chosen, (1 in options)
        """,
        "unordered-iteration",
    )
    assert fired == []


def test_unordered_iteration_dict_views_only_in_key_producers():
    producer = """
    def mapping_key(parts):
        return tuple(k for k in parts.keys())
    """
    plain = """
    def render(parts):
        return [k for k in parts.keys()]
    """
    fired, _ = findings_for(producer, "unordered-iteration")
    assert len(fired) == 1 and "insertion order" in fired[0].message
    fired, _ = findings_for(plain, "unordered-iteration")
    assert fired == []


def test_unordered_iteration_pragma_suppresses():
    fired, suppressed = findings_for(
        """
        def collect(items):
            pending = set(items)
            # order genuinely irrelevant here
            # repro: allow-unordered-iteration -- consumed order-free
            return [item for item in pending]
        """,
        "unordered-iteration",
    )
    assert fired == []
    assert len(suppressed) == 1


# -- unpicklable-worker-state --------------------------------------------------


def test_pickle_safety_fires_on_lambda_attribute():
    fired, _ = project_findings(
        {
            "spec.py": """
            class JobWorkerSpec:
                def __init__(self, payload):
                    self.transform = lambda row: row
            """
        },
        "unpicklable-worker-state",
    )
    assert len(fired) == 1 and "lambda" in fired[0].message


def test_pickle_safety_fires_transitively_through_annotations():
    fired, _ = project_findings(
        {
            "engine.py": """
            import threading

            class Engine:
                def __init__(self):
                    self._guard = threading.Lock()
            """,
            "spec.py": """
            from engine import Engine

            class JobWorkerSpec:
                engine: Engine
            """,
        },
        "unpicklable-worker-state",
    )
    assert len(fired) == 1 and "threading.Lock" in fired[0].message


def test_pickle_safety_quiet_with_getstate_exemption():
    fired, _ = project_findings(
        {
            "spec.py": """
            class JobWorkerSpec:
                def __init__(self):
                    self.callback = lambda: None

                def __getstate__(self):
                    state = self.__dict__.copy()
                    state["callback"] = None
                    return state
            """
        },
        "unpicklable-worker-state",
    )
    assert fired == []


def test_pickle_safety_quiet_on_default_factory_lambda():
    fired, _ = project_findings(
        {
            "spec.py": """
            from dataclasses import dataclass, field

            @dataclass
            class JobWorkerSpec:
                rows: list = field(default_factory=lambda: [])
            """
        },
        "unpicklable-worker-state",
    )
    assert fired == []


def test_pickle_safety_pragma_suppresses():
    fired, suppressed = project_findings(
        {
            "spec.py": """
            class JobWorkerSpec:
                def __init__(self):
                    # repro: allow-unpicklable-worker-state -- serial-only spec
                    self.callback = lambda: None
            """
        },
        "unpicklable-worker-state",
    )
    assert fired == []
    assert len(suppressed) == 1


# -- nondeterministic-key ------------------------------------------------------


def test_nondet_key_fires_in_key_producer():
    fired, _ = findings_for(
        """
        class Tree:
            def fingerprint(self):
                return f"{id(self)}"
        """,
        "nondeterministic-key",
    )
    assert len(fired) == 1 and "id(...)" in fired[0].message


def test_nondet_key_fires_on_key_assignment():
    fired, _ = findings_for(
        """
        import os

        def lookup(cache, stmt):
            cache_key = (stmt.text, os.environ["SEED"])
            return cache.get(cache_key)
        """,
        "nondeterministic-key",
    )
    assert len(fired) == 1 and "os.environ" in fired[0].message


def test_nondet_key_quiet_outside_key_contexts():
    fired, _ = findings_for(
        """
        def debug_label(obj):
            return hex(id(obj))

        def fingerprint(tree):
            return tree.canonical_text()
        """,
        "nondeterministic-key",
    )
    assert fired == []


def test_nondet_key_pragma_suppresses():
    fired, suppressed = findings_for(
        """
        def cover_key(cands):
            # repro: allow-nondeterministic-key -- referents pinned by value
            key = tuple(id(c) for c in cands)
            return key
        """,
        "nondeterministic-key",
    )
    assert fired == []
    assert len(suppressed) == 1


# -- shm-lifecycle -------------------------------------------------------------


def test_shm_lifecycle_fires_on_unowned_creation():
    fired, _ = findings_for(
        """
        from multiprocessing import shared_memory

        def leaky(nbytes):
            seg = shared_memory.SharedMemory(create=True, size=nbytes)
            seg.buf[:4] = b"data"
            return seg.name
        """,
        "shm-lifecycle",
    )
    assert len(fired) == 1
    assert "leaky" in fired[0].message


def test_shm_lifecycle_quiet_on_try_finally_and_except_cleanup():
    fired, _ = findings_for(
        """
        from multiprocessing.shared_memory import SharedMemory

        def scoped(nbytes):
            seg = SharedMemory(create=True, size=nbytes)
            try:
                return bytes(seg.buf)
            finally:
                seg.close()

        def creates_then_populates(nbytes, payload):
            seg = SharedMemory(create=True, size=nbytes)
            try:
                seg.buf[: len(payload)] = payload
            except Exception:
                seg.close()
                seg.unlink()
                raise
            return seg
        """,
        "shm-lifecycle",
    )
    assert fired == []


def test_shm_lifecycle_quiet_on_class_managed_segments():
    fired, _ = findings_for(
        """
        from multiprocessing.shared_memory import SharedMemory

        class Registry:
            def __init__(self):
                self._segments = []

            def register(self, nbytes):
                seg = SharedMemory(create=True, size=nbytes)
                self._segments.append(seg)
                return seg.name

            def close(self):
                for seg in self._segments:
                    seg.close()
                    seg.unlink()
                self._segments.clear()
        """,
        "shm-lifecycle",
    )
    assert fired == []


def test_shm_lifecycle_quiet_on_finalizer_backstop():
    fired, _ = findings_for(
        """
        import weakref
        from multiprocessing.shared_memory import SharedMemory

        class Registry:
            def __init__(self):
                self._segments = []
                weakref.finalize(self, Registry._cleanup, self._segments)

            def register(self, nbytes):
                seg = SharedMemory(create=True, size=nbytes)
                self._segments.append(seg)
                return seg.name

            @staticmethod
            def _cleanup(segments):
                for seg in segments:
                    seg.close()
                    seg.unlink()
        """,
        "shm-lifecycle",
    )
    assert fired == []


def test_shm_lifecycle_quiet_on_ownership_transferring_return():
    fired, _ = findings_for(
        """
        from multiprocessing.shared_memory import SharedMemory

        def attach(name):
            return SharedMemory(name=name)
        """,
        "shm-lifecycle",
    )
    assert fired == []


def test_shm_lifecycle_fires_at_module_level_and_pragma_suppresses():
    fired, _ = findings_for(
        """
        from multiprocessing.shared_memory import SharedMemory

        SCRATCH = SharedMemory(create=True, size=64)
        """,
        "shm-lifecycle",
    )
    assert len(fired) == 1
    assert "module level" in fired[0].message

    fired, suppressed = findings_for(
        """
        from multiprocessing.shared_memory import SharedMemory

        def probe(name):
            # repro: allow-shm-lifecycle -- probe only; cleaned up by owner
            seg = SharedMemory(name=name)
            size = seg.size
            return size
        """,
        "shm-lifecycle",
    )
    assert fired == []
    assert len(suppressed) == 1


# -- no-wallclock-in-key -------------------------------------------------------


def test_wallclock_key_fires_on_one_hop_flow():
    fired, _ = findings_for(
        """
        import time

        def lookup(cache, sql):
            t = time.perf_counter()
            key = (sql, t)
            return cache.get(key)
        """,
        "no-wallclock-in-key",
    )
    assert len(fired) == 1
    assert "'t'" in fired[0].message and "assignment to 'key'" in fired[0].message


def test_wallclock_key_fires_in_key_producer_and_producer_call():
    fired, _ = findings_for(
        """
        from time import perf_counter

        def make_key(sql):
            started = perf_counter()
            return (sql, started)
        """,
        "no-wallclock-in-key",
    )
    assert fired and all("make_key()" in f.message for f in fired)

    fired, _ = findings_for(
        """
        import time

        def request(catalog, sql):
            started_at = time.time()
            return persistence_key(catalog, sql, started_at)
        """,
        "no-wallclock-in-key",
    )
    assert len(fired) == 1
    assert "persistence_key()" in fired[0].message


def test_wallclock_key_quiet_on_timing_for_stats():
    fired, _ = findings_for(
        """
        import time

        def run(stats, sql, cache):
            start = time.perf_counter()
            key = canonical(sql)
            result = cache.get(key)
            stats.seconds += time.perf_counter() - start
            return result

        def fingerprint(tree):
            return tree.canonical_text()
        """,
        "no-wallclock-in-key",
    )
    assert fired == []


def test_wallclock_key_fires_on_span_object_and_pragma_suppresses():
    fired, _ = findings_for(
        """
        from repro.obs import span

        def evaluate(state, cache):
            with span("reward") as sp:
                key = (state.text, sp)
                return cache.get(key)
        """,
        "no-wallclock-in-key",
    )
    assert len(fired) == 1 and "span object" in fired[0].message

    fired, suppressed = findings_for(
        """
        import time

        def bucket(sql):
            now = time.time()
            # repro: allow-no-wallclock-in-key -- TTL bucket wants coarse time
            key = (sql, int(now // 60))
            return key
        """,
        "no-wallclock-in-key",
    )
    assert fired == []
    assert len(suppressed) == 1


# -- unbounded-recv ------------------------------------------------------------


def test_unbounded_recv_fires_on_bare_blocking_receives():
    fired, _ = findings_for(
        """
        def collect(conn, job_queue, process):
            reply = conn.recv()
            item = job_queue.get()
            process.join()
            return reply, item
        """,
        "unbounded-recv",
    )
    assert len(fired) == 3
    assert "recv()" in fired[0].message
    assert any("job_queue.get()" in f.message for f in fired)
    assert any("process.join()" in f.message for f in fired)


def test_unbounded_recv_quiet_under_wait_poll_and_bounded_calls():
    fired, _ = findings_for(
        """
        from multiprocessing import connection

        def supervised(conn, process, timeout):
            ready = connection.wait([conn, process.sentinel], timeout=timeout)
            if conn in ready:
                return conn.recv()
            raise RuntimeError("peer died")

        def drain(conn, process, job_queue):
            if conn.poll(5):
                conn.recv()
            process.join(timeout=10)
            return job_queue.get(timeout=1)

        def lookups(cache, counts):
            # dict/metric .get() calls always pass a key: never flagged
            return cache.get("plan"), counts.get(("site", 1), 0)
        """,
        "unbounded-recv",
    )
    assert fired == []


def test_unbounded_recv_pragma_marks_eof_as_liveness():
    fired, suppressed = findings_for(
        """
        def worker_loop(conn):
            while True:
                message = conn.recv()  # repro: allow-unbounded-recv -- EOFError on owner death is the liveness signal
                if message[0] == "shutdown":
                    return
        """,
        "unbounded-recv",
    )
    assert fired == []
    assert len(suppressed) == 1


# -- framework: pragmas, allow-all, parse errors -------------------------------


def test_allow_all_pragma_suppresses_every_rule():
    fired, suppressed = findings_for(
        """
        def collect(items):
            pending = set(items)
            # repro: allow-all
            return [item for item in pending]
        """,
        "unordered-iteration",
    )
    assert fired == []
    assert len(suppressed) == 1


def test_unknown_rule_is_rejected():
    with pytest.raises(KeyError):
        all_checkers(["no-such-rule"])


def test_parse_error_becomes_exit_2_free_finding(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("def broken(:\n")
    code = main([str(bad), "--no-baseline"])
    out = capsys.readouterr().out
    assert code == EXIT_FINDINGS
    assert "parse-error" in out


# -- baseline ------------------------------------------------------------------

_BASELINE_SNIPPET = """
def collect(items):
    pending = set(items)
    return [item for item in pending]
"""


def test_baseline_absorbs_findings_and_survives_line_drift(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text(_BASELINE_SNIPPET)
    baseline = tmp_path / "baseline.json"

    assert main([str(target), "--baseline", str(baseline)]) == EXIT_FINDINGS
    assert (
        main([str(target), "--baseline", str(baseline), "--write-baseline"])
        == EXIT_CLEAN
    )
    assert main([str(target), "--baseline", str(baseline)]) == EXIT_CLEAN

    # unrelated edits above the finding keep the baseline entry matching
    target.write_text("import os  # new header line\n" + _BASELINE_SNIPPET)
    assert main([str(target), "--baseline", str(baseline)]) == EXIT_CLEAN

    # editing the offending line itself invalidates the entry
    target.write_text(_BASELINE_SNIPPET.replace("for item in", "for thing in")
                      .replace("[item", "[thing"))
    assert main([str(target), "--baseline", str(baseline)]) == EXIT_FINDINGS
    capsys.readouterr()


def test_baseline_prune_drops_stale_entries(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text(_BASELINE_SNIPPET)
    baseline = tmp_path / "baseline.json"
    main([str(target), "--baseline", str(baseline), "--write-baseline"])

    # fix the finding, then prune: the baseline shrinks to zero entries
    target.write_text("def collect(items):\n    return sorted(set(items))\n")
    code = main([str(target), "--baseline", str(baseline), "--prune-baseline"])
    assert code == EXIT_CLEAN
    data = json.loads(baseline.read_text())
    assert data["entries"] == []
    capsys.readouterr()


def test_baseline_matching_is_exact_per_rule():
    project = project_from_sources({"mod.py": _BASELINE_SNIPPET.lstrip()})
    result = run_checkers(project, all_checkers(["unordered-iteration"]))
    baseline = Baseline.from_findings(project, result.findings)
    new, old = baseline.split(project, result.findings)
    assert new == [] and len(old) == len(result.findings)


# -- CLI contract --------------------------------------------------------------


def test_cli_json_format(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text(_BASELINE_SNIPPET)
    code = main([str(target), "--format", "json", "--no-baseline"])
    payload = json.loads(capsys.readouterr().out)
    assert code == EXIT_FINDINGS
    assert payload["counts"]["findings"] == 1
    finding = payload["findings"][0]
    assert finding["rule"] == "unordered-iteration"
    assert finding["path"] == str(target)
    assert finding["line"] > 0


def test_cli_github_format(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text(_BASELINE_SNIPPET)
    code = main([str(target), "--format", "github", "--no-baseline"])
    out = capsys.readouterr().out
    assert code == EXIT_FINDINGS
    assert out.startswith("::error file=")
    assert "repro.analysis unordered-iteration" in out


def test_cli_clean_run_exits_zero(tmp_path, capsys):
    target = tmp_path / "mod.py"
    target.write_text("def tidy(items):\n    return sorted(set(items))\n")
    assert main([str(target), "--no-baseline"]) == EXIT_CLEAN
    capsys.readouterr()


def test_cli_bad_rule_and_missing_paths_exit_2(tmp_path, capsys):
    assert main(["--select", "bogus", str(tmp_path)]) == EXIT_ERROR
    assert main([str(tmp_path / "void")]) == EXIT_ERROR
    capsys.readouterr()


def test_cli_list_rules_names_all_six(capsys):
    assert main(["--list-rules"]) == EXIT_CLEAN
    out = capsys.readouterr().out
    listed = [line.split(":", 1)[0] for line in out.splitlines() if line[:1].strip()]
    assert sorted(listed) == sorted(
        (
            "unordered-iteration",
            "unpicklable-worker-state",
            "nondeterministic-key",
            "shm-lifecycle",
            "no-wallclock-in-key",
            "unbounded-recv",
        )
    )


# -- the self-run gate ---------------------------------------------------------


def test_repo_is_clean_under_all_checkers(capsys):
    """The static mirror of the CI gate: zero unsuppressed findings on the
    repository itself.  New violations either get fixed, a justified
    ``# repro: allow-<rule>`` pragma, or a reviewed baseline entry."""
    code = main(
        [
            str(REPO_ROOT / "src"),
            str(REPO_ROOT / "tests"),
            "--no-baseline",
        ]
    )
    out = capsys.readouterr().out
    assert code == EXIT_CLEAN, f"repro.analysis found new violations:\n{out}"


def test_real_cross_reference_targets_still_resolve():
    """The pickle-safety pass must keep finding its real anchor — if
    ServiceWorkerSpec is renamed, the checker silently checking nothing
    would be worse than failing."""
    project, errors = build_project([str(REPO_ROOT / "src")])
    assert errors == []
    from repro.analysis.checkers.pickle_safety import _ClassIndex

    index = _ClassIndex(project)
    assert "ServiceWorkerSpec" in index.classes
