"""The served benchmark patches GKBMS internals by name.

``servedbench/`` wraps methods such as ``JustificationGraph._build``
and ``DecisionHistory.apply_decide`` for its traced run, and builds its
ladder's service with the ``serve`` CLI's own helpers.  A rename in
``src/`` would only surface when somebody runs the traced benchmark;
this test installs every hook against the current sources so the
rename fails here instead.  The hooks monkeypatch classes for good, so
they run in a child interpreter.
"""

import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "servedbench")
SRC = os.path.join(ROOT, "src")


def test_benchmark_hooks_resolve_against_src(tmp_path):
    ready = str(tmp_path / "ready.json")
    code = textwrap.dedent(f"""
        import sys
        sys.path[:0] = [{BENCH!r}, {SRC!r}]
        import launcher
        import spans
        spans.install_server_wrappers(spans.SpanRecorder())
        spans.install_client_wrappers(spans.SpanRecorder())()
        launcher._install_boot_hooks({ready!r})
        from repro.server import __main__ as server_cli
        assert callable(server_cli._add_service_options)
        assert callable(server_cli._build_service)
    """)
    result = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
