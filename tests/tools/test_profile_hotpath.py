"""Smoke tests for ``tools/profile_hotpath.py``.

The tool is a cProfile harness over the acceptance-benchmark
workloads; the tests run it end to end at tiny workload sizes and
check the output names the hot path, rather than asserting anything
about timings.
"""

import sys
from pathlib import Path

import pytest

TOOLS = Path(__file__).resolve().parents[2] / "tools"
sys.path.insert(0, str(TOOLS))

import profile_hotpath  # noqa: E402


def test_monitor_target_profiles_observe(tmp_path, capsys):
    out = tmp_path / "monitor.pstats"
    rc = profile_hotpath.main(
        ["--events", "30", "--top", "5", "--out", str(out)]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "monitor replay" in printed
    assert "observe" in printed  # the profiled entry point is visible
    assert out.exists() and out.stat().st_size > 0


def test_ingest_target_profiles_the_row_path(capsys):
    rc = profile_hotpath.main(
        ["--target", "ingest", "--events", "20", "--top", "40"]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "row ingest" in printed
    assert "function calls" in printed  # pstats actually rendered
    # The one path, layer by layer, by name.
    for name in ("ingest_batch", "observe_batch", "absorb_batch"):
        assert f"({name})" in printed, name


def test_enforce_target_names_the_cut_path(capsys):
    rc = profile_hotpath.main(
        ["--target", "enforce", "--events", "60", "--top", "5"]
    )
    assert rc == 0
    printed = capsys.readouterr().out
    assert "budget enforcement" in printed
    # Printed by name even when none makes the top five.
    for name in (
        "summarizable_prefix",
        "removable_prefix",
        "compact_prefix",
        "_summarize_region",
    ):
        assert f"({name})" in printed, name


def test_rejects_unknown_target():
    with pytest.raises(SystemExit):
        profile_hotpath.main(["--target", "nonsense"])
