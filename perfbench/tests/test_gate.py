"""The kernel-provenance gate and the refusal paths of the command."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

from perfbench import ROOT
from perfbench.measure import BenchmarkError, check_provenance, kernel_provenance


def test_gate_passes_when_both_kernels_are_compiled():
    check_provenance({"mesh": "accel", "sched": "accel"})


@pytest.mark.parametrize("kernels", [
    {"mesh": "accel", "sched": "fallback"},
    {"mesh": "fallback", "sched": "accel"},
    {"mesh": "accel"},
])
def test_gate_fires_on_a_fallback_kernel(kernels):
    with pytest.raises(BenchmarkError, match="provenance"):
        check_provenance(kernels)


def test_gate_sees_a_kernel_forced_to_fall_back(monkeypatch):
    monkeypatch.setenv("REPRO_NO_ACCEL_SCHED", "1")
    with pytest.raises(BenchmarkError):
        check_provenance(kernel_provenance())


def _run(args, env_extra):
    env = dict(os.environ, **env_extra)
    return subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, timeout=120, env=env, cwd=ROOT, check=False,
    )


def test_command_refuses_without_a_result_when_a_kernel_falls_back():
    proc = _run(["--workload", "families-miss", "--seconds", "1"], {"REPRO_NO_ACCEL": "1"})
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
    assert "provenance" in proc.stderr


def test_command_rejects_an_unknown_workload():
    proc = _run(["--workload", "nope", "--seconds", "1"], {})
    assert proc.returncode != 0 and proc.stdout == ""
