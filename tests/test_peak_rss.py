"""scripts/peak_rss.py, the peak-RSS gate: each run's peak is its own command's."""

import re
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "peak_rss.py"

# Writes every byte of 64 MiB, so each page is resident.
WRITES_64_MIB = [sys.executable, "-c", "block = b'x' * (64 << 20)"]


def gate(limit_mib, command):
    return subprocess.run([sys.executable, str(SCRIPT), str(limit_mib), "--", *command],
                          capture_output=True, text=True)


def test_a_peak_at_or_above_the_bound_fails_and_prints_both_numbers():
    run = gate(32, WRITES_64_MIB)
    assert run.returncode != 0
    peak = int(re.fullmatch(r"peak RSS (\d+) MiB, bound 32 MiB: .*\n", run.stdout)[1])
    assert peak >= 64
    assert f"peaked at {peak} MiB, not below 32 MiB" in run.stderr


def test_a_peak_below_the_bound_passes():
    run = gate(512, WRITES_64_MIB)
    assert run.returncode == 0, run.stderr
    assert int(re.match(r"peak RSS (\d+) MiB, bound 512 MiB", run.stdout)[1]) >= 64


def test_a_failing_command_fails_the_gate():
    run = gate(4096, [sys.executable, "-c", "raise SystemExit(3)"])
    assert run.returncode != 0
    assert run.stderr.endswith("exited with status 3\n")
