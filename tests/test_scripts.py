"""The scripts under scripts/ run end to end and print what they promise.

``output_digest.py`` is left out: it runs every command on every config, and
comparing its manifests between two checkouts is the byte-identity check.
"""

import os
import re
import subprocess
import sys

SCRIPTS = os.path.join(os.path.dirname(__file__), "..", "scripts")


def _run(tmp_path, name, *args) -> list:
    """The stdout lines of one script run in an empty directory, which it leaves empty."""
    done = subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *args], cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert os.listdir(tmp_path) == []
    return done.stdout.splitlines()


def test_dense_probe(tmp_path):
    lines = _run(tmp_path, "dense_probe.py", "--n", "3", "4")
    assert len(lines) == 2
    for line, head in zip(lines, ["n=3 cycles=5 verdict=holds margin=0.16216076236801755",
                                  "n=4 cycles=20 verdict=holds margin=0.28613336226168934"]):
        assert re.fullmatch(re.escape(head) + r" small_gain_check_s=\d+\.\d{3}", line)


def test_sampler_probe(tmp_path):
    lines = _run(tmp_path, "sampler_probe.py", "--n", "500", "--repeat", "1")
    assert len(lines) == 3
    for line, head in zip(lines, ["flow samples=500", "jump samples=500", "tie attempts=500"]):
        assert re.fullmatch(re.escape(head) + r" us_per_(sample|attempt)=\d+\.\d{3}", line)


def test_coupling_sweep(tmp_path):
    assert _run(tmp_path, "coupling_sweep.py", "--couplings", "0.25", "1.5") == [
        " coupling   gain   margin small-gain  subsystem       tail",
        "     0.25   0.50    0.250       True       pass   1.14e-08",
        "     1.50   3.00    9.000      False       pass   2.45e+06"]


def test_e1_pipeline(tmp_path):
    assert _run(tmp_path, "run_e1_pipeline.py") == [
        "small gain: holds=True margin=0.250",
        "[PASS] subsystem-1: 17961/20000 samples checked, min margin 5.000e-08",
        "[PASS] subsystem-2: 17901/20000 samples checked, min margin 5.000e-08",
        "certificate: lambda(1)=0.5000 gamma(1)=0.5000 alpha(1)=0.5000",
        "[PASS] composite-flow: 10000/10000 samples checked, min margin 3.541e-05",
        "[PASS] composite-jump: 10000/10000 samples checked, min margin 5.000e-08",
        "[PASS] norm-threshold-form: 20000/20000 samples checked, min margin 3.541e-05",
        "threshold gain at 1: 0.666667",
        "[PASS] gain-implication-jump: 10000/10000 samples checked, min margin 2.500e-01",
        "recovered lambda(1)=0.7500 gamma(1)=0.6667",
        "trajectory batch: passed=True (60 checks)"]
