"""The benchmark's tracer still finds the ring operations it wraps by name.

perfbench/tracer.py times `Poly.__mul__`, `Poly.exact_div` and
`Localized.__init__` by looking them up in their class dicts, so a ring
refactor that moves or renames one of them silently empties the per-layer
metrics.  This runs the tracer the way the benchmark does, with the span
record going to an inherited pipe.
"""
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ENV = {"PYTHONPATH": str(ROOT / "src"), "PATH": "/usr/bin:/bin"}
ARGS = ("verify", "all", "--level", "smoke", "--format", "json")


def test_tracer_records_ring_spans_and_leaves_the_report_alone():
    plain = subprocess.run(
        [sys.executable, "-m", "pqvw", *ARGS], capture_output=True, timeout=120, cwd=ROOT, env=ENV
    )
    assert plain.returncode == 0

    rfd, wfd = os.pipe()
    trace = {}

    def read_trace():
        with os.fdopen(rfd, "rb") as f:
            trace["raw"] = f.read()

    reader = threading.Thread(target=read_trace)
    reader.start()
    try:
        proc = subprocess.Popen(
            [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(wfd), *ARGS],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, cwd=ROOT, env=ENV, pass_fds=(wfd,),
        )
    finally:
        os.close(wfd)
    out, err = proc.communicate(timeout=120)
    reader.join(timeout=120)

    assert proc.returncode == 0, err.decode()
    assert out == plain.stdout
    spans = json.loads(trace["raw"])["spans"]
    for name in ("ring.mul", "ring.exact_div", "ring.normalise"):
        calls, total_s, self_s = spans[name]
        assert calls > 0 and self_s > 0, name
