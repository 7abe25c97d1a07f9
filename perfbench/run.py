"""pqvw benchmark: closed-loop workloads with correctness gates, and a traced
run that gives per-layer numbers.

    python3 perfbench/run.py --workload desk|sweep|arity --seed N --seconds S --trace 0|1

One client runs the workload's pqvw invocations back to back, each in a
fresh process and each waiting for the previous one: that is how the tool is
used, and its caches live only as long as one process.  A pass over the
workload's commands is one iteration; iterations repeat until --seconds have
passed, and always at least once.  The program is run from this checkout's
``src/``; nothing is built.

With --trace 0 it reports the end-to-end metrics of BENCHMARK.json.  With
--trace 1 each iteration runs once untraced and once under perfbench/tracer.py,
in alternating order, and it reports the per-layer metrics of the traced
iterations plus the tracing overhead.  Every report is checked against known
answers, repeats with one seed must give identical report bytes, and a --jobs
command must match its serial twin byte for byte.  A run that fails any check
counts in ``failed``; fail_ratio = failed / attempted.  Each run also feeds
altered reports and wrong known answers through the same gates and sets
"correct" to false if any of them is not caught.

End-to-end values are medians over the run's iterations; wall_s.tail is the
highest percentile with ten iterations beyond it, which falls back to the
median below 20 iterations.  Per-layer values are medians over the traced
iterations; a layer a workload never enters reads 0.

The last line of standard output is the JSON result; lines before it give
each metric by name and unit, and record the commands, seed, core count and
Python version of the run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import selectors
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from workloads import ROOT, SRC, WORKLOADS, Workload, checked_items, pqvw_env

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 11
TIME_LIMIT_S = 165.0  # stop and fail the run rather than overrun the caller's limit


@dataclass
class Run:
    """One finished pqvw process."""

    args: list[str]
    code: int
    out: bytes
    err: bytes
    wall_s: float
    cpu_s: float  # user + system, including the pool workers it waited for
    # peak RSS of the largest process among it and its workers; the kernel
    # starts a child's peak from its parent's RSS at exec, so this process
    # must stay smaller than any pqvw process (it never imports pqvw)
    rss_mb: float
    trace: dict | None = None
    problems: list[str] = field(default_factory=list)


def _drain(fds: list[int], deadline: float) -> tuple[dict[int, bytes], bool]:
    """Read the pipes to end of file; the flag tells whether time ran out."""
    bufs = {fd: bytearray() for fd in fds}
    with selectors.DefaultSelector() as sel:
        for fd in fds:
            sel.register(fd, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.monotonic()
            if left <= 0:
                return {k: bytes(v) for k, v in bufs.items()}, True
            for key, _ in sel.select(left):
                chunk = os.read(key.fd, 1 << 16)
                if chunk:
                    bufs[key.fd] += chunk
                else:
                    sel.unregister(key.fd)
    return {k: bytes(v) for k, v in bufs.items()}, False


def spawn(args: list[str], deadline: float, trace: bool = False) -> Run:
    """Run `pqvw args` in a fresh process and collect its rusage with wait4."""
    pass_fds: tuple[int, ...] = ()
    if trace:
        rfd, wfd = os.pipe()
        cmd = [sys.executable, str(HERE / "tracer.py"), str(wfd), *args]
        pass_fds = (wfd,)
    else:
        cmd = [sys.executable, "-m", "pqvw", *args]
    env = pqvw_env()
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT,
        pass_fds=pass_fds, start_new_session=True,
    )
    fds = [proc.stdout.fileno(), proc.stderr.fileno()]
    if trace:
        os.close(wfd)
        fds.append(rfd)
    try:
        bufs, timed_out = _drain(fds, deadline)
        if timed_out:
            os.killpg(proc.pid, signal.SIGKILL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - t0
    finally:
        proc.stdout.close()
        proc.stderr.close()
        if trace:
            os.close(rfd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    run = Run(
        args=args,
        code=proc.returncode,
        out=bufs[fds[0]],
        err=bufs[fds[1]],
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        rss_mb=usage.ru_maxrss / 1024.0,
    )
    if timed_out:
        run.problems.append("killed at the benchmark's time limit")
    elif trace:
        try:
            run.trace = json.loads(bufs[rfd])
        except ValueError:
            run.problems.append("no trace written")
    return run


def iteration(cmds, checks, deadline: float, trace: bool = False) -> list[Run]:
    runs = []
    for args, check in zip(cmds, checks):
        run = spawn(args, deadline, trace)
        run.problems += check(run.code, run.out)
        runs.append(run)
    return runs


def wall_of(runs: list[Run]) -> float:
    return sum(r.wall_s for r in runs)


def same_bytes(reference: Run, runs: list[Run], what: str) -> None:
    """Determinism gate: every run of one command must print identical bytes."""
    for run in runs:
        if run.out != reference.out:
            run.problems.append(f"report bytes differ from {what}")


def tail(values: list[float]) -> tuple[float, float]:
    """Highest of p99.9/p99/p95/p90/p75 with at least ten samples beyond it.

    With fewer than 20 samples no such percentile exists and the median
    (p50) is reported; the percentile used is returned with the value.
    """
    xs = sorted(values)
    for permille in (999, 990, 950, 900, 750):
        rank = -(-permille * len(xs) // 1000)  # nearest rank, 1-based
        if len(xs) - rank >= 10:
            return xs[rank - 1], permille / 10
    return statistics.median(xs), 50.0


# ---- per-layer metrics from tracer.py output ------------------------------

def merge_traces(runs: list[Run]) -> dict:
    spans: dict[str, list] = {}
    counts: dict[str, int] = {}
    for run in runs:
        if not run.trace:
            continue
        for k, v in run.trace["spans"].items():
            acc = spans.setdefault(k, [0, 0.0, 0.0])
            for i, x in enumerate(v):
                acc[i] += x
        for k, v in run.trace["counts"].items():
            counts[k] = counts.get(k, 0) + v
    return {"spans": spans, "counts": counts}


SPAN_STATS = {"calls": 0, "total_s": 1, "wall_s": 1, "self_s": 2}


def layer_metrics(names: list[str], trace: dict, wall_s: float) -> dict[str, float]:
    """Per-layer values for one traced iteration.

    A name `<span>.calls`, `.total_s`/`.wall_s` or `.self_s` reads that
    span's call count, inclusive time or self time; the rest are counters,
    layer sums and ratios computed here.
    """
    spans, counts = trace["spans"], trace["counts"]

    def self_sum(prefix: str) -> float:
        return sum(v[2] for k, v in spans.items() if k.startswith(prefix))

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    ring_s, oracle_s = self_sum("ring."), self_sum("oracle.")
    tuples, residuals = counts.get("identities.tuples", 0), counts.get("identities.residuals", 0)
    special = {
        "ring.normalise.cancel_ratio": ratio(
            counts.get("ring.normalise.cancelled", 0), counts.get("ring.normalise.e_pos", 0)
        ),
        "ring.self_s": ring_s,
        "oracle.self_s": oracle_s,
        "oracle.words": counts.get("oracle.words", 0),
        "identities.tuples": tuples,
        "identities.residuals": residuals,
        "identities.residual_ratio": ratio(residuals, tuples),
        "identities.sweep.self_s": self_sum("identities.sweep_"),
        "subalgebra.fi_check_span.picks": counts.get("subalgebra.fi_check_span.picks", 0),
        "trace.wall_s": wall_s,
        "trace.ring_oracle_share": ratio(ring_s + oracle_s, wall_s),
    }
    out = {}
    for name in names:
        if name in special:
            out[name] = special[name]
        else:
            span, stat = name.rsplit(".", 1)
            if stat in SPAN_STATS:
                out[name] = spans.get(span, [0, 0.0, 0.0])[SPAN_STATS[stat]]
    return out


# ---- self-check of the gates ----------------------------------------------

def self_check(workload: Workload, seed: int, first: list[Run], checks) -> list[str]:
    """Altered reports and wrong known answers must fail the gates.

    Each alteration, counted as a run, would raise fail_ratio above 0.
    Returns the alterations that passed, which would mean a gate is broken.
    """
    trials: list[tuple[str, list[str]]] = []
    for run, check in zip(first, checks):
        try:
            report = json.loads(run.out)
        except ValueError:
            continue  # this run has already failed for real
        if not report.get("results"):
            continue
        cmd = " ".join(run.args)
        flipped = json.loads(run.out)
        flipped["results"][0]["verdict"] = "fail"
        dropped = dict(report, results=report["results"][:-1] or [{"kind": "none"}])
        for label, altered in (("flipped verdict", flipped), ("dropped result", dropped)):
            out = (json.dumps(altered, indent=2, sort_keys=True) + "\n").encode()
            trials.append((f"{label} in {cmd}", check(run.code, out)))
        twin = replace(run, out=run.out + b" ", problems=[])
        same_bytes(run, [twin], "the first run")
        trials.append((f"changed bytes in {cmd}", twin.problems))
    if workload.wrong_answers is not None:
        for run, wrong in zip(first, workload.wrong_answers(seed)):
            if wrong is not None:
                label = f"wrong known answer for {' '.join(run.args)}"
                trials.append((label, wrong(run.code, run.out)))
    return [label for label, problems in trials if not problems]


# ---- driver ---------------------------------------------------------------

def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args(argv)

    if not (SRC / "pqvw" / "__init__.py").is_file():
        print(f"no pqvw sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    deadline = time.monotonic() + TIME_LIMIT_S
    workload = WORKLOADS[opts.workload]
    cmds = workload.commands(opts.seed)
    checks = workload.checks(opts.seed)
    why = next(w["why"] for w in spec["workloads"] if w["name"] == workload.name)
    record = {
        "workload": workload.name,
        "commands": [["pqvw", *c] for c in cmds],
        "why": why,
        "exercises": workload.exercises,
        "bypasses": workload.bypasses,
        "seed": opts.seed,
        "loop": "closed, one client",
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "trace": opts.trace,
    }

    plain: list[list[Run]] = []
    traced: list[list[Run]] = []
    extra: list[Run] = []
    if not opts.trace:
        for _ in range(SETUP_PROBES):
            probe = spawn(["--version"], deadline)
            if probe.code != 0 or not probe.out.strip():
                probe.problems.append("pqvw --version failed")
            extra.append(probe)

    t_loop = time.monotonic()
    while not plain or (time.monotonic() - t_loop < opts.seconds and time.monotonic() < deadline):
        if opts.trace and len(traced) % 2:  # alternate which of a pair runs first
            traced.append(iteration(cmds, checks, deadline, trace=True))
        plain.append(iteration(cmds, checks, deadline))
        if opts.trace and len(traced) < len(plain):
            traced.append(iteration(cmds, checks, deadline, trace=True))

    for i in range(len(cmds)):
        first = plain[0][i]
        same_bytes(first, [it[i] for it in plain[1:]], "the first run with this seed")
        same_bytes(first, [it[i] for it in traced], "the untraced run")
    if workload.serial_twin is not None and not opts.trace:
        i = workload.serial_twin
        j = cmds[i].index("--jobs")
        twin = spawn(cmds[i][:j] + cmds[i][j + 2:], deadline)
        twin.problems += checks[i](twin.code, twin.out)
        same_bytes(plain[0][i], [twin], "the --jobs run")
        extra.append(twin)
    runs = [r for it in plain + traced for r in it] + extra
    failed = [r for r in runs if r.problems]
    missed = self_check(workload, opts.seed, plain[0], checks)

    walls = [wall_of(it) for it in plain]
    if opts.trace:
        declared = spec["per_layer"]
        names = [m["name"] for m in declared]
        per_iter = [layer_metrics(names, merge_traces(it), wall_of(it)) for it in traced]
        values = {k: statistics.median(m[k] for m in per_iter) for k in per_iter[0]}
        values["trace.overhead_ratio"] = (
            statistics.median(wall_of(it) for it in traced) / statistics.median(walls)
        )
    else:
        tail_s, tail_p = tail(walls)
        values = {
            "wall_s": statistics.median(walls),
            "wall_s.tail": tail_s,
            "cpu_s": statistics.median(sum(r.cpu_s for r in it) for it in plain),
            "setup_s": statistics.median(r.wall_s for r in extra if r.args == ["--version"]),
            "peak_rss_mb": statistics.median(max(r.rss_mb for r in it) for it in plain),
            "tuples_per_s": statistics.median(
                sum(checked_items(r.out) for r in it) / wall_of(it) for it in plain
            ),
        }
        declared = spec["end_to_end"]

    print("record " + json.dumps(record, sort_keys=True))
    print(f"iterations: {len(plain)} untraced" + (f", {len(traced)} traced" if opts.trace else ""))
    metrics = {}
    for m in declared:
        if m["name"] not in values:
            raise KeyError(f"BENCHMARK.json declares {m['name']}, which this run does not measure")
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        note = ""
        if m["name"] == "wall_s.tail":
            note = f"  (p{tail_p:g} of {len(walls)} iterations)"
        print(f"{m['name']} = {values[m['name']]:.6g} {m['unit']}{note}")
    print(f"fail_ratio = {len(failed)}/{len(runs)} = {len(failed) / len(runs):.4g}")
    for r in failed:
        print(f"FAILED pqvw {' '.join(r.args)}: {'; '.join(r.problems)}")
        if r.err.strip():
            print("  stderr: " + r.err.decode(errors="replace").strip().splitlines()[-1])
    print(f"self-check: {len(missed)} altered reports or wrong answers passed the gates")
    for label in missed:
        print(f"SELF-CHECK: gate did not catch {label}")
    print(json.dumps({
        "correct": not failed and not missed,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
