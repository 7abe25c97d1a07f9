"""Per-layer spans for one pqvw invocation, recorded from outside the program.

Run as ``python3 perfbench/tracer.py FD ARGS...``: it installs timing
wrappers around the public functions of the pqvw layers, runs
``pqvw ARGS...`` in this process exactly as ``python3 -m pqvw`` would, and
writes the recorded spans and counters as JSON to the inherited file
descriptor FD.  Standard output, standard error and the exit code are the
program's own, so the report can be compared byte for byte with an untraced
run.

A span's self time is its duration minus the time spent in wrapped calls
below it.  Every module namespace that holds a wrapped function gets the
wrapper (``identities`` imports ``nested_coeff``, ``subalgebra`` imports
``fi_residual`` and so on), and so do the suite's check table and the
process-pool worker.  Pool workers are forked from the traced process, so
they run the wrappers too; each worker returns its own spans with its
result and the parent adds them in, which makes times of the pool's layers
sums over processes.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time

LAYERS = ("ring", "algebra", "oracle", "identities", "subalgebra", "sweep", "suite", "cli")

# spans renamed to the layer metric they feed
METHODS = {
    ("ring", "Poly", "__mul__"): "ring.mul",
    ("ring", "Poly", "exact_div"): "ring.exact_div",
    ("ring", "Localized", "__init__"): "ring.normalise",
}
RENAMED = {"oracle.extract_structure_constant": "oracle.extract"}

# sweeps that report how many tuples they checked, and the residual
# evaluations that count as sweep work when one of them is running
SWEEPS = ("sweep_skew", "sweep_sh_jacobi", "sweep_deformed_jacobi2", "sweep_q_jacobi2")
RESIDUALS = ("check_skew", "sh_jacobi_residual", "deformed_jacobi2_residual", "q_jacobi2_residual")
WORKER = "_sh_jacobi_worker"
MARK = "perfbench-trace"


class Tracer:
    """Span and counter store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.counts: dict[str, int] = {}
        self._stack = [0.0]  # child time accumulated per open span
        self._in_sweep = 0
        self._pid = os.getpid()

    def count(self, name: str, k: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + k

    def wrap(self, name, fn, after=None, sweep=False):
        """Time fn as span `name`; `after(args, kwargs, result)` adds counters."""
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if sweep:
                self._in_sweep += 1
            stack.append(0.0)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                stack[-1] += dt
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - child
                if sweep:
                    self._in_sweep -= 1
            if after is not None:
                after(args, kwargs, out)
            return out

        return wrapper

    # counters recorded at layer boundaries

    def _normalised(self, args, kwargs, out) -> None:
        e = args[2] if len(args) > 2 else kwargs.get("e", 0)
        if e > 0:
            self.count("ring.normalise.e_pos")
            obj = args[0]
            if obj.num.terms and obj.e < e:
                self.count("ring.normalise.cancelled")

    def _swept(self, args, kwargs, out) -> None:
        self.count("identities.tuples", out.checked)

    def _residual(self, args, kwargs, out) -> None:
        if self._in_sweep:
            self.count("identities.residuals")

    def _picked(self, args, kwargs, out) -> None:
        self.count("subalgebra.fi_check_span.picks", out[2])

    def _words(self, args, kwargs, out) -> None:
        self.count("oracle.words", len(args[0]))

    def _snapshot(self):
        return {k: list(v) for k, v in self.spans.items()}, dict(self.counts)

    def _delta(self, before):
        spans, counts = before
        d_spans = {}
        for k, v in self.spans.items():
            b = spans.get(k, [0, 0.0, 0.0])
            if v[0] != b[0]:
                d_spans[k] = [x - y for x, y in zip(v, b)]
        d_counts = {
            k: v - counts.get(k, 0) for k, v in self.counts.items() if v != counts.get(k, 0)
        }
        return d_spans, d_counts

    def merge(self, delta) -> None:
        d_spans, d_counts = delta
        for k, v in d_spans.items():
            stat = self.spans.setdefault(k, [0, 0.0, 0.0])
            for i, x in enumerate(v):
                stat[i] += x
        for k, v in d_counts.items():
            self.count(k, v)

    def _worker(self, fn):
        # in a forked pool worker, ship this task's spans back with the result
        def worker(args):
            if os.getpid() == self._pid:
                return fn(args)
            before = self._snapshot()
            out = fn(args)
            return (MARK, out, self._delta(before))

        return functools.wraps(fn)(worker)

    def _pool(self, fn):
        def parallel_chunks(*args, **kwargs):
            results = []
            for r in fn(*args, **kwargs):
                if isinstance(r, tuple) and len(r) == 3 and r[0] == MARK:
                    self.merge(r[2])
                    r = r[1]
                results.append(r)
            return results

        return functools.wraps(fn)(parallel_chunks)

    def install(self) -> None:
        """Wrap the layers' public functions in every pqvw namespace."""
        mods = {name: importlib.import_module(f"pqvw.{name}") for name in LAYERS}
        suite, identities = mods["suite"], mods["identities"]
        hooks = {
            "ring.normalise": dict(after=self._normalised),
            "oracle.word_act": dict(after=self._words),
            "subalgebra.fi_check_span": dict(after=self._picked),
        }
        hooks.update({f"identities.{f}": dict(after=self._swept, sweep=True) for f in SWEEPS})
        hooks.update({f"identities.{f}": dict(after=self._residual) for f in RESIDUALS})

        for (mod, cls, meth), name in METHODS.items():
            owner = getattr(mods[mod], cls)
            setattr(owner, meth, self.wrap(name, owner.__dict__[meth], **hooks.get(name, {})))

        groups = {fn: f"suite.{group}" for group, fn in suite.DESK_CHECKS}

        wrapped = {}
        for mod_name, mod in mods.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or not callable(obj) or inspect.isclass(obj):
                    continue
                if getattr(inspect.unwrap(obj), "__module__", None) != mod.__name__:
                    continue
                name = groups.get(obj) or f"{mod_name}.{attr}"
                name = RENAMED.get(name, name)
                fn = obj
                if name == "sweep.parallel_chunks":
                    fn = self._pool(obj)
                wrapped[obj] = self.wrap(name, fn, **hooks.get(name, {}))
        worker = getattr(identities, WORKER)
        wrapped[worker] = self._worker(
            self.wrap("identities.sweep_sh_jacobi.worker", worker, sweep=True)
        )

        namespaces = [sys.modules["pqvw"], *mods.values()]
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                if callable(obj) and not inspect.isclass(obj) and obj in wrapped:
                    setattr(ns, attr, wrapped[obj])
        suite.DESK_CHECKS = tuple((g, wrapped.get(fn, fn)) for g, fn in suite.DESK_CHECKS)


def main(argv: list[str]) -> int:
    fd = int(argv[0])
    tracer = Tracer()
    tracer.install()
    from pqvw import cli

    try:
        cli.main(argv[1:])
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
    sys.stdout.flush()
    with os.fdopen(fd, "w") as out:
        json.dump({"spans": tracer.spans, "counts": tracer.counts}, out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
