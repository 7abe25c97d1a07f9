"""Empty: no sweep in the package fans out over a process pool.

Window sweeps enumerate signatures and sampled lists run serially, both in
this process, which costs less than starting workers that refill their
caches and keeps reports independent of `--jobs` by construction.  The
module stays only because perfbench/tracer.py imports every layer by name;
it goes when the tracer stops doing so.
"""
