"""The environment of every child process the tests start.

A child sees only PYTHONPATH (this checkout's sources) and PATH, plus
PYTHONDONTWRITEBYTECODE when the test process itself writes no bytecode, so
a child leaves ``__pycache__`` directories behind exactly when its parent
would.
"""
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def child_env() -> dict[str, str]:
    env = {"PYTHONPATH": str(SRC), "PATH": "/usr/bin:/bin"}
    if sys.dont_write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env
