"""Subprocesses started by the tests import the package from src/, as the
tests do through the pytest ``pythonpath`` setting in pyproject.toml."""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))
