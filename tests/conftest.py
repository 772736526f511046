"""Suite-wide setup.

Property tests run derandomized, without a per-example deadline and with
a bounded number of examples, so that every run of the suite checks the
same examples in a predictable time.

The CLI tests start `python -m bbi.cli` in subprocesses; they get the
same src directory on their path that pyproject's `pythonpath` gives
the suite, so no PYTHONPATH needs to be set by hand.
"""

import os
from pathlib import Path

from hypothesis import settings

settings.register_profile("bbi", derandomize=True, deadline=None,
                          max_examples=100, database=None)
settings.load_profile("bbi")

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
