"""Test set-up: one BLAS thread, and the program imported from ``src/``."""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from bench_env import THREAD_VARS  # noqa: E402

for _var in THREAD_VARS:
    os.environ[_var] = "1"
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
