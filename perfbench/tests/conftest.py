"""Make the benchmark's ``pb`` package and the program's ``src`` importable.

Run with ``python3 -m pytest perfbench/tests`` from the repository root.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from pb import common  # noqa: E402

common.use_source_tree()
