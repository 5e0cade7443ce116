"""Make `pb` and `run` importable when the tests run from the repository
root: python3 -m unittest discover -s perfbench/tests"""

import os
import sys

sys.dont_write_bytecode = True
BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
if BENCH not in sys.path:
    sys.path.insert(0, BENCH)
