import os
import sys

_HERE = os.path.dirname(os.path.abspath(__file__))
_BENCH = os.path.dirname(_HERE)
sys.path[:0] = [_BENCH, os.path.join(os.path.dirname(_BENCH), "src")]
