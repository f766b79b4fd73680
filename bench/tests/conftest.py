import sys

from bench import SRC

if SRC not in sys.path:
    sys.path.insert(0, SRC)
