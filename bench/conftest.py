import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
# the package under test is the checkout's own source tree
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
