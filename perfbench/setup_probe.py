"""Times one benchmark set-up in a fresh interpreter: importing qmlgrid,
`datasets.resolve` and `pipeline.stratified_split`. Then takes reference
samples in the same process and prints the raw seconds and their scale
to the reference speed (see speed.py).

    python3 perfbench/setup_probe.py <src dir> <dataset> <split seed>
"""
import sys
import time

started = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from qmlgrid import datasets, pipeline  # noqa: E402

dataset, _ = datasets.resolve(sys.argv[2])
pipeline.stratified_split(dataset, int(sys.argv[3]))
elapsed = time.perf_counter() - started

from speed import SpeedMeter  # noqa: E402

meter = SpeedMeter()
for _ in range(3):
    meter.sample()
print(repr(elapsed), repr(meter.scale(meter.starts[0], meter.starts[-1])))
