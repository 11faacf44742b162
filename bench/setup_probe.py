"""Set-up time of a fresh process: import disopt and validate documents.

Usage: python3 bench/setup_probe.py DOC.json [DOC.json ...]

Config documents go through ``parse_config`` (which includes the
validation topology build); a sweep document goes through
``expand_grid``, which parses every grid point before anything runs.
Prints the elapsed seconds, then the median time of the calibration
kernel in this process (see ``calibrate.py``).
"""

import json
import statistics
import sys
import time
from pathlib import Path


def main(paths) -> None:
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    texts = [Path(p).read_text() for p in paths]
    start = time.perf_counter()
    import disopt
    from disopt.harness import expand_grid

    for text in texts:
        doc = json.loads(text)
        if "base" in doc:
            expand_grid(doc)
        else:
            disopt.parse_config(text)
    elapsed = time.perf_counter() - start

    import calibrate

    kernels = []
    for _ in range(5):
        t0 = time.perf_counter()
        calibrate.kernel()
        kernels.append(time.perf_counter() - t0)
    print(repr(elapsed), repr(statistics.median(kernels)))


if __name__ == "__main__":
    main(sys.argv[1:])
