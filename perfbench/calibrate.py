"""The benchmark's speed reference: a fixed task timed in its own interpreter.

    python3 perfbench/calibrate.py CPU

`run.py` starts one of these per run, with neither ``src`` on its path nor
numpy imported, and hands its pipes to each pass.  For every line it reads
on stdin it times `calibrate()` once and writes the CPU seconds as one line
on stdout; it ends at end of input.  The pass waits for the answer, so the
two never run at once, and nothing the program does to its own interpreter
(imports, threads, heap, caches of its own) reaches the reference.
"""

import json
import os
import sys
import time
from itertools import accumulate


def calibrate() -> float:
    """CPU seconds of a fixed pure-Python task: bigint running sums, string
    formatting, a dict and JSON text, the same kinds of work the program
    does.  It never changes, so it measures only the machine's speed."""
    start = time.thread_time()
    for block in range(5):  # small blocks, so peak memory stays put
        xs = list(range(block << 60, (block << 60) + 2000))
        for _ in range(8):
            xs = list(accumulate(xs))
        table = {f"k{i}": str(i * 7) for i in range(2000)}
        json.dumps(sorted(table.items()))
    return time.thread_time() - start


def main() -> int:
    os.sched_setaffinity(0, {int(sys.argv[1])})
    for _ in range(3):  # warm the interpreter before the first answer
        calibrate()
    while sys.stdin.readline():
        sys.stdout.write(f"{calibrate()!r}\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
