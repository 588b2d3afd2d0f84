#!/usr/bin/env python3
"""Time cumulative rank series at large truncations in both fold regimes.

`hilbert` folds each generator on the multiples of the gcd of the degrees
folded so far, largest degree first, so its cost depends on the degrees:

- generic: the May E1 model (p = 2) at N = 2^18.  Its degrees have gcd 1 and
  form no chain, so nearly every generator folds over all N + 1
  coefficients.  This is the gate case (under five minutes in
  `tests/test_acceptance.py`); N = 2^20 is a stretch measurement, reported
  with --stretch but not gated.
- chain: the may_model algebra (p = 2), whose degrees 2^n form a
  divisibility chain, so a generator of degree d folds on N // d + 1
  coefficients.  Measured at N = 2^18 - 1 (the m = 18 upper bracketing
  check) and at N = 1,490,853 = C(14, 2) (2^14 - 1) (the m = 14 lower check).
"""

import argparse
import time

from stemsize.algebra import hilbert_cumulative
from stemsize.presets import preset


def measure(regime: str, name: str, trunc: int, **kwargs) -> None:
    spec = preset(name, 2, **kwargs)
    start = time.monotonic()
    series = hilbert_cumulative(spec, trunc)
    elapsed = time.monotonic() - start
    top = series[trunc]
    print(
        f"{regime:8} {spec.label}, N = {trunc}: {elapsed:.2f} s, "
        f"top coefficient {top.bit_length()} bits "
        f"(~10^{len(str(top)) - 1})"
    )


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--stretch", action="store_true",
                        help="also measure may_e1 at N = 2^20 (several minutes)")
    args = parser.parse_args()
    measure("generic", "may_e1", 2**18, drop_q0=True)
    if args.stretch:
        measure("generic", "may_e1", 2**20, drop_q0=True)
    measure("chain", "may_model", 2**18 - 1)
    measure("chain", "may_model", 14 * 13 // 2 * (2**14 - 1))


if __name__ == "__main__":
    main()
