#!/usr/bin/env python3
"""One-shot growth summary: constants, bracketing checks, and ratio profiles.

Writes CSV files under the chosen output directory and prints a short digest.
"""

import argparse
import csv
import pathlib

from stemsize.asymptotics import (
    BRACKET_MODELS,
    bracketing_check,
    constants,
    ratio_profile,
)
from stemsize.presets import preset


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--p", type=int, default=2)
    parser.add_argument("--m", type=int, default=6, help="bracketing scale")
    parser.add_argument("--max-point", type=int, default=14,
                        help="ratio profiles sample 2^6 .. 2^max_point")
    parser.add_argument("--out", type=pathlib.Path, default=pathlib.Path("growth_out"))
    args = parser.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    c = constants(args.p)
    print(f"p = {c.p}: K1 = {c.k1:.5f}, K2 = {c.k2:.5f}, K3 = {c.k3:.5f}")

    for model in BRACKET_MODELS:
        report = bracketing_check(args.p, args.m, model)
        status = "ok" if report.ok else "FAILED"
        print(f"bracketing {model} at m = {args.m}: {status}")
        for check in report.checks:
            print(f"  {check.name}: {check.detail}")

    points = tuple(2**k for k in range(6, args.max_point + 1))
    for name, exponent, kwargs in (
        ("s_k", 2, {"k": 0}),
        ("may_e1", 3, {"drop_q0": True}),
    ):
        profile = ratio_profile(preset(name, args.p, **kwargs), exponent, points)
        path = args.out / f"ratio_{name}_p{args.p}_k{exponent}.csv"
        with path.open("w", newline="") as fh:
            csv.writer(fh).writerows(profile.csv_rows())
        last = profile.rows[-1]
        print(f"{name}: ratio({last.n}) = {last.ratio:.5f} -> {path}")


if __name__ == "__main__":
    main()
