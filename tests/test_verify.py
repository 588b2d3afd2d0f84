"""The random draws of each `stemsize verify` suite, pinned.

A suite that drew different specs or samples would still print PASS, so
the golden report digests cannot catch it.  For every suite and the seeds
1720..1739 this runs the suite to completion on its own RNG and digests
the RNG states left behind; the digests were computed before the suites
were rewritten as generators.  Suites that draw nothing pin the untouched
state.
"""

import hashlib
import random

import pytest

from stemsize import verify

SEEDS = range(1720, 1740)

RNG_DIGESTS = {
    "series": "09fb46cf2133536545451a4c3c0394ef23b1d8c5304def5c564c18b148a22d8e",
    "algebra": "afcfda016fc8e258b9cccc0c007b7a361322c340ad71140c28eeecf48a7c6e0c",
    "presets": "637b65726abb405510966da1fee4ca4f4df5ddd82b5cbbd1983266f86d163c06",
    "torsion": "a4feebb70112404433ae778cd2140a4fab1450320cf84c5e4abedffca43bb660",
    "ehp": "637b65726abb405510966da1fee4ca4f4df5ddd82b5cbbd1983266f86d163c06",
    "asymptotics": "637b65726abb405510966da1fee4ca4f4df5ddd82b5cbbd1983266f86d163c06",
}


def test_every_suite_is_pinned():
    assert sorted(RNG_DIGESTS) == sorted(verify.SUITES)


@pytest.mark.parametrize("name", sorted(RNG_DIGESTS))
def test_suite_draws(name):
    digest = hashlib.sha256()
    for seed in SEEDS:
        rng = random.Random(seed)
        list(verify.SUITES[name](rng))
        digest.update(repr(rng.getstate()).encode())
    assert digest.hexdigest() == RNG_DIGESTS[name]
