"""The random streams of the proptest suites, pinned.

``proptest_golden.json`` holds, for every suite and two (trials, seed,
dims) calls, the report lines under helpers patched to fail, a digest of
the draws each ``random.Random`` stream made and a digest of the operands
of every star product.  The patches:

* ``agree_mod_trunc`` and ``decide_zero`` always answer False;
* ``star`` adds the constant 1 to the Moyal product;
* ``check_robertson`` reports VIOLATED with the true determinants.

A draw moved, added or dropped shows as a changed draw digest, and a value
handed to a different operand as a changed failure line or star digest.
Regenerate the file only for an intended change of a suite's draws or
lines:

    PYTHONPATH=src python tests/test_proptest_streams.py
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import types

import pytest

from dq import proptests
from dq.linalg import Relation
from dq.observables import constant

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "proptest_golden.json")


def _recording_random(log: list):
    """A ``random.Random`` whose every instance appends its draws to a
    fresh list in ``log``."""

    class Recording(random.Random):
        def __init__(self, seed):
            self.draws = []
            log.append(self.draws)
            super().__init__(seed)

        def random(self):
            x = super().random()
            self.draws.append(x)
            return x

        def getrandbits(self, k):
            x = super().getrandbits(k)
            self.draws.append((k, x))
            return x

    return Recording


def _patch(mp: pytest.MonkeyPatch, streams: list, stars: list) -> None:
    real_star, real_robertson = proptests.star, proptests.check_robertson

    def star(f, g):
        stars.append((f.literal(), g.literal()))
        return real_star(f, g) + constant(f.d, 1)

    mp.setattr(proptests, "random", types.SimpleNamespace(Random=_recording_random(streams)))
    mp.setattr(proptests, "agree_mod_trunc", lambda a, b: False)
    mp.setattr(proptests, "decide_zero", lambda x: False)
    mp.setattr(proptests, "star", star)
    mp.setattr(
        proptests,
        "check_robertson",
        lambda form, cls: real_robertson(form, cls)._replace(relation=Relation.VIOLATED),
    )


def _calls(suite: str):
    dims = (3, 2) if suite in proptests.SIZED_SUITES else None
    return ((12, 3, dims), (5, 1, None))


def _digest(items: list) -> str:
    return f"{len(items)} {hashlib.sha256(repr(items).encode()).hexdigest()[:16]}"


def _outputs(suite: str) -> list[dict]:
    out = []
    for trials, seed, dims in _calls(suite):
        streams: list[list] = []
        stars: list[tuple] = []
        with pytest.MonkeyPatch.context() as mp:
            _patch(mp, streams, stars)
            lines = proptests.run_suite(suite, trials, seed, dims).lines()
        draws = [_digest(s) for s in streams]
        out.append({"lines": lines, "draws": draws, "stars": _digest(stars)})
    return out


@pytest.mark.parametrize("suite", proptests.SUITES)
def test_suite_draws_and_lines_match_golden(suite):
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)
    assert _outputs(suite) == golden[suite]


def _record() -> None:
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump({s: _outputs(s) for s in proptests.SUITES}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    sys.exit(_record())
