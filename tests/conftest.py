import os
import random
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import superhilb
from superhilb.ring import Parity, SuperMonomial, SuperPoly, even, odd


def run_optimized(script: str) -> subprocess.CompletedProcess:
    """Run a script under python -O against this checkout's package, so
    an assert-only check would vanish and a real check still raises."""
    src = str(Path(superhilb.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(script)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )


def standard_ring():
    """A small mixed ring used across the randomized tests."""
    return {
        "x": even("x", invertible=True),
        "a": even("a"),
        "b": even("b", invertible=True),
        "theta": odd("theta"),
        "alpha": odd("alpha"),
        "beta": odd("beta"),
        "gamma": odd("gamma"),
    }


def random_poly(rng, ring=None, max_terms=4, max_exp=3, allow_laurent=True):
    ring = ring or standard_ring()
    evens = [v for v in ring.values() if v.parity is Parity.EVEN]
    odds = [v for v in ring.values() if v.parity is Parity.ODD]
    terms = {}
    for _ in range(rng.randint(0, max_terms)):
        exps = {}
        for v in evens:
            if rng.random() < 0.5:
                lo = -2 if (allow_laurent and v.invertible) else 0
                e = rng.randint(lo, max_exp)
                if e:
                    exps[v] = e
        for v in odds:
            if rng.random() < 0.35:
                exps[v] = 1
        coeff = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
        if coeff == 0:
            continue
        m = SuperMonomial.make(exps)
        terms[m] = terms.get(m, Fraction(0)) + coeff
    return SuperPoly(terms)


@pytest.fixture
def rng():
    return random.Random(20240817)
