import os
import random
import resource
import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import pytest

import superhilb
from superhilb.charts import Atlas, second_order
from superhilb.errors import CertificateError
from superhilb.localized import LocalizedPoly
from superhilb.ring import Parity, SuperMonomial, SuperPoly, even, odd

V = SuperPoly.var


def run_optimized(script: str) -> subprocess.CompletedProcess:
    """Run a script under python -O against this checkout's package, so
    an assert-only check would vanish and a real check still raises."""
    src = str(Path(superhilb.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(script)],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=120,
    )


def assert_certificate_fails(what: str, call, *args):
    """Require call(*args) to raise CertificateError for the certificate
    named what.  _certify is a function, not an assert, so this holds in
    this process also when the suite runs under python -O."""
    with pytest.raises(CertificateError) as info:
        call(*args)
    assert str(info.value) == f"certificate failed: {what}"


def run_capped(args, mib: int = 1024, timeout: float = 60):
    """Run `python *args` against this checkout's package with its
    address space capped at mib MiB, so a run that would exhaust memory
    fails with MemoryError (or a timeout) instead of exhausting
    memory."""
    src = str(Path(superhilb.__file__).resolve().parents[1])
    limit = mib * 2 ** 20

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(
        [sys.executable, *args], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=src), timeout=timeout,
        preexec_fn=cap,
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


def frame_transport_identity(atlas: Atlas, target: str, source: str) -> bool:
    """Check coeff * (t2 - t1 composed) == -o1-rule * o2-rule, i.e. the
    source-frame coefficient of the first even rule agrees with
    -odd1*odd2/(second - first) rewritten through the transition, with
    the diagonal denominator cleared."""
    tmap = atlas.transition(target, source)
    t1, t2 = tmap.target.evens
    psi = second_order(tmap).wedge[t1]
    o1, o2 = tmap.target.odds
    s1, s2 = tmap.source.odds
    frame = LocalizedPoly(V(s1) * V(s2))
    lhs = psi * (tmap.rule(t2) - tmap.rule(t1)) * frame
    rhs = -(tmap.rule(o1) * tmap.rule(o2))
    return lhs == rhs


def antisymmetry_holds(atlas: Atlas, i: str, j: str) -> bool:
    """Transporting the (i, j) entry through the reverse transition must
    negate the (j, i) entry."""
    ij = second_order(atlas.transition(i, j))
    ji = second_order(atlas.transition(j, i))
    # frame: tau1*tau2 = det(H) sigma1*sigma2 under the (i,j) odd rules;
    # coefficients transport through the bosonic rules because the
    # quadratic corrections die against the frame
    for psi_ji, jac_row in zip(ji.wedge.values(), ji.jacobian):
        total = psi_ji.substitute(ij.bosonic) * ij.det
        for psi_ij, jac in zip(ij.wedge.values(), jac_row):
            total = total + psi_ij * jac.substitute(ij.bosonic)
        if not total.is_zero():
            return False
    return True
