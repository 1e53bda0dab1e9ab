import os

import pytest
from hypothesis import settings

from linfvar import (
    ClosedFormMap,
    DomainBox,
    Hamiltonian,
    Subdomain,
)

ARONSSON_EXPR = "abs(x1)^(4/3) - abs(x2)^(4/3)"

# CI draws the same property-test examples on every run
settings.register_profile("ci", derandomize=True)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def aronsson_map():
    return ClosedFormMap.from_expressions([ARONSSON_EXPR], n=2)


@pytest.fixture
def aronsson_domain():
    box = DomainBox((1.0, 1.0), (2.0, 2.0), (65, 65))
    return box, Subdomain.whole(box)


@pytest.fixture
def dirichlet_2d():
    return Hamiltonian.dirichlet(2, 1)


@pytest.fixture
def dirichlet_1d():
    return Hamiltonian.dirichlet(1, 1)


@pytest.fixture
def interval_sym():
    """(-1, 1) with 129 nodes: h = 1/64, node 64 sits exactly at 0."""
    box = DomainBox((-1.0,), (1.0,), (129,))
    return box, Subdomain.whole(box)


@pytest.fixture
def unit_interval():
    box = DomainBox((0.0,), (1.0,), (65,))
    return box, Subdomain.whole(box)


def random_polynomial_sources(rng, n, terms=4, degree=3, scale=0.5):
    """Source text of a random smooth polynomial in x1..xn."""
    parts = []
    for _ in range(terms):
        coeff = float(rng.uniform(-scale, scale))
        exps = [int(rng.integers(0, degree + 1)) for _ in range(n)]
        factors = [f"x{i+1}^{e}" for i, e in enumerate(exps) if e > 0]
        term = " * ".join([repr(coeff)] + factors) if factors else repr(coeff)
        parts.append(term)
    return " + ".join(parts)
