"""Shared helpers: converters between package objects and the plain dict /
tuple shapes the oracles work on."""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from fsing import Ideal, MonomialIdeal, Polynomial, PolyRing


def poly_from_dict(ring: PolyRing, terms: dict) -> Polynomial:
    return ring.from_terms(terms)


def poly_to_dict(f: Polynomial) -> dict:
    return dict(f.terms)


def ideal_key(I: Ideal) -> tuple:
    return I.canonical_key()


def monomial_ideal_of(I: Ideal) -> MonomialIdeal:
    """Reads a monomial Ideal back into exponent form; asserts it is one."""
    exps = []
    for g in I.groebner_basis():
        assert len(g.terms) == 1, f"not monomial: {g}"
        exps.append(next(iter(g.terms)))
    return MonomialIdeal(I.ring.nvars, exps)


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20260821)
