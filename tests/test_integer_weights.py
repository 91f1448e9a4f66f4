"""Exact weight decisions in integers, against the Q(sqrt 2) route they replaced.

`presheaf_tables` decides every (stage, mask) truth value, `support` every
atom and `check_state_global_element` every pushforward on integer pairs
over one denominator per stage. The references below make the same
decisions in `QSqrt2` arithmetic over Fractions, as the code did before: on
every bundled ray set with no options, with `--pairs` and with
`--coarsenings`; under hypothesis-drawn `diag:` states; at thresholds equal
to a mask's weight and at irrational thresholds with mixed signs; and on
weights within 1e-9 of each other. A guard keeps Fraction arithmetic out of
these layers.
"""

import argparse
from fractions import Fraction
from functools import lru_cache
from math import isqrt

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qcontexts import cli
from qcontexts.contexts import Context, check_state_global_element
from qcontexts.intervals import support, true_subobject
from qcontexts.linalg import DensityMatrix, Projector, ValidationError
from qcontexts.scalars import QSqrt2, integer_pairs, sign_sqrt2
from qcontexts.valuations import _limit, _truth_tables, presheaf_tables

FIXTURES = ["dim2_two_bases", "ks18", "peres33"]
OPTIONS = ["none", "pairs", "coarsenings"]


def pell(below: bool, q_min: int = 10**10) -> Fraction:
    """A convergent p/q of sqrt 2 with q > q_min, below or above sqrt 2: p^2
    - 2 q^2 is -1 or +1, so p/q - sqrt 2 is nonzero but far below float
    rounding."""
    p, q = 1, 1
    while q <= q_min or (p * p - 2 * q * q < 0) != below:
        p, q = p + 2 * q, p + q
    return Fraction(p, q)


# r - sqrt 2 for these r is of size 1e-21: float(QSqrt2(r, -1)) is 0.0
SQRT2_BELOW, SQRT2_ABOVE = pell(True), pell(False)
THRESHOLDS = [1, Fraction(1, 2), Fraction(3, 10), QSqrt2(1, Fraction(-1, 2)), QSqrt2(-1, 1)]


# ---------------------------------------------------------------------------
# references in Q(sqrt 2)
# ---------------------------------------------------------------------------


def q(x) -> QSqrt2:
    return x if isinstance(x, QSqrt2) else QSqrt2(x)


def mass_reference(weights, mask: int) -> QSqrt2:
    return sum((q(w) for i, w in enumerate(weights) if mask >> i & 1), QSqrt2(0))


def truth_reference(weights: dict, r) -> dict:
    return {cid: [mass_reference(w, m) >= q(r) for m in range(1 << len(w))]
            for cid, w in weights.items()}


def support_reference(weights) -> int:
    return sum(1 << i for i, w in enumerate(weights) if q(w) > 0)


def global_element_reference(weights: dict, poset) -> bool:
    for sub, sup in poset.proper_pairs():
        rmap = poset.restriction[(sub, sup)]
        pushed = [QSqrt2(0)] * len(weights[sub])
        for i, w in enumerate(weights[sup]):
            pushed[rmap[i]] = pushed[rmap[i]] + q(w)
        if any(p != q(w) for p, w in zip(pushed, weights[sub])):
            return False
    return True


def sign_oracle(a: int, b: int) -> int:
    """The sign of a + b sqrt 2 from isqrt: for b != 0, |b| sqrt 2 lies
    strictly between k = isqrt(2 b^2) and k + 1, since sqrt 2 is
    irrational."""
    if b == 0:
        return (a > 0) - (a < 0)
    k = isqrt(2 * b * b)
    if b > 0:
        return 1 if a >= -k else -1
    return 1 if a >= k + 1 else -1


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def poset(name: str, option: str):
    args = argparse.Namespace(rays=name, poset=None, close=True, pairs=option == "pairs",
                              coarsenings=option == "coarsenings")
    return cli._load_poset(args)[0]


def states(dim: int):
    """The maximally mixed state, a pure state with sqrt 2 in its vector,
    and a diagonal state with a zero weight."""
    vec = [[1, 1], 1] + [0] * (dim - 3) + [[0, -1]] if dim > 2 else [[1, 1], 1]
    diag = [Fraction(0)] + [Fraction(1, dim - 1)] * (dim - 1)
    return [DensityMatrix.maximally_mixed(dim, "exact"), DensityMatrix.pure(vec, "exact"),
            DensityMatrix.from_diag(diag, "exact")]


def mask_weights(weights: dict, count: int = 6) -> list:
    """Up to ``count`` distinct mask weights in (0, 1], spread over their
    range: thresholds that some mask meets exactly."""
    values = {}
    for w in weights.values():
        for m in range(1, 1 << len(w)):
            x = mass_reference(w, m)
            if 0 < x <= 1:
                values[x.key()] = x
    ordered = sorted(values.values(), key=float)
    step = max(1, len(ordered) // count)
    return ordered[::step][:count]


def assert_decisions_match(rho, p, thresholds) -> None:
    for r in thresholds:
        tables = presheaf_tables(rho, p, r)
        assert tables.truth == truth_reference(tables.weights, r), r
    weights = tables.weights
    assert all(isinstance(w, QSqrt2) for ws in weights.values() for w in ws)
    assert true_subobject(tables).sets == {
        cid: support_reference(w) for cid, w in weights.items()}
    assert check_state_global_element(weights, p) is global_element_reference(weights, p) is True
    # one weight of a lower stage moved by 1e-9, in its rational or its
    # sqrt 2 part
    for sub, _ in p.proper_pairs()[:1]:
        for bump in (Fraction(1, 10**9), QSqrt2(0, Fraction(-1, 10**9))):
            family = {c: list(ws) for c, ws in weights.items()}
            family[sub][0] = q(family[sub][0]) + bump
            assert (check_state_global_element(family, p)
                    is global_element_reference(family, p) is False)


# ---------------------------------------------------------------------------
# the sign helper
# ---------------------------------------------------------------------------


@given(st.integers(-10**12, 10**12), st.integers(-10**12, 10**12))
@example(0, 0)
@example(0, 5)
@example(0, -5)
@example(7, 0)
@example(-7, 0)
@example(3, -2)  # 9 > 8: positive
@example(-3, 2)  # 9 > 8: negative
@example(1, -1)
@example(-1, 1)
@example(SQRT2_BELOW.numerator, -SQRT2_BELOW.denominator)
@example(SQRT2_ABOVE.numerator, -SQRT2_ABOVE.denominator)
@example(-SQRT2_ABOVE.numerator, SQRT2_ABOVE.denominator)
def test_sign_helper_matches_qsqrt2_sign(a, b):
    assert sign_sqrt2(a, b) == QSqrt2(a, b).sign() == sign_oracle(a, b)


def test_integer_pairs_share_one_denominator():
    values = [QSqrt2(Fraction(1, 6), Fraction(-3, 4)), Fraction(2, 9), 1, QSqrt2(0)]
    d, a, b = integer_pairs(values)
    assert d == 36
    assert [QSqrt2(Fraction(x, d), Fraction(y, d)) for x, y in zip(a, b)] == [q(v) for v in values]
    assert integer_pairs([]) == (1, [], [])


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("option", OPTIONS)
@pytest.mark.parametrize("name", FIXTURES)
def test_bundled_posets_decide_as_qsqrt2(name, option):
    p = poset(name, option)
    for rho in states(p.dim):
        weights = presheaf_tables(rho, p, 1).weights
        assert_decisions_match(rho, p, THRESHOLDS + mask_weights(weights))


diag_weights = st.lists(st.integers(0, 12), min_size=4, max_size=4).filter(any)


@settings(max_examples=30, deadline=None)
@given(diag_weights, st.sampled_from(["ks18-coarsenings", "peres33-pairs"]),
       st.integers(0, 5), st.sampled_from(THRESHOLDS))
def test_diag_states_decide_as_qsqrt2(parts, which, pick, r):
    name, option = which.split("-")
    p = poset(name, option)
    parts = parts[:p.dim] if any(parts[:p.dim]) else [1] + parts[1:p.dim]
    rho = DensityMatrix.from_diag([Fraction(k, sum(parts)) for k in parts], "exact")
    at_a_mask = mask_weights(presheaf_tables(rho, p, 1).weights)
    assert_decisions_match(rho, p, [r, at_a_mask[pick % len(at_a_mask)]])


NEAR_MISSES = [
    (QSqrt2(Fraction(1, 2)), QSqrt2(Fraction(1, 2) - Fraction(1, 10**9))),
    (QSqrt2(Fraction(3, 2)), QSqrt2(Fraction(-1, 2))),
    (QSqrt2(SQRT2_ABOVE, -1), QSqrt2(-SQRT2_BELOW, 1)),  # +1e-21 and +1e-21
    (QSqrt2(SQRT2_BELOW, -1), Fraction(1, 2)),  # -1e-21
    (Fraction(1, 2), 0, QSqrt2(0, Fraction(1, 10**9))),
]


@pytest.mark.parametrize("weights", NEAR_MISSES)
def test_near_miss_weights_decide_as_qsqrt2(weights):
    stage = {"c": weights}
    masses = {mass_reference(weights, m).key(): mass_reference(weights, m)
              for m in range(1, 1 << len(weights))}
    limits = [r for r in list(masses.values()) + THRESHOLDS if 0 < r <= 1]
    limits += [1 - Fraction(1, 10**9), Fraction(1, 2) - Fraction(1, 10**9)]
    for r in limits:
        assert _truth_tables(stage, _limit(r, "exact")) == truth_reference(stage, r), r
    n = len(weights)
    v = Context([Projector.from_ray([int(i == k) for i in range(n)], "exact") for k in range(n)])
    assert support(weights, v).mask == support_reference(weights)


def test_threshold_range_is_decided_exactly():
    p = poset("dim2_two_bases", "none")
    rho = DensityMatrix.maximally_mixed(2, "exact")
    tiny = Fraction(1, 10**20)
    below = [1 - tiny, tiny, QSqrt2(1 - SQRT2_ABOVE, 1), QSqrt2(SQRT2_ABOVE, -1)]
    above = [1 + tiny, -tiny, 0, QSqrt2(1 - SQRT2_BELOW, 1), QSqrt2(SQRT2_BELOW, -1)]
    # each of these is within float rounding of 0 or 1
    assert all(abs(float(q(r)) - round(float(q(r)))) < 1e-15 for r in below + above)
    for r in below:
        presheaf_tables(rho, p, r)
    for r in above:
        with pytest.raises(ValidationError):
            presheaf_tables(rho, p, r)


def test_no_qsqrt2_arithmetic_after_the_weights(monkeypatch):
    cases = [(poset("ks18", "coarsenings"), DensityMatrix.maximally_mixed(4, "exact")),
             (poset("peres33", "pairs"), DensityMatrix.pure([1, 1, 0], "exact")),
             (poset("peres33", "pairs"), states(3)[1])]
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__lt__", "__le__", "__gt__",
                 "__ge__"):
        def refuse(self, other, name=name):
            calls.append(name)
            return NotImplemented
        monkeypatch.setattr(QSqrt2, name, refuse)
    for p, rho in cases:
        for r in (1, Fraction(1, 3), QSqrt2(1, Fraction(-1, 2))):
            tables = presheaf_tables(rho, p, r)
            true_subobject(tables)
            assert check_state_global_element(tables.weights, p)
    assert calls == []
