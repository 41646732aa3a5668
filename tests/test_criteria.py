"""The lift criterion, the nonpositive spectrum, the cover image, and the
verdict analyze assigns."""

import itertools
import random
from fractions import Fraction

import pytest

from resilift.algebra import Polynomial
from resilift.criteria import (
    INCONCLUSIVE,
    ISOLATED,
    LIFTS,
    OBSTRUCTED,
    UNKNOWN,
    CriteriaError,
    RemovablePoleError,
    SpectrumEntry,
    cover_image,
    lift_criterion,
    obstruction_component,
    pullback_singularity_probe,
    spectrum_nonpositive,
)
from resilift.residue import _criterion_from_spectrum, analyze
from resilift.weights import WeightSystem

F = Fraction
XYZ = ("x", "y", "z")


def test_criterion_holds_above_one():
    w = WeightSystem(("1/2", "1/2", "1/4"))
    assert w.kappa == F(5, 4)
    decision = lift_criterion(w)
    assert decision.holds
    assert decision.witness is None
    assert spectrum_nonpositive(w) == ()


def test_criterion_fails_at_one_with_empty_witness():
    w = WeightSystem(("1/3", "1/3", "1/3"))
    decision = lift_criterion(w)
    assert not decision.holds
    assert decision.witness.k == (0, 0, 0)
    assert decision.witness.value == 1


def test_criterion_below_one_reachable():
    w = WeightSystem(("1/2", "1/4"))
    decision = lift_criterion(w)
    assert not decision.holds
    k = decision.witness.k
    assert all(c >= 0 for c in k)
    assert sum((F(c) * a for c, a in zip(k, w.weights)), w.kappa) == 1


def test_criterion_below_one_unreachable():
    w = WeightSystem(("1/3", "1/3", "1/4"))
    decision = lift_criterion(w)
    assert decision.holds
    # 1 - kappa = 1/12 is not a nonnegative combination of 1/3, 1/3, 1/4
    entries = spectrum_nonpositive(w)
    assert entries == tuple(e for e in entries if e.value != 0)
    assert [e.value for e in entries] == [F(-1, 12)]


def test_criterion_read_off_the_spectrum_matches_the_dp():
    """analyze's criterion, read off the last spectrum entry, gives the DP's
    decision and witness on unsorted systems, kappa above, at and below 1."""
    rng = random.Random(23)
    systems = [
        [F(rng.randint(1, 4), rng.randint(2, 30)) for _ in range(rng.randint(1, 5))]
        for _ in range(2000)
    ]
    for triple in ((43, 47, 59), (11, 13, 14), (23, 29, 31)):
        systems.extend(itertools.permutations(F(1, q) for q in triple))
    systems += [[F(1, 3)] * 3, [F(1, 2), F(1, 4), F(1, 4)], [F(1, 2)] * 3]
    seen = set()
    for weights in systems:
        w = WeightSystem(weights)
        decision = lift_criterion(w)
        assert _criterion_from_spectrum(spectrum_nonpositive(w)) == decision, weights
        side = "below" if w.kappa < 1 else "at" if w.kappa == 1 else "above"
        seen.add((side, decision.holds))
    assert seen == {("below", True), ("below", False), ("at", False), ("above", True)}


def test_spectrum_matches_criterion_randomly():
    rng = random.Random(2)
    for _ in range(200):
        count = rng.randint(1, 4)
        w = WeightSystem(
            [F(rng.randint(1, 6), rng.randint(6, 12)) for _ in range(count)]
        )
        decision = lift_criterion(w)
        entries = spectrum_nonpositive(w)
        assert decision.holds == all(e.value != 0 for e in entries)
        for e in entries:
            assert e.value <= 0
            recomputed = w.kappa - 1 + sum(
                (F(c) * a for c, a in zip(e.k, w.weights)), F(0)
            )
            assert recomputed == e.value


def reference_spectrum(w):
    """The Fraction recursion the integer enumeration replaced."""
    kappa = w.kappa
    if kappa > 1:
        return ()
    limit = 1 - kappa
    entries = []
    k = [0] * len(w)

    def enumerate_from(i, total):
        if i == len(w):
            entries.append(SpectrumEntry(kappa + total - 1, tuple(k)))
            return
        a = w.weights[i]
        for c in range(int((limit - total) / a) + 1):
            k[i] = c
            enumerate_from(i + 1, total + c * a)
        k[i] = 0

    enumerate_from(0, F(0))
    entries.sort(key=lambda e: (e.value, e.k))
    return tuple(entries)


def test_spectrum_matches_fraction_reference():
    rng = random.Random(11)
    systems = [
        [F(rng.randint(1, 6), rng.randint(6, 14)) for _ in range(rng.randint(1, 4))]
        for _ in range(300)
    ]
    systems += [
        ("1/3", "1/3", "1/3"),  # kappa = 1
        ("1/2", "1/2", "1/4"),  # kappa > 1
        ("1/6", "1/6", "1/6", "1/6"),  # many k share one value
        ("1/43", "1/47", "1/59"),
        ("1/43", "1/53", "1/59"),
    ]
    kappas = set()
    for weights in systems:
        w = WeightSystem(weights)
        kappas.add((w.kappa > 1) - (w.kappa < 1))
        entries = spectrum_nonpositive(w)
        assert entries == reference_spectrum(w)
        assert all(type(e.value) is Fraction for e in entries)
    assert kappas == {-1, 0, 1}
    ties = spectrum_nonpositive(WeightSystem(("1/6",) * 4))
    assert [e.k for e in ties if e.value == F(-1, 6)] == [
        (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0), (1, 0, 0, 0)
    ]


def test_cover_image_substitutes_root_powers():
    x, y, z = Polynomial.generators(XYZ)
    s = (x + z**2) ** 2 + y**2 - z**4
    w = WeightSystem(("1/2", "1/2", "1/4"))
    image = cover_image(s, w)
    assert image == x**4 + x**2 * z**2 * 2 + y**4
    assert str(image) == "x^4+2*x^2*z^2+y^4"


def test_probe_isolated_and_unknown():
    x, y, z = Polynomial.generators(XYZ)
    w3 = WeightSystem(("1/3", "1/3", "1/4"))
    probe = pullback_singularity_probe(x**3 + y**3 + z**4, w3)
    assert probe.status == ISOLATED
    assert probe.missing == ()
    w6 = WeightSystem(("1/2", "1/2", "1/4"))
    probe6 = pullback_singularity_probe((x + z**2) ** 2 + y**2 - z**4, w6)
    assert probe6.status == UNKNOWN
    assert "z" in probe6.missing
    with pytest.raises(CriteriaError):
        pullback_singularity_probe(x**3 + z**3, w3)


def test_obstruction_component_picks_weight_part():
    variables = ("z0", "z1", "z2")
    z0, z1, z2 = Polynomial.generators(variables)
    s = z0**3 + z1**3 + z2**3
    w = WeightSystem(("1/3", "1/3", "1/3"))
    one = Polynomial.one(variables)
    nonzero, component = obstruction_component(s, one, w)
    assert nonzero
    assert component == one
    # numerator with no weight-(1 - kappa) part
    nonzero, component = obstruction_component(s, z0, w)
    assert not nonzero
    assert component.is_zero
    # mixed numerator: only the weight-0 part matters here
    nonzero, component = obstruction_component(s, one + z0, w)
    assert nonzero
    assert component == one


def test_lift_verdict_kinds():
    x, y, z = Polynomial.generators(XYZ)
    w3 = WeightSystem(("1/3", "1/3", "1/4"))
    assert analyze(x**3 + y**3 + z**4, x, w3).verdict.kind == LIFTS

    variables = ("z0", "z1", "z2")
    z0, z1, z2 = Polynomial.generators(variables)
    s = z0**3 + z1**3 + z2**3
    wf = WeightSystem(("1/3", "1/3", "1/3"))
    one = Polynomial.one(variables)
    assert analyze(s, one, wf).verdict.kind == OBSTRUCTED
    assert analyze(s, z0, wf).verdict.kind == INCONCLUSIVE


def test_lift_verdict_removable_pole():
    variables = ("z0", "z1", "z2")
    z0, z1, z2 = Polynomial.generators(variables)
    s = z0**3 + z1**3 + z2**3
    wf = WeightSystem(("1/3", "1/3", "1/3"))
    with pytest.raises(RemovablePoleError):
        analyze(s, s * z0, wf)
