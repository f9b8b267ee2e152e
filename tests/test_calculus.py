"""Pro-level seminorms, boundedness verdicts, spectra, lifted calculus."""

import numpy as np
import pytest

from protower.calculus import (
    coherent_selfadjoint_parts,
    is_spectrally_bounded,
    lift_function,
    pro_spectrum,
    seminorm,
    uniform_norm,
)
from protower.core_algebra import (
    ExpI,
    Polynomial,
    PreconditionError,
    RationalSquash,
    distance,
    one_sided_hausdorff,
)
from protower.randomness import random_element, random_selfadjoint, stream
from protower.tower import (
    closed_ideal,
    coherent_from_top,
    diag_sequence_element,
    make_product_tower,
    project,
    scalar_element,
    shift_element,
)


def test_seminorm_values_for_shift():
    t = make_product_tower(lambda k: k, 8)
    e = shift_element(t)
    assert seminorm(e, 1) == 0.0
    for n in range(1, 8):
        assert seminorm(e, n + 1) == pytest.approx(n, abs=1e-10)


def test_seminorm_identity_and_zero():
    t = make_product_tower(lambda k: k, 3)
    assert seminorm(scalar_element(t, 1.0), 2) == pytest.approx(1.0)
    assert seminorm(scalar_element(t, 0.0), 3) == 0.0


def test_uniform_norm_scalar_certificate():
    t = make_product_tower(lambda k: k, 3)
    v = uniform_norm(scalar_element(t, 3.0), horizon=100)
    assert v.is_bounded
    assert v.bound == pytest.approx(3.0)
    assert "scalar" in v.certificate


def test_uniform_norm_shift_is_unbounded():
    t = make_product_tower(lambda k: k, 2)
    e = shift_element(t)
    v = uniform_norm(e, horizon=50, divergence_threshold=10.0)
    assert v.is_unbounded
    # seminorm at level n+1 is n, so the first level past 10 is level 12
    assert v.witness_level == 12
    assert v.witness_value == pytest.approx(11.0, abs=1e-10)


def test_uniform_norm_finite_tower_exhausts():
    t = make_product_tower(lambda k: k, 4, lazy=False)
    rng = stream(31, "exhaust")
    e = coherent_from_top(t, random_element(t.level(4), rng), 4)
    v = uniform_norm(e, horizon=10)
    assert v.is_bounded
    assert v.certificate == "finite tower exhausted"
    assert v.bound == pytest.approx(seminorm(e, 4))


def test_uniform_norm_unknown_without_certificate():
    t = make_product_tower(lambda k: k, 4)
    rng = stream(32, "unknown")
    e = coherent_from_top(t, random_element(t.level(4), rng), 4)
    v = uniform_norm(e, horizon=4)
    assert v.is_unknown
    assert v.lower_bound == pytest.approx(seminorm(e, 4))


def test_pro_spectrum_shift_is_zero():
    t = make_product_tower(lambda k: k, 2)
    e = shift_element(t)
    report = pro_spectrum(e, horizon=60)
    assert len(report.points) == 1
    assert abs(report.points[0]) <= 1e-12
    assert report.radius <= 1e-12


def test_pro_spectrum_identity():
    t = make_product_tower(lambda k: k, 3)
    report = pro_spectrum(scalar_element(t, 1.0), horizon=3)
    assert np.allclose(report.points, [1.0])
    assert report.radius == pytest.approx(1.0)


def test_pro_spectrum_diag_sequence():
    t = make_product_tower(lambda k: 1, 1)
    e = diag_sequence_element(t, lambda k: k / (k + 1))
    report = pro_spectrum(e, horizon=6)
    assert np.allclose(
        sorted(p.real for p in report.points),
        [k / (k + 1) for k in range(1, 7)],
    )
    assert report.radius == pytest.approx(6 / 7)
    # nesting in the horizon
    smaller = pro_spectrum(e, horizon=3)
    assert one_sided_hausdorff(smaller.points, report.points) <= 1e-12


def test_pro_spectrum_horizon_nesting_random():
    t = make_product_tower(lambda k: k, 5, lazy=False)
    rng = stream(42, "horizon-nesting")
    for _ in range(100):
        e = coherent_from_top(t, random_element(t.level(5), rng), 5)
        reports = [pro_spectrum(e, horizon=h) for h in range(1, 6)]
        for lo, hi in zip(reports, reports[1:]):
            assert one_sided_hausdorff(lo.points, hi.points) <= 1e-8
            assert lo.radius <= hi.radius + 1e-12


def test_spectrally_bounded_vs_norm_bounded_for_shift():
    t = make_product_tower(lambda k: k, 2)
    e = shift_element(t)
    spectral = is_spectrally_bounded(e, horizon=100)
    norm = uniform_norm(e, horizon=100, divergence_threshold=50.0)
    assert spectral.is_bounded
    assert spectral.bound == 0.0
    assert "triangular" in spectral.certificate
    assert norm.is_unbounded


def test_spectrally_bounded_zero_and_agreement_for_selfadjoint():
    t = make_product_tower(lambda k: k, 3, lazy=False)
    zero = scalar_element(t, 0.0)
    v = is_spectrally_bounded(zero, horizon=3)
    assert v.is_bounded and v.bound == 0.0

    rng = stream(33, "agreement")
    for _ in range(20):
        e = coherent_from_top(
            t, random_selfadjoint(t.level(3), rng), 3, selfadjoint=True)
        vn = uniform_norm(e, horizon=3)
        vs = is_spectrally_bounded(e, horizon=3)
        assert vn.is_bounded and vs.is_bounded
        assert abs(vn.bound - vs.bound) <= 1e-8


def test_lift_identity_polynomial_is_identity():
    t = make_product_tower(lambda k: k, 4)
    rng = stream(34, "lift-id")
    e = coherent_from_top(t, random_selfadjoint(t.level(4), rng), 4)
    lifted = lift_function(e, Polynomial.identity_map())
    for p in range(1, 5):
        assert distance(project(lifted, p), project(e, p)) <= 1e-12


def test_lift_squash_bound():
    t = make_product_tower(lambda k: k, 4, lazy=False)
    rng = stream(35, "lift-squash")
    e = coherent_from_top(
        t, random_selfadjoint(t.level(4), rng, radius=3.0), 4,
        selfadjoint=True)
    for n in (1, 2, 5):
        lifted = lift_function(e, RationalSquash(n))
        v = uniform_norm(lifted, horizon=4)
        assert v.is_bounded
        assert v.bound <= n / 2 + 1e-12
        observed = max(seminorm(lifted, p) for p in range(1, 5))
        assert observed <= n / 2 + 1e-10


def test_lift_expi_gives_unitaries():
    t = make_product_tower(lambda k: k, 4)
    rng = stream(36, "lift-exp")
    e = coherent_from_top(
        t, random_selfadjoint(t.level(4), rng), 4, selfadjoint=True)
    u = lift_function(e, ExpI(1.0))
    assert u.certificates.unitary
    for p in range(1, 5):
        up = project(u, p)
        assert distance(up * up.adjoint(), up.parent.identity()) <= 1e-12
        assert distance(up.adjoint() * up, up.parent.identity()) <= 1e-12


def test_lift_on_ideal_requires_zero_fixing():
    base = make_product_tower(lambda k: k, 6)
    from protower.tower import Tower

    t = Tower(
        [base.level(p) for p in range(2, 7)],
        [base.map(p) for p in range(2, 6)],
    )
    dec = closed_ideal(t, [frozenset({0})] * 5)
    rng = stream(37, "ideal-lift")
    inner = coherent_from_top(
        t, random_selfadjoint(t.level(5), rng), 5)
    e = dec.inclusion.apply(
        coherent_from_top(
            dec.ideal, random_selfadjoint(dec.ideal.level(5), rng), 5))
    ideal_elem = coherent_from_top(
        dec.ideal, random_selfadjoint(dec.ideal.level(5), rng), 5,
        selfadjoint=True)
    with pytest.raises(PreconditionError):
        lift_function(ideal_elem, ExpI(1.0))
    lifted = lift_function(ideal_elem, RationalSquash(2))
    assert project(lifted, 3).parent == dec.ideal.level(3)


def test_monotone_seminorms_random():
    t = make_product_tower(lambda k: k, 5)
    rng = stream(38, "monotone-semi")
    for _ in range(30):
        e = coherent_from_top(t, random_element(t.level(5), rng), 5)
        values = [seminorm(e, p) for p in range(1, 6)]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-12


def test_normal_agreement_norm_vs_radius():
    t = make_product_tower(lambda k: k, 4, lazy=False)
    rng = stream(39, "normal-agree")
    from protower.randomness import random_normal

    for _ in range(30):
        e = coherent_from_top(t, random_normal(t.level(4), rng), 4)
        v = uniform_norm(e, horizon=4)
        r = pro_spectrum(e, horizon=4).radius
        assert v.is_bounded
        assert abs(v.bound - r) <= 1e-8


def test_sup_inequality_for_polynomials_on_selfadjoint():
    t = make_product_tower(lambda k: k, 4, lazy=False)
    rng = stream(40, "poly-sup")
    for _ in range(30):
        e = coherent_from_top(
            t, random_selfadjoint(t.level(4), rng), 4, selfadjoint=True)
        coeffs = rng.uniform(-1, 1, 4)
        f = Polynomial.in_z(coeffs)
        lifted = lift_function(e, f)
        spec = pro_spectrum(e, horizon=4).points
        sup = max(abs(complex(f(z))) for z in spec)
        v = uniform_norm(lifted, horizon=4)
        assert v.is_bounded
        assert v.bound <= sup + 1e-8


def test_bounded_elements_spanned_by_spectrally_bounded_parts():
    t = make_product_tower(lambda k: k, 4, lazy=False)
    rng = stream(41, "span-parts")
    for _ in range(20):
        e = coherent_from_top(t, random_element(t.level(4), rng), 4)
        assert uniform_norm(e, horizon=4).is_bounded
        for part in coherent_selfadjoint_parts(e):
            verdict = is_spectrally_bounded(part, horizon=4)
            assert verdict.is_bounded


def test_seminorm_topology_strictly_coarser_than_sup_norm():
    # Indicator tails vanish in every fixed seminorm while keeping a
    # sup-norm lower bound of 1: no single norm can give this topology.
    t = make_product_tower(lambda k: 1, 1)
    for m in (4, 7):
        tail = diag_sequence_element(t, lambda k, m=m: 1.0 if k >= m else 0.0)
        for level in range(1, m):
            assert seminorm(tail, level) == 0.0
        v = uniform_norm(tail, horizon=m + 5)
        assert v.is_unknown
        assert v.lower_bound == pytest.approx(1.0)


def test_swept_verdicts_report_the_levels_they_computed():
    # an explicit family with top level 4 on a lazy tower: every sweep
    # stops at level 4, and says so
    t = make_product_tower(lambda k: k, 2)
    e = coherent_from_top(t, random_element(t.level(4), stream(33, "top")), 4)
    assert pro_spectrum(e, 10).horizon == 4
    assert uniform_norm(e, 10).horizon == 4
    assert uniform_norm(e, 10).is_unknown
    assert is_spectrally_bounded(e, 10).horizon == 4
    assert uniform_norm(e, 10, divergence_threshold=0.0).horizon == 4
    # an exhausted finite tower reports its own top
    finite = make_product_tower(lambda k: k, 4, lazy=False)
    x = coherent_from_top(finite, random_element(finite.level(4), stream(34, "f")), 4)
    v = uniform_norm(x, 10)
    assert v.is_bounded and v.certificate == "finite tower exhausted"
    assert v.horizon == 4
    # a certificate computes no level and keeps the requested horizon
    assert uniform_norm(scalar_element(t, 2.0), 10).horizon == 10


def test_exp_and_lift_stop_at_the_argument_top_level():
    from protower.unitary import exp_selfadjoint

    t = make_product_tower(lambda k: k, 2)
    h = coherent_from_top(
        t, random_selfadjoint(t.level(4), stream(35, "exp-top")), 4,
        selfadjoint=True)
    plain = h.with_certificates(selfadjoint=False)
    for e in (exp_selfadjoint(h), lift_function(h, ExpI(1.0)),
              lift_function(plain, ExpI(1.0))):
        assert e.max_level(10) == 4
        assert pro_spectrum(e, 10).horizon == 4
        swept = uniform_norm(e.with_certificates(unitary=False, norm_bound=None), 10)
        assert swept.is_unknown and swept.horizon == 4
        assert swept.lower_bound == pytest.approx(1.0, abs=1e-12)
