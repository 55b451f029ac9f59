"""Friction cone descriptors checked against direct inequality evaluation.

The margin computed from a ConeDescriptor must agree in sign and value with
the defining inequality written out longhand, for both cone models and over
a large randomized wrench sample.  Structural properties (concavity of the
margin, positive homogeneity, monotonicity in the friction coefficient) are
checked with hypothesis.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contact_topp.contacts import (
    ConeDescriptor,
    ContactSpec,
    FrictionParams,
    cone_margin,
    emit_cone,
)
from contact_topp.liegroup import Pose


def pcwf_margin_direct(wrench, mu, ex, ey):
    fx, fy, fz = wrench[0], wrench[1], wrench[2]
    return fz - np.sqrt((fx / (mu * ex)) ** 2 + (fy / (mu * ey)) ** 2)


def sfce_margin_direct(wrench, mu, ex, ey, ez):
    fx, fy, fz, tz = wrench[0], wrench[1], wrench[2], wrench[5]
    return fz - np.sqrt(
        (fx / (mu * ex)) ** 2 + (fy / (mu * ey)) ** 2 + (tz / (mu * ez)) ** 2
    )


class TestEmitCone:
    def test_pcwf_structure(self):
        desc = emit_cone("pcwf", FrictionParams(mu=0.5, ex=2.0, ey=0.5))
        assert desc.model == "pcwf"
        assert desc.head_index == 2
        assert desc.pinned == (3, 4, 5)
        tail = dict(desc.tail)
        assert tail[0] == pytest.approx(1.0 / (0.5 * 2.0))
        assert tail[1] == pytest.approx(1.0 / (0.5 * 0.5))
        assert len(desc.tail) == 2

    def test_sfce_structure(self):
        desc = emit_cone("sfce", FrictionParams(mu=0.4, ez=0.25))
        assert desc.pinned == (3, 4)
        tail = dict(desc.tail)
        assert 5 in tail and tail[5] == pytest.approx(1.0 / (0.4 * 0.25))
        assert len(desc.tail) == 3

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            emit_cone("coulomb", FrictionParams(mu=0.5))

    def test_bad_params_rejected(self):
        with pytest.raises(ValueError):
            FrictionParams(mu=-0.1)
        with pytest.raises(ValueError):
            FrictionParams(mu=0.5, ez=0.0)


class TestMarginOracle:
    def test_pcwf_randomized(self):
        rng = np.random.default_rng(7)
        mu, ex, ey = 0.7, 1.3, 0.8
        desc = emit_cone("pcwf", FrictionParams(mu=mu, ex=ex, ey=ey))
        for _ in range(200):
            w = np.zeros(6)
            w[:3] = rng.normal(scale=5.0, size=3)
            got = cone_margin(desc, w)
            want = pcwf_margin_direct(w, mu, ex, ey)
            assert got == pytest.approx(want, abs=1e-12)

    def test_sfce_randomized(self):
        rng = np.random.default_rng(11)
        mu, ex, ey, ez = 0.45, 1.0, 1.0, 0.3
        desc = emit_cone("sfce", FrictionParams(mu=mu, ex=ex, ey=ey, ez=ez))
        for _ in range(200):
            w = np.zeros(6)
            w[:3] = rng.normal(scale=5.0, size=3)
            w[5] = rng.normal(scale=2.0)
            got = cone_margin(desc, w)
            want = sfce_margin_direct(w, mu, ex, ey, ez)
            assert got == pytest.approx(want, abs=1e-12)

    def test_vectorized_sign_agreement(self):
        # bulk check: membership decided by the margin sign matches the
        # longhand inequality on 1e5 random wrenches
        rng = np.random.default_rng(23)
        mu, ex, ey = 0.6, 1.0, 1.0
        desc = emit_cone("pcwf", FrictionParams(mu=mu, ex=ex, ey=ey))
        F = np.zeros((100_000, 6))
        F[:, :3] = rng.normal(scale=4.0, size=(100_000, 3))
        margins = np.array([cone_margin(desc, f) for f in F[:500]])
        direct = np.array([pcwf_margin_direct(f, mu, ex, ey) for f in F[:500]])
        assert np.allclose(margins, direct, atol=1e-12)
        # the remaining bulk, via the direct formula against a vectorized
        # reconstruction from the descriptor coefficients
        tail = dict(desc.tail)
        recon = F[:, desc.head_index] - np.sqrt(
            (F[:, 0] * tail[0]) ** 2 + (F[:, 1] * tail[1]) ** 2
        )
        direct_all = pcwf_margin_direct(F.T, mu, ex, ey)
        assert np.allclose(recon, direct_all, atol=1e-12)


def ref_cone_margin(descriptor, wrench):
    """`cone_margin` of one wrench, written one Python float at a time."""
    F = [float(v) for v in wrench]
    acc = 0.0
    for idx, weight in descriptor.tail:
        acc += (weight * F[idx]) ** 2
    return F[descriptor.head_index] - math.sqrt(acc)


class TestBatchedMargin:
    """A (..., 6) batch gives, bit for bit, the margins of a loop over its wrenches."""

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["pcwf", "sfce"]))
    def test_matches_point_loop(self, seed, model):
        rng = np.random.default_rng(seed)
        desc = emit_cone(model, FrictionParams(*rng.uniform(0.05, 3.0, size=4)))
        W = rng.standard_normal((4, 50, 6)) * 10.0 ** rng.uniform(-3, 4, size=(4, 50, 1))
        got = cone_margin(desc, W)
        want = np.array([[ref_cone_margin(desc, w) for w in row] for row in W])
        assert got.shape == (4, 50)
        assert got.tobytes() == want.tobytes()
        one = cone_margin(desc, W[0, 0])
        assert type(one) is float and one == want[0, 0]


@st.composite
def tangential_wrenches(draw):
    w = np.zeros(6)
    w[0] = draw(st.floats(-10, 10, allow_nan=False))
    w[1] = draw(st.floats(-10, 10, allow_nan=False))
    w[2] = draw(st.floats(-10, 10, allow_nan=False))
    w[5] = draw(st.floats(-5, 5, allow_nan=False))
    return w


class TestMarginProperties:
    @settings(max_examples=200, deadline=None)
    @given(tangential_wrenches(), tangential_wrenches(), st.floats(0, 1))
    def test_concavity(self, w1, w2, lam):
        desc = emit_cone("sfce", FrictionParams(mu=0.5, ez=0.4))
        blend = lam * w1 + (1 - lam) * w2
        m = cone_margin(desc, blend)
        assert m >= lam * cone_margin(desc, w1) + (1 - lam) * cone_margin(desc, w2) - 1e-9

    @settings(max_examples=200, deadline=None)
    @given(tangential_wrenches(), st.floats(0, 50))
    def test_positive_homogeneity(self, w, alpha):
        desc = emit_cone("sfce", FrictionParams(mu=0.5, ez=0.4))
        scale = max(1.0, abs(alpha), float(np.max(np.abs(w))))
        assert cone_margin(desc, alpha * w) == pytest.approx(
            alpha * cone_margin(desc, w), abs=1e-9 * scale * scale
        )

    @settings(max_examples=100, deadline=None)
    @given(tangential_wrenches(), st.floats(0.1, 1.0), st.floats(0.0, 1.0))
    def test_monotone_in_friction(self, w, mu, bump):
        lo = cone_margin(emit_cone("sfce", FrictionParams(mu=mu)), w)
        hi = cone_margin(emit_cone("sfce", FrictionParams(mu=mu + bump + 1e-6)), w)
        assert hi >= lo - 1e-12


class TestContactSpec:
    def test_descriptor_roundtrip(self):
        spec = ContactSpec(
            name="left",
            kind="manipulator",
            model="sfce",
            pose=Pose.identity(),
            params=FrictionParams(mu=0.6, ez=0.25),
            fz_max=12.0,
        )
        desc = spec.descriptor()
        assert isinstance(desc, ConeDescriptor)
        assert desc.model == "sfce"

    def test_rejects_bad_kind(self):
        with pytest.raises(ValueError):
            ContactSpec(
                name="x",
                kind="ghost",
                model="pcwf",
                pose=Pose.identity(),
                params=FrictionParams(mu=0.5),
            )

    def test_rejects_bad_frame_mode(self):
        with pytest.raises(ValueError):
            ContactSpec(
                name="x",
                kind="environment",
                model="pcwf",
                pose=Pose.identity(),
                params=FrictionParams(mu=0.5),
                frame_mode="screen_space",
            )

    def test_object_contact_requires_body_frame(self):
        with pytest.raises(ValueError):
            ContactSpec(
                name="x",
                kind="object",
                model="pcwf",
                pose=Pose.identity(),
                params=FrictionParams(mu=0.5),
                against="tray",
                pose_in_other=Pose.identity(),
                frame_mode="world_normal",
            )
