"""The cell-physics engine: selection plumbing and kernel equivalence.

Two layers of guarantees:

* **Selection** — the vector engine is the default, the
  ``REPRO_SCALAR_PHYSICS`` environment variable and
  :func:`repro.circuits.engine.forced_engine` pick the scalar
  reference, and the selection is process-wide but restorable.
* **Differential equivalence** — every kernel of the scalar reference
  reproduces its vector counterpart bit for bit: fixed-seed
  parametrized sweeps plus Hypothesis property tests over random
  parameters.  This is the contract that lets the golden-manifest
  tests (``test_engine_golden.py``) pin whole experiments.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.engine import (
    ENGINES,
    SCALAR_ENV,
    ScalarEngine,
    VectorEngine,
    active_engine,
    engine_name,
    forced_engine,
)
from repro.errors import CalibrationError
from repro.rng import generator

VECTOR = ENGINES["vector"]
SCALAR = ENGINES["scalar"]


def pair(*tags):
    """Two identically-seeded generators, one per engine."""
    return generator(20260808, *tags), generator(20260808, *tags)


def assert_same(a, b):
    __tracebackhide__ = True
    assert a.dtype == b.dtype, f"dtype {a.dtype} != {b.dtype}"
    assert a.shape == b.shape
    assert np.array_equal(a, b, equal_nan=True)


class TestSelection:
    def test_vector_is_the_default(self, monkeypatch):
        monkeypatch.delenv(SCALAR_ENV, raising=False)
        assert engine_name() == "vector"
        assert isinstance(active_engine(), VectorEngine)

    def test_env_var_selects_scalar(self, monkeypatch):
        monkeypatch.setenv(SCALAR_ENV, "1")
        assert engine_name() == "scalar"
        assert isinstance(active_engine(), ScalarEngine)

    @pytest.mark.parametrize("value", ["", "0"])
    def test_disabled_env_values_keep_vector(self, monkeypatch, value):
        monkeypatch.setenv(SCALAR_ENV, value)
        assert engine_name() == "vector"

    def test_forced_engine_overrides_env(self, monkeypatch):
        monkeypatch.setenv(SCALAR_ENV, "1")
        with forced_engine("vector"):
            assert engine_name() == "vector"
        assert engine_name() == "scalar"

    def test_forced_engine_restores_on_exit(self, monkeypatch):
        monkeypatch.delenv(SCALAR_ENV, raising=False)
        with forced_engine("scalar"):
            assert engine_name() == "scalar"
            with forced_engine("vector"):
                assert engine_name() == "vector"
            assert engine_name() == "scalar"
        assert engine_name() == "vector"

    def test_unknown_engine_is_rejected(self):
        with pytest.raises(CalibrationError):
            with forced_engine("quantum"):
                pass  # pragma: no cover

    def test_engine_singletons_are_named(self):
        assert VECTOR.name == "vector"
        assert SCALAR.name == "scalar"


@pytest.mark.parametrize("n", [8, 257, 4096])
class TestKernelDifferential:
    """Fixed-seed bitwise equality of every kernel pair."""

    def test_gaussian_field(self, n):
        r1, r2 = pair("gauss", str(n))
        assert_same(
            VECTOR.gaussian_field(r1, n, 0.25, 0.03, 0.01),
            SCALAR.gaussian_field(r2, n, 0.25, 0.03, 0.01),
        )

    def test_lognormal_field(self, n):
        r1, r2 = pair("logn", str(n))
        assert_same(
            VECTOR.lognormal_field(r1, n, 0.4),
            SCALAR.lognormal_field(r2, n, 0.4),
        )

    def test_wake_field(self, n):
        r1, r2 = pair("wake", str(n))
        assert_same(
            VECTOR.wake_field(r1, n, 0.20, 0.005),
            SCALAR.wake_field(r2, n, 0.20, 0.005),
        )

    def test_uniform_mask(self, n):
        r1, r2 = pair("uni", str(n))
        assert_same(
            VECTOR.uniform_mask(r1, n, 0.5),
            SCALAR.uniform_mask(r2, n, 0.5),
        )

    def test_powerup(self, n):
        wake = VECTOR.wake_field(
            generator(7, "w"), n, 0.2, 0.005
        ).astype(np.float32)
        r1, r2 = pair("pw", str(n))
        assert_same(VECTOR.powerup(r1, wake), SCALAR.powerup(r2, wake))

    @pytest.mark.parametrize("node_v", [0.0123, 0.09999, 0.31, 1.1])
    def test_restore_mask(self, n, node_v):
        thresholds = VECTOR.gaussian_field(
            generator(3, "t"), n, 0.10, 0.02, 0.005
        )
        assert_same(
            VECTOR.restore_mask(node_v, thresholds),
            SCALAR.restore_mask(node_v, thresholds),
        )

    @pytest.mark.parametrize("supply_v", [0.05, 0.25, 0.31999])
    def test_drv_collapse_mask(self, n, supply_v):
        drv = VECTOR.gaussian_field(generator(4, "d"), n, 0.25, 0.03, 0.01)
        assert_same(
            VECTOR.drv_collapse_mask(drv, supply_v),
            SCALAR.drv_collapse_mask(drv, supply_v),
        )

    def test_charge_decay_and_mask(self, n):
        scale = VECTOR.lognormal_field(generator(5, "s"), n, 0.4).astype(
            np.float32
        )
        level = np.ones(n, dtype=np.float16)
        for dt, tau in ((0.5, 2.0), (37.0, 1.7), (1e-3, 1e-4)):
            decayed_v = VECTOR.charge_decay(level, dt, tau, scale)
            decayed_s = SCALAR.charge_decay(level, dt, tau, scale)
            assert_same(decayed_v, decayed_s)
            assert_same(
                VECTOR.charge_mask(decayed_v), SCALAR.charge_mask(decayed_s)
            )
            level = decayed_v

    def test_select(self, n):
        rng = generator(6, "sel")
        mask = rng.random(n) < 0.5
        a = rng.integers(0, 2, n, dtype=np.uint8)
        b = rng.integers(0, 2, n, dtype=np.uint8)
        assert_same(VECTOR.select(mask, a, b), SCALAR.select(mask, a, b))

    def test_age_wake(self, n):
        wake = VECTOR.wake_field(generator(7, "w"), n, 0.2, 0.005)
        bits = VECTOR.powerup(generator(8, "b"), wake.astype(np.float32))
        assert_same(
            VECTOR.age_wake(wake, bits, 0.02, 0.0025, 0.9975),
            SCALAR.age_wake(wake, bits, 0.02, 0.0025, 0.9975),
        )

    def test_flip_mask(self, n):
        r1, r2 = pair("fm", str(n))
        mask_v, flipped_v = VECTOR.flip_mask(r1, n, 0.01)
        mask_s, flipped_s = SCALAR.flip_mask(r2, n, 0.01)
        assert_same(mask_v, mask_s)
        assert flipped_v == flipped_s

    def test_vote_counts(self, n):
        reads = [
            bytes(generator(k, "read").integers(0, 256, n, dtype=np.uint8))
            for k in range(5)
        ]
        assert_same(
            VECTOR.vote_counts(reads, n), SCALAR.vote_counts(reads, n)
        )


class TestWakeFieldTable:
    """The vector wake field is a float16 table lookup; its bit patterns
    must match the scalar reference exactly, for every cell class."""

    @pytest.mark.parametrize("noisy_fraction", [0.0, 0.2, 1.0])
    @pytest.mark.parametrize("epsilon", [0.005, 0.3])
    def test_bit_patterns_match_scalar(self, noisy_fraction, epsilon):
        n = 1001  # not a multiple of 8
        r1, r2 = pair("wake-bits", str(noisy_fraction), str(epsilon))
        fast = VECTOR.wake_field(r1, n, noisy_fraction, epsilon)
        slow = SCALAR.wake_field(r2, n, noisy_fraction, epsilon)
        assert fast.dtype == slow.dtype == np.float16
        assert fast.view(np.uint16).tolist() == slow.view(np.uint16).tolist()
        assert r1.bit_generator.state == r2.bit_generator.state


class TestKernelProperties:
    """Hypothesis sweeps: equivalence holds over random parameters."""

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=192),
        mean=st.floats(min_value=0.01, max_value=1.0),
        sigma=st.floats(min_value=0.0, max_value=0.2),
    )
    @settings(max_examples=25, deadline=None)
    def test_gaussian_field_matches(self, seed, n, mean, sigma):
        r1 = generator(seed, "hyp-gauss")
        r2 = generator(seed, "hyp-gauss")
        assert_same(
            VECTOR.gaussian_field(r1, n, mean, sigma, 0.01),
            SCALAR.gaussian_field(r2, n, mean, sigma, 0.01),
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=192),
        seconds=st.floats(min_value=1e-9, max_value=1e4),
        tau=st.floats(min_value=1e-6, max_value=1e6),
        spread=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_charge_decay_matches(self, seed, n, seconds, tau, spread):
        scale = VECTOR.lognormal_field(
            generator(seed, "hyp-scale"), n, spread
        ).astype(np.float32)
        level = np.ones(n, dtype=np.float16)
        assert_same(
            VECTOR.charge_decay(level, seconds, tau, scale),
            SCALAR.charge_decay(level, seconds, tau, scale),
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=192),
        noisy=st.floats(min_value=0.0, max_value=1.0),
        node_v=st.floats(min_value=0.0, max_value=1.2),
    )
    @settings(max_examples=25, deadline=None)
    def test_powerup_and_restore_match(self, seed, n, noisy, node_v):
        wake = VECTOR.wake_field(generator(seed, "hyp-w"), n, noisy, 0.005)
        r1 = generator(seed, "hyp-pw")
        r2 = generator(seed, "hyp-pw")
        assert_same(
            VECTOR.powerup(r1, wake.astype(np.float32)),
            SCALAR.powerup(r2, wake.astype(np.float32)),
        )
        thresholds = VECTOR.gaussian_field(
            generator(seed, "hyp-t"), n, 0.10, 0.02, 0.005
        )
        assert_same(
            VECTOR.restore_mask(node_v, thresholds),
            SCALAR.restore_mask(node_v, thresholds),
        )

    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=1, max_value=64),
        rate=st.floats(min_value=0.0, max_value=0.49),
    )
    @settings(max_examples=25, deadline=None)
    def test_flip_mask_matches(self, seed, n, rate):
        r1 = generator(seed, "hyp-fm")
        r2 = generator(seed, "hyp-fm")
        mask_v, flipped_v = VECTOR.flip_mask(r1, n, rate)
        mask_s, flipped_s = SCALAR.flip_mask(r2, n, rate)
        assert_same(mask_v, mask_s)
        assert flipped_v == flipped_s
