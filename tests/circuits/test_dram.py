"""DRAM array physics: refresh, decay, anti-cells."""

from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.dram import DramArray, DramParameters
from repro.circuits.engine import active_engine, forced_engine
from repro.errors import CalibrationError, CircuitError
from repro.units import celsius_to_kelvin


def fresh_dram(n_bits=8 * 4096, seed=3, **params):
    dram = DramArray(
        n_bits, DramParameters(**params), np.random.default_rng(seed)
    )
    dram.restore_power()
    return dram


class TestConstruction:
    def test_rejects_non_byte_multiple(self):
        with pytest.raises(CalibrationError):
            DramArray(10)

    def test_rejects_bad_refresh(self):
        with pytest.raises(CalibrationError):
            DramParameters(refresh_interval_s=0.0)

    def test_rejects_bad_anticell_fraction(self):
        with pytest.raises(CalibrationError):
            DramParameters(anticell_fraction=2.0)

    def test_starts_unpowered(self):
        assert not DramArray(64).powered


class TestAccess:
    def test_roundtrip(self):
        dram = fresh_dram()
        dram.write_bytes(10, b"secret key material")
        assert dram.read_bytes(10, 19) == b"secret key material"

    def test_read_requires_power(self):
        dram = fresh_dram()
        dram.power_down()
        with pytest.raises(CircuitError):
            dram.read_bytes(0, 1)

    def test_write_requires_power(self):
        dram = fresh_dram()
        dram.power_down()
        with pytest.raises(CircuitError):
            dram.write_bytes(0, b"\x00")

    def test_out_of_range_rejected(self):
        dram = fresh_dram()
        with pytest.raises(CircuitError):
            dram.read_bytes(dram.n_bytes - 1, 2)


class TestDecay:
    def test_short_room_temperature_cut_retains(self):
        """A just-refreshed DRAM outlives a 64 ms cut (paper §3)."""
        dram = fresh_dram()
        dram.write_bytes(0, b"\xab" * 64)
        dram.power_down()
        dram.elapse_unpowered(0.064, celsius_to_kelvin(25.0))
        assert dram.restore_power() > 0.95
        assert dram.read_bytes(0, 64) == b"\xab" * 64

    def test_long_room_temperature_cut_decays(self):
        dram = fresh_dram()
        dram.write_bytes(0, b"\xab" * 64)
        dram.power_down()
        dram.elapse_unpowered(60.0, celsius_to_kelvin(25.0))
        assert dram.restore_power() < 0.2

    def test_cold_boot_regime(self):
        """Chilled DRAM survives a minute-long migration (Halderman)."""
        dram = fresh_dram()
        dram.write_bytes(0, bytes(range(256)))
        dram.power_down()
        dram.elapse_unpowered(60.0, celsius_to_kelvin(-50.0))
        assert dram.restore_power() > 0.9

    def test_decayed_cells_fall_to_ground_state_not_zero(self):
        """Anti-cells decay to 1: a dead module is not all-zeros."""
        dram = fresh_dram(n_bits=8 * 8192)
        dram.write_bytes(0, b"\x00" * dram.n_bytes)
        dram.power_down()
        dram.elapse_unpowered(3600.0, celsius_to_kelvin(25.0))
        dram.restore_power()
        ones = float(np.mean(dram.image()))
        assert 0.4 < ones < 0.6  # ~half the cells are anti-cells

    def test_elapse_requires_power_down(self):
        with pytest.raises(CircuitError):
            fresh_dram().elapse_unpowered(1.0, 300.0)

    def test_rewrite_recharges(self):
        dram = fresh_dram()
        dram.power_down()
        dram.elapse_unpowered(10.0, celsius_to_kelvin(25.0))
        dram.restore_power()
        dram.write_bytes(0, b"\x77" * 16)
        dram.power_down()
        dram.elapse_unpowered(0.01, celsius_to_kelvin(25.0))
        dram.restore_power()
        assert dram.read_bytes(0, 16) == b"\x77" * 16


class TestPowerLoadProtocol:
    def test_set_supply_voltage_is_lossless(self):
        dram = fresh_dram()
        dram.write_bytes(0, b"\x11" * 8)
        assert dram.set_supply_voltage(1.1) == 0
        assert dram.read_bytes(0, 8) == b"\x11" * 8

    def test_transient_is_harmless(self):
        dram = fresh_dram()
        dram.write_bytes(0, b"\x22" * 8)
        assert dram.apply_voltage_transient(0.0) == 0
        assert dram.read_bytes(0, 8) == b"\x22" * 8

    def test_voltage_ops_require_power(self):
        dram = fresh_dram()
        dram.power_down()
        with pytest.raises(CircuitError):
            dram.set_supply_voltage(1.1)
        with pytest.raises(CircuitError):
            dram.apply_voltage_transient(0.5)


class EagerDram:
    """Reference model: the DRAM with eager manufacture.

    Both fields are drawn at construction (anti-cells, then retention)
    and the charge is a per-cell ``float16`` level at all times, reset
    to full on every restore and on every written cell.  An identically
    seeded :class:`DramArray` must agree on every result, every error,
    every image, and, once it has decayed, on its generator state.
    """

    def __init__(self, n_bits, params, rng, name):
        engine = active_engine()
        self.name = name
        self.params = params
        self.n_bits = n_bits
        self.rng = rng
        self.anticell = engine.uniform_mask(
            rng, n_bits, params.anticell_fraction
        )
        self.scale32 = engine.lognormal_field(
            rng, n_bits, params.retention_spread
        ).astype(np.float32)
        self.bits = self.anticell.astype(np.uint8)
        self.level = np.zeros(n_bits, dtype=np.float16)
        self.powered = False

    def _fail(self, message):
        raise CircuitError(f"{self.name}: {message}")

    def _range(self, offset, count):
        if offset < 0 or count < 0 or offset + count > self.n_bits // 8:
            self._fail(
                f"byte range [{offset}, {offset + count}) "
                f"exceeds {self.n_bits // 8} bytes"
            )

    def power_down(self):
        if not self.powered:
            self._fail("already unpowered")
        self.powered = False

    def elapse_unpowered(self, seconds, temperature_k):
        if self.powered:
            self._fail("refresh is active; nothing decays")
        tau = self.params.decay.time_constant(temperature_k)
        self.level = active_engine().charge_decay(
            self.level, seconds, tau, self.scale32
        )

    def restore_power(self, voltage=None):
        if self.powered:
            self._fail("already powered")
        engine = active_engine()
        retained = engine.charge_mask(self.level)
        ground = self.anticell.astype(np.uint8)
        self.bits = engine.select(retained, self.bits, ground)
        self.level = np.ones(self.n_bits, dtype=np.float16)
        self.powered = True
        return float(np.mean(retained))

    def set_supply_voltage(self, voltage):
        if not self.powered:
            self._fail("cannot set voltage while unpowered")
        if voltage <= 0.0:
            raise CircuitError("supply voltage must be positive")
        return 0

    def apply_voltage_transient(self, minimum_v):
        if not self.powered:
            self._fail("transient on an unpowered array")
        return 0

    def read_bytes(self, offset=0, count=None):
        if not self.powered:
            self._fail("cannot read while unpowered")
        if count is None:
            count = self.n_bits // 8 - offset
        self._range(offset, count)
        bits = self.bits[offset * 8 : (offset + count) * 8]
        return np.packbits(bits, bitorder="little").tobytes()

    def write_bytes(self, offset, data):
        if not self.powered:
            self._fail("cannot write while unpowered")
        raw = np.frombuffer(bytes(data), dtype=np.uint8)
        self._range(offset, len(raw))
        lo, hi = offset * 8, (offset + len(raw)) * 8
        self.bits[lo:hi] = np.unpackbits(raw, bitorder="little")
        self.level[lo:hi] = 1.0

    def image(self):
        return self.bits.copy()


DIFF_BYTES = 40
_offset = st.integers(min_value=-2, max_value=DIFF_BYTES + 2)
_elapse = st.tuples(
    st.just("elapse_unpowered"),
    # Mostly partial decays of the 320 cells, plus the extremes.
    st.sampled_from([0.0, 2.0, 8.0, 20.0, 45.0, 3600.0])
    | st.floats(min_value=0.0, max_value=60.0),
    # Chilled, room, hot, and an invalid absolute temperature.
    st.sampled_from([253.15, 298.15, 308.15, 0.0]),
)
_single = st.one_of(
    st.tuples(st.just("restore_power"), st.none() | st.floats(0.5, 1.5)),
    st.tuples(st.just("power_down")),
    _elapse,
    st.tuples(st.just("write_bytes"), _offset, st.binary(max_size=12)),
    st.tuples(st.just("read_bytes"), _offset, st.none() | st.integers(-1, 12)),
    st.tuples(st.just("image")),
    st.tuples(st.just("set_supply_voltage"), st.floats(-0.5, 1.5)),
    st.tuples(st.just("apply_voltage_transient"), st.floats(0.0, 1.2)),
)
# Steps are short op runs: single ops (wrong-state calls included) and
# power cycles with one or several decays, so sequences reach partially
# decayed and repeatedly decayed states often.
_STEPS = st.one_of(
    _single.map(lambda op: [op]),
    st.lists(_elapse, min_size=1, max_size=3).map(
        lambda decays: [("power_down",), *decays, ("restore_power", None)]
    ),
)
DRAM_OPS = st.lists(_STEPS, max_size=12).map(
    lambda steps: [op for step in steps for op in step]
)


def _outcome(target, op):
    name, *args = op
    try:
        result = getattr(target, name)(*args)
    except (CircuitError, CalibrationError) as exc:
        return "error", type(exc).__name__, str(exc)
    if isinstance(result, np.ndarray):
        return "ok", result.dtype.str, result.tolist()
    return "ok", result


def _run_against_eager(seed, ops, engines=None):
    """Drive a lazy array and an eager model through ``ops`` in step.

    ``engines`` optionally names the physics engine for each op; the
    sequence always ends with a restore and an image comparison.
    """
    params = DramParameters()
    lazy_rng, model_rng = (np.random.default_rng(seed) for _ in range(2))
    lazy = DramArray(DIFF_BYTES * 8, params, lazy_rng, name="diff")
    model = EagerDram(DIFF_BYTES * 8, params, model_rng, name="diff")
    steps = list(zip(ops, engines or [None] * len(ops)))
    steps += [(("restore_power", None), None), (("image",), None)]
    decayed = False
    for op, engine in steps:
        with forced_engine(engine) if engine else nullcontext():
            outcome = _outcome(lazy, op)
            assert outcome == _outcome(model, op), op
        assert lazy.powered == model.powered
        decayed = decayed or (op[0] == "elapse_unpowered" and outcome[0] == "ok")
        if decayed:
            # The deferred draw consumed exactly the eager one's values.
            assert lazy_rng.bit_generator.state == model_rng.bit_generator.state
    return decayed


class TestLazyMatchesEagerModel:
    @pytest.mark.parametrize("engine", ["vector", "scalar"])
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        payload=st.binary(min_size=DIFF_BYTES, max_size=DIFF_BYTES),
        ops=DRAM_OPS,
    )
    @settings(max_examples=100, deadline=None)
    def test_random_interleavings_agree(self, engine, seed, payload, ops):
        start = [("restore_power", None), ("write_bytes", 0, payload)]
        with forced_engine(engine):
            _run_against_eager(seed, start + ops)

    def test_construct_on_vector_decay_on_scalar(self):
        ops = [
            ("restore_power", None),
            ("write_bytes", 0, bytes(range(7, 47))),
            ("power_down",),
            ("elapse_unpowered", 20.0, 298.15),
            ("elapse_unpowered", 5.0, 318.15),
            ("restore_power", None),
            ("write_bytes", 3, b"\xa5" * 9),
            ("power_down",),
            ("elapse_unpowered", 25.0, 298.15),
        ]
        engines = ["vector"] * 3 + ["scalar"] * 2 + ["vector"] * 3 + ["scalar"]
        with forced_engine("vector"):
            assert _run_against_eager(5, ops, engines)
