"""SRAM array physics and data-access contracts."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.circuits.engine import active_engine, forced_engine
from repro.circuits.sram import SramArray, SramParameters
from repro.errors import CalibrationError, CircuitError
from repro.units import celsius_to_kelvin


def fresh_array(n_bits=8 * 512, seed=7, **params):
    array = SramArray(
        n_bits, SramParameters(**params), np.random.default_rng(seed)
    )
    array.power_up()
    return array


class TestConstruction:
    def test_rejects_zero_bits(self):
        with pytest.raises(CalibrationError):
            SramArray(0)

    def test_rejects_non_byte_multiple(self):
        with pytest.raises(CalibrationError):
            SramArray(12)

    def test_rejects_drv_above_nominal(self):
        with pytest.raises(CalibrationError):
            SramParameters(nominal_v=0.2, drv_mean_v=0.25)

    def test_rejects_bad_noisy_fraction(self):
        with pytest.raises(CalibrationError):
            SramParameters(noisy_fraction=1.5)

    def test_sizes(self):
        array = SramArray(8 * 100)
        assert array.n_bits == 800
        assert array.n_bytes == 100


class TestPowerStates:
    def test_starts_unpowered(self):
        assert not SramArray(64).powered

    def test_read_while_unpowered_rejected(self):
        with pytest.raises(CircuitError):
            SramArray(64).read_bytes()

    def test_write_while_unpowered_rejected(self):
        with pytest.raises(CircuitError):
            SramArray(64).write_bytes(0, b"\x00")

    def test_double_power_down_rejected(self):
        array = fresh_array()
        array.power_down()
        with pytest.raises(CircuitError):
            array.power_down()

    def test_double_restore_rejected(self):
        array = fresh_array()
        with pytest.raises(CircuitError):
            array.restore_power()

    def test_elapse_while_powered_rejected(self):
        with pytest.raises(CircuitError):
            fresh_array().elapse_unpowered(1.0, 300.0)

    def test_supply_voltage_reported(self):
        array = fresh_array()
        assert array.supply_voltage == pytest.approx(0.8)
        array.power_down()
        assert array.supply_voltage == 0.0


class TestPowerUpFingerprint:
    def test_two_powerups_are_similar_but_not_identical(self):
        """Paper Table 1 caption: fHD between power-ups ~0.10."""
        array = fresh_array(n_bits=8 * 4096)
        first = array.image()
        array.power_down()
        array.elapse_unpowered(1.0, celsius_to_kelvin(25.0))
        array.restore_power()
        second = array.image()
        fhd = float(np.mean(first != second))
        assert 0.05 < fhd < 0.15

    def test_powerup_is_roughly_half_ones(self):
        array = fresh_array(n_bits=8 * 4096)
        assert 0.4 < float(array.image().mean()) < 0.6


class TestRetentionPhysics:
    def test_room_temperature_manual_cycle_loses_data(self):
        array = fresh_array(n_bits=8 * 4096)
        array.fill_bytes(0xAA)
        reference = array.image()
        array.power_down()
        array.elapse_unpowered(0.5, celsius_to_kelvin(25.0))
        retained = array.restore_power()
        assert retained < 0.05
        match = float(np.mean(array.image() == reference))
        assert match < 0.6  # chance level for a patterned image

    def test_instant_cycle_retains_everything(self):
        array = fresh_array(n_bits=8 * 4096)
        array.fill_bytes(0x5C)
        reference = array.image()
        array.power_down()
        array.elapse_unpowered(1e-9, celsius_to_kelvin(25.0))
        retained = array.restore_power()
        assert retained > 0.99
        assert (array.image() == reference).all()

    def test_retention_monotonic_in_off_time(self):
        results = []
        for off_time in (1e-6, 20e-6, 100e-6, 1e-3):
            array = fresh_array(n_bits=8 * 2048)
            array.power_down()
            array.elapse_unpowered(off_time, celsius_to_kelvin(25.0))
            results.append(array.restore_power())
        assert results == sorted(results, reverse=True)

    def test_cold_extends_retention(self):
        warm = fresh_array(n_bits=8 * 2048)
        warm.power_down()
        warm.elapse_unpowered(1e-3, celsius_to_kelvin(25.0))
        cold = fresh_array(n_bits=8 * 2048)
        cold.power_down()
        cold.elapse_unpowered(1e-3, celsius_to_kelvin(-110.0))
        assert cold.restore_power() > warm.restore_power()

    def test_segmented_decay_composes(self):
        split = fresh_array(seed=5)
        split.power_down()
        split.elapse_unpowered(1e-3, 300.0)
        split.elapse_unpowered(1e-3, 300.0)
        whole = fresh_array(seed=5)
        whole.power_down()
        whole.elapse_unpowered(2e-3, 300.0)
        assert split.restore_power() == pytest.approx(whole.restore_power())


class TestVoltageEvents:
    def test_hold_at_nominal_loses_nothing(self):
        array = fresh_array()
        array.fill_bytes(0xAA)
        assert array.set_supply_voltage(0.8) == 0
        assert array.read_bytes(0, 16) == b"\xaa" * 16

    def test_hold_below_drv_tail_loses_cells(self):
        array = fresh_array(n_bits=8 * 4096)
        array.fill_bytes(0xAA)
        lost = array.set_supply_voltage(0.25)  # DRV mean
        assert lost > array.n_bits * 0.3

    def test_transient_to_zero_loses_everything_salvageable(self):
        array = fresh_array(n_bits=8 * 4096)
        array.fill_bytes(0xAA)
        lost = array.apply_voltage_transient(0.0)
        assert lost == pytest.approx(array.n_bits, rel=0.05)

    def test_transient_above_all_drvs_is_harmless(self):
        array = fresh_array()
        array.fill_bytes(0x0F)
        assert array.apply_voltage_transient(0.5) == 0

    def test_voltage_ops_require_power(self):
        array = fresh_array()
        array.power_down()
        with pytest.raises(CircuitError):
            array.set_supply_voltage(0.8)
        with pytest.raises(CircuitError):
            array.apply_voltage_transient(0.4)

    def test_restore_below_drv_collapses_cells(self):
        array = fresh_array(n_bits=8 * 4096)
        array.fill_bytes(0xAA)
        array.power_down()
        array.elapse_unpowered(1e-9, 300.0)
        array.restore_power(voltage=0.2)  # below most DRVs
        match = float(np.mean(array.image() == 1))
        # Pattern 0xAA is half ones; a collapsed array drifts to ~0.5 too,
        # but the byte pattern itself must be destroyed.
        assert array.read_bytes(0, 64) != b"\xaa" * 64
        assert 0.3 < match < 0.7


class TestDataAccess:
    def test_byte_roundtrip(self, small_sram):
        small_sram.write_bytes(3, b"hello world")
        assert small_sram.read_bytes(3, 11) == b"hello world"

    def test_bit_roundtrip(self, small_sram):
        bits = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        small_sram.write_bits(17, bits)
        assert (small_sram.read_bits(17, 8) == bits).all()

    def test_fill_bytes(self, small_sram):
        small_sram.fill_bytes(0x3C)
        assert small_sram.read_bytes() == b"\x3c" * small_sram.n_bytes

    def test_out_of_range_read_rejected(self, small_sram):
        with pytest.raises(CircuitError):
            small_sram.read_bits(small_sram.n_bits - 4, 8)

    def test_out_of_range_write_rejected(self, small_sram):
        with pytest.raises(CircuitError):
            small_sram.write_bytes(small_sram.n_bytes, b"\x00")

    def test_drv_percentile_ordering(self, small_sram):
        assert small_sram.drv_percentile(10) < small_sram.drv_percentile(90)


class TestPropertyBased:
    @given(
        offset=st.integers(min_value=0, max_value=400),
        payload=st.binary(min_size=1, max_size=100),
    )
    @settings(max_examples=40, deadline=None)
    def test_write_read_roundtrip(self, offset, payload):
        array = fresh_array()
        array.write_bytes(offset, payload)
        assert array.read_bytes(offset, len(payload)) == payload

    @given(value=st.integers(min_value=0, max_value=255))
    @settings(max_examples=20, deadline=None)
    def test_fill_is_uniform(self, value):
        array = fresh_array()
        array.fill_bytes(value)
        assert set(array.read_bytes()) == {value}

    @given(
        t1=st.floats(min_value=1e-7, max_value=1e-2),
        t2=st.floats(min_value=1e-7, max_value=1e-2),
    )
    @settings(max_examples=25, deadline=None)
    def test_longer_off_time_never_retains_more(self, t1, t2):
        short, long = sorted((t1, t2))
        a = fresh_array(seed=11)
        a.power_down()
        a.elapse_unpowered(short, 300.0)
        b = fresh_array(seed=11)
        b.power_down()
        b.elapse_unpowered(long, 300.0)
        assert b.restore_power() <= a.restore_power() + 1e-9


class BitPerCellSram:
    """Reference model: the same physics with one ``uint8`` per cell.

    This is the unpacked layout ``SramArray`` used before it stored its
    image packed.  It manufactures its fields through the same engine
    calls in the same order and applies the DRV mask on every voltage
    event (no early-out), so an identically seeded pair must agree on
    every result, every error and every image.
    """

    def __init__(self, n_bits, params, seed, name):
        engine = active_engine()
        self.name = name
        self.params = params
        self.n_bits = n_bits
        self.rng = np.random.default_rng(seed)
        self.drv = engine.gaussian_field(
            self.rng, n_bits, params.drv_mean_v, params.drv_sigma_v, 0.01
        )
        self.threshold = engine.gaussian_field(
            self.rng,
            n_bits,
            params.restore_mean_v,
            params.restore_sigma_v,
            0.005,
        )
        self.wake_p = engine.wake_field(
            self.rng,
            n_bits,
            params.noisy_fraction,
            SramArray.WAKE_SKEW_EPSILON,
        )
        self.bits = np.zeros(n_bits, dtype=np.uint8)
        self.powered = False
        self.supply_v = 0.0
        self.fraction = 1.0
        self.off_v = 0.0

    def _fail(self, message):
        raise CircuitError(f"{self.name}: {message}")

    def _range(self, start, count):
        if count is None:
            count = self.n_bits - start
        if start < 0 or count < 0 or start + count > self.n_bits:
            self._fail(
                f"bit range [{start}, {start + count}) exceeds "
                f"{self.n_bits} bits"
            )
        return start, count

    def _powerup(self):
        return active_engine().powerup(
            self.rng, self.wake_p.astype(np.float32)
        )

    def _collapse(self, voltage):
        engine = active_engine()
        lost = engine.drv_collapse_mask(self.drv, voltage)
        if not lost.any():
            return 0
        self.bits = engine.select(lost, self._powerup(), self.bits)
        return int(lost.sum())

    def power_up(self, voltage=None):
        self.bits = self._powerup()
        self.powered = True
        self.supply_v = self.params.nominal_v if voltage is None else voltage
        self.fraction = 1.0

    def power_down(self):
        if not self.powered:
            self._fail("already unpowered")
        self.off_v, self.powered, self.supply_v = self.supply_v, False, 0.0
        self.fraction = 1.0

    def elapse_unpowered(self, seconds, temperature_k):
        if self.powered:
            self._fail("array is powered; nothing decays")
        self.fraction *= self.params.decay.surviving_fraction(
            seconds, temperature_k
        )

    def restore_power(self, voltage=None):
        if self.powered:
            self._fail("already powered")
        engine = active_engine()
        retained = engine.restore_mask(
            self.off_v * self.fraction, self.threshold
        )
        self.bits = engine.select(retained, self.bits, self._powerup())
        self.powered = True
        self.supply_v = self.params.nominal_v if voltage is None else voltage
        self.fraction = 1.0
        self._collapse(self.supply_v)
        return float(np.mean(retained))

    def set_supply_voltage(self, voltage):
        if not self.powered:
            self._fail("cannot set voltage while unpowered")
        lost = self._collapse(voltage)
        self.supply_v = voltage
        return lost

    def age(self, years, duty_cycle):
        if not self.powered:
            self._fail("cannot age while unpowered")
        eps = SramArray.WAKE_SKEW_EPSILON
        self.wake_p = active_engine().age_wake(
            self.wake_p,
            self.bits,
            SramArray.AGING_SHIFT_PER_YEAR * years * duty_cycle,
            eps / 2,
            1.0 - eps / 2,
        )

    def read_bits(self, start=0, count=None):
        if not self.powered:
            self._fail("cannot read while unpowered")
        start, count = self._range(start, count)
        return self.bits[start : start + count].copy()

    def write_bits(self, start, values):
        if not self.powered:
            self._fail("cannot write while unpowered")
        values = np.asarray(values, dtype=np.uint8) & 1
        start, count = self._range(start, len(values))
        self.bits[start : start + count] = values

    def read_bytes(self, offset=0, count=None):
        if count is None:
            count = self.n_bits // 8 - offset
        bits = self.read_bits(offset * 8, count * 8)
        return np.packbits(bits, bitorder="little").tobytes()

    def write_bytes(self, offset, data):
        raw = np.frombuffer(bytes(data), dtype=np.uint8)
        self.write_bits(offset * 8, np.unpackbits(raw, bitorder="little"))

    def fill_bytes(self, value):
        self.write_bytes(0, bytes([value & 0xFF]) * (self.n_bits // 8))


DIFF_BITS = 8 * 40
# Half the voltages land near the array's largest DRV (~0.33 V for 320
# cells), where the collapse early-out and the mask disagree if either
# is wrong.
_volts = st.floats(min_value=0.05, max_value=1.0) | st.floats(
    min_value=0.28, max_value=0.40
)
_bit = st.integers(min_value=-9, max_value=DIFF_BITS + 9)
_byte = st.integers(min_value=-2, max_value=DIFF_BITS // 8 + 2)
SRAM_OPS = st.one_of(
    st.tuples(
        st.just("read_bits"), _bit, st.none() | st.integers(0, 90)
    ),
    st.tuples(
        st.just("write_bits"), _bit, st.lists(st.integers(0, 3), max_size=90)
    ),
    st.tuples(st.just("read_bytes"), _byte, st.none() | st.integers(-1, 12)),
    st.tuples(st.just("write_bytes"), _byte, st.binary(max_size=12)),
    st.tuples(st.just("fill_bytes"), st.integers(0, 255)),
    st.tuples(st.just("power_up"), st.none() | _volts),
    st.tuples(st.just("power_down")),
    st.tuples(
        st.just("elapse_unpowered"),
        st.floats(min_value=1e-7, max_value=1e-3),
        st.sampled_from([250.0, 300.0]),
    ),
    st.tuples(st.just("restore_power"), st.none() | _volts),
    st.tuples(st.just("set_supply_voltage"), _volts),
    st.tuples(
        st.just("age"),
        st.floats(min_value=0.0, max_value=5.0),
        st.floats(min_value=0.0, max_value=1.0),
    ),
)


def _outcome(target, op):
    name, *args = op
    try:
        result = getattr(target, name)(*args)
    except CircuitError as exc:
        return "error", str(exc)
    if isinstance(result, np.ndarray):
        return "ok", result.dtype.str, result.tolist()
    return "ok", result


class TestPackedMatchesBitPerCellModel:
    @pytest.mark.parametrize("engine", ["vector", "scalar"])
    @given(
        seed=st.integers(min_value=0, max_value=2**16),
        ops=st.lists(SRAM_OPS, max_size=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_random_interleavings_agree(self, engine, seed, ops):
        params = SramParameters()
        with forced_engine(engine):
            packed = SramArray(
                DIFF_BITS, params, np.random.default_rng(seed), name="diff"
            )
            model = BitPerCellSram(DIFF_BITS, params, seed, name="diff")
            for op in [("power_up", None), *ops]:
                assert _outcome(packed, op) == _outcome(model, op), op
                assert packed.powered == model.powered
                assert packed.supply_voltage == (
                    model.supply_v if model.powered else 0.0
                )
                if model.powered:
                    assert packed.image().tolist() == model.bits.tolist()
            assert packed.wake_probabilities().tolist() == (
                model.wake_p.astype(np.float32).tolist()
            )
