"""Golden-manifest equivalence: scalar and vector engines per experiment.

The kernel-level differential tests prove each kernel pair bit-equal in
isolation; these tests prove the property **composes** through whole
paper experiments: the manifest fingerprint — which hashes the seed,
every recorded metric, and every result row, with wall-clock timings
excluded by construction — is byte-identical whichever engine ran the
physics, serially and across a 4-worker shard pool.

The scalar legs select the engine via the ``REPRO_SCALAR_PHYSICS``
environment variable rather than ``forced_engine()`` because worker
processes inherit the environment but not module state.

``table1`` is the heaviest experiment (~300M cell-ops; minutes on the
scalar engine), so its pin carries the ``slow`` marker and runs in the
dedicated physics-goldens CI job, not tier-1.
"""

import pytest

from repro import obs
from repro.circuits.engine import SCALAR_ENV
from repro.chaos import targets as chaos_probe
from repro.experiments import (
    accessibility,
    countermeasures,
    dram_coldboot,
    figure3,
    figure7,
    figure8,
    figure9,
    figure10,
    glitch_campaign,
    microarch_leak,
    noisy_rig,
    platforms,
    policy_ablation,
    probe_sweep,
    registers,
    retention_sweep,
    standby_retention,
    table1,
    table4,
)

SEED = 1234


def _fingerprint(experiment, jobs: int) -> str:
    with obs.capture() as o:
        experiment.run(seed=SEED, jobs=jobs)
        manifest = o.last_manifest
        assert manifest is not None
        manifest.validate()
        return manifest.fingerprint()


def _engine_fingerprints(experiment, jobs: int, monkeypatch) -> tuple[str, str]:
    monkeypatch.delenv(SCALAR_ENV, raising=False)
    vector = _fingerprint(experiment, jobs)
    monkeypatch.setenv(SCALAR_ENV, "1")
    scalar = _fingerprint(experiment, jobs)
    monkeypatch.delenv(SCALAR_ENV, raising=False)
    return vector, scalar


@pytest.mark.parametrize("jobs", [1, 4])
class TestGoldenEquivalence:
    def test_retention_sweep_engines_match(self, jobs, monkeypatch):
        vector, scalar = _engine_fingerprints(
            retention_sweep, jobs, monkeypatch
        )
        assert vector == scalar

    def test_figure10_engines_match(self, jobs, monkeypatch):
        vector, scalar = _engine_fingerprints(figure10, jobs, monkeypatch)
        assert vector == scalar

    @pytest.mark.slow
    def test_table1_engines_match(self, jobs, monkeypatch):
        vector, scalar = _engine_fingerprints(table1, jobs, monkeypatch)
        assert vector == scalar


class TestGoldenStability:
    """The vector engine reproduces the pre-engine fingerprints.

    These constants were produced by the pre-refactor scalar-free
    implementation (commit 5fd9081) at seed 1234 — the refactor's
    "results are byte-identical" claim, pinned.  They will only change
    if the physics itself changes, which must be a deliberate,
    documented decision (update docs/physics.md in the same PR).
    """

    RETENTION_SWEEP_FP = (
        "ebcd1df2d9e8276a806b5581029497bc2c94070a022b4712f486fbbe72cc99d7"
    )
    FIGURE10_FP = (
        "e51d5f81821dd7186c1348b4d11e5d103c69c210df8ca5714e6bab873d2054db"
    )
    TABLE1_FP = (
        "e0e648cfd3b126582885c3247c34b62014a34841f6a6bc9237c92aef9768639a"
    )

    def test_retention_sweep_pin(self, monkeypatch):
        monkeypatch.delenv(SCALAR_ENV, raising=False)
        assert _fingerprint(retention_sweep, 1) == self.RETENTION_SWEEP_FP

    def test_figure10_pin(self, monkeypatch):
        monkeypatch.delenv(SCALAR_ENV, raising=False)
        assert _fingerprint(figure10, 1) == self.FIGURE10_FP

    @pytest.mark.slow
    def test_table1_pin(self, monkeypatch):
        monkeypatch.delenv(SCALAR_ENV, raising=False)
        assert _fingerprint(table1, 1) == self.TABLE1_FP


#: The remaining ``repro.exec``-routed experiments, pinned observed at
#: ``--jobs 1`` and ``--jobs 4`` (seed 1234, vector engine).  They are
#: the contract any rewrite of the execution engine is checked against:
#: dispatch, retry, and merge changes must leave every value untouched.
#: ``glitch-campaign`` pins two different values because its
#: ``glitch.min_rail_v`` histogram total is a float sum, and a pool run
#: adds the per-shard partial sums instead of every observation in turn.
EXEC_PINS = {
    ("chaos-probe", 1): (
        "2d8a8a0a5e5fa2d60a8e2f2a9ac4382a7dfffcd7283680793f240a223fda3069"
    ),
    ("chaos-probe", 4): (
        "2d8a8a0a5e5fa2d60a8e2f2a9ac4382a7dfffcd7283680793f240a223fda3069"
    ),
    ("glitch-campaign", 1): (
        "3f098c1dc4dffbdef1c1d3bcd818268b0b1fbc86e69f6d4c4506c33d97320249"
    ),
    ("glitch-campaign", 4): (
        "60f489ed16a8c1c19a7ac92bc6af986b89d56c59c89f6400a3a0b7f0ad41659f"
    ),
    ("noisy-rig", 1): (
        "577e3210776ccd91ac5dabf46d46047105037b1d5e990309b4ce270fedf01331"
    ),
    ("noisy-rig", 4): (
        "577e3210776ccd91ac5dabf46d46047105037b1d5e990309b4ce270fedf01331"
    ),
    ("probe-sweep", 1): (
        "f17738bc6b3802566bc88feb1c57114c899217eb05f73e0590ca0012997b04ae"
    ),
    ("probe-sweep", 4): (
        "f17738bc6b3802566bc88feb1c57114c899217eb05f73e0590ca0012997b04ae"
    ),
}

_EXEC_EXPERIMENTS = {
    "chaos-probe": chaos_probe,
    "glitch-campaign": glitch_campaign,
    "noisy-rig": noisy_rig,
    "probe-sweep": probe_sweep,
}


@pytest.mark.parametrize(
    "name, jobs",
    [
        ("chaos-probe", 1),
        ("chaos-probe", 4),
        ("glitch-campaign", 1),
        ("glitch-campaign", 4),
        # The serial noisy-rig and probe-sweep legs take ~10 s each.
        pytest.param("noisy-rig", 1, marks=pytest.mark.slow),
        ("noisy-rig", 4),
        pytest.param("probe-sweep", 1, marks=pytest.mark.slow),
        ("probe-sweep", 4),
    ],
)
def test_exec_experiment_pin(name, jobs, monkeypatch):
    monkeypatch.delenv(SCALAR_ENV, raising=False)
    fingerprint = _fingerprint(_EXEC_EXPERIMENTS[name], jobs)
    assert fingerprint == EXEC_PINS[(name, jobs)]


#: The experiments that do not run through ``repro.exec`` (their ``run``
#: takes no ``jobs``, so ``--jobs`` leaves them serial), pinned observed
#: at seed 1234 on the vector engine.  With ``EXEC_PINS`` and the
#: stability pins above, every registered experiment has a golden
#: fingerprint that a hot-path rewrite must leave untouched.
SERIAL_PINS = {
    "accessibility": (
        "4ac28abc3b71401c04b23d79be1d86befffd48ba6cff982c8eed289bc5997f0a"
    ),
    "countermeasures": (
        "a520185602d0c0e13838f462530ec0a87c10bd60204df3ded9b219340fe8a44c"
    ),
    "dram-coldboot": (
        "5a4af186d0429c1e3628eed3c58e93528f0f65fef6227ccf607f2475012672bf"
    ),
    "figure3": (
        "149bfb34f033a0c6c2b1ce34cf29c37c5e154053b535e0fd27cc11f4b042199d"
    ),
    "figure7": (
        "23a6b79c2fe3bc5892bc0346bd419129ffeca5961dfb849746d32c50fde6bd38"
    ),
    "figure8": (
        "0ee1aeacf97de0bcc19102e6508ab351e2da233c068df6450cfd8ec548adc671"
    ),
    "figure9": (
        "b324a73e6d1468c13880ac803a6aff58d63354aa6caa0ab2e3dcc98322e0d149"
    ),
    "microarch-leak": (
        "772223412d60e9152057105d806460a824072d08f33ac0b88f7fa996fa1189be"
    ),
    "platforms": (
        "90892a518adce52e0cebb760f351f4834ee8435aa67dbea0c9f6c512aa404251"
    ),
    "policy-ablation": (
        "11cb7353353f2399b3b509cac68a23f1fc2429945f28b9615120366879d48cb0"
    ),
    "registers": (
        "e147efa9355547ecfb6b21dc9fa7a9e15c170553e1d9f440d90a736706a85170"
    ),
    "standby-retention": (
        "be94d2477ae846967ec53bc144065dc94b7a2fbbbb523f18bb366025da55cfcd"
    ),
    "table4": (
        "dfd7b2e4ba9250cb791b15e96f313ae5d460e82ef124aae8bf6e1e13af9d3602"
    ),
}

_SERIAL_EXPERIMENTS = {
    "accessibility": accessibility,
    "countermeasures": countermeasures,
    "dram-coldboot": dram_coldboot,
    "figure3": figure3,
    "figure7": figure7,
    "figure8": figure8,
    "figure9": figure9,
    "microarch-leak": microarch_leak,
    "platforms": platforms,
    "policy-ablation": policy_ablation,
    "registers": registers,
    "standby-retention": standby_retention,
    "table4": table4,
}


@pytest.mark.parametrize(
    "name",
    [
        "accessibility",
        # These four take ~9-40 s each.
        pytest.param("countermeasures", marks=pytest.mark.slow),
        "dram-coldboot",
        "figure3",
        "figure7",
        "figure8",
        "figure9",
        "microarch-leak",
        "platforms",
        pytest.param("policy-ablation", marks=pytest.mark.slow),
        "registers",
        pytest.param("standby-retention", marks=pytest.mark.slow),
        pytest.param("table4", marks=pytest.mark.slow),
    ],
)
def test_serial_experiment_pin(name, monkeypatch):
    monkeypatch.delenv(SCALAR_ENV, raising=False)
    with obs.capture() as o:
        _SERIAL_EXPERIMENTS[name].run(seed=SEED)
        manifest = o.last_manifest
        assert manifest is not None
        manifest.validate()
        assert manifest.fingerprint() == SERIAL_PINS[name]
