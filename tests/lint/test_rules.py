"""Each rule fires on a deliberate violation — and only that rule.

Per the acceptance criteria: seeding a violation of each rule in a tmp
file yields exactly that rule ID in ``--format json`` output.
"""

import json

import pytest

from repro.lint import cli


def _lint_json(capsys, tmp_path, source: str, *extra: str):
    """Lint one tmp module via the CLI; returns (exit code, JSON doc)."""
    module = tmp_path / "candidate.py"
    module.write_text(source, encoding="utf-8")
    code = cli.main([str(module), "--format", "json", *extra])
    doc = json.loads(capsys.readouterr().out)
    return code, doc


def _rule_ids(doc) -> set[str]:
    return {finding["rule"] for finding in doc["findings"]}


class TestDeliberateViolations:
    def test_rl001_ambient_entropy(self, capsys, tmp_path):
        code, doc = _lint_json(
            capsys, tmp_path,
            "import random\n"
            "\n"
            "def roll():\n"
            "    return random.randint(1, 6)\n",
        )
        assert code == 1
        assert _rule_ids(doc) == {"RL001"}

    def test_rl001_numpy_default_rng(self, capsys, tmp_path):
        code, doc = _lint_json(
            capsys, tmp_path,
            "import numpy as np\n"
            "\n"
            "def fresh():\n"
            "    return np.random.default_rng()\n",
        )
        assert code == 1
        assert _rule_ids(doc) == {"RL001"}

    def test_rl002_bare_magic_number(self, capsys, tmp_path):
        code, doc = _lint_json(
            capsys, tmp_path,
            "def settle(duration_s=0.004):\n"
            "    return duration_s\n",
        )
        assert code == 1
        assert _rule_ids(doc) == {"RL002"}

    def test_rl002_inline_celsius_kelvin(self, capsys, tmp_path):
        code, doc = _lint_json(
            capsys, tmp_path,
            "def to_kelvin(celsius):\n"
            "    return celsius + 273.15\n",
        )
        assert code == 1
        assert _rule_ids(doc) == {"RL002"}

    def test_rl003_bare_builtin_raise(self, capsys, tmp_path):
        code, doc = _lint_json(
            capsys, tmp_path,
            "def check(value):\n"
            "    if value < 0:\n"
            "        raise ValueError('negative')\n",
        )
        assert code == 1
        assert _rule_ids(doc) == {"RL003"}

    def test_rl003_swallowed_exception(self, capsys, tmp_path):
        code, doc = _lint_json(
            capsys, tmp_path,
            "def best_effort(thunk):\n"
            "    try:\n"
            "        thunk()\n"
            "    except Exception:\n"
            "        pass\n",
        )
        assert code == 1
        assert _rule_ids(doc) == {"RL003"}

    def test_rl004_float_equality(self, capsys, tmp_path):
        code, doc = _lint_json(
            capsys, tmp_path,
            "def at_half(voltage):\n"
            "    return voltage == 0.5\n",
        )
        assert code == 1
        assert _rule_ids(doc) == {"RL004"}

    def test_rl005_undeclared_span_name(self, capsys, tmp_path):
        code, doc = _lint_json(
            capsys, tmp_path,
            "def attack(OBS):\n"
            "    with OBS.span('bogus.step'):\n"
            "        return 1\n",
        )
        assert code == 1
        assert _rule_ids(doc) == {"RL005"}

    def test_rl005_undeclared_metric_name(self, capsys, tmp_path):
        code, doc = _lint_json(
            capsys, tmp_path,
            "def record(OBS):\n"
            "    OBS.counter_inc('made.up.metric')\n",
        )
        assert code == 1
        assert _rule_ids(doc) == {"RL005"}

    def test_rl006_direct_clock_read(self, capsys, tmp_path):
        # ``time`` arrives as a parameter so RL001's import ban stays
        # out of the picture and only the clock-read rule can fire.
        code, doc = _lint_json(
            capsys, tmp_path,
            "def measure(time):\n"
            "    return time.perf_counter()\n",
        )
        assert code == 1
        assert _rule_ids(doc) == {"RL006"}

    def test_rl006_clock_reader_import(self, capsys, tmp_path):
        code, doc = _lint_json(
            capsys, tmp_path,
            "from time import monotonic\n"
            "\n"
            "def measure():\n"
            "    return monotonic()\n",
            "--rule", "RL006",
        )
        assert code == 1
        assert _rule_ids(doc) == {"RL006"}

    def test_rl006_sleep_is_legal(self, capsys, tmp_path):
        code, doc = _lint_json(
            capsys, tmp_path,
            "def nap(time, delay_s):\n"
            "    time.sleep(delay_s)\n",
            "--rule", "RL006",
        )
        assert code == 0
        assert doc["findings"] == []

    def test_rl000_parse_error(self, capsys, tmp_path):
        code, doc = _lint_json(capsys, tmp_path, "def broken(:\n")
        assert code == 1
        assert _rule_ids(doc) == {"RL000"}


class TestFindingShape:
    def test_json_findings_carry_location_and_hint(self, capsys, tmp_path):
        code, doc = _lint_json(
            capsys, tmp_path,
            "def settle(duration_s=0.004):\n"
            "    return duration_s\n",
        )
        assert code == 1
        (finding,) = doc["findings"]
        assert finding["rule"] == "RL002"
        assert finding["severity"] == "error"
        assert finding["line"] == 1
        assert finding["col"] > 0
        assert finding["path"].endswith("candidate.py")
        assert "units." in finding["hint"]

    def test_rule_selection_masks_other_rules(self, capsys, tmp_path):
        code, doc = _lint_json(
            capsys, tmp_path,
            "import random\n"
            "\n"
            "def at_half(voltage):\n"
            "    return voltage == 0.5\n",
            "--rule", "RL004",
        )
        assert code == 1
        assert _rule_ids(doc) == {"RL004"}


class TestCleanCode:
    def test_sanctioned_idioms_are_clean(self, capsys, tmp_path):
        code, doc = _lint_json(
            capsys, tmp_path,
            "from repro.errors import ReproError\n"
            "from repro.rng import from_entropy\n"
            "from repro.units import milliseconds\n"
            "\n"
            "def sample(seed, duration_s=milliseconds(4)):\n"
            "    if duration_s <= 0:\n"
            "        raise ReproError('duration must be positive')\n"
            "    return from_entropy(seed).random() * duration_s\n",
        )
        assert code == 0
        assert doc["findings"] == []
        assert doc["checked"] == 1
