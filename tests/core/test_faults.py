"""The deterministic fault-injection harness itself.

These tests pin the harness contract the recovery tests lean on: plans
are env-keyed (so they reach worker processes), once-only faults fire
exactly once across processes, and the production path is a no-op.
"""

from __future__ import annotations

import os

import pytest

from repro.testing import faults
from repro.testing.faults import ANY_KEY, Fault, FaultInjected, fire_fault


class TestFaultValidation:
    def test_unknown_site_rejected(self):
        with pytest.raises(ValueError, match="unknown fault site"):
            Fault("nowhere", 0, "raise")

    def test_unknown_action_rejected(self):
        with pytest.raises(ValueError, match="unknown fault action"):
            Fault("chunk", 0, "explode")

    @pytest.mark.parametrize(
        "site, action",
        [("worker-heartbeat", "delay"), ("worker-send", "raise"),
         ("chunk", "drop"), ("chunk", "corrupt")],
    )
    def test_retired_transport_sites_and_actions_rejected(self, site, action):
        # The TCP transport's sites and its frame-level actions went with it;
        # an old plan naming them fails loudly instead of never firing.
        with pytest.raises(ValueError, match="unknown fault"):
            Fault(site, 0, action)

    def test_matches_exact_and_wildcard_keys(self):
        assert Fault("chunk", 5, "raise").matches("chunk", 5)
        assert not Fault("chunk", 5, "raise").matches("chunk", 6)
        assert not Fault("chunk", 5, "raise").matches("merge", 5)
        assert Fault("chunk", ANY_KEY, "raise").matches("chunk", 123)


class TestFirePaths:
    def test_noop_without_plan(self, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        fire_fault("chunk", 0)  # must not raise

    def test_raise_action_fires_on_matching_key(self, tmp_path):
        with faults.active_plan([Fault("chunk", 3, "raise")], tmp_path):
            fire_fault("chunk", 0)  # no match
            with pytest.raises(FaultInjected):
                fire_fault("chunk", 3)

    def test_once_fault_fires_exactly_once(self, tmp_path):
        with faults.active_plan([Fault("chunk", 3, "raise")], tmp_path):
            with pytest.raises(FaultInjected):
                fire_fault("chunk", 3)
            fire_fault("chunk", 3)  # sentinel claimed: silent now

    def test_persistent_fault_fires_every_time(self, tmp_path):
        with faults.active_plan([Fault("chunk", 3, "raise", once=False)], tmp_path):
            for _ in range(3):
                with pytest.raises(FaultInjected):
                    fire_fault("chunk", 3)

    def test_interrupt_action_raises_keyboard_interrupt(self, tmp_path):
        with faults.active_plan([Fault("merge", 1, "interrupt")], tmp_path):
            with pytest.raises(KeyboardInterrupt):
                fire_fault("merge", 1)

    def test_environment_restored_after_block(self, tmp_path, monkeypatch):
        monkeypatch.delenv(faults.ENV_VAR, raising=False)
        with faults.active_plan([Fault("chunk", 0, "raise")], tmp_path):
            assert os.environ[faults.ENV_VAR]
        assert faults.ENV_VAR not in os.environ

    def test_plan_round_trips_through_the_file(self, tmp_path):
        plan = [Fault("chunk", 16, "delay", seconds=0.5, once=False)]
        path = faults.write_plan(plan, tmp_path)
        faults.clear_plan_cache()
        assert faults._load_plan(str(path)) == tuple(plan)


class TestCorruptionHelpers:
    def test_truncate_file(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text("0123456789")
        faults.truncate_file(path, 4)
        assert path.read_text() == "0123"

    def test_drop_json_field(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_text('{"a": 1, "b": 2}')
        faults.drop_json_field(path, "a")
        assert "a" not in path.read_text()
