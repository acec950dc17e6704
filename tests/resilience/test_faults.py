"""The fault-injection registry: specs, plans, determinism, firing."""

import os
import pickle

import pytest
from hypothesis import given, strategies as st

from repro.resilience.faults import (
    FAULT_KINDS,
    FAULT_PLAN_ENV_VAR,
    FAULT_POINTS,
    FAULT_SEED_ENV_VAR,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    activate,
    active_injector,
    add_listener,
    corrupt_payload,
    corrupt_text,
    deactivate,
    injected,
    maybe_inject,
    remove_listener,
)

points = st.sampled_from(FAULT_POINTS)
kinds = st.sampled_from(FAULT_KINDS)


class TestFaultSpec:
    @given(
        point=points,
        kind=kinds,
        probability=st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        times=st.none() | st.integers(min_value=1, max_value=100),
    )
    def test_spec_round_trips_through_parse(self, point, kind, probability, times):
        spec = FaultSpec(point, kind, probability=probability, times=times)
        assert FaultSpec.parse(spec.to_spec()) == spec

    def test_raise_is_an_alias_for_crash(self):
        assert FaultSpec("dse.worker", "raise").kind == "crash"

    def test_unknown_point_rejected(self):
        with pytest.raises(ValueError, match="unknown fault point"):
            FaultSpec("nonsense.place", "crash")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec("dse.worker", "explode")

    def test_probability_range_enforced(self):
        with pytest.raises(ValueError, match="probability"):
            FaultSpec("dse.worker", "crash", probability=1.5)

    def test_options_parse(self):
        spec = FaultSpec.parse("dse.worker:crash:p=0.3:times=2")
        assert spec.probability == 0.3
        assert spec.times == 2

    def test_malformed_specs_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec.parse("dse.worker")
        with pytest.raises(ValueError):
            FaultSpec.parse("dse.worker:crash:bogus")
        with pytest.raises(ValueError):
            FaultSpec.parse("dse.worker:crash:speed=9")


class TestFaultPlan:
    def test_parse_splits_on_semicolons(self):
        plan = FaultPlan.parse("dse.worker:crash:p=0.3;cache.write:corrupt", seed=7)
        assert len(plan.specs) == 2
        assert plan.seed == 7
        assert plan.spec_for("cache.write").kind == "corrupt"
        assert plan.spec_for("sim.step") is None

    def test_duplicate_points_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan.parse("dse.worker:crash;dse.worker:delay")

    def test_plan_round_trips(self):
        text = "dse.worker:crash:p=0.3;cache.write:corrupt"
        assert FaultPlan.parse(text).to_spec() == text


class TestInjectorDeterminism:
    def test_same_seed_same_firing_sequence(self):
        plan = FaultPlan.parse("dse.worker:crash:p=0.3", seed=7)
        draws = [
            [inj.poll("dse.worker") is not None for _ in range(200)]
            for inj in (FaultInjector(plan), FaultInjector(plan))
        ]
        assert draws[0] == draws[1]
        assert any(draws[0]) and not all(draws[0])  # p=0.3 is neither extreme

    def test_different_seeds_differ(self):
        fires = [
            [
                FaultInjector(FaultPlan.parse("dse.worker:crash:p=0.5", seed=s)).poll(
                    "dse.worker"
                )
                is not None
                for _ in range(64)
            ]
            for s in (1, 2)
        ]
        # Re-poll on fresh injectors per seed so streams start clean.
        a = FaultInjector(FaultPlan.parse("dse.worker:crash:p=0.5", seed=1))
        b = FaultInjector(FaultPlan.parse("dse.worker:crash:p=0.5", seed=2))
        assert [a.poll("dse.worker") for _ in range(64)] != [
            b.poll("dse.worker") for _ in range(64)
        ] or fires[0] != fires[1]

    def test_probability_extremes(self):
        always = FaultInjector(FaultPlan.parse("sim.step:crash:p=1.0"))
        never = FaultInjector(FaultPlan.parse("sim.step:crash:p=0.0"))
        assert all(always.poll("sim.step") for _ in range(20))
        assert not any(never.poll("sim.step") for _ in range(20))

    def test_times_budget(self):
        injector = FaultInjector(FaultPlan.parse("sim.step:crash:times=3"))
        fired = [injector.poll("sim.step") is not None for _ in range(10)]
        assert fired == [True] * 3 + [False] * 7
        assert injector.fired == [("sim.step", "crash")] * 3


class TestMaybeInject:
    def test_no_active_plan_is_a_noop(self):
        deactivate()
        os.environ.pop(FAULT_PLAN_ENV_VAR, None)
        assert maybe_inject("sim.step") is None

    def test_crash_raises_injected_fault(self):
        with injected(FaultPlan.parse("sim.step:crash")):
            with pytest.raises(InjectedFault) as excinfo:
                maybe_inject("sim.step")
        assert excinfo.value.point == "sim.step"

    def test_corrupt_returns_marker(self):
        with injected(FaultPlan.parse("cache.read:corrupt")):
            assert maybe_inject("cache.read") == "corrupt"

    def test_delay_sleeps_the_configured_duration(self):
        slept = []
        with injected(FaultPlan.parse("sim.step:delay:delay=0.5")):
            assert maybe_inject("sim.step", sleep=slept.append) is None
        assert slept == [0.5]

    def test_unplanned_point_does_not_fire(self):
        with injected(FaultPlan.parse("sim.step:crash")):
            assert maybe_inject("cache.read") is None

    def test_listener_sees_fired_faults(self):
        seen = []
        listener = lambda point, kind: seen.append((point, kind))  # noqa: E731
        add_listener(listener)
        try:
            with injected(FaultPlan.parse("cache.read:corrupt")):
                maybe_inject("cache.read")
        finally:
            remove_listener(listener)
        assert seen == [("cache.read", "corrupt")]

    def test_injected_restores_previous_plan(self):
        outer = activate(FaultPlan.parse("sim.step:crash"))
        with injected(FaultPlan.parse("cache.read:corrupt")):
            assert active_injector() is not outer
        assert active_injector() is outer


class TestEnvActivation:
    def test_env_plan_applies_lazily(self):
        deactivate()
        os.environ[FAULT_PLAN_ENV_VAR] = "sim.step:crash"
        os.environ[FAULT_SEED_ENV_VAR] = "3"
        injector = active_injector()
        assert injector is not None
        assert injector.plan.seed == 3
        with pytest.raises(InjectedFault):
            maybe_inject("sim.step")

    def test_explicit_activation_wins_over_env(self):
        os.environ[FAULT_PLAN_ENV_VAR] = "sim.step:crash"
        with injected(FaultPlan()):  # empty plan shields the env plan
            assert maybe_inject("sim.step") is None

    def test_activate_exports_env_for_workers(self):
        os.environ.pop(FAULT_PLAN_ENV_VAR, None)
        activate(FaultPlan.parse("dse.worker:crash:p=0.3", seed=7), export_env=True)
        assert os.environ[FAULT_PLAN_ENV_VAR] == "dse.worker:crash:p=0.3"
        assert os.environ[FAULT_SEED_ENV_VAR] == "7"
        deactivate(clear_env=True)
        assert FAULT_PLAN_ENV_VAR not in os.environ


class TestCorruption:
    @given(st.text(max_size=300))
    def test_corrupt_text_differs_and_is_invalid_json(self, text):
        import json

        garbled = corrupt_text(text)
        assert garbled != text
        with pytest.raises(ValueError):
            json.loads(garbled)

    def test_corrupt_payload_is_structurally_broken(self):
        broken = corrupt_payload({"a": 1, "b": 2})
        assert broken["__corrupt__"] is True
        assert broken["keys_lost"] == ["a", "b"]


class TestInjectedFaultPickling:
    def test_round_trips_across_process_boundaries(self):
        fault = InjectedFault("dse.worker")
        clone = pickle.loads(pickle.dumps(fault))
        assert isinstance(clone, InjectedFault)
        assert clone.point == "dse.worker"
        assert clone.kind == "crash"


class TestFaultPointCatalog:
    """Every listing of the fault points is the registry, not a copy."""

    def test_docs_table_matches_the_registry(self):
        """Catalog parity (mirrors the SAxxx catalog test): the table in
        docs/resilience.md names exactly the registered points."""
        import re
        from pathlib import Path

        doc = Path(__file__).parent.parent.parent / "docs" / "resilience.md"
        section = doc.read_text().split("### Fault points")[1].split("###")[0]
        documented = re.findall(r"^\| `([a-z.]+)` \|", section, flags=re.MULTILINE)
        assert documented == list(FAULT_POINTS)

    def test_module_docstring_table_matches_the_registry(self):
        import re

        import repro.resilience.faults as module

        listed = re.findall(r"^``([a-z.]+)``", module.__doc__, flags=re.MULTILINE)
        assert listed == list(FAULT_POINTS)

    def test_cli_help_lists_every_point_and_kind(self):
        from repro.flow.cli import build_arg_parser

        text = " ".join(build_arg_parser().format_help().split())
        assert f"points: {' '.join(FAULT_POINTS)};" in text
        assert f"kinds: {' '.join(FAULT_KINDS)})" in text
