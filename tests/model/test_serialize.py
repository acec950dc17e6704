"""Tests for design persistence (JSON round-trips).

``TestRecordTable`` holds every two-way payload to one contract, driven
by the record table itself; the classes after it keep what is specific
to one payload.
"""

import copy
import dataclasses
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.pipeline.codecs  # noqa: F401 - its records join the table
from repro.ir.loop import conv_loop_nest
from repro.model.design_point import ArrayShape, DesignPoint
from repro.model.mapping import Mapping
from repro.model.platform import Platform
from repro.model.serialize import (
    MEASUREMENT,
    RECORDS,
    design_from_dict,
    design_to_dict,
    evaluation_from_dict,
    evaluation_to_dict,
    load_design,
    load_result,
    measurement_from_dict,
    measurement_to_dict,
    result_from_dict,
    result_to_dict,
    save_design,
    save_result,
)


def sample_design(stride=1):
    nest = conv_loop_nest(16, 8, 7, 7, 3, 3, stride=stride, name="sample")
    return DesignPoint.create(
        nest,
        Mapping("o", "c", "i", "IN", "W"),
        ArrayShape(4, 7, 2),
        {"i": 2, "r": 7, "p": 3, "q": 3},
    )


GOLDEN = Path(__file__).parent / "golden" / "payloads.json"

#: Every two-way payload: the format-tagged records plus the one untagged
#: record that is stored on its own (the simulate stage's cache entry).
TABLE = {**RECORDS, "measurement": MEASUREMENT}

#: Keys a payload may lack: fields with a dataclass default, and
#: ``rtl_source`` (absent from results saved before the RTL backend).
MAY_BE_ABSENT = {"middle", "degradations", "engine_result", "rtl_source"}

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8) | st.sampled_from(["format"]), inner, max_size=4),
    max_leaves=12,
)


@pytest.fixture(scope="module")
def samples():
    """One value per table entry, from one small nest with ``top_n=2``."""
    from repro.dse.explore import DseConfig, phase1, phase2
    from repro.dse.multi_layer import prepare_network_nests, select_unified_design
    from repro.flow.compile import synthesize_nest
    from repro.nn.models import tiny_cnn
    from repro.pipeline.codecs import Phase2Entry

    nest = conv_loop_nest(8, 4, 5, 5, 3, 3, name="layer")
    config = DseConfig(min_dsp_utilization=0.0, vector_choices=(2,), top_n=2)
    platform = Platform()
    first = phase1(nest, platform, config)
    second = phase2(first, platform)
    result = dataclasses.replace(
        synthesize_nest(nest, platform, config, sim_backend="fast"),
        kernel_source="// kernel\n",
        host_source="// host\n",
        testbench_source="// testbench\n",
        driver_source="// driver\n",
        rtl_source="// rtl\n",
        degradations=(("SA501", "corrupt cache payload"), ("SA503", "serial")),
    )
    unified = select_unified_design(prepare_network_nests(tiny_cnn()), platform, config)
    return {
        "repro-design/1": second.best.design,
        "repro-evaluation/1": second.best,
        "measurement": result.measurement,
        "repro-engine-result/1": result.engine_result,
        "repro-result/1": result,
        "repro-phase1/3": dataclasses.replace(first, finalists=()),  # the entry is the summary
        "repro-phase2/2": Phase2Entry(second.best),
        "repro-unified/1": unified,
    }


@pytest.fixture(scope="module")
def golden(request, samples):
    """The pinned payloads.  ``--refresh-golden`` rewrites the file first
    — only for a deliberate format change, which also bumps the tag."""
    if request.config.getoption("--refresh-golden"):
        lines = ",\n".join(
            f"{json.dumps(tag)}: {json.dumps(TABLE[tag].encode(value))}"
            for tag, value in samples.items()
        )
        GOLDEN.write_text("{\n" + lines + "\n}\n")
    return json.loads(GOLDEN.read_text())


def wire_of(tag, samples):
    """The payload as a client reads it: through ``json.dumps/loads``."""
    return json.loads(json.dumps(TABLE[tag].encode(samples[tag])))


def paths_of(payload, prefix=()):
    """Every (path to a container, key or index in it), depth first."""
    items = (
        payload.items() if isinstance(payload, dict)
        else enumerate(payload) if isinstance(payload, list)
        else ()
    )
    for key, value in items:
        yield prefix, key
        yield from paths_of(value, prefix + (key,))


def at(payload, path):
    for step in path:
        payload = payload[step]
    return payload


def decodes_or_value_error(record, payload):
    """Decode; a ValueError is an answer, anything else propagates."""
    try:
        record.decode(payload)
    except ValueError:
        return False
    return True


def test_every_record_has_a_sample(samples):
    assert set(samples) == set(TABLE)


def test_infinity_where_an_int_belongs_is_malformed(samples):
    """``json.loads`` accepts ``Infinity``; ``int()`` of it overflows."""
    wire = wire_of("repro-design/1", samples)
    wire["nest"]["accesses"][0]["consts"][0] = float("inf")
    with pytest.raises(ValueError, match="malformed"):
        TABLE["repro-design/1"].decode(wire)


@pytest.mark.parametrize("tag", sorted(TABLE))
class TestRecordTable:
    def test_round_trip_through_json(self, tag, samples):
        from repro.sim.fast import EngineResult

        record, value = TABLE[tag], samples[tag]
        wire = wire_of(tag, samples)
        rebuilt = record.decode(wire)
        assert type(rebuilt) is type(value)
        if isinstance(value, EngineResult):  # an ndarray field: no dataclass ==
            assert rebuilt.output.tobytes() == value.output.tobytes()
            assert rebuilt.output.shape == value.output.shape
        else:
            assert rebuilt == value
        # ... and the fields == skips (timings, degradations, the tensor)
        assert json.dumps(record.encode(rebuilt)) == json.dumps(wire)

    def test_unknown_format_rejected(self, tag, samples):
        if TABLE[tag].tag is None:
            pytest.skip("untagged record")
        wire = wire_of(tag, samples)
        for bad in ({**wire, "format": tag[:-1] + "999"}, {"format": tag[:-1] + "999"},
                    {k: v for k, v in wire.items() if k != "format"}):
            with pytest.raises(ValueError, match="format"):
                TABLE[tag].decode(bad)

    def test_each_key_removed_in_turn(self, tag, samples):
        """At the top level a missing key is malformed unless the field
        has a default; at any depth it is never anything but ValueError."""
        record, wire = TABLE[tag], wire_of(tag, samples)
        for path, key in paths_of(wire):
            if isinstance(key, int):
                continue  # a list index: a shorter list, not a missing key
            broken = copy.deepcopy(wire)
            del at(broken, path)[key]
            decoded = decodes_or_value_error(record, broken)
            if not path:
                assert decoded == (key in MAY_BE_ABSENT), key

    @settings(max_examples=60, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(value=JSON_VALUES)
    def test_arbitrary_json_rejected(self, tag, value):
        record = TABLE[tag]
        with pytest.raises(ValueError):
            record.decode(value)
        if record.tag is not None and isinstance(value, dict):
            with pytest.raises(ValueError):  # past the tag check
                record.decode({**value, "format": record.tag})

    @settings(max_examples=120, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_arbitrary_json_at_any_key(self, tag, samples, data):
        """The trust boundary: whatever sits where a value should be, the
        decoder answers with a record or a ValueError."""
        wire = wire_of(tag, samples)
        path, key = data.draw(st.sampled_from(list(paths_of(wire))))
        at(wire, path)[key] = data.draw(JSON_VALUES)
        decodes_or_value_error(TABLE[tag], wire)

    def test_golden_bytes(self, tag, samples, golden):
        """The exact ``json.dumps`` bytes of every payload, pinned by a
        file the hand-written codecs of commit 4b91055 produced from
        :func:`samples`."""
        assert set(golden) == set(TABLE)
        record = TABLE[tag]
        assert json.dumps(record.encode(record.decode(golden[tag]))) == json.dumps(golden[tag])
        # same keys in the same order as today's encoder writes them
        assert list(paths_of(wire_of(tag, samples))) == list(paths_of(golden[tag]))


DOCS = Path(__file__).parent.parent.parent / "docs" / "architecture.md"


class TestDocs:
    def test_payload_formats_table_is_the_record_table(self):
        section = DOCS.read_text().split("### Payload formats")[1].split("\n## ")[0]
        rows = [line for line in section.splitlines() if line.startswith("| `")]
        assert rows == [
            f"| `{tag}` | `{record.cls.__name__}` | {record.where} |"
            for tag, record in RECORDS.items()
        ]

    def test_event_schema_table_lists_every_event_type(self):
        import re

        from repro.pipeline import events

        section = DOCS.read_text().split("## Event schema")[1].split("\n## ")[0]
        documented = dict(re.findall(r"^\| `(\w+)` \| (.*?) \|", section, flags=re.MULTILINE))
        declared = {
            cls.__name__: ", ".join(f"`{f.name}`" for f in dataclasses.fields(cls))
            for cls in vars(events).values()
            if isinstance(cls, type)
            and issubclass(cls, events.PipelineEvent)
            and cls is not events.PipelineEvent
        }
        assert documented == declared


class TestRoundTrip:
    def test_dict_round_trip_is_equal(self):
        design = sample_design()
        rebuilt = design_from_dict(design_to_dict(design))
        assert rebuilt == design

    def test_strided_access_functions_survive(self):
        design = sample_design(stride=2)
        rebuilt = design_from_dict(design_to_dict(design))
        assert rebuilt.nest.access("IN") == design.nest.access("IN")

    def test_file_round_trip(self, tmp_path):
        design = sample_design()
        path = tmp_path / "design.json"
        save_design(design, path)
        assert load_design(path) == design

    def test_payload_is_plain_json(self, tmp_path):
        design = sample_design()
        path = tmp_path / "design.json"
        save_design(design, path)
        data = json.loads(path.read_text())
        assert data["format"] == "repro-design/1"
        assert data["shape"] == [4, 7, 2]

    def test_rebuilt_design_evaluates_identically(self):
        design = sample_design()
        rebuilt = design_from_dict(design_to_dict(design))
        platform = Platform()
        a = design.evaluate(platform)
        b = rebuilt.evaluate(platform)
        assert a.throughput_gops == pytest.approx(b.throughput_gops, rel=1e-12)
        assert a.bram.total == b.bram.total

    @settings(max_examples=25)
    @given(
        st.integers(1, 32),
        st.integers(1, 16),
        st.integers(1, 10),
        st.integers(1, 3),
        st.integers(1, 2),
    )
    def test_property_round_trip(self, o, i, rc, k, stride):
        nest = conv_loop_nest(o, i, rc, rc, k, k, stride=stride)
        design = DesignPoint.create(
            nest, Mapping("o", "c", "i", "IN", "W"), ArrayShape(2, 2, 2), {"p": k}
        )
        assert design_from_dict(design_to_dict(design)) == design


class TestEvaluationRoundTrip:
    def test_dict_round_trip_is_equal(self):
        evaluation = sample_design().evaluate(Platform())
        rebuilt = evaluation_from_dict(evaluation_to_dict(evaluation))
        assert rebuilt == evaluation

    def test_floats_survive_json_exactly(self):
        evaluation = sample_design().evaluate(Platform())
        wire = json.loads(json.dumps(evaluation_to_dict(evaluation)))
        rebuilt = evaluation_from_dict(wire)
        assert rebuilt.throughput_gops == evaluation.throughput_gops
        assert rebuilt.performance == evaluation.performance
        assert rebuilt.bram == evaluation.bram


class TestResultRoundTrip:
    @pytest.fixture(scope="class")
    def result(self):
        from repro.dse.explore import DseConfig
        from repro.flow.compile import synthesize_nest

        nest = conv_loop_nest(16, 8, 7, 7, 3, 3, name="layer")
        fast = DseConfig(min_dsp_utilization=0.0, vector_choices=(2, 4), top_n=3)
        return synthesize_nest(nest, Platform(), fast)

    def test_dict_round_trip_is_equal(self, result):
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt == result
        assert rebuilt.kernel_source == result.kernel_source
        assert rebuilt.measurement == result.measurement

    def test_file_round_trip(self, result, tmp_path):
        path = tmp_path / "result.json"
        save_result(result, path)
        rebuilt = load_result(path)
        assert rebuilt == result
        assert json.loads(path.read_text())["format"] == "repro-result/1"

    def test_measurement_round_trip(self, result):
        wire = json.loads(json.dumps(measurement_to_dict(result.measurement)))
        assert measurement_from_dict(wire) == result.measurement

    def test_malformed_payload_rejected(self, result):
        data = result_to_dict(result)
        del data["measurement"]["cycles"]
        with pytest.raises(ValueError, match="malformed"):
            result_from_dict(data)

    def test_degradations_round_trip(self, result, tmp_path):
        # degradations carry compare=False, so equality can't catch a codec
        # that drops them — assert on the field itself.
        import dataclasses

        degraded = dataclasses.replace(
            result,
            degradations=(("SA501", "corrupt cache payload"), ("SA503", "serial")),
        )
        wire = json.loads(json.dumps(result_to_dict(degraded)))
        assert result_from_dict(wire).degradations == degraded.degradations
        path = tmp_path / "degraded.json"
        save_result(degraded, path)
        assert load_result(path).degradations == degraded.degradations
        assert json.loads(path.read_text())["degradations"] == [
            ["SA501", "corrupt cache payload"], ["SA503", "serial"],
        ]

    def test_degradations_default_for_old_payloads(self, result):
        data = result_to_dict(result)
        del data["degradations"]  # payload saved before the field existed
        assert result_from_dict(data).degradations == ()


class TestEngineResultRoundTrip:
    @pytest.fixture(scope="class")
    def engine_result(self):
        from repro.sim.fast import FastWavefrontSimulator
        from repro.verify.conformance import synthetic_arrays

        design = sample_design()
        return FastWavefrontSimulator(design).run(synthetic_arrays(design.nest))

    def test_dict_round_trip_is_bit_identical(self, engine_result):
        from repro.model.serialize import (
            engine_result_from_dict,
            engine_result_to_dict,
        )

        wire = json.loads(json.dumps(engine_result_to_dict(engine_result)))
        rebuilt = engine_result_from_dict(wire)
        assert rebuilt.output.tobytes() == engine_result.output.tobytes()
        assert rebuilt.output.shape == engine_result.output.shape
        assert rebuilt.compute_cycles == engine_result.compute_cycles
        assert rebuilt.blocks == engine_result.blocks
        assert rebuilt.waves == engine_result.waves
        assert rebuilt.pe_active_cycles == engine_result.pe_active_cycles
        assert rebuilt.first_all_active_cycle == engine_result.first_all_active_cycle

    def test_malformed_payload_rejected(self, engine_result):
        from repro.model.serialize import (
            engine_result_from_dict,
            engine_result_to_dict,
        )

        data = engine_result_to_dict(engine_result)
        del data["waves"]
        with pytest.raises(ValueError, match="malformed"):
            engine_result_from_dict(data)

    def test_save_result_preserves_sim_stats(self, engine_result, tmp_path):
        """``--save-result`` after ``--sim-backend`` keeps the wavefront
        counters: the engine_result travels inside the result payload."""
        import dataclasses

        from repro.dse.explore import DseConfig
        from repro.flow.compile import synthesize_nest

        nest = conv_loop_nest(16, 8, 7, 7, 3, 3, name="layer")
        fast = DseConfig(min_dsp_utilization=0.0, vector_choices=(2, 4), top_n=3)
        result = synthesize_nest(nest, Platform(), fast)
        result = dataclasses.replace(result, engine_result=engine_result)
        path = tmp_path / "result.json"
        save_result(result, path)
        rebuilt = load_result(path)
        assert rebuilt.engine_result is not None
        assert rebuilt.engine_result.output.tobytes() == engine_result.output.tobytes()
        assert rebuilt.engine_result.compute_cycles == engine_result.compute_cycles

    def test_result_without_engine_result_loads_as_none(self, tmp_path):
        from repro.dse.explore import DseConfig
        from repro.flow.compile import synthesize_nest

        nest = conv_loop_nest(16, 8, 7, 7, 3, 3, name="layer")
        fast = DseConfig(min_dsp_utilization=0.0, vector_choices=(2, 4), top_n=3)
        result = synthesize_nest(nest, Platform(), fast)
        rebuilt = result_from_dict(result_to_dict(result))
        assert rebuilt.engine_result is None


class TestValidation:
    def test_malformed_payload_rejected(self):
        data = design_to_dict(sample_design())
        del data["mapping"]["row"]
        with pytest.raises(ValueError, match="malformed"):
            design_from_dict(data)

    def test_infeasible_shape_still_loads(self):
        """Persistence is mechanical; feasibility is the DSE's concern."""
        data = design_to_dict(sample_design())
        data["shape"] = [1000, 1000, 8]
        rebuilt = design_from_dict(data)
        assert rebuilt.shape.lanes == 8_000_000
