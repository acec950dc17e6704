"""A cache-served compile does each piece of repeated work once.

Three memos make a warm compile cheap, and none may change an answer:

* ``feasible_mappings`` answers once per access pattern (Eq. 2 over the
  Eq. 3 table reads subscripts, never trip counts or names);
* ``nest_from_dict`` returns one nest per distinct payload, and the
  phase-2 winner decodes onto the compile's own nest (the phase-1 entry
  is the search summary, with no designs);
* one ``PipelineEngine.run`` lowers each cache-key part object once.

The tests count the uncached work, hold every memo to a fresh
computation (cache keys to the documented recipe, recomputed from
scratch), and fuzz real cache entries: a mutated entry is either served
or quarantined (SA501) and recomputed, never a traceback.
"""

from __future__ import annotations

import gc
import hashlib
import importlib
import json
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse.explore import DseConfig, NoFeasibleDesign, phase1, phase2
from repro.dse.multi_layer import prepare_network_nests, select_unified_design
from repro.flow.compile import compile_c_source
from repro.flow.request import SynthesisRequest, run_context
from repro.frontend.emit import nest_to_c
from repro.ir.loop import LoopNest, conv_loop_nest
from repro.model import mapping as mapping_module
from repro.model import serialize
from repro.model.design_point import DesignEvaluation
from repro.model.mapping import feasible_mappings
from repro.model.platform import Platform
from repro.nn.models import vgg16
from repro.nn.folding import fold_layer
from repro.pipeline import cache as cache_module
from repro.pipeline import stages
from repro.pipeline.cache import code_version, stable_fingerprint
from repro.pipeline.codecs import Phase2Entry, decode_phase2, encode_phase2
from repro.pipeline.events import CacheProbe, StageDegraded, StageStarted
from tests.strategies import rich_conv_layers

explore = importlib.import_module("repro.dse.explore")  # the package exports a function of this name

FAST = DseConfig(min_dsp_utilization=0.0, vector_choices=(2,), top_n=3)
SOURCE = nest_to_c(conv_loop_nest(16, 8, 10, 10, 3, 3))
REQUEST = SynthesisRequest(config=FAST, source=SOURCE, name="user_nest", strict=True)


def clear_memos() -> None:
    mapping_module._FEASIBLE.clear()
    serialize._nest_from_bytes.cache_clear()


@pytest.fixture(autouse=True)
def fresh_memos():
    clear_memos()
    yield
    clear_memos()


@pytest.fixture
def enumerations(monkeypatch):
    """Every nest the uncached enumeration body runs on."""
    calls = []
    body = mapping_module._enumerate_mappings

    def counted(nest):
        calls.append(nest)
        return body(nest)

    monkeypatch.setattr(mapping_module, "_enumerate_mappings", counted)
    return calls


def recipe(stage: str, parts) -> str:
    """The documented cache-key recipe, with no memo anywhere."""
    material = json.dumps(
        [stage, code_version(), [stable_fingerprint(p) for p in parts]], sort_keys=True
    )
    return hashlib.sha256(material.encode()).hexdigest()


# ------------------------------------------------ feasibility per pattern


class TestFeasibilityPerAccessPattern:
    @settings(max_examples=60, deadline=None)
    @given(layer=rich_conv_layers(), fold=st.booleans(), grow=st.integers(1, 5))
    def test_memo_equals_a_fresh_enumeration(self, layer, fold, grow):
        clear_memos()
        if fold and layer.stride > 1 and layer.groups == 1 and layer.dilation == 1:
            layer = fold_layer(layer)
        nest = layer.to_loop_nest()
        memoized = feasible_mappings(nest)
        assert memoized == mapping_module._enumerate_mappings(nest)
        # Other trip counts and another name: the same pattern, one entry.
        variant = nest.with_bounds(
            {loop.iterator: loop.trip_count + grow for loop in nest.loops}, name="other"
        )
        assert feasible_mappings(variant) is memoized
        assert mapping_module._enumerate_mappings(variant) == memoized
        assert len(mapping_module._FEASIBLE) == 1

    def test_a_nest_that_raises_is_not_memoized(self):
        nest = conv_loop_nest(4, 4, 4, 4, 3, 3)
        lonely = replace(nest, accesses=nest.accesses[:2], name="lonely")
        for _ in range(2):
            with pytest.raises(ValueError, match="'lonely'"):
                feasible_mappings(lonely)
        assert not mapping_module._FEASIBLE

    def test_cold_strict_compile_enumerates_once(self, enumerations, tmp_path):
        compile_c_source(SOURCE, config=FAST, strict=True, cache=str(tmp_path))
        assert len(enumerations) == 1

    def test_warm_strict_compile_enumerates_nothing(self, enumerations, tmp_path):
        compile_c_source(SOURCE, config=FAST, strict=True, cache=str(tmp_path))
        enumerations.clear()
        warm = compile_c_source(SOURCE, config=FAST, strict=True, cache=str(tmp_path))
        assert warm.cache_hits == ("dse-phase1", "dse-phase2", "codegen", "simulate")
        # A cold compile of another layer with the same pattern also reuses it.
        other = nest_to_c(conv_loop_nest(12, 6, 8, 8, 3, 3))
        compile_c_source(other, config=FAST, strict=True, cache=str(tmp_path))
        assert enumerations == []

    def test_unified_vgg16_search_enumerates_once(self, enumerations):
        workloads = prepare_network_nests(vgg16())
        assert len(workloads) == 13
        select_unified_design(workloads, Platform(), DseConfig())
        assert len(enumerations) == 1


# --------------------------------------------------- nests decoded once


class TestDecodedNestsAreShared:
    def test_phase2_entry_is_the_winner_alone(self):
        nest = conv_loop_nest(16, 8, 10, 10, 3, 3)
        best = phase2(phase1(nest, Platform(), FAST), Platform()).best
        payload = json.loads(json.dumps(encode_phase2(Phase2Entry(best))))
        assert list(payload) == ["format", "nest", "best"]
        assert "nest" not in payload["best"]["design"]
        assert decode_phase2(payload) == Phase2Entry(best)
        assert decode_phase2(payload, nest).best.design.nest is nest

    def test_every_decoded_design_is_on_the_context_nest(self, tmp_path):
        run_context(REQUEST, cache=str(tmp_path))
        ctx = run_context(REQUEST, cache=str(tmp_path))
        assert ctx.cache_hits == ("dse-phase1", "dse-phase2", "codegen", "simulate")
        assert ctx.phase1.finalists == ()  # the search summary alone
        assert ctx.best.design.nest is ctx.nest

    def test_warm_phase2_decodes_one_evaluation(self, monkeypatch, tmp_path):
        compile_c_source(SOURCE, config=FAST, strict=True, cache=str(tmp_path))
        built: dict[str, int] = {}
        stage = {"name": ""}
        init = DesignEvaluation.__init__

        def counted(self, *args, **kwargs):
            built[stage["name"]] = built.get(stage["name"], 0) + 1
            init(self, *args, **kwargs)

        def started(event):
            if isinstance(event, StageStarted):
                stage["name"] = event.stage

        monkeypatch.setattr(DesignEvaluation, "__init__", counted)
        warm = compile_c_source(
            SOURCE, config=FAST, strict=True, cache=str(tmp_path), observers=(started,)
        )
        assert warm.cache_hits == ("dse-phase1", "dse-phase2", "codegen", "simulate")
        assert built["dse-phase2"] == 1
        assert "dse-phase1" not in built

    def test_payloads_that_differ_only_in_type_do_not_share(self):
        data = serialize.nest_to_dict(conv_loop_nest(4, 4, 4, 4, 3, 3))
        floated = json.loads(json.dumps(data))
        floated["loops"][0][1] = 4.0
        assert serialize.nest_from_dict(data).loops[0].trip_count == 4
        with pytest.raises(TypeError, match="is not int"):
            serialize.nest_from_dict(floated)
        assert serialize._nest_from_bytes.cache_info().currsize == 1


# --------------------------------------------------- cache-key identity


class TestCacheKeysFollowTheRecipe:
    def test_the_nest_is_lowered_once_across_the_four_keys(self, monkeypatch, tmp_path):
        lowered: list[LoopNest] = []
        real = cache_module.stable_fingerprint

        def spy(value, memo=None):
            if isinstance(value, LoopNest) and (memo is None or id(value) not in memo):
                lowered.append(value)
            return real(value, memo)

        monkeypatch.setattr(cache_module, "stable_fingerprint", spy)
        for run in ("cold", "warm"):
            lowered.clear()
            ctx = run_context(REQUEST, cache=str(tmp_path))
            assert len(ctx.cache_hits) == (4 if run == "warm" else 0)
            assert len(lowered) == 1 and lowered[0] is ctx.nest, run

    def test_every_probed_key_is_the_recipe(self, monkeypatch, tmp_path):
        seen: list[tuple[str, tuple]] = []
        for cls in (
            stages.DsePhase1Stage,
            stages.DsePhase2Stage,
            stages.CodegenStage,
            stages.SimulateStage,
        ):

            def recording(self, ctx, original=cls.cache_parts):
                parts = original(self, ctx)
                if parts is not None:
                    seen.append((self.name, parts))
                return parts

            monkeypatch.setattr(cls, "cache_parts", recording)
        # Several runs, built and dropped, so an id() reused after garbage
        # collection would surface as a wrong key.
        for outer in (16, 12, 16):
            source = nest_to_c(conv_loop_nest(outer, 8, 10, 10, 3, 3))
            for _ in ("cold", "warm"):
                probes: list[CacheProbe] = []
                seen.clear()
                compile_c_source(
                    source, config=FAST, strict=True, cache=str(tmp_path),
                    observers=(lambda e: probes.append(e) if isinstance(e, CacheProbe) else None,),
                )
                assert [p.stage for p in probes] == [name for name, _ in seen]
                assert [p.key for p in probes] == [recipe(name, parts) for name, parts in seen]
                del probes
                gc.collect()

    def test_request_fingerprint_is_the_recipe(self):
        for n in range(30):
            request = SynthesisRequest(
                Platform(), FAST, nest=conv_loop_nest(4 + n % 5, 4, 4, 4, 3, 3), strict=n % 2 == 0
            )
            parts = (
                replace(request.nest, name=""),
                request.platform,
                request.config,
                request.strict,
                request.sim_backend or "",
            )
            assert request.fingerprint() == recipe("service-job", parts)
            del request, parts
            gc.collect()


# ------------------------------------------------ store-reader fuzzing

_OTHER_JSON = (None, True, 0, 1.5, "x", [], {})
FUZZED_STAGES = ("dse-phase1", "dse-phase2", "codegen")


def _nodes(node, path=()):
    yield path, node
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(node, list):
        for index, value in enumerate(node):
            yield from _nodes(value, path + (index,))


def _mutate(data, draw) -> None:
    """One type or structure mutation of a JSON payload, in place: a
    value replaced by another JSON type, a dropped key or a truncated
    list."""
    nodes = list(_nodes(data))
    targets = {
        "retype": [(p, n) for p, n in nodes if p],
        "drop": [(p, n) for p, n in nodes if isinstance(n, dict) and n],
        "truncate": [(p, n) for p, n in nodes if isinstance(n, list) and n],
    }
    kind = draw(st.sampled_from([k for k, found in targets.items() if found]))
    path, node = targets[kind][draw(st.integers(0, len(targets[kind]) - 1))]
    if kind == "retype":
        parent = data
        for step in path[:-1]:
            parent = parent[step]
        parent[path[-1]] = draw(
            st.sampled_from([v for v in _OTHER_JSON if type(v) is not type(node)])
        )
    elif kind == "drop":
        del node[draw(st.sampled_from(sorted(node)))]
    else:
        del node[draw(st.integers(0, len(node) - 1)):]


@pytest.mark.parametrize(
    "stage, path",
    [
        ("dse-phase2", ("nest", "accesses")),
        ("dse-phase2", ("nest", "loops")),
    ],
)
def test_an_entry_off_the_nest_is_quarantined(tmp_path, stage, path):
    """A well-formed entry whose winner sits on another nest (here one
    with an access or a loop cut off) is malformed for this compile.
    (The phase-1 entry holds no nest: its key alone names one.)"""
    store = tmp_path / "store"
    reference = compile_c_source(SOURCE, config=FAST, strict=True, cache=str(store))
    entry = next((store / stage).glob("*.json"))
    payload = json.loads(entry.read_text())
    node = payload
    for step in path:
        node = node[step]
    del node[-1]
    entry.write_text(json.dumps(payload))
    warm = compile_c_source(SOURCE, config=FAST, strict=True, cache=str(store))
    assert stage not in warm.cache_hits
    assert [code for code, _ in warm.degradations] == ["SA501"]
    assert warm == reference


def test_mutated_entries_are_served_or_quarantined(tmp_path):
    store = tmp_path / "store"
    reference = compile_c_source(SOURCE, config=FAST, strict=True, cache=str(store))
    entries = {stage: next((store / stage).glob("*.json")) for stage in FUZZED_STAGES}
    originals = {stage: path.read_text() for stage, path in entries.items()}

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def mutate_one_entry(data):
        stage = data.draw(st.sampled_from(FUZZED_STAGES))
        payload = json.loads(originals[stage])
        _mutate(payload, data.draw)
        entries[stage].write_text(json.dumps(payload))
        events = []
        try:
            out = compile_c_source(
                SOURCE, config=FAST, strict=True, cache=str(store), observers=(events.append,)
            )
            quarantined = [
                e for e in events
                if isinstance(e, StageDegraded) and e.stage == stage and e.code == "SA501"
            ]
            assert stage in out.cache_hits or (quarantined and stage not in out.cache_hits)
        finally:
            for name, path in entries.items():
                path.write_text(originals[name])
            for corrupt in store.rglob("*.corrupt"):
                corrupt.unlink()

    mutate_one_entry()
    # No malformed nest was interned: a clean pair still equals the reference.
    clean = str(tmp_path / "clean")
    cold = compile_c_source(SOURCE, config=FAST, strict=True, cache=clean)
    warm = compile_c_source(SOURCE, config=FAST, strict=True, cache=clean)
    assert warm.cache_hits == ("dse-phase1", "dse-phase2", "codegen", "simulate")
    assert cold == warm == reference


#: JSON kinds: an int and a float are one kind, a number.
_KIND = {type(None): "null", bool: "bool", int: "number", float: "number", str: "string"}
_RETYPES = (None, True, 0, "x", [], {})


@pytest.mark.parametrize("stage", ("dse-phase1", "dse-phase2"))
def test_every_leaf_retyped_is_served_equal_or_quarantined(tmp_path, stage):
    """Each leaf of a phase entry in turn becomes a value of another JSON
    kind.  The compile then serves a result equal to the reference, or
    quarantines the entry (SA501) and recomputes it; never a traceback."""
    store = tmp_path / "store"
    reference = compile_c_source(SOURCE, config=FAST, strict=True, cache=str(store))
    entry = next((store / stage).glob("*.json"))
    original = entry.read_text()
    leaves = [(p, n) for p, n in _nodes(json.loads(original)) if not isinstance(n, (dict, list))]
    assert len(leaves) == 5 if stage == "dse-phase1" else len(leaves) > 50
    for index, (path, leaf) in enumerate(leaves):
        others = [v for v in _RETYPES if _KIND.get(type(v)) != _KIND[type(leaf)]]
        payload = json.loads(original)
        node = payload
        for step in path[:-1]:
            node = node[step]
        node[path[-1]] = others[index % len(others)]
        entry.write_text(json.dumps(payload))
        events: list = []
        out = compile_c_source(
            SOURCE, config=FAST, strict=True, cache=str(store), observers=(events.append,)
        )
        quarantined = [
            e for e in events
            if isinstance(e, StageDegraded) and e.stage == stage and e.code == "SA501"
        ]
        assert out == reference, path
        assert (stage in out.cache_hits) != bool(quarantined), path
        entry.write_text(original)
        for corrupt in store.rglob("*.corrupt"):
            corrupt.unlink()


@pytest.fixture
def searches(monkeypatch):
    """The subjects of the phase-1 searches run during the test."""
    subjects = []
    search = explore.phase1

    def counted(*args, **kwargs):
        subjects.append(args[0])
        return search(*args, **kwargs)

    monkeypatch.setattr(explore, "phase1", counted)
    return subjects


@pytest.mark.parametrize("damage", ("deleted", "corrupt"))
def test_a_phase2_miss_behind_a_phase1_hit_searches_once(searches, tmp_path, damage):
    """A cache-served phase 1 is the search summary, without the
    finalists phase 2 reads.  With the phase-2 entry gone or quarantined,
    phase 2 runs the search once and reaches the cold result."""
    store = tmp_path / "store"
    reference = compile_c_source(SOURCE, config=FAST, strict=True, cache=str(store))
    entry = next((store / "dse-phase2").glob("*.json"))
    if damage == "deleted":
        entry.unlink()
    else:
        entry.write_text(entry.read_text()[:40])
    searches.clear()
    warm = compile_c_source(SOURCE, config=FAST, strict=True, cache=str(store))
    assert warm == reference
    assert warm.cache_hits == ("dse-phase1", "codegen", "simulate")
    assert len(searches) == 1
    assert [code for code, _ in warm.degradations] == (["SA501"] if damage == "corrupt" else [])
    # The recomputed winner is stored again: the next compile searches nothing.
    again = compile_c_source(SOURCE, config=FAST, strict=True, cache=str(store))
    assert again.cache_hits == ("dse-phase1", "dse-phase2", "codegen", "simulate")
    assert again == reference and len(searches) == 1


def test_a_search_that_finds_nothing_runs_once(searches, tmp_path):
    """No feasible configuration is an answer, not a summary: phase 2
    reports it without searching again, cold or behind the served entry."""
    config = replace(FAST, min_dsp_utilization=1.0)
    for _ in range(2):
        with pytest.raises(NoFeasibleDesign):
            compile_c_source(SOURCE, config=config, strict=True, cache=str(tmp_path))
    assert len(searches) == 1
