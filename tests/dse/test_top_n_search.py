"""The one branch-and-bound driver, held to a brute-force reference.

``top_n_search`` is the only place the DSE prunes against the current
N-th best and sorts/truncates the finalist list; phase 1 and the unified
search both run on it, serial or pooled.  Whatever the batch size, it
must return exactly "evaluate everything, stable-sort, truncate"."""

import importlib
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dse import parallel
from repro.dse.explore import DseConfig, phase1
from repro.dse.multi_layer import prepare_network_nests, select_unified_design
from repro.dse.parallel import TaskPool, top_n_search
from repro.ir.loop import conv_loop_nest
from repro.model.platform import Platform
from repro.nn.models import tiny_cnn

# (score or None = infeasible, slack): bound = score + slack >= score.
# Small integer ranges make score and bound ties common.
candidate = st.tuples(st.one_of(st.none(), st.integers(0, 6)), st.integers(0, 3))
candidates = st.lists(candidate, max_size=40)


def rank(cands):
    """(bound, index) pairs, best bound first, as the searches build them."""
    bounds = [(s if s is not None else 3) + slack for s, slack in cands]
    return sorted(zip(map(float, bounds), range(len(cands))), key=lambda p: p[0], reverse=True)


def brute_force(cands, ranked, top_n):
    """Evaluate everything in rank order, stable-sort, truncate."""
    feasible = [(float(cands[i][0]), i) for _, i in ranked if cands[i][0] is not None]
    return sorted(feasible, key=lambda p: p[0], reverse=True)[:top_n]


def evaluate(cands, calls, index):
    calls.append(index)
    score = cands[index][0]
    return None if score is None else (float(score), index)


class EagerPool:
    """In-process stand-in for a process pool of ``workers`` workers: it
    evaluates the whole batch up front, like ``resilient_map`` does."""

    def __init__(self, cands, workers):
        self.workers = workers
        self.cands = cands
        self.calls = []

    def map(self, items):
        return [evaluate(self.cands, self.calls, item) for item in items]


def search(ranked, pool, top_n, pruning, tick=1):
    ticks = []
    finalists, feasible = top_n_search(
        ranked,
        pool,
        top_n=top_n,
        pruning=pruning,
        score=lambda outcome: outcome[0],
        tick=tick,
        progress=lambda done, total: ticks.append((done, total)),
    )
    return [(score, item) for score, item, _ in finalists], feasible, ticks


class TestDriverAgainstBruteForce:
    @settings(max_examples=200, deadline=None)
    @given(candidates, st.integers(1, 6), st.booleans(), st.integers(1, 9))
    def test_serial_equals_brute_force_and_wastes_nothing(self, cands, top_n, pruning, tick):
        ranked = rank(cands)
        calls = []
        with TaskPool(evaluate, (cands, calls), 1) as pool:
            finalists, feasible, ticks = search(ranked, pool, top_n, pruning, tick)
        assert finalists == brute_force(cands, ranked, top_n)  # values and order
        # One worker evaluates on demand: exactly the consumed prefix ran.
        assert calls == [i for _, i in ranked[: len(calls)]]
        if len(calls) < len(ranked):  # stopped: the next bound cannot enter
            assert pruning and len(finalists) == top_n
            assert ranked[len(calls)][0] <= finalists[-1][0]
        if not pruning:
            assert len(calls) == len(ranked)
            assert feasible == sum(1 for s, _ in cands if s is not None)
        # Progress: every ``tick`` candidates consumed, nothing else.
        assert ticks == [
            (done, len(ranked)) for done in range(tick, len(calls) + 1, tick)
        ]

    @settings(max_examples=200, deadline=None)
    @given(candidates, st.integers(1, 6), st.booleans(), st.data())
    def test_pooled_replay_equals_serial_for_every_batch_size(
        self, cands, top_n, pruning, data
    ):
        ranked = rank(cands)
        calls = []
        with TaskPool(evaluate, (cands, calls), 1) as pool:
            serial = search(ranked, pool, top_n, pruning)
        batch = data.draw(st.integers(2, max(2, len(ranked))))
        eager = EagerPool(cands, workers=batch)
        with mock.patch.object(parallel, "BATCH_FACTOR", 1):  # batch == workers
            pooled = search(ranked, eager, top_n, pruning)
        assert pooled[:2] == serial[:2]
        # The replay consumes what the serial walk consumed (reported once
        # per batch) and wastes at most the one batch the stop falls in.
        if ranked:
            assert pooled[2][-1] == (len(calls), len(ranked))
        assert len(calls) <= len(eager.calls) <= len(calls) + batch


class TestProgressOfTheRealSearches:
    """jobs=1 progress is what it has always been: phase 1 reports every
    32 configurations consumed, the unified search every 8."""

    @staticmethod
    def counting(target):
        calls = []

        def wrapper(*args):
            calls.append(args[-1])
            return target(*args)

        return calls, wrapper

    def expect(self, calls, total, tick):
        return [(done, total) for done in range(tick, len(calls) + 1, tick)]

    def test_phase1_ticks_every_32(self):
        # ``repro.dse.explore`` the attribute is the function of that name.
        explore = importlib.import_module("repro.dse.explore")
        nest = conv_loop_nest(16, 8, 7, 7, 3, 3, name="layer")
        for pruning in (True, False):
            config = DseConfig(
                min_dsp_utilization=0.0, vector_choices=(2, 4), top_n=40,
                upper_bound_pruning=pruning,
            )
            calls, wrapper = self.counting(explore.tune_candidate)
            ticks = []
            with mock.patch.object(explore, "tune_candidate", wrapper):
                result = phase1(
                    nest, Platform(), config, progress=lambda d, t: ticks.append((d, t))
                )
            assert ticks == self.expect(calls, result.configs_enumerated, 32)
            assert ticks  # the space is big enough to tick at all
            assert (len(calls) == result.configs_enumerated) == (not pruning)

    def test_unified_ticks_every_8(self):
        from repro.dse import multi_layer

        workloads = prepare_network_nests(tiny_cnn())
        config = DseConfig(
            min_dsp_utilization=0.0, vector_choices=(2, 4), top_n=3,
            upper_bound_pruning=False,
        )
        calls, wrapper = self.counting(multi_layer.evaluate_unified)
        ticks = []
        with mock.patch.object(multi_layer, "evaluate_unified", wrapper):
            result = select_unified_design(
                workloads, Platform(), config, progress=lambda d, t: ticks.append((d, t))
            )
        # Phase 2 maps top_n more evaluations (the finalists at their
        # realized clocks) through the same pool.
        walked = len(calls) - config.top_n
        assert walked == result.configs_enumerated
        assert ticks == self.expect(calls[:walked], result.configs_enumerated, 8)
        assert ticks


class TestConfigurationsAreBuiltLazily:
    """A search builds a ``SystolicConfig`` only for a row it walks: at
    most the configurations it tuned plus the one batch the stop falls in
    (32 for phase 1, 8 for the unified search at jobs=1) — a count, not a
    timer.  The space itself is thousands of rows."""

    @staticmethod
    def counting_configs(monkeypatch):
        from repro.dse.space import SystolicConfig

        built = []
        init = SystolicConfig.__init__

        def counting(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SystolicConfig, "__init__", counting)
        return built

    def test_phase1_on_alexnet_conv5(self, monkeypatch):
        from repro.nn.models import alexnet

        nest = next(w.nest for w in prepare_network_nests(alexnet()) if w.name == "conv5")
        built = self.counting_configs(monkeypatch)
        result = phase1(nest, Platform(), DseConfig())
        assert result.configs_enumerated > 3000
        assert len(built) <= result.configs_tuned + 32

    def test_unified_search_on_alexnet(self, monkeypatch):
        from repro.nn.models import alexnet

        workloads = prepare_network_nests(alexnet())
        built = self.counting_configs(monkeypatch)
        result = select_unified_design(workloads, Platform(), DseConfig())
        assert result.configs_enumerated > 3000
        assert len(built) <= result.configs_tuned + 8
