"""Unit tests for the sharded multi-process executor and the campaign suite."""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import pytest

import repro.campaign.sharded as sharded_module
from repro.analysis_static import ImplicationEngine
from repro.atpg import (
    DetectionReport,
    concat_phase_reports,
    merge_fault_shards,
    packed_simulate_shard,
)
from repro.atpg.structural import CircuitContext
from repro.campaign import (
    Campaign,
    CampaignError,
    CampaignSpec,
    CampaignSuite,
    InlineExecutor,
    ShardedCampaign,
    SuiteResult,
    partition_faults,
    run_campaign_suite,
    run_sharded_campaign,
)
from repro.faults import stuck_at_universe
from repro.service.faultinject import Injection, InjectionPlan, install


# --------------------------------------------------------------------------- #
# Partitioning.
# --------------------------------------------------------------------------- #
class TestPartitioning:
    def test_contiguous_in_universe_order(self, fa_sum):
        faults = list(stuck_at_universe(fa_sum))
        shards = partition_faults(faults, 3)
        assert [f for shard in shards for f in shard] == faults

    def test_ragged_final_shard(self):
        shards = partition_faults(list(range(10)), 3)
        assert [len(s) for s in shards] == [4, 4, 2]

    def test_more_shards_than_faults_leaves_empties(self):
        shards = partition_faults(list(range(3)), 7)
        assert [len(s) for s in shards] == [1, 1, 1, 0, 0, 0, 0]

    def test_single_shard_is_identity(self):
        assert partition_faults(list(range(5)), 1) == [list(range(5))]

    def test_empty_universe(self):
        assert all(not s for s in partition_faults([], 4))

    def test_rejects_nonpositive_shards(self):
        with pytest.raises(CampaignError, match="shards must be >= 1"):
            partition_faults([1, 2], 0)


# --------------------------------------------------------------------------- #
# Report merging.
# --------------------------------------------------------------------------- #
class TestMergeFaultShards:
    def test_union_preserves_lists_and_orders_faults(self):
        a = DetectionReport(detections={"f2": [1, 3]}, num_tests=4)
        b = DetectionReport(detections={"f1": [0]}, num_tests=4)
        merged = merge_fault_shards([a, b], fault_order=["f1", "f2"])
        assert list(merged.detections) == ["f1", "f2"]
        assert merged.detections == {"f1": [0], "f2": [1, 3]}
        assert merged.num_tests == 4

    def test_mismatched_num_tests_rejected(self):
        a = DetectionReport(detections={"f1": []}, num_tests=4)
        b = DetectionReport(detections={"f2": []}, num_tests=5)
        with pytest.raises(ValueError, match="disagree on the test list"):
            merge_fault_shards([a, b])

    def test_overlapping_shards_rejected(self):
        a = DetectionReport(detections={"f1": [0]}, num_tests=2)
        b = DetectionReport(detections={"f1": [1]}, num_tests=2)
        with pytest.raises(ValueError, match="more than one shard"):
            merge_fault_shards([a, b])

    def test_missing_fault_rejected(self):
        a = DetectionReport(detections={"f1": [0]}, num_tests=2)
        with pytest.raises(ValueError, match="missing from every shard"):
            merge_fault_shards([a], fault_order=["f1", "f2"])

    def test_extra_fault_rejected(self):
        a = DetectionReport(detections={"f1": [0], "f2": [1]}, num_tests=2)
        with pytest.raises(ValueError, match="not in the requested fault order"):
            merge_fault_shards([a], fault_order=["f1"])

    def test_empty_input(self):
        merged = merge_fault_shards([])
        assert merged.detections == {} and merged.num_tests == 0

    def test_concat_phase_reports_offsets_indices(self):
        first = DetectionReport(detections={"f1": [0], "f2": []}, num_tests=3)
        second = DetectionReport(detections={"f2": [1]}, num_tests=2)
        merged = concat_phase_reports(["f1", "f2"], [first, second])
        assert merged.detections == {"f1": [0], "f2": [4]}
        assert merged.num_tests == 5


# --------------------------------------------------------------------------- #
# The sharded executor itself.
# --------------------------------------------------------------------------- #
class TestShardedCampaign:
    def test_real_process_pool_matches_single_process(self, fa_sum):
        spec = CampaignSpec(model="stuck-at", pattern_source="random",
                            pattern_count=8, seed=3)
        base = Campaign(spec).run(fa_sum)
        sharded = run_sharded_campaign(fa_sum, spec, shards=3, max_workers=2)
        assert sharded.as_dict(include_runtime=False) == base.as_dict(include_runtime=False)
        assert sharded.tests == base.tests
        assert sharded.compacted_tests == base.compacted_tests

    def test_shared_external_pool_is_reused_not_shut_down(self, fa_sum):
        spec = CampaignSpec(model="stuck-at", pattern_source="random",
                            pattern_count=4, seed=1, run_atpg=False)
        base = Campaign(spec).run(fa_sum)
        with ProcessPoolExecutor(max_workers=2) as pool:
            first = ShardedCampaign(spec, shards=2, pool=pool).run(fa_sum)
            second = ShardedCampaign(spec, shards=4, pool=pool).run(fa_sum)
        expected = base.as_dict(include_runtime=False)
        assert first.as_dict(include_runtime=False) == expected
        assert second.as_dict(include_runtime=False) == expected

    @pytest.mark.parametrize("engine", ["packed", "interp", "serial"])
    def test_all_engines_shard_identically(self, fa_sum, engine):
        spec = CampaignSpec(model="obd", pattern_source="sic", engine=engine)
        base = Campaign(spec).run(fa_sum)
        sharded = ShardedCampaign(spec, shards=4, max_workers=0).run(fa_sum)
        assert sharded.detections == base.detections
        assert sharded.as_dict(include_runtime=False) == base.as_dict(include_runtime=False)

    def test_shards_default_comes_from_spec(self, fa_sum):
        spec = CampaignSpec(model="stuck-at", pattern_source="random",
                            pattern_count=4, seed=0, shards=5, run_atpg=False)
        executor = ShardedCampaign(spec, max_workers=0)
        assert executor.shards == 5
        base = Campaign(spec).run(fa_sum)
        assert executor.run(fa_sum).detections == base.detections

    def test_more_shards_than_faults(self, fa_sum):
        faults = stuck_at_universe(fa_sum)
        spec = CampaignSpec(model="stuck-at", pattern_source="exhaustive",
                            run_atpg=False)
        base = Campaign(spec).run(fa_sum)
        sharded = ShardedCampaign(
            spec, shards=len(faults) + 13, max_workers=0
        ).run(fa_sum)
        assert sharded.as_dict(include_runtime=False) == base.as_dict(include_runtime=False)

    def test_bad_shard_count_rejected(self):
        with pytest.raises(CampaignError, match="shards must be >= 1"):
            ShardedCampaign(CampaignSpec(), shards=0)

    def test_spec_circuit_reference_resolves(self):
        spec = CampaignSpec(model="stuck-at", circuit="c17",
                            pattern_source="random", pattern_count=8, seed=2)
        base = Campaign(spec).run()
        sharded = ShardedCampaign(spec, shards=2, max_workers=0).run()
        assert sharded.as_dict(include_runtime=False) == base.as_dict(include_runtime=False)

    def test_bad_circuit_reference_raises_campaign_error(self):
        spec = CampaignSpec(model="stuck-at", circuit="no-such-circuit")
        with pytest.raises(CampaignError, match="unknown circuit reference"):
            ShardedCampaign(spec, max_workers=0).run()

    def test_spec_or_kwargs_not_both(self, fa_sum):
        with pytest.raises(CampaignError, match="not both"):
            run_sharded_campaign(fa_sum, CampaignSpec(), model="obd")

    def test_inline_executor_runs_submissions_eagerly(self):
        future = InlineExecutor().submit(lambda x: x + 1, 41)
        assert future.done() and future.result() == 42

    def test_packed_simulate_shard_rejects_unknown_model(self, fa_sum):
        with pytest.raises(ValueError, match="unknown packed fault-simulation model"):
            packed_simulate_shard("bridging", fa_sum, [], [])


# --------------------------------------------------------------------------- #
# Campaign.run is the shard pipeline with one inline shard.
# --------------------------------------------------------------------------- #
class TestOnePipeline:
    SPEC = CampaignSpec(model="stuck-at", pattern_source="random", pattern_count=8, seed=1)

    def test_inline_runs_leave_no_compiled_circuits(self, c17_circuit):
        before = dict(sharded_module._WORKER_COMPILED)
        Campaign(self.SPEC).run(c17_circuit)
        assert sharded_module._WORKER_COMPILED == before
        ShardedCampaign(self.SPEC, shards=2, max_workers=0).run(c17_circuit)
        assert sharded_module._WORKER_COMPILED == before

    def test_campaign_run_retries_a_crashed_shard(self, c17_circuit):
        clean = Campaign(self.SPEC).run(c17_circuit)
        retrying = replace(self.SPEC, max_retries=1, retry_backoff=0)
        with install(InjectionPlan((Injection("worker.round1", "crash"),))) as injector:
            result = Campaign(retrying).run(c17_circuit)
        assert injector.summary()["by_site"] == {"worker.round1:crash": 1}
        assert result.degraded is None
        assert result.to_json(include_runtime=False) == clean.to_json(include_runtime=False)
        assert result.tests == clean.tests
        assert result.compacted_tests == clean.compacted_tests

    def test_campaign_run_degrades_after_its_retry_budget(self, c17_circuit):
        clean = Campaign(self.SPEC).run(c17_circuit)
        with install(InjectionPlan((Injection("worker.round2", "crash"),))):
            result = Campaign(self.SPEC).run(c17_circuit)
        assert result.degraded == {"engine": "packed", "fallbacks": {"0": "interp"}}
        assert result.as_dict(include_runtime=False) == {
            **clean.as_dict(include_runtime=False), "degraded": result.degraded,
        }


# --------------------------------------------------------------------------- #
# One static-learning pass per campaign, shipped to the shard workers.
# --------------------------------------------------------------------------- #
#: Round-1 tasks really run ATPG here: the pattern phase leaves faults over.
LEARN_ONCE_CIRCUIT = "rdag:60,5"


def _learn_once_spec(model: str) -> CampaignSpec:
    return CampaignSpec(
        model=model, circuit=LEARN_ONCE_CIRCUIT, pattern_source="random",
        pattern_count=8, seed=0,
    )


@pytest.fixture
def parent_only_learning(monkeypatch):
    """Count learning passes at every import site; a worker pass raises.

    Forked pool workers inherit the patched attributes, so a worker that
    learns fails its shard (which then shows up as a retry or a raise).
    """
    from repro.analysis_static import implication, lint, untestable
    from repro.atpg.structural import engine

    parent, calls = os.getpid(), []

    def counting(circuit, *args, **kwargs):
        if os.getpid() != parent:
            raise RuntimeError("a shard worker ran its own learning pass")
        calls.append(circuit.name)
        return implication.learn_implications(circuit, *args, **kwargs)

    for module in (lint, untestable, engine):
        monkeypatch.setattr(module, "learn_implications", counting)
    return calls


class TestLearnOnce:
    @pytest.mark.parametrize("model", ["stuck-at", "transition"])
    def test_campaign_run_learns_once(self, parent_only_learning, model):
        result = Campaign(_learn_once_spec(model)).run()
        assert result.atpg_phase.attempted > 0
        assert len(parent_only_learning) == 1

    def test_campaign_run_closes_each_fault_literal_once(self, monkeypatch):
        """The prover and structural ATPG share one learned engine and its
        closure memo: learning builds the plain engine, the analysis the
        learned one, each literal is closed at most once on it, and ATPG
        reads closures the prover already computed."""
        engines: list[ImplicationEngine] = []
        events: list[tuple] = []
        init, closure = ImplicationEngine.__init__, ImplicationEngine.closure
        excite = CircuitContext.excitation_closure

        def counting_init(engine, *args, **kwargs):
            engines.append(engine)
            init(engine, *args, **kwargs)

        def counting_closure(engine, literals):
            names = tuple((engine.names[lit >> 1], lit & 1) for lit in literals)
            events.append(("close", engine, names))
            return closure(engine, literals)

        def counting_excite(context, fault):
            events.append(("excite", None, ((fault.net, 1 - fault.value),)))
            return excite(context, fault)

        monkeypatch.setattr(ImplicationEngine, "__init__", counting_init)
        monkeypatch.setattr(ImplicationEngine, "closure", counting_closure)
        monkeypatch.setattr(CircuitContext, "excitation_closure", counting_excite)
        result = Campaign(_learn_once_spec("stuck-at")).run()

        assert result.atpg_phase.attempted > 0
        assert [bool(engine.learned) for engine in engines] == [False, True]
        learned = engines[1]
        closed = [names for kind, engine, names in events if engine is learned]
        assert closed and len(closed) == len(set(closed))
        first_excite = next(i for i, event in enumerate(events) if event[0] == "excite")
        by_prover = {
            names for kind, engine, names in events[:first_excite] if engine is learned
        }
        excited = {names for kind, _, names in events if kind == "excite"}
        assert excited & by_prover

    @pytest.mark.parametrize("model", ["stuck-at", "transition"])
    def test_pool_workers_never_learn(self, parent_only_learning, model):
        executor = ShardedCampaign(_learn_once_spec(model), shards=3, max_workers=2)
        result = executor.run()
        assert len(parent_only_learning) == 1
        assert executor.fault_tolerance["retries"] == 0
        assert executor.fault_tolerance["degraded_shards"] == 0
        assert result.degraded is None

    @pytest.mark.parametrize("model", ["stuck-at", "transition"])
    def test_pool_run_with_shipped_learning_is_bit_identical(self, model):
        spec = _learn_once_spec(model)
        base = Campaign(spec).run()
        sharded = ShardedCampaign(spec, shards=3, max_workers=2).run()
        assert sharded.as_dict(include_runtime=False) == base.as_dict(include_runtime=False)
        assert sharded.tests == base.tests
        # The worker shards' searches ran on the shipped learning: ATPG
        # outcomes come from more than one shard, tested ones included.
        shards = partition_faults(sharded.faults, 3)
        attempted = {outcome.fault.key for outcome in sharded.atpg_phase.outcomes}
        assert sum(1 for s in shards if attempted & {f.key for f in s}) >= 2
        assert sharded.atpg_phase.testable


# --------------------------------------------------------------------------- #
# Campaign suites.
# --------------------------------------------------------------------------- #
class TestCampaignSuite:
    @pytest.fixture(scope="class")
    def suite_result(self) -> SuiteResult:
        return run_campaign_suite(
            ["fa_sum", "c17"],
            models=("stuck-at", "obd"),
            pattern_source="random",
            pattern_count=6,
            seed=4,
            max_workers=2,
        )

    def test_cross_product_shape_and_order(self, suite_result):
        combos = [(e.spec.circuit, e.spec.model) for e in suite_result.entries]
        assert combos == [
            ("fa_sum", "stuck-at"), ("fa_sum", "obd"),
            ("c17", "stuck-at"), ("c17", "obd"),
        ]
        assert [e.index for e in suite_result.entries] == [0, 1, 2, 3]

    def test_entries_match_standalone_campaigns(self, suite_result):
        for entry in suite_result.entries:
            standalone = Campaign(entry.spec).run()
            assert entry.ok, entry.error
            assert entry.result.as_dict(include_runtime=False) == standalone.as_dict(
                include_runtime=False
            )

    def test_consolidated_json_report(self, suite_result):
        payload = json.loads(suite_result.to_json())
        assert payload["schema"] == "repro/campaign-suite/2"
        assert payload["campaigns"] == 4 and payload["failed"] == 0
        row = payload["rows"][0]
        assert row["circuit"] == "fa_sum" and row["model"] == "stuck-at"
        assert 0.0 <= row["coverage"] <= 1.0
        assert row["fault_tests_per_second"] > 0

    def test_consolidated_csv_report(self, suite_result):
        lines = suite_result.to_csv().strip().splitlines()
        assert lines[0].startswith("index,circuit,model,engine,shards")
        assert len(lines) == 1 + 4

    def test_write_report_creates_both_files(self, suite_result, tmp_path):
        json_path, csv_path = suite_result.write_report(tmp_path / "reports")
        assert json.loads(json_path.read_text())["campaigns"] == 4
        assert csv_path.read_text().count("\n") >= 5

    def test_describe_lists_every_campaign(self, suite_result):
        text = suite_result.describe()
        assert "4/4 campaigns ok" in text
        assert text.count("detected") == 4

    def test_failing_entry_is_trapped_not_fatal(self):
        result = CampaignSuite(
            [CampaignSpec(circuit="mult:0"), CampaignSpec(circuit="fa_sum")],
            max_workers=0,
        ).run()
        assert len(result.failed) == 1 and len(result.ok) == 1
        assert "bits >= 1" in result.failed[0].error
        assert "FAILED" in result.describe()
        assert result.rows()[0]["error"] is not None

    def test_sharded_specs_run_inline_inside_workers(self):
        spec = CampaignSpec(model="stuck-at", circuit="c17", shards=3,
                            pattern_source="random", pattern_count=6, seed=9)
        entry = CampaignSuite([spec], max_workers=0).run().entries[0]
        base = Campaign(spec).run()
        assert entry.ok
        assert entry.result.as_dict(include_runtime=False) == base.as_dict(
            include_runtime=False
        )

    def test_suite_requires_circuit_refs(self):
        with pytest.raises(CampaignError, match="has no circuit"):
            CampaignSuite([CampaignSpec(model="stuck-at")])

    def test_empty_suite_rejected(self):
        with pytest.raises(CampaignError, match="empty campaign suite"):
            CampaignSuite([])

    def test_cross_base_and_kwargs_exclusive(self):
        with pytest.raises(CampaignError, match="not both"):
            CampaignSuite.cross(["c17"], base=CampaignSpec(), seed=1)

    def test_cross_sic_battery_over_two_pattern_models(self):
        """The kwargs template must not trip sic validation on the default
        (single-pattern) model when every battery model is two-pattern."""
        suite = CampaignSuite.cross(
            ["fa_sum"], models=("transition", "obd"), pattern_source="sic",
            max_workers=0,
        )
        result = suite.run()
        assert [e.spec.model for e in result.entries] == ["transition", "obd"]
        assert not result.failed
