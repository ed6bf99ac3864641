"""Schedule-perturbation harness: positive matrix cells and the negative
control, at small scale so the suite stays fast."""

import pytest

from repro import ClusterConfig, PgxdCluster, rmat, with_uniform_weights
from repro.audit.harness import (AuditHarness, AuditScenario,
                                 default_scenarios)
from repro.core import jobrunner, routing_plan


@pytest.fixture(scope="module")
def audit_graph():
    return with_uniform_weights(rmat(120, 900, seed=21), 0.1, 1.0, seed=22)


@pytest.fixture(scope="module")
def audit_config():
    # Small buffers + many workers: plenty of staged response batches per
    # target group, so the negative control has reorderings to expose.
    return ClusterConfig(num_machines=4).with_engine(
        num_workers=16, num_copiers=8, buffer_size=64,
        chunking="edge", chunk_size=64, ghost_threshold=1000)


@pytest.fixture(scope="module")
def harness(audit_graph, audit_config):
    return AuditHarness(audit_graph, audit_config, schedules=2, base_seed=7,
                        iterations=2)


class TestHarnessMechanics:
    def test_rejects_unweighted_graph(self):
        with pytest.raises(ValueError):
            AuditHarness(rmat(50, 200, seed=1), ClusterConfig(num_machines=2))

    def test_rejects_zero_schedules(self, audit_graph):
        with pytest.raises(ValueError):
            AuditHarness(audit_graph, ClusterConfig(num_machines=2),
                         schedules=0)

    def test_tie_seeds_start_with_canonical(self, harness):
        seeds = harness.tie_seeds()
        assert seeds[0] is None and len(seeds) == 3
        assert len(set(seeds[1:])) == 2

    def test_default_scenarios_cover_spec(self):
        scs = default_scenarios()
        names = {s.name for s in scs}
        assert any("negative-control" in n for n in names)
        assert any(s.faults for s in scs)
        # Write combining is not a cell: every SSSP/WCC cell combines.
        assert {"sssp/baseline", "wcc/baseline"} <= names
        assert not any(n.endswith("/combine") for n in names)
        assert any(not s.ghost_privatization for s in scs)
        assert any(s.two_tenant for s in scs)
        assert {s.workload for s in scs} == {"pagerank", "sssp", "wcc"}
        negatives = [s for s in scs if s.expect_divergence]
        assert negatives and all(s.unsorted_staging for s in negatives)


class TestPositiveScenarios:
    def test_pagerank_solo_and_two_tenant(self, harness):
        v = harness.run_scenario(AuditScenario("pr", "pagerank",
                                               two_tenant=True))
        assert v.passed and v.bit_identical and v.stats_identical
        assert v.dispatch_consistent and v.violation_count == 0
        # 3 schedules x (solo + two-tenant)
        assert len(v.runs) == 6
        solo = [r for r in v.runs if r.mode == "solo"]
        duo = [r for r in v.runs if r.mode == "two_tenant"]
        assert solo[0].fingerprints["solo"] == duo[0].fingerprints["tenantA"]
        assert duo[0].dispatch["tenantA"], "dispatch log captured"

    def test_sssp_under_faults(self, harness):
        v = harness.run_scenario(AuditScenario("sssp-f", "sssp", faults=True))
        assert v.passed and v.bit_identical and v.violation_count == 0

    def test_wcc_solo(self, harness):
        v = harness.run_scenario(AuditScenario("wcc", "wcc"))
        assert v.passed and v.bit_identical

    def test_dynamic_incremental_scenario(self, harness):
        """Incremental recompute over a mutating graph: bit-identical
        fingerprints across tie seeds, solo vs two-tenant (mutation jobs
        interleaved with a pinned-epoch reader), stable work counts."""
        v = harness.run_scenario(AuditScenario(
            "dyn", "pagerank", dynamic=True, two_tenant=True))
        assert v.passed and v.bit_identical and v.stats_identical
        assert v.dispatch_consistent and v.violation_count == 0
        assert len(v.runs) == 6  # 3 schedules x (solo + two-tenant)
        solo = [r for r in v.runs if r.mode == "dynamic_solo"]
        duo = [r for r in v.runs if r.mode == "dynamic_two_tenant"]
        # The incremental results do not depend on the reader tenant.
        assert solo[0].fingerprints["solo"] == duo[0].fingerprints["tenantA"]
        # Both tenants actually dispatched through the scheduler.
        assert duo[0].dispatch["reader"] and duo[0].dispatch["mutator"]
        # The mutation stream advanced the engine's epochs.
        assert solo[0].stats["solo"]["epoch"] == 2

    def test_cached_serving_scenario(self, harness):
        """Serving-tier equality: the same read trace (queries + a cached
        algorithm lookup + one mutation epoch) with the result cache on
        vs off, bit-identical across perturbed schedules."""
        v = harness.run_scenario(AuditScenario("cache", "pagerank",
                                               cached=True))
        assert v.passed and v.bit_identical and v.stats_identical
        assert v.violation_count == 0
        assert len(v.runs) == 3  # one cached-vs-fresh pair per schedule
        r = v.runs[0]
        assert r.mode == "cached_vs_fresh"
        # Cache-on ("solo") and cache-off ("tenantA") produced the same
        # bits for every read in the trace.
        assert r.fingerprints["solo"] == r.fingerprints["tenantA"]
        assert r.stats["solo"]["cache_hits"] > 0
        assert r.stats["tenantA"]["cache_hits"] == 0
        assert r.stats["solo"]["epoch"] >= 1

    def test_push_pagerank_through_ghosts(self, harness):
        """The matrix's push cells reduce float SUM through ghost columns
        and WRITE_REQ staging; privatized or not, same bits everywhere."""
        push = {s.name: s for s in default_scenarios()
                if s.variant == "push"}
        assert set(push) == {"pagerank-push/baseline",
                             "pagerank-push/no-privatization"}
        ghosts = PgxdCluster(harness.base_config.with_engine(
            ghost_threshold=harness.hub_threshold)).load_graph(
                harness.graph).num_ghosts
        assert ghosts > 0
        fingerprints = set()
        for sc in push.values():
            v = harness.run_scenario(sc)
            assert v.passed and v.bit_identical and v.violation_count == 0
            fingerprints.add(v.runs[0].fingerprints["solo"])
        assert len(fingerprints) == 1

    @pytest.mark.parametrize("variant", ["pull", "push"])
    def test_pagerank_cells_stop_at_the_tolerance(self, audit_graph,
                                                  audit_config, variant):
        """At the default iterations the canonical PageRank run converges
        before its cap, so every schedule audits the early-exit decision;
        the negative control runs to the cap."""
        h = AuditHarness(audit_graph, audit_config, schedules=1)
        v = h.run_scenario(AuditScenario("pr", "pagerank", variant=variant))
        assert v.passed
        assert {r.stats["solo"]["iterations"] for r in v.runs} == {2}
        assert h.iterations == 3
        neg = h._run_solo(AuditScenario("neg", "pagerank",
                                        unsorted_staging=True,
                                        expect_divergence=True), None)
        assert neg.stats["solo"]["iterations"] == h.iterations

    def test_cached_scenario_in_default_matrix(self):
        scs = default_scenarios()
        cached = [s for s in scs if s.cached]
        assert len(cached) == 1 and "serving" in cached[0].name

    def test_dynamic_scenario_in_default_matrix(self):
        scs = default_scenarios()
        dyn = [s for s in scs if s.dynamic]
        assert len(dyn) == 1 and dyn[0].two_tenant

    def test_verdict_dict_shape(self, harness):
        v = harness.run_scenario(AuditScenario("pr2", "pagerank"))
        d = v.as_dict()
        assert d["passed"] and d["bit_identical"]
        assert d["schedules"] == 3 and d["diffs"] == []
        assert d["config"]["unsorted_staging"] is False
        assert "combine_writes" not in d["config"]


class TestNegativeControl:
    def test_unsorted_staging_is_caught(self, harness):
        v = harness.run_scenario(AuditScenario(
            "neg", "pagerank", unsorted_staging=True, expect_divergence=True))
        assert not v.bit_identical, \
            "perturbation failed to expose unsorted staged reductions"
        assert v.passed  # inverted expectation: catching the bug == pass
        assert any(d.startswith("bit-diff") for d in v.diffs)

    def test_full_run_document(self, audit_graph, audit_config):
        h = AuditHarness(audit_graph, audit_config, schedules=2, iterations=2)
        doc = h.run([
            AuditScenario("ok", "pagerank"),
            AuditScenario("neg", "pagerank", unsorted_staging=True,
                          expect_divergence=True),
        ])
        assert doc["passed"] is True
        assert doc["negative_control_flagged"] is True
        assert len(doc["scenarios"]) == 2

    def test_injected_apply_is_scoped_to_the_control(self, harness):
        """The arrival-order apply lives only inside the control's runs:
        a positive scenario run after it is bit-identical again, and the
        canonical binding is back even when a control run raises."""
        neg = AuditScenario("neg", "pagerank", unsorted_staging=True,
                            expect_divergence=True)
        assert not harness.run_scenario(neg).bit_identical
        assert jobrunner.canonical_apply is routing_plan.canonical_apply
        v = harness.run_scenario(AuditScenario("pr", "pagerank"))
        assert v.passed and v.bit_identical

        def boom(scenario, seed):
            assert jobrunner.canonical_apply \
                is not routing_plan.canonical_apply
            raise RuntimeError("run failed")

        broken = AuditHarness(harness.graph, harness.base_config,
                              schedules=1, iterations=1)
        broken._run_solo = boom
        with pytest.raises(RuntimeError, match="run failed"):
            broken.run_scenario(neg)
        assert jobrunner.canonical_apply is routing_plan.canonical_apply
