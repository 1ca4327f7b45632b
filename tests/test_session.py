"""The Scenario/Session front door: validation, normalization, shim parity."""

import pytest

from repro.hpl.driver import (
    Configuration,
    single_element_cluster,
    validate_overrides,
)
from repro.hpl.grid import ProcessGrid
from repro.machine.variability import VariabilitySpec
from repro.session import Scenario, Session, run

N = 8000


class TestConfigurationEnum:
    def test_parse_accepts_strings_and_members(self):
        assert Configuration.parse("acmlg_both") is Configuration.ACMLG_BOTH
        assert Configuration.parse(Configuration.QILIN) is Configuration.QILIN

    def test_parse_rejects_unknown_names(self):
        with pytest.raises(ValueError, match="valid configurations"):
            Configuration.parse("acmlg_boht")

    def test_members_are_string_interchangeable(self):
        member = Configuration.ACMLG_BOTH
        assert member == "acmlg_both"
        assert str(member) == "acmlg_both"
        # Hashing matches equality in both directions, so dicts keyed either
        # way stay reachable.
        assert {member: 1}["acmlg_both"] == 1
        assert {"acmlg_both": 2}[member] == 2

    def test_labels_match_the_paper(self):
        assert Configuration.ACMLG_BOTH.label == "ACMLG+both"
        assert Configuration.STATIC_PEAK.label == "Static"
        assert Configuration.QILIN.label == "Qilin"

    def test_every_member_has_an_analytic_config(self):
        for member in Configuration:
            assert member.analytic.nb > 0


class TestScenarioValidation:
    def test_unknown_configuration_raises_at_construction(self):
        with pytest.raises(ValueError, match="valid configurations"):
            Scenario(scheduler="nope", n=N)

    def test_unknown_override_key_raises_at_construction(self):
        with pytest.raises(ValueError, match="valid fields"):
            Scenario(scheduler="cpu", n=N, overrides={"mappingg": "cpu_only"})

    def test_nonpositive_n_rejected(self):
        with pytest.raises(ValueError):
            Scenario(scheduler="cpu", n=0)

    def test_cluster_conflicts_with_machine_knobs(self):
        cluster = single_element_cluster()
        with pytest.raises(ValueError, match="explicit cluster"):
            Scenario(
                scheduler="cpu", n=N, cluster=cluster, variability=VariabilitySpec()
            )
        with pytest.raises(ValueError, match="explicit cluster"):
            Scenario(scheduler="cpu", n=N, cluster=cluster, gpu_clock_mhz=575.0)

    def test_grid_tuple_is_normalized(self):
        scenario = Scenario(scheduler="cpu", n=N, grid=(2, 3))
        assert isinstance(scenario.grid, ProcessGrid)
        assert (scenario.grid.nprow, scenario.grid.npcol) == (2, 3)

    def test_scheduler_spelling_is_preserved(self):
        scenario = Scenario(scheduler="acmlg_both", n=N)
        assert scenario.scheduler == "acmlg_both"
        assert scenario.scheduler_name == "acmlg_both"
        assert Scenario(scheduler="adaptive", n=N).scheduler_name == "adaptive"

    def test_dag_only_scheduler_rejected_at_construction(self):
        with pytest.raises(ValueError, match="task-DAG only"):
            Scenario(scheduler="heft", n=N)

    def test_ambient_scheduler_is_the_default(self):
        from repro import sched

        assert Scenario(n=N).scheduler_name == "adaptive"
        with sched.use("static"):
            assert Scenario(n=N).scheduler_name == "static"

    def test_validate_overrides_lists_valid_fields(self):
        with pytest.raises(ValueError, match="nb"):
            validate_overrides({"block_size": 1216})
        assert validate_overrides(None) == {}
        assert validate_overrides({"nb": 196}) == {"nb": 196}


class TestSessionRuns:
    def test_run_returns_a_result(self):
        result = Session(Scenario(scheduler="cpu", n=N)).run()
        assert result.gflops > 0
        assert result.configuration == "cpu"
        assert result.degraded is None

    def test_module_level_run_matches_session(self):
        scenario = Scenario(scheduler="acmlg_both", n=N)
        assert run(scenario).gflops == Session(scenario).run().gflops

    def test_static_peak_configuration_runs(self):
        result = run(Scenario(scheduler=Configuration.STATIC_PEAK, n=N))
        assert result.gflops > 0

    def test_explicit_cluster_and_grid(self):
        from repro.machine.cluster import Cluster
        from repro.machine.presets import tianhe1_cluster

        cluster = Cluster(tianhe1_cluster(cabinets=1), seed=2009)
        result = run(
            Scenario(scheduler="acmlg_both", n=2 * N, cluster=cluster, grid=(2, 2))
        )
        assert result.grid == (2, 2)
        assert result.gflops > 0


class TestDeprecatedShims:
    def test_configuration_kwarg_warns_and_folds_into_scheduler(self):
        with pytest.warns(DeprecationWarning, match="scheduler="):
            scenario = Scenario(configuration="acmlg_both", n=N)
        assert scenario.configuration is None  # folded away after parsing
        assert scenario.scheduler_name == "acmlg_both"

    def test_configuration_kwarg_matches_scheduler_kwarg_exactly(self):
        with pytest.warns(DeprecationWarning):
            old = run(Scenario(configuration="acmlg_both", n=N))
        new = run(Scenario(scheduler="acmlg_both", n=N))
        assert old.gflops == new.gflops
        assert run(Scenario(scheduler="adaptive", n=N)).gflops == new.gflops

    def test_replace_on_parsed_scenario_does_not_rewarn(self):
        import dataclasses
        import warnings

        with pytest.warns(DeprecationWarning):
            scenario = Scenario(configuration="cpu", n=N)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            clone = dataclasses.replace(scenario, n=2 * N)
        assert clone.scheduler_name == "cpu"

    def test_both_kwargs_rejected(self):
        with pytest.warns(DeprecationWarning):
            with pytest.raises(ValueError, match="not both"):
                Scenario(configuration="cpu", scheduler="adaptive", n=N)
