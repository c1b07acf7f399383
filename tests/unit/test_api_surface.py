"""API-surface stability tests for :mod:`repro.api` (v2 facade).

These pin the compatibility contract, not behavior: every exported name
resolves, tiers stay sorted and disjoint, the aliases retired with 2.0
stay gone, and entry-point/config signatures stay keyword-only so the
surface can grow fields without breaking callers.
"""

import dataclasses
import inspect
import warnings

import pytest

import repro
from repro import api


class TestSurfaceInventory:
    def test_every_exported_name_resolves(self):
        with warnings.catch_warnings():
            # Resolving the *stable* surface must never warn.
            warnings.simplefilter("error", DeprecationWarning)
            for name in api.__all__:
                assert getattr(api, name) is not None, name

    def test_tiers_are_sorted_and_disjoint(self):
        seen = set()
        for tier, names in api.API_TIERS.items():
            assert list(names) == sorted(names), f"tier '{tier}' not sorted"
            duplicates = seen & set(names)
            assert not duplicates, f"tier '{tier}' re-exports {duplicates}"
            seen |= set(names)

    def test_all_is_the_tier_concatenation(self):
        assert api.__all__ == [
            name for tier in api.API_TIERS.values() for name in tier
        ]

    def test_api_version_tracks_package_major(self):
        assert api.API_VERSION == "10.0"
        assert (
            api.API_VERSION.split(".")[0] == repro.__version__.split(".")[0]
        )

    def test_unknown_attribute_raises(self):
        with pytest.raises(AttributeError):
            api.definitely_not_exported


class TestDeprecatedAliases:
    #: The 1.x backend tuples; ``available_backends(kind)`` replaced them.
    RETIRED = (
        "BACKENDS",
        "SEARCH_BACKENDS",
        "EXPLORE_BACKENDS",
        "SIMULATOR_BACKENDS",
        "FLEET_BACKENDS",
    )
    #: Removed in 3.0: ``explore_design_space`` / ``ExplorationResult``.
    REMOVED = ("MappingOptimizer", "OptimizationResult")

    def test_deprecated_names_not_in_all(self):
        """Nor anywhere else on the facade: the warn-and-forward
        registry is gone and the names raise ``AttributeError``."""
        assert not set(self.RETIRED + self.REMOVED) & set(api.__all__)
        for name in self.RETIRED + self.REMOVED + ("deprecated_names",):
            with pytest.raises(AttributeError):
                getattr(api, name)


class TestAvailableBackends:
    def test_known_kinds(self):
        for kind in ("campaign", "explore", "fleet", "serve"):
            backends = api.available_backends(kind)
            assert isinstance(backends, tuple) and backends
            assert all(isinstance(name, str) for name in backends)

    def test_campaign_backends(self):
        assert api.available_backends("campaign") == ("pruned", "scalar")

    def test_fleet_backends(self):
        assert api.available_backends("fleet") == ("auto",)

    def test_serve_has_one_backend(self):
        assert api.available_backends("serve") == ("auto",)

    @pytest.mark.parametrize(
        "function",
        [
            api.CharacterizationCampaign.__init__,
            api.run_campaign,
            api.load_or_run_profile,
            api.campaign_fingerprint,
        ],
    )
    def test_campaigns_default_to_the_production_backend(self, function):
        default = inspect.signature(function).parameters["backend"].default
        assert default == "pruned"

    def test_names_removed_in_4_0_are_rejected(self):
        """``vectorized`` (campaign, fleet) selected nothing the defaults
        do not. Serve's ``batched`` went with the whole selector in 9.0,
        the fleet's selector in 10.0."""
        with pytest.raises(ValueError, match="unknown backend 'vectorized'"):
            api.run_campaign(api.WebSearch(), backend="vectorized")
        with pytest.raises(ValueError, match="unknown backend 'vectorized'"):
            api.campaign_fingerprint(api.CampaignConfig(), backend="vectorized")

    def test_names_removed_in_5_0_are_gone(self):
        """One per-trial record (``TrialRecord``, which ``measure_trial``
        returns and shards carry) and one pruned cell walker
        (``repro.exec.fold_cells``): nothing keeps trials on the
        campaign."""
        import repro.exec

        for name in ("TrialResult", "merge_shard_results"):
            assert not hasattr(repro.exec, name), name
        for name in ("run_trial", "_run_planned_cell", "trials"):
            assert not hasattr(api.CharacterizationCampaign, name), name
        fields = [field.name for field in dataclasses.fields(api.TrialRecord)]
        assert fields == [
            "trial_index",
            "anchor_addr",
            "outcome",
            "responded",
            "incorrect",
            "failed",
            "effect_delay_minutes",
        ]

    def test_values_removed_in_6_0_are_gone(self):
        """Options nothing varied are module constants: the fleet
        thread pool, the crash-rule fraction (``CRASH_FAILURE_FRACTION``)
        and the serve repair / admission thresholds. One latency sink
        per tenant; progress classes import from ``repro.obs`` only."""
        import repro.exec
        import repro.monitoring
        from repro.apps.clients import ClientDriver, ClientReport
        from repro.core.taxonomy import classify_outcome
        from repro.fleet import FleetSimulationResult, FleetSimulator
        from repro.obs import ServeInstruments
        from repro.serve import AdmissionController, ServeTenant

        def parameters(function):
            return set(inspect.signature(function).parameters)

        def fields(cls):
            return {field.name for field in dataclasses.fields(cls)}

        assert "workers" not in parameters(api.simulate_fleet)
        assert "workers" not in parameters(FleetSimulator.simulate)
        assert "workers" not in fields(FleetSimulationResult)
        assert "failure_fraction" not in fields(api.CampaignConfig)
        for function in (
            ClientDriver.__init__,
            ClientReport.crashed,
            classify_outcome,
        ):
            assert "failure_fraction" not in parameters(function), function
        for name in ("failure_fraction", "run_random"):
            assert not hasattr(ClientDriver, name), name
        assert not fields(api.ServeConfig) & {
            "responses_per_tick",
            "restart_downtime_ticks",
            "admission_high_water",
            "admission_low_water",
        }
        assert parameters(AdmissionController.__init__) == {"self"}
        tenant = ServeTenant("kv", api.KVStoreWorkload(key_count=50, op_count=10))
        assert not hasattr(tenant, "latency_batch_sink")
        assert not hasattr(ServeInstruments, "record_latency")
        for module in (repro.exec, repro.monitoring):
            for name in ("CampaignMetrics", "ProgressEvent", "WorkerTiming"):
                assert not hasattr(module, name), (module.__name__, name)

    def test_names_removed_in_7_0_are_gone(self):
        """What the one flow never reached: disturbance faults, the
        correlated-failure-mode campaign, the DRAM lifetime simulator,
        the scrubbers and the device model. The address space keeps one
        guarded-address view, and retirement owns its retired pages."""
        import importlib

        import repro.core
        import repro.dram
        from repro.injection import ErrorInjector
        from repro.memory import AddressSpace
        from repro.memory.faults import FaultKind

        for module in (
            "repro.core.disturbance",
            "repro.core.failure_modes",
            "repro.dram.device",
            "repro.dram.lifetime",
            "repro.dram.scrubber",
        ):
            with pytest.raises(ImportError):
                importlib.import_module(module)
        for name in ("characterize_failure_modes", "mode_summary"):
            assert not hasattr(repro.core, name), name
        for name in (
            "DramDevice",
            "CellFault",
            "PatrolScrubber",
            "SoftwareScrubber",
            "ScrubReport",
        ):
            assert not hasattr(repro.dram, name), name
        for name in (
            "install_disturbance",
            "guarded_addresses",
            "soft_guard_addresses",
        ):
            assert not hasattr(AddressSpace, name), name
        assert hasattr(AddressSpace, "tracked_addresses")
        assert not hasattr(ErrorInjector, "inject_footprint")
        assert [kind.name for kind in FaultKind] == ["SOFT", "HARD"]
        policy = inspect.signature(repro.dram.PageRetirementPolicy)
        assert "device" not in policy.parameters
        assert "geometry" in policy.parameters
        assert not hasattr(repro.dram.RetirementOutcome(), "faults_neutralized")
        assert not hasattr(repro.dram.PageRetirementPolicy, "observe_errors")

    def test_names_removed_in_8_0_are_gone(self):
        """One campaign telemetry channel: progress is a ``progress``
        point on the observer, folded by the instruments' one fold. The
        helpers only their own tests reached are gone too."""
        import importlib

        import repro.cluster
        import repro.exec
        import repro.obs
        import repro.utils.bitops
        from repro.core.campaign import load_or_run_profile
        from repro.exec import ParallelCampaignRunner
        from repro.hrm.channels import ChannelProvisionedMemory
        from repro.injection import AddressSampler
        from repro.memory import AddressSpace
        from repro.memory.faults import HardFaultOverlay
        from repro.obs import CampaignInstruments

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.obs.progress")
        for module in (repro, repro.obs, api):
            for name in (
                "CampaignMetrics",
                "ProgressEvent",
                "WorkerTiming",
                "emit_progress",
                "ProgressClock",
            ):
                assert not hasattr(module, name), (module.__name__, name)
        for function in (
            api.CharacterizationCampaign.run,
            api.CharacterizationCampaign.run_custom_cells,
            load_or_run_profile,
            api.run_campaign,
            ParallelCampaignRunner.__init__,
        ):
            assert "progress" not in inspect.signature(function).parameters
        folds = [
            name for name in vars(CampaignInstruments)
            if name.startswith(("update", "_update_trial"))
        ]
        assert folds == ["update_batch"]
        assert "__getattr__" not in vars(repro.exec)
        for name in ("mapped_ranges", "correct_value_of"):
            assert not hasattr(AddressSpace, name), name
        assert not hasattr(HardFaultOverlay, "faulty_addresses")
        for name in ("sample_many", "sample_unique", "sample_per_region"):
            assert not hasattr(AddressSampler, name), name
        assert [
            name for name in vars(repro.utils.bitops)
            if callable(getattr(repro.utils.bitops, name))
            and not name.startswith("_")
        ] == ["parity64"]
        # The dollar models restated the hardware-cost fraction; the
        # per-byte channel router gave way to the partition's interval map.
        for module in ("repro.cluster.server", "repro.cluster.tco"):
            with pytest.raises(ModuleNotFoundError):
                importlib.import_module(module)
        for name in (
            "ServerConfig",
            "server_cost_with_design",
            "TcoParams",
            "TcoModel",
            "TcoBreakdown",
        ):
            assert not hasattr(repro.cluster, name), name
        assert not hasattr(ChannelProvisionedMemory, "allocation_at")

    def test_names_removed_in_9_0_are_gone(self):
        """One serving path: a tenant serves through ``ServeTenant.serve``,
        and the scalar loop it is pinned to is ``serve_requests``. The
        data-plane selector and the plane objects are gone."""
        import importlib

        import repro.serve
        from repro.serve import ServeTenant

        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("repro.serve.dataplane")
        for name in (
            "DATA_PLANES",
            "BatchedDataPlane",
            "ScalarDataPlane",
            "UnknownDataPlaneError",
            "make_data_plane",
        ):
            assert not hasattr(repro.serve, name), name
            assert not hasattr(api, name), name
        assert "data_plane" not in {
            field.name for field in dataclasses.fields(api.ServeConfig)
        }
        with pytest.raises(TypeError):
            api.ServeConfig(data_plane="scalar")
        for name in (
            "defer", "wrap_epoch", "fused_advance", "owed_quantum", "owed_restore",
        ):
            assert not hasattr(ServeTenant, name), name

    def test_names_removed_in_10_0_are_gone(self):
        """One design-space search and one fleet simulator: their
        oracles are ``repro.oracles``, outside the API, with no selector
        left to pass. The unused threaded telemetry host is gone too."""
        import repro.explore
        import repro.fleet
        import repro.obs
        from repro import oracles

        for module, name in (
            (repro.explore, "EXPLORE_BACKENDS"),
            (repro.fleet, "FLEET_BACKENDS"),
            (repro.obs, "BackgroundTelemetryServer"),
        ):
            assert not hasattr(module, name), name
            assert not hasattr(api, name), name
        profile = api.VulnerabilityProfile(app="none")
        for backend in ("auto", "scalar"):
            with pytest.raises(TypeError):
                api.explore_design_space(
                    profile, availability_target=0.9, backend=backend
                )
            with pytest.raises(TypeError):
                api.simulate_fleet(profile, backend=backend)
        assert api.available_backends("explore") == ("auto",)
        assert api.available_backends("fleet") == ("auto",)
        assert "oracles" not in api.__all__ and not hasattr(api, "oracles")
        assert oracles.__all__ == ["explore", "simulate_fleet"]

    def test_the_scalar_oracle_is_serial(self):
        config = api.CampaignConfig(trials_per_cell=1, queries_per_trial=2)
        workload = api.KVStoreWorkload(key_count=50, op_count=10)
        with pytest.raises(ValueError, match="single-threaded"):
            api.run_campaign(
                workload, config=config, backend="scalar", workers=2
            )

    def test_unknown_kind_lists_valid_kinds(self):
        # "simulator": one availability engine, "search": one design-
        # space search (kind "explore"), so nothing to choose.
        for kind in ("quantum", "simulator", "search"):
            with pytest.raises(
                ValueError, match=r"\['campaign', 'explore', 'fleet', 'serve'\]"
            ):
                api.available_backends(kind)


class TestKeywordOnlySignatures:
    ENTRY_POINTS = (
        "run_campaign",
        "explore_design_space",
        "simulate_fleet",
        "analyze_fleet",
        "optimize_fleet",
    )

    @pytest.mark.parametrize("name", ENTRY_POINTS)
    def test_entry_points_take_one_positional(self, name):
        signature = inspect.signature(getattr(api, name))
        parameters = list(signature.parameters.values())
        assert parameters[0].kind is inspect.Parameter.POSITIONAL_OR_KEYWORD
        for parameter in parameters[1:]:
            assert parameter.kind is inspect.Parameter.KEYWORD_ONLY, (
                f"{name}({parameter.name}) must be keyword-only"
            )

    @pytest.mark.parametrize(
        "name",
        ["AgingConfig", "CorrelationConfig", "FleetConfig", "FleetDesign"],
    )
    def test_fleet_configs_are_keyword_only(self, name):
        config = getattr(api, name)
        signature = inspect.signature(config)
        for parameter in signature.parameters.values():
            assert parameter.kind is inspect.Parameter.KEYWORD_ONLY, (
                f"{name}({parameter.name}) must be keyword-only"
            )
