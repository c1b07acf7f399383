"""Layer probes of the traced pass.

Each probe calls one layer's public functions directly, with the
workload's own objects, and reports through :class:`harness.Probes`: an
import or call that fails becomes ``None`` plus a ``probe_errors`` entry,
never an exception. Imports of anything below :mod:`repro.api` therefore
happen inside the probe bodies.
"""

from __future__ import annotations

import random
import statistics
import time
from typing import Callable, Dict

from harness import Probes

from metrics import CODECS

#: Words per codec-kernel and ProtectedArray batch. The issue asked for
#: 65 536-word kernel batches; RAIM encode alone takes 4 s on that, and
#: the traced run has to end within 30 s.
KERNEL_WORDS = 16_384
ARRAY_WORDS = 2_048
PLAN_TRIALS = 2_000


def _heap_span(workload):
    """Largest live span of the workload's heap, as (base, end)."""
    region = workload.space.region_named("heap")
    return max(workload.sample_ranges(region), key=lambda span: span[1] - span[0])


def memory(found: Probes, apps: Dict[str, object], restore: bool = True) -> None:
    """Typed accessors and bulk reads on each application's heap; with
    ``restore``, snapshot and dirty-page restore after one query batch."""

    def access() -> Dict[str, float]:
        scalar, bulk = [], []
        for workload in apps.values():
            space = workload.space
            base, end = _heap_span(workload)
            words = min(1024, (end - base) // 4)
            addresses = range(base, base + 4 * words, 4)

            def touch() -> None:
                for address in addresses:
                    space.write_u32(address, space.read_u32(address))

            scalar.append(found.per_call(touch, 0.05) / (2 * words))
            bulk.append(
                4 * words / found.per_call(lambda: space.read_array(base, words), 0.05)
            )
            workload.reset()
        return {
            "memory.scalar_access_ns": statistics.median(scalar) * 1e9,
            "memory.array_read_mb_per_s": statistics.median(bulk) / 1e6,
        }

    found.run(["memory.scalar_access_ns", "memory.array_read_mb_per_s"], access)
    if not restore:
        return

    def snapshot_restore() -> Dict[str, float]:
        snapshots, restores = [], []
        for workload in apps.values():
            space = workload.space
            budget = min(50, workload.query_count)
            for _ in range(5):
                # reset() also rewinds the workload's Python-side state,
                # which a bare space.restore() leaves where the queries put it.
                workload.reset()
                start = time.perf_counter()
                image = space.snapshot()
                snapshots.append(time.perf_counter() - start)
                for query in range(budget):
                    workload.execute(query)
                start = time.perf_counter()
                space.restore(image)
                restores.append(time.perf_counter() - start)
            # Hand the dirty-page baseline back to the workload's checkpoint.
            workload.reset()
            workload.checkpoint()
        return {
            "memory.snapshot_ms": statistics.median(snapshots) * 1e3,
            "memory.restore_us": statistics.median(restores) * 1e6,
        }

    found.run(["memory.snapshot_ms", "memory.restore_us"], snapshot_restore)


def injection(found: Probes, apps: Dict[str, object]) -> None:
    """``ErrorInjector.inject`` (samples an address) and ``inject_planned``."""

    def inject() -> Dict[str, float]:
        from repro import api
        from repro.injection.injector import ErrorInjector

        sampled, planned = [], []
        for workload in apps.values():
            space = workload.space
            injector = ErrorInjector(space, random.Random(0))
            spans = [_heap_span(workload)]
            positions = [(spans[0][0], 3)]

            def one_sampled() -> None:
                injector.inject(api.SINGLE_BIT_SOFT, ranges=spans)
                space.clear_faults()

            def one_planned() -> None:
                injector.inject_planned(api.SINGLE_BIT_SOFT, positions)
                space.clear_faults()

            sampled.append(found.per_call(one_sampled, 0.03))
            planned.append(found.per_call(one_planned, 0.03))
            workload.reset()
        return {
            "injection.inject_us": statistics.median(sampled) * 1e6,
            "injection.inject_planned_us": statistics.median(planned) * 1e6,
        }

    found.run(["injection.inject_us", "injection.inject_planned_us"], inject)


def golden_queries(found: Probes, apps: Dict[str, object]) -> None:
    """Fault-free ``ClientDriver.run`` over each application's whole trace."""
    for app, workload in apps.items():

        def replay(workload=workload) -> Dict[str, float]:
            from repro.apps.clients import ClientDriver

            golden = workload.golden_responses()
            workload.reset()
            driver = ClientDriver(workload, golden)
            queries = range(workload.query_count)

            def run() -> None:
                driver.run(queries)
                workload.reset()

            return {
                f"apps.{app}.golden_queries_per_s": len(queries) / found.per_call(run, 0.1)
            }

        found.run([f"apps.{app}.golden_queries_per_s"], replay)


def pruning(found: Probes, campaigns: Dict[str, object]) -> None:
    """Golden-trace recording, batch planning and pre-classification."""

    def golden_trace() -> Dict[str, float]:
        total = 0.0
        for campaign in campaigns.values():
            start = time.perf_counter()
            campaign.golden_trace()
            total += time.perf_counter() - start
        return {"exec.golden_trace_s": total}

    found.run(["exec.golden_trace_s"], golden_trace)

    def plan_and_classify() -> Dict[str, float]:
        from repro import api
        from repro.exec.cells import CampaignCell

        campaign = campaigns["websearch"]
        cell = CampaignCell(name="heap", spec=api.SINGLE_BIT_SOFT)
        trials = range(PLAN_TRIALS)
        plan = campaign.plan_cell_trials(cell, trials)
        return {
            "kernels.plan_trials_per_s": PLAN_TRIALS
            / found.per_call(lambda: campaign.plan_cell_trials(cell, trials), 0.1),
            "exec.classify_trials_per_s": PLAN_TRIALS
            / found.per_call(lambda: campaign.classify_plan_trials(plan), 0.1),
        }

    found.run(["kernels.plan_trials_per_s", "exec.classify_trials_per_s"], plan_and_classify)


def parallel_speedup(found: Probes, make_campaign: Callable[[], object], specs) -> None:
    """One pair: graphmining ``run(workers=1)`` wall over ``run(workers=2)``."""

    def pair() -> Dict[str, float]:
        walls = {}
        for workers in (1, 2):
            campaign = make_campaign()
            start = time.perf_counter()
            campaign.run(specs=specs, workers=workers)
            walls[workers] = time.perf_counter() - start
        return {"exec.parallel_speedup_w2": walls[1] / walls[2]}

    found.run(["exec.parallel_speedup_w2"], pair)


def evaluate_designs(found: Probes, profile) -> None:
    """``DesignEvaluator.evaluate`` on the five Table 6 designs."""

    def evaluate() -> Dict[str, float]:
        from repro import api
        from repro.core.mapping import paper_design_points

        evaluator = api.DesignEvaluator(profile, error_label=profile.error_labels()[0])
        designs = paper_design_points(profile.regions())

        def run() -> None:
            for design in designs:
                evaluator.evaluate(design)

        return {"core.evaluate_designs_per_s": len(designs) / found.per_call(run, 0.05)}

    found.run(["core.evaluate_designs_per_s"], evaluate)


def codec_kernels(found: Probes) -> None:
    """``encode_bits`` / ``decode_bits`` of every codec kernel on one batch."""
    import numpy

    for codec in CODECS:

        def throughput(codec=codec) -> Dict[str, float]:
            from repro import api

            technique = next(
                name for name in api.available_kernels() if name.lower() == codec
            )
            kernel = api.get_kernel(technique)
            words = max(256, int(KERNEL_WORDS * found.scale))
            data = numpy.random.default_rng(0).integers(
                0, 2, size=(words, kernel.data_bits), dtype=numpy.uint8
            )
            encode = found.per_call(lambda: kernel.encode_bits(data), 0.05, min_calls=2)
            codewords = kernel.encode_bits(data)
            decode = found.per_call(lambda: kernel.decode_bits(codewords), 0.05, min_calls=2)
            return {
                f"kernels.{codec}.encode_mwords_per_s": words / encode / 1e6,
                f"kernels.{codec}.decode_mwords_per_s": words / decode / 1e6,
            }

        found.run(
            [f"kernels.{codec}.encode_mwords_per_s", f"kernels.{codec}.decode_mwords_per_s"],
            throughput,
        )


def protected_array(found: Probes, seed: int) -> None:
    """``ProtectedArray`` under SEC-DED: writes beside reads and a scrub."""

    def words() -> Dict[str, float]:
        from repro import api
        from repro.hrm.protected import ProtectedArray

        workload = api.KVStoreWorkload(seed=seed, key_count=200, op_count=50)
        workload.build()
        base, end = _heap_span(workload)
        codec = api.make_codec("SEC-DED")
        count = min(ARRAY_WORDS, (end - base) // ((codec.code_bits + 7) // 8))
        array = ProtectedArray(workload.space, base, count, codec)
        values = [random.Random(seed).getrandbits(codec.data_bits) for _ in range(count)]

        def write() -> None:
            for index, value in enumerate(values):
                array.write(index, value)

        return {
            "hrm.write_kwords_per_s": count / found.per_call(write, 0.05) / 1e3,
            "hrm.read_kwords_per_s": count / found.per_call(array.read_batch, 0.05) / 1e3,
            "hrm.scrub_kwords_per_s": count
            / found.per_call(lambda: array.scrub(batch=True), 0.05)
            / 1e3,
        }

    found.run(
        ["hrm.write_kwords_per_s", "hrm.read_kwords_per_s", "hrm.scrub_kwords_per_s"], words
    )


def explore_split(found: Probes, explore: Callable[[int], list], months: int) -> None:
    """Search alone (``simulate_months=0``) against search plus validation."""

    def split() -> Dict[str, float]:
        start = time.perf_counter()
        results = explore(0)
        search = time.perf_counter() - start
        start = time.perf_counter()
        explore(months)
        validated = time.perf_counter() - start
        evaluated = sum(result.evaluated for result in results)
        return {
            "explore.search_s": search,
            "explore.validate_s": max(0.0, validated - search),
            "explore.designs_per_s": evaluated / search,
        }

    found.run(["explore.search_s", "explore.validate_s", "explore.designs_per_s"], split)


def cluster_simulator(found: Probes, profile, winner, seed: int) -> None:
    """The third simulator, on the explore winner."""

    def simulate() -> Dict[str, float]:
        from repro.cluster.availability_sim import AvailabilitySimulator

        months = 60
        simulator = AvailabilitySimulator(profile, winner.design.policies)
        seconds = found.per_call(lambda: simulator.simulate(months, seed=seed), 0.1)
        return {"cluster.sim_months_per_s": months / seconds}

    found.run(["cluster.sim_months_per_s"], simulate)
