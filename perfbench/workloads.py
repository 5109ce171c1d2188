"""The three benchmark workloads.

Each workload is built from ``(seed, size, workdir)`` and has three
parts the runner times separately:

* ``setup()`` — everything before the first timed repetition: ground
  truth, stores, worker pools, warm-up, reference answers.  The runner
  calls it several times and reports the median, so work moved into
  set-up shows in ``setup_s``.  Before each set-up it calls
  ``close()``, untimed, to release the previous set-up's catalog or
  worker pool.
* ``repetition()`` — one fixed unit of user work (four campaigns, a
  serving window, a series of D-M2TD jobs).  Every repetition of one
  run does identical work, so per-repetition counts are exact.
* checks — every repetition verifies its own outputs and reports how
  many answers it checked and how many were wrong.

Only generated inputs reach the program; the seed is a benchmark
argument.  See ``perfbench/README.md`` for why each workload exists
and which noise it was built against.
"""

from __future__ import annotations

import asyncio
import hashlib
import io
import json
import os
import pickle
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

REFERENCE_PATH = Path(__file__).with_name("reference.json")

#: Recorded campaign references exist for ``seed % REFERENCE_SEEDS``.
REFERENCE_SEEDS = 16


@dataclass
class Repetition:
    """What one timed repetition hands back to the runner."""

    wall_s: float
    #: Latencies of the workload's short timed unit, in seconds.
    units: List[float]
    attempted: int
    failed: int
    #: Workload-specific samples (seconds unless named otherwise).
    extra: Dict[str, List[float]] = field(default_factory=dict)
    #: The work the repetition did, in seconds, for the tracing
    #: overhead; the wall time unless the wall is set by a schedule.
    work_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.work_s is None:
            self.work_s = self.wall_s


def load_reference() -> Dict:
    with open(REFERENCE_PATH) as handle:
        return json.load(handle)


def digest_arrays(*arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# calibration
# ----------------------------------------------------------------------
#: Blobs the calibration kernel decodes: as many as a top-k reads.
CALIBRATION_BLOBS = 1024
#: The calibration kernel's median on the 2-vCPU Xeon VM the README's
#: figures come from.  A calibrated time is reported at that speed.
CALIBRATION_REFERENCE_S = 0.2


def calibration_blobs() -> List[bytes]:
    """Fixed in-memory ``.npz`` blobs shaped like the store's blocks
    (one to three cells each), the same for every seed and every
    version of the program."""
    rng = np.random.default_rng(0xCA1B)
    blobs = []
    for _ in range(CALIBRATION_BLOBS):
        n = int(rng.integers(1, 4))
        buffer = io.BytesIO()
        np.savez_compressed(
            buffer, coords=rng.integers(0, 8, (n, 4)),
            values=rng.standard_normal(n), shape=np.full(4, 2),
        )
        blobs.append(buffer.getvalue())
    return blobs


def calibrate(blobs: List[bytes]) -> float:
    """Seconds to decode and checksum every blob: interpreter-bound
    work like the program's (zip parse, inflate, SHA-256, small numpy),
    done by numpy and hashlib alone, so no change to the program moves
    it."""
    started = time.perf_counter()
    for blob in blobs:
        with np.load(io.BytesIO(blob)) as data:
            coords, values = data["coords"], data["values"]
            hashlib.sha256(coords.tobytes() + values.tobytes()).digest()
            np.abs(values).sum()
    return time.perf_counter() - started


#: Bytes the transport kernel ships: what one D-M2TD job sends each
#: way between the parent and its workers.
TRANSPORT_BYTES = 12_000_000
#: The transport kernel's median on the same VM.
TRANSPORT_REFERENCE_S = 0.04


def transport_payload() -> np.ndarray:
    return np.random.default_rng(0x7A5).standard_normal(TRANSPORT_BYTES // 8)


def calibrate_transport(payload: np.ndarray) -> float:
    """Seconds to pickle, checksum and unpickle the payload once each
    way: the memory-bound work of a D-M2TD job's transport, done by
    pickle and hashlib alone."""
    started = time.perf_counter()
    for _ in range(2):
        data = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
        hashlib.sha256(data).digest()
        pickle.loads(data)
    return time.perf_counter() - started


def calibrated(ratios, reference: float = CALIBRATION_REFERENCE_S) -> float:
    """Seconds at the reference host speed, from the ratios of timed
    units to the calibration kernel run right after each.

    This host's speed drifts by 25-50% over seconds to minutes.  A
    unit and the kernel after it see the same speed, so the median
    ratio repeats where the median time does not (``README.md``).
    """
    return reference * statistics.median(ratios)


class Workload:
    name = ""
    #: Whether set-ups are reported against the calibration kernel
    #: (:func:`calibrated`): true where the set-up's work runs in the
    #: benchmark process, which the kernel tracks.
    calibrated_setup = True

    def __init__(self, seed: int, size: str, workdir: Path):
        self.seed = int(seed)
        self.size = size
        self.workdir = workdir
        self.blobs = calibration_blobs() if self.calibrated_setup else []

    def setup(self) -> None:
        raise NotImplementedError

    def repetition(self) -> Repetition:
        raise NotImplementedError

    def accuracy(self) -> float:
        raise NotImplementedError

    def inputs_digest(self) -> str:
        """SHA-256 of the generated inputs (the self-test compares it
        across seeds)."""
        raise NotImplementedError

    def timings(self, reps: List[Repetition]) -> Dict[str, float]:
        """End-to-end timings of untraced repetitions, calibrated: the
        median time to the workload's result (``wall_s``) and the
        median of its short timed unit (``unit_p50_ms``), plus the raw
        figures behind them."""
        raise NotImplementedError

    def extra_metrics(self, traced: List[Repetition],
                      plain: List[Repetition], delta: Dict) -> Dict[str, float]:
        """Per-layer figures only this workload has, from the traced
        and the untraced half of a traced run and the traced half's
        counter deltas."""
        return {}

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# campaign.adaptive
# ----------------------------------------------------------------------
#: Campaigns per repetition (their accuracies are averaged).
CAMPAIGNS_PER_REP = 4

CAMPAIGN_SIZES = {
    # resolution, rank, confirm rounds
    "full": (16, 3, 30),
    "small": (8, 2, 6),
}


def campaign_spec(size: str, seed: int):
    from repro.campaigns import CampaignSpec

    resolution, rank, rounds = CAMPAIGN_SIZES[size]
    free = resolution ** 2
    batch = 4 * resolution
    explore = 2 * max(1, round(0.25 * free)) * 2
    # Probes also spend budget; leave room so max_rounds, not the
    # budget, ends the campaign.
    return CampaignSpec(
        scenario="epidemic_seir",
        budget=explore + 2 * rounds * batch,
        batch=batch,
        success_delta=1e-12,
        allocation="adaptive",
        resolution=resolution,
        rank=rank,
        seed=seed % REFERENCE_SEEDS,
        max_rounds=rounds,
    )


def campaign_payload_sha(outcome) -> str:
    core, factors = outcome.payload()
    h = hashlib.sha256(core)
    for factor in factors:
        h.update(factor)
    return h.hexdigest()


def campaign_summary(outcome, truth: np.ndarray) -> Dict:
    """What the reference records of one finished campaign."""
    return {
        "payload_sha256": campaign_payload_sha(outcome),
        "rounds": len(outcome.rounds),
        "cells_simulated": outcome.cells_simulated,
        "stop_reason": outcome.stop_reason,
        "accuracy": float(outcome.accuracy(truth)),
    }


def epidemic_study(size: str):
    from repro.core import EnsembleStudy
    from repro.simulation import make_system

    return EnsembleStudy.create(
        make_system("epidemic_seir"), CAMPAIGN_SIZES[size][0]
    )


def run_campaign(spec, study, workdir: Path, runtime=None):
    from repro.campaigns import CampaignOrchestrator

    with CampaignOrchestrator(
        spec, workdir=str(workdir), study=study, runtime=runtime
    ) as orchestrator:
        return orchestrator.run()


class Campaign(Workload):
    """Adaptive ``epidemic_seir`` campaigns, each with its journal and
    disk cache in a fresh work directory.

    A repetition runs :data:`CAMPAIGNS_PER_REP` campaigns with seeds
    drawn from the benchmark seed: across seeds, one campaign's final
    accuracy spreads by 9.5% (quartile distance over median), the mean
    of four by about 5%.  Each campaign is followed by the calibration
    kernel, and its time and its rounds' are reported at the reference
    host speed (:func:`calibrated`).
    """

    name = "campaign.adaptive"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        reference = load_reference()["campaign"][size]
        self.specs = [
            campaign_spec(size, CAMPAIGNS_PER_REP * seed + j)
            for j in range(CAMPAIGNS_PER_REP)
        ]
        self.references = [reference[str(spec.seed)] for spec in self.specs]
        self._runs = 0

    def setup(self) -> None:
        self.study = epidemic_study(self.size)

    def _campaign(self, spec, reference):
        from repro.campaigns.orchestrator import CAMPAIGN_RETRY
        from repro.runtime import Runtime

        class RoundClock(Runtime):
            # Every campaign round is one task graph: a graph's start
            # is a round boundary.
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self.starts: List[float] = []

            def run(self, graph):
                self.starts.append(time.perf_counter())
                return super().run(graph)

        self._runs += 1
        workdir = self.workdir / f"campaign-{self._runs}"
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        runtime = RoundClock(
            workers=1, cache_dir=str(workdir / "cache"),
            default_retry=CAMPAIGN_RETRY,
        )
        try:
            started = time.perf_counter()
            outcome = run_campaign(spec, self.study, workdir, runtime)
            ended = time.perf_counter()
        finally:
            runtime.shutdown()
            shutil.rmtree(workdir, ignore_errors=True)
        got = campaign_summary(outcome, self.study.truth)
        failed = sum(got[key] != reference[key] for key in got
                     if key != "accuracy")
        failed += not np.isclose(got["accuracy"], reference["accuracy"],
                                 rtol=1e-9, atol=0.0)
        if len(runtime.starts) != len(outcome.rounds):
            failed += 1  # the round clock lost its alignment
        rounds = list(np.diff(runtime.starts + [ended]))
        return ended - started, rounds, failed, got["accuracy"]

    def repetition(self) -> Repetition:
        rounds, failed, accuracies = [], 0, []
        extra: Dict[str, List[float]] = {
            "campaign": [], "calibration": [], "round_ratio": [],
        }
        for spec, reference in zip(self.specs, self.references):
            wall, times, wrong, accuracy = self._campaign(spec, reference)
            calibration = calibrate(self.blobs)
            rounds += times
            failed += wrong
            accuracies.append(accuracy)
            extra["campaign"].append(wall)
            extra["calibration"].append(calibration)
            extra["round_ratio"] += [t / calibration for t in times]
        self._accuracy = float(np.mean(accuracies))
        return Repetition(
            wall_s=sum(extra["campaign"]),
            units=rounds,
            # Per campaign: four recorded fields, its accuracy, and the
            # round clock's alignment.
            attempted=len(self.specs) * 6,
            failed=int(failed),
            extra=extra,
        )

    def timings(self, reps: List[Repetition]) -> Dict[str, float]:
        # A user waits for one campaign: the median is taken over every
        # campaign of the run, not over its few repetitions of four.
        def pooled(key):
            return [x for rep in reps for x in rep.extra[key]]

        return {
            "wall_s": calibrated(w / k for w, k in zip(
                pooled("campaign"), pooled("calibration"))),
            "unit_p50_ms": 1e3 * calibrated(pooled("round_ratio")),
            "raw_wall_s": statistics.median(pooled("campaign")),
            "raw_unit_p50_ms": 1e3 * statistics.median(
                unit for rep in reps for unit in rep.units
            ),
            "calibration_s": statistics.median(pooled("calibration")),
        }

    def extra_metrics(self, traced, plain, delta) -> Dict[str, float]:
        return {"calibration.kernel_p50_ms": 1e3 * percentile(
            [x for rep in plain for x in rep.extra["calibration"]], 50
        )}

    def accuracy(self) -> float:
        return self._accuracy

    def inputs_digest(self) -> str:
        return hashlib.sha256(
            "".join(spec.fingerprint() for spec in self.specs).encode()
        ).hexdigest()


# ----------------------------------------------------------------------
# serving.mixed
# ----------------------------------------------------------------------
SERVING_SIZES = {
    # resolution, window seconds, point rate /s, slice rate /s
    "full": (8, 0.5, 200.0, 10.0),
    "small": (5, 0.25, 200.0, 10.0),
}
TENANTS = (("primary", 0.30), ("secondary", 0.15))
SERVING_RANK = 3
#: How early the load generator wakes before a request is due.
TIMER_SLACK_S = 0.002
TOPK_K = 5
#: The top-k scan is due this long after the window's last point and
#: slice, so no query ever queues behind it (see ``_schedule``).
TOPK_GAP_S = 0.05


@dataclass
class _Tenant:
    tensor: object
    dense: np.ndarray
    topk_index: List[Tuple[int, ...]]
    topk_residual: np.ndarray


class Serving(Workload):
    """A two-tenant catalog driven by a seeded open-loop schedule
    from one single-threaded process.

    Each top-k scan is followed by the calibration kernel, and the
    scan is reported at the reference host speed (:func:`calibrated`).
    """

    name = "serving.mixed"

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        (self.resolution, self.window_s, self.point_rate,
         self.slice_rate) = SERVING_SIZES[size]
        self.catalog = None

    def _samples(self, truth: np.ndarray):
        from repro.sampling import RandomSampler
        from repro.tensor import SparseTensor

        samples = {}
        for i, (key, density) in enumerate(TENANTS):
            budget = max(1, int(density * truth.size))
            sample = RandomSampler(seed=self.seed * len(TENANTS) + i).sample(
                truth.shape, budget
            )
            samples[key] = SparseTensor(
                truth.shape, sample.coords, truth[tuple(sample.coords.T)]
            )
        return samples

    def setup(self) -> None:
        from repro.core import EnsembleStudy
        from repro.serving import StudyCatalog
        from repro.simulation import make_system

        study = EnsembleStudy.create(
            make_system("double_pendulum"), self.resolution
        )
        self.samples = self._samples(study.truth)
        catalog = StudyCatalog(
            tempfile.mkdtemp(prefix="catalog-", dir=self.workdir)
        )
        self.tenants: Dict[str, _Tenant] = {}
        ranks = [SERVING_RANK] * study.truth.ndim
        for key, _density in TENANTS:
            catalog.register(key, self.samples[key], ranks=ranks)
            engine = catalog.engine(key)  # warm both cache tiers
            # Reference answers: the dense reconstruction and a
            # brute-force residual ranking over every stored cell.
            dense = engine.tucker.reconstruct()
            tensor = self.samples[key]
            residual = np.abs(tensor.values - dense[tuple(tensor.coords.T)])
            order = np.argsort(-residual, kind="stable")[:TOPK_K]
            self.tenants[key] = _Tenant(
                tensor=tensor,
                dense=dense,
                topk_index=[tuple(int(i) for i in tensor.coords[j])
                            for j in order],
                topk_residual=residual[order],
            )
        self.catalog = catalog
        self.schedule = self._schedule(study.truth.shape)

    def _schedule(self, shape) -> List[Tuple[float, str, str, tuple]]:
        """One window of (offset s, kind, tenant, args), seeded."""
        rng = np.random.default_rng((0x5E12, self.seed))
        keys = [key for key, _ in TENANTS]
        events = []
        for kind, rate in (("point", self.point_rate),
                           ("slice", self.slice_rate)):
            t = float(rng.exponential(1.0 / rate))
            while t < self.window_s:
                key = keys[int(rng.integers(len(keys)))]
                if kind == "point":
                    args = tuple(int(rng.integers(n)) for n in shape)
                else:
                    mode = int(rng.integers(len(shape)))
                    args = (mode, int(rng.integers(shape[mode])))
                events.append((t, kind, key, args))
                t += float(rng.exponential(1.0 / rate))
        # One full-store top-k per window, on the larger tenant, due
        # after the window's points and slices are served: a scan
        # holds the loop for about a second, so inside the window it
        # would stall every point due meanwhile and set their p99 by
        # itself.
        events.sort(key=lambda e: e[0])
        events.append((self.window_s + TOPK_GAP_S, "topk", keys[0],
                       (TOPK_K,)))
        return events

    def _check(self, kind: str, key: str, args: tuple, answer) -> bool:
        tenant = self.tenants[key]
        if kind == "point":
            return bool(np.isclose(answer, tenant.dense[args], rtol=1e-9,
                                   atol=1e-12))
        if kind == "slice":
            mode, index = args
            expected = np.take(tenant.dense, index, axis=mode)
            return bool(np.allclose(answer, expected, rtol=1e-9,
                                    atol=1e-12))
        indices = [tuple(entry[0]) for entry in answer]
        residuals = np.array([entry[3] for entry in answer])
        return indices == tenant.topk_index and bool(
            np.allclose(residuals, tenant.topk_residual, rtol=1e-9,
                        atol=1e-12)
        )

    async def _window(self, server):
        from repro.serving import ServingClient

        loop = asyncio.get_running_loop()
        client = ServingClient(server)
        start = loop.time()
        records: List[Tuple[str, float, float, bool]] = []

        async def one(due: float, kind: str, key: str, args: tuple):
            late = loop.time() - due
            try:
                if kind == "point":
                    answer = await client.point(args, study=key)
                elif kind == "slice":
                    answer = await client.slice(*args, study=key)
                else:
                    answer = await client.topk(args[0], study=key)
                ok = self._check(kind, key, args, answer)
            except Exception:  # noqa: BLE001 — a failed or shed request
                ok = False     # counts as wrong, never stops the run
            records.append((kind, loop.time() - due, late, ok))

        tasks = []
        for offset, kind, key, args in self.schedule:
            due = start + offset
            # The loop's timer wakes up to a millisecond late, which
            # would dominate a sub-millisecond point query: sleep to
            # just short of the due time, then yield until it comes.
            delay = due - loop.time() - TIMER_SLACK_S
            if delay > 0:
                await asyncio.sleep(delay)
            while loop.time() < due:
                await asyncio.sleep(0)
            tasks.append(loop.create_task(one(due, kind, key, args)))
        await asyncio.gather(*tasks)
        return loop.time() - start, records

    def repetition(self) -> Repetition:
        from repro.serving import ServingServer

        async def session():
            async with ServingServer(self.catalog) as server:
                return await self._window(server)

        cpu = time.process_time()
        _wall, records = asyncio.run(session())
        cpu = time.process_time() - cpu
        calibration = calibrate(self.blobs)
        by_kind: Dict[str, List[float]] = {"point": [], "slice": [],
                                           "topk": []}
        for kind, latency, _late, _ok in records:
            by_kind[kind].append(latency)
        # A window's length is set by its schedule, so the wall time a
        # user waits on here is the top-k scan's, timed from its due
        # time like every request.  It is the short unit as well: the
        # points' median, a fraction of a millisecond of interpreter
        # work, spread by 27% between runs, more than any bound allows
        # (see README.md), so it is a per-layer figure.
        return Repetition(
            wall_s=statistics.median(by_kind["topk"]),
            # One thread: the process's CPU time is the serving work.
            work_s=cpu,
            units=by_kind["topk"],
            attempted=len(records),
            failed=sum(not ok for *_rest, ok in records),
            extra={
                "point": by_kind["point"],
                "slice": by_kind["slice"],
                "topk": by_kind["topk"],
                "late": [late for _k, _l, late, _ok in records],
                "calibration": [calibration],
            },
        )

    def timings(self, reps: List[Repetition]) -> Dict[str, float]:
        # One scan per repetition, paired with the kernel run after it.
        scan = calibrated(rep.extra["topk"][0] / rep.extra["calibration"][0]
                          for rep in reps)
        return {
            "wall_s": scan,
            "unit_p50_ms": 1e3 * scan,
            "raw_wall_s": statistics.median(rep.wall_s for rep in reps),
            "calibration_s": statistics.median(
                rep.extra["calibration"][0] for rep in reps
            ),
        }

    def accuracy(self) -> float:
        """Fit of the primary tenant's served model on its stored
        cells (``1 - relative error``, the paper's measure)."""
        tenant = self.tenants["primary"]
        tensor = tenant.tensor
        predicted = tenant.dense[tuple(tensor.coords.T)]
        return float(
            1.0 - np.linalg.norm(predicted - tensor.values)
            / np.linalg.norm(tensor.values)
        )

    def inputs_digest(self) -> str:
        arrays = []
        for key, _ in TENANTS:
            arrays += [self.samples[key].coords, self.samples[key].values]
        arrays.append(np.array([e[0] for e in self.schedule]))
        return digest_arrays(*arrays)

    def extra_metrics(self, traced, plain, delta) -> Dict[str, float]:
        # Latencies from the untraced half.
        def pooled(kind):
            return [x for rep in plain for x in rep.extra[kind]]

        return {
            "loadgen.point_p50_ms": 1e3 * percentile(pooled("point"), 50),
            "loadgen.point_p99_ms": 1e3 * percentile(pooled("point"), 99),
            "loadgen.slice_p50_ms": 1e3 * percentile(pooled("slice"), 50),
            "loadgen.topk_p50_ms": 1e3 * percentile(pooled("topk"), 50),
            "loadgen.late_p99_ms": 1e3 * percentile(pooled("late"), 99),
            "calibration.kernel_p50_ms":
                1e3 * percentile(pooled("calibration"), 50),
        }

    def close(self) -> None:
        if self.catalog is not None:
            shutil.rmtree(self.catalog.root, ignore_errors=True)
            self.catalog = None


# ----------------------------------------------------------------------
# dm2td.external
# ----------------------------------------------------------------------
DM2TD_SIZES = {
    # resolution, jobs per repetition
    "full": (12, 8),
    "small": (6, 4),
}
DM2TD_RANK = 3
#: Relative observation noise the seed draws (see ``dm2td_inputs``).
DM2TD_NOISE = 1e-3
#: The worker pool: two processes, never more than the CPUs.
DM2TD_WORKERS = min(2, os.cpu_count() or 1)


def dm2td_inputs(size: str, seed: int):
    """Cross-sampled sub-ensembles with seeded observation noise.

    Cross sampling at full fractions picks the same cells for every
    seed, so the seed enters as 0.1% Gaussian noise on the simulated
    values, as an instrument would add it: same sizes and work, other
    numbers.
    """
    from repro.core import EnsembleStudy
    from repro.sampling.budget import budget_for_fractions
    from repro.simulation import make_system
    from repro.tensor import SparseTensor

    study = EnsembleStudy.create(
        make_system("double_pendulum"), DM2TD_SIZES[size][0]
    )
    partition = study.default_partition()
    budget = budget_for_fractions(partition, free_fraction=1.0)
    x1, x2, _cells, _runs = study.sample_sub_ensembles(
        partition, budget, sub_sampling="cross", seed=seed
    )
    rng = np.random.default_rng((0xD2, seed))
    noisy = [
        SparseTensor(x.shape, x.coords,
                     x.values * (1.0 + DM2TD_NOISE
                                 * rng.standard_normal(x.nnz)))
        for x in (x1, x2)
    ]
    return study, partition, noisy[0], noisy[1]


def tucker_bytes(tucker) -> bytes:
    return tucker.core.tobytes() + b"".join(f.tobytes()
                                            for f in tucker.factors)


class DM2TDExternal(Workload):
    """M2TD-SELECT D-M2TD on supervised external worker processes.

    Each series of jobs is followed by the transport kernel, and the
    series and its jobs are reported at the reference host speed
    (:func:`calibrated`).  Its set-up time is raw: the set-up ends by
    spawning the workers, which neither kernel tracks (``README.md``).
    """

    name = "dm2td.external"
    calibrated_setup = False

    def __init__(self, seed, size, workdir):
        super().__init__(seed, size, workdir)
        self.jobs = DM2TD_SIZES[size][1]
        self.engine = None
        self.runtime = None
        self.payload = transport_payload()

    def _close_pool(self) -> None:
        if self.engine is not None:
            self.engine.close()
            self.runtime.shutdown()
            self.engine = self.runtime = None

    def setup(self) -> None:
        from repro.core.m2td import m2td_decompose
        from repro.distributed.dm2td import distributed_m2td
        from repro.distributed.mapreduce import LocalMapReduceEngine
        from repro.runtime import Runtime

        study, partition, x1, x2 = dm2td_inputs(self.size, self.seed)
        self.study, self.partition, self.x1, self.x2 = (
            study, partition, x1, x2
        )
        self.ranks = [DM2TD_RANK] * study.space.n_modes
        # References: in-process D-M2TD (the byte-identity contract
        # across venues) and single-node M2TD (same model to 1e-9).
        inline = distributed_m2td(x1, x2, partition, self.ranks,
                                  variant="select").result
        single = m2td_decompose(x1, x2, partition, self.ranks,
                                variant="select")
        self.reference = tucker_bytes(inline.tucker)
        self.reference_ok = np.allclose(
            inline.reconstruct_original(), single.reconstruct_original(),
            rtol=1e-9, atol=1e-9,
        )
        self.inline = inline
        # One runtime thread: the phases run in order and each fans
        # out over both worker processes.
        self.runtime = Runtime(workers=1)
        self.engine = LocalMapReduceEngine(
            n_workers=DM2TD_WORKERS, transport="process"
        )
        self._job()  # spawn and warm the workers

    def _job(self):
        from repro.distributed.dm2td import distributed_m2td

        return distributed_m2td(
            self.x1, self.x2, self.partition, self.ranks,
            variant="select", engine=self.engine, runtime=self.runtime,
        )

    def repetition(self) -> Repetition:
        units, failed = [], 0
        # Per job: each phase's task compute time, and the task count.
        extra: Dict[str, List[float]] = {
            "phase1": [], "phase2": [], "phase3": [], "tasks": []
        }
        started = time.perf_counter()
        for _ in range(self.jobs):
            t0 = time.perf_counter()
            out = self._job()
            units.append(time.perf_counter() - t0)
            failed += tucker_bytes(out.result.tucker) != self.reference
            for phase, stats in out.job_stats.items():
                extra[phase].append(stats.total_compute_seconds)
            extra["tasks"].append(sum(
                len(s.map_tasks) + len(s.reduce_tasks)
                for s in out.job_stats.values()
            ))
        wall = time.perf_counter() - started
        extra["kernel"] = [calibrate_transport(self.payload)]
        return Repetition(
            wall_s=wall,
            units=units,
            attempted=self.jobs + 1,
            failed=int(failed) + (not self.reference_ok),
            extra=extra,
        )

    def timings(self, reps: List[Repetition]) -> Dict[str, float]:
        # Each series and its jobs against the kernel run after it.
        kernels = [rep.extra["kernel"][0] for rep in reps]
        return {
            "wall_s": calibrated(
                (rep.wall_s / k for rep, k in zip(reps, kernels)),
                TRANSPORT_REFERENCE_S,
            ),
            "unit_p50_ms": 1e3 * calibrated(
                (unit / k for rep, k in zip(reps, kernels)
                 for unit in rep.units),
                TRANSPORT_REFERENCE_S,
            ),
            "raw_wall_s": statistics.median(rep.wall_s for rep in reps),
            "raw_unit_p50_ms": 1e3 * statistics.median(
                unit for rep in reps for unit in rep.units
            ),
            "transport_kernel_s": statistics.median(kernels),
        }

    def extra_metrics(self, traced, plain, delta) -> Dict[str, float]:
        # Task compute comes from the jobs' own stats; transport is the
        # rest of each job's wall time.
        def pooled(key):
            return [x for rep in traced for x in rep.extra[key]]

        walls = [unit for rep in traced for unit in rep.units]
        compute = [sum(parts) for parts in zip(
            pooled("phase1"), pooled("phase2"), pooled("phase3")
        )]
        jobs = len(walls)
        return {
            "distributed.phase1_s": statistics.mean(pooled("phase1")),
            "distributed.phase2_s": statistics.mean(pooled("phase2")),
            "distributed.phase3_s": statistics.mean(pooled("phase3")),
            "distributed.transport_s": statistics.mean(
                w - c for w, c in zip(walls, compute)
            ),
            "distributed.bytes_sent_per_job":
                counter(delta, "worker.bytes_sent") / jobs,
            "distributed.bytes_received_per_job":
                counter(delta, "worker.bytes_received") / jobs,
            "distributed.tasks_per_job": statistics.mean(pooled("tasks")),
            "distributed.respawns": counter(delta, "worker.respawns"),
            "distributed.lease_expiries":
                counter(delta, "worker.lease_expiries"),
            "calibration.kernel_p50_ms": 1e3 * percentile(
                [rep.extra["kernel"][0] for rep in plain], 50
            ),
        }

    def accuracy(self) -> float:
        return float(self.inline.accuracy(self.study.truth))

    def inputs_digest(self) -> str:
        return digest_arrays(self.x1.coords, self.x1.values,
                             self.x2.coords, self.x2.values)

    def close(self) -> None:
        self._close_pool()


def counter(delta: Dict, name: str) -> float:
    """A counter's change in a metrics-registry diff (0 if untouched)."""
    return float(delta.get(name, {}).get("value", 0.0))


def percentile(values, q: float) -> float:
    if not values:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


WORKLOADS = {
    cls.name: cls for cls in (Campaign, Serving, DM2TDExternal)
}
