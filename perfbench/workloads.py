"""The benchmark's workloads and the closed loop that drives the engine.

Each workload is a shipped scenario plus an index scheme, built the way
``repro run`` builds it: ``train_initial_state(scenario, train_ticks=100)``
and then ``scenario.make_executor(scheme, initial_configs=...)``.  The
benchmark does not go through ``execute_spec``: ``execute_spec``,
``RunSpec`` and ``cached_training`` rebuild the scenario as
``PaperScenario(spec.params)``, and that rebuild loses the sensor
scenario's ``rate_modulation`` (its diurnal bursts).

Load is a closed loop in one process: tick *t*'s arrivals are handed to
``EngineKernel.step`` when tick *t-1* returns.  The engine's own virtual
clock models the paper's arrival schedule, capacity and backlog, so wall
time measures how fast the program replays that schedule.  Arrivals are
generated during set-up, in tick order, from the workload seed; the timed
region holds engine work only.

One run measures several sub-workloads: the same scenario at seeds derived
from the workload seed, each replayed through its own executor.  Join
output counts vary a lot from one scenario seed to the next, and that
variation persists over a long pass, so averaging over independent seeds
is what steadies the end-to-end figures between runs.  Quasi-training
always runs on the workload's reference seed, so every sub-workload starts
from the same index configurations, as a deployment trained once would.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from repro.engine.executor import AMRExecutor
from repro.engine.metrics import MetricsRegistry
from repro.engine.slo import LatencyTracker, SloMonitor, SloSpec
from repro.engine.stats import RunStats
from repro.engine.tuples import StreamTuple
from repro.experiments.harness import TrainingResult, train_initial_state
from repro.utils.rng import derive_seed
from repro.workloads.scenarios import PaperScenario, ScenarioParams, sensor_network_scenario

TRAIN_TICKS = 100
SLO = "p95<=8@120"

#: Every workload runs with this many times its scenario's memory budget.
#: The shipped budgets sit just above AMRI's burst peak at the scenarios'
#: default seeds; at other seeds a burst can cross them (sensor seeds reach
#: 97% of the 330 kB budget, and some die), and a benchmark run must not
#: fail.  With no degradation policy attached, the budget decides only the
#: audit's death check, so every other figure is the one the shipped budget
#: gives; a change that doubles memory use still ends the run.
MEMORY_HEADROOM = 2

#: The ROADMAP shared baseline: paper scenario, seed 3, 100 training ticks,
#: 150 measured ticks of ``amri:cdia-highest``.
BASELINE_SEED = 3
BASELINE_TICKS = 150
BASELINE = {"results": 4573, "source_tuples": 7200}


@dataclass(frozen=True)
class Workload:
    """One scenario, one scheme, one pass length, one reference run."""

    name: str
    why: str
    scenario: str  # "paper" or "sensor"
    scheme: str
    pass_ticks: int
    sub_workloads: int  # scenario seeds measured per run
    telemetry: bool
    reference_seed: int
    reference: dict[str, int | None]

    def build_scenario(self, seed: int) -> PaperScenario:
        if self.scenario == "sensor":
            return sensor_network_scenario(seed=seed)
        return PaperScenario(ScenarioParams(seed=seed))

    def sub_seeds(self, seed: int) -> list[int]:
        """The scenario seeds one run measures; the first is ``seed`` itself."""
        return [seed] + [derive_seed(seed, "perfbench", i) for i in range(1, self.sub_workloads)]


# The paper scenario's hot attribute rotates over its six join attributes
# every 60 ticks, so 360 ticks is one full drift cycle (eight tuning
# rounds).  The sensor scenario's daily cycle is 200 ticks with a burst
# every 137, so 600 ticks hold three cycles and five bursts.  Each run
# steps at least 1,000 ticks, enough for a p99 with ten ticks beyond it.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="paper-amri",
            why=(
                "The paper's headline system: CDIA records every probe and a tuning "
                "round runs every 40 ticks, so index search, assessment and tuning "
                "all carry a large share of the work."
            ),
            scenario="paper",
            scheme="amri:cdia-highest",
            pass_ticks=360,
            sub_workloads=3,
            telemetry=False,
            reference_seed=3,
            reference={
                "results": 13628,
                "source_tuples": 17280,
                "probes": 333639,
                "matches": 329987,
                "tuning_rounds": 32,
                "migrations": 29,
                "died_at": None,
                "final_backlog": 0,
            },
        ),
        Workload(
            name="paper-static",
            why=(
                "The non-adapting baseline on the same arrivals: the same search code "
                "with assessment, tuning and migration bypassed, and a standing "
                "backlog, so it is the control for any tuning-layer change."
            ),
            scenario="paper",
            scheme="static",
            pass_ticks=360,
            sub_workloads=4,
            telemetry=False,
            reference_seed=3,
            reference={
                "results": 3707,
                "source_tuples": 17280,
                "probes": 184355,
                "matches": 171404,
                "tuning_rounds": 0,
                "migrations": 0,
                "died_at": None,
                "final_backlog": 622,
            },
        ),
        Workload(
            name="sensor-amri-telemetry",
            why=(
                "A bursty 3-way join with small state and a metrics registry plus an "
                "SLO attached, so window maintenance, per-tick overhead and telemetry "
                "dominate."
            ),
            scenario="sensor",
            scheme="amri:cdia-highest",
            pass_ticks=600,
            sub_workloads=5,
            telemetry=True,
            reference_seed=17,
            reference={
                "results": 22850,
                "source_tuples": 16173,
                "probes": 68543,
                "matches": 75223,
                "tuning_rounds": 42,
                "migrations": 29,
                "died_at": None,
                "final_backlog": 3,
            },
        ),
    )
}


@dataclass
class Setup:
    """Everything built before the timed region."""

    workload: Workload
    seed: int
    scenario: PaperScenario
    arrivals: list[list[StreamTuple]]
    training: TrainingResult
    executor: AMRExecutor
    generate_s: float
    train_s: float
    build_s: float

    @property
    def total_s(self) -> float:
        return self.generate_s + self.train_s + self.build_s


def build_executor(
    workload: Workload, scenario: PaperScenario, training: TrainingResult
) -> AMRExecutor:
    """A fresh executor for one pass, as ``repro run`` assembles it, with
    :data:`MEMORY_HEADROOM` times the scenario's memory budget."""
    attachments = {}
    if workload.telemetry:
        spec = SloSpec.parse(SLO)
        attachments = dict(
            metrics=MetricsRegistry(),
            latency=LatencyTracker(threshold=spec.threshold_ticks),
            slo=SloMonitor(spec),
        )
    return scenario.make_executor(
        workload.scheme,
        initial_configs=training.configs,
        memory_budget=MEMORY_HEADROOM * scenario.params.memory_budget,
        **attachments,
    )


def set_up(workload: Workload, seed: int, pass_ticks: int | None = None) -> Setup:
    """Build the scenario, generate the arrivals, train, build the executor."""
    ticks = workload.pass_ticks if pass_ticks is None else pass_ticks
    clock = time.perf_counter
    t0 = clock()
    scenario = workload.build_scenario(seed)
    generator = scenario.make_generator()
    arrivals = [generator(t) for t in range(ticks)]
    t1 = clock()
    training = train_initial_state(
        workload.build_scenario(workload.reference_seed), train_ticks=TRAIN_TICKS
    )
    t2 = clock()
    executor = build_executor(workload, scenario, training)
    t3 = clock()
    return Setup(workload, seed, scenario, arrivals, training, executor, t1 - t0, t2 - t1, t3 - t2)


@dataclass
class PassResult:
    """One replay of the arrivals through a fresh executor."""

    tick_ns: list[int]
    wall_ns: int
    stats: RunStats
    executor: AMRExecutor | None  # dropped once the pass is summarised
    cost_spent: float  # virtual-clock cost units the pass spent
    fingerprint: dict[str, int | None]
    unserved: int  # final backlog + shed + arrivals after a death
    attempted: int  # source tuples + arrivals after a death
    failed: int  # shed + arrivals after a death
    prefix: dict[str, int] | None  # cumulative counts after BASELINE_TICKS ticks


def drive(executor: AMRExecutor, arrivals: list[list[StreamTuple]]) -> PassResult:
    """Step the executor through every tick of ``arrivals``, timing each step."""
    kernel = executor.kernel
    stats = executor.stats
    duration = len(arrivals)
    clock = time.perf_counter_ns
    tick_ns: list[int] = []
    prefix = None
    last = 0
    start = clock()
    for t in range(duration):
        t0 = clock()
        tick = kernel.step(t, duration, arrivals[t])
        tick_ns.append(clock() - t0)
        last = t
        if t == BASELINE_TICKS - 1:
            prefix = {"results": stats.outputs, "source_tuples": stats.source_tuples}
        if tick.died:
            break
    wall_ns = clock() - start
    kernel.finish(last)
    lost = sum(len(a) for a in arrivals[last + 1:]) if stats.died_at is not None else 0
    backlog = executor.backlog
    fingerprint = {
        "results": stats.outputs,
        "source_tuples": stats.source_tuples,
        "probes": stats.probes,
        "matches": stats.matches,
        "tuning_rounds": stats.tuning_rounds,
        "migrations": stats.migrations,
        "died_at": stats.died_at,
        "final_backlog": backlog,
    }
    return PassResult(
        tick_ns=tick_ns,
        wall_ns=wall_ns,
        stats=stats,
        executor=executor,
        cost_spent=executor.meter.total_spent,
        fingerprint=fingerprint,
        unserved=backlog + stats.shed_tuples + lost,
        attempted=stats.source_tuples + lost,
        failed=stats.shed_tuples + lost,
        prefix=prefix,
    )


def check_pass(workload: Workload, seed: int, result: PassResult, first: dict | None) -> list[str]:
    """Every way ``result`` disagrees with what the workload must produce."""
    errors = []
    fp = result.fingerprint
    if fp["died_at"] is not None:
        errors.append(f"{workload.name}: the run died at tick {fp['died_at']}")
    if first is not None and fp != first:
        errors.append(f"{workload.name}: fingerprint changed between passes: {first} != {fp}")
    if seed == workload.reference_seed and fp != workload.reference:
        errors.append(
            f"{workload.name}: seed {seed} fingerprint {fp} != reference {workload.reference}"
        )
    if (
        workload.scenario == "paper"
        and workload.scheme == "amri:cdia-highest"
        and seed == BASELINE_SEED
        and result.prefix != BASELINE
    ):
        errors.append(
            f"{workload.name}: first {BASELINE_TICKS} ticks gave {result.prefix}, "
            f"the ROADMAP baseline is {BASELINE}"
        )
    return errors
