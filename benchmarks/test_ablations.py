"""Ablation benchmarks for the design choices DESIGN.md calls out.

Not part of the paper's evaluation, but quantifying the knobs the
reproduction introduces:

* queue policy (work-first LIFO vs breadth-first FIFO) and stealing --
  the runtime scheduling choices;
* the contention model (lock hold scaling) -- the mechanism behind
  Figs. 14/15 and Table III: switching it off must *kill* those effects,
  demonstrating the causal link;
* the per-event instrumentation cost -- a sweep showing overhead is
  linear in it at one thread and shadowed at eight;
* the trace-based management ratio (Section VII outlook) across task
  granularities.
"""

from dataclasses import replace

from repro.analysis.experiment import run_app
from repro.analysis.overhead import measure_overhead, runtime_scaling
from repro.analysis.tables import format_table
from repro.analysis.traces import management_ratio
from repro.runtime.costs import CostModel

SIZE = "small"


def test_ablation_queue_policy_and_stealing(benchmark, report):
    """Queue policy and stealing, on both ends of the granularity scale.

    For coarse tasks (strassen) stealing is what makes the
    single-producer program parallel at all: disabling it serializes.
    For tiny tasks (fib, no cut-off) stealing *hurts* -- contention makes
    4-thread execution slower than letting the producer run everything
    itself, which is the Fig. 15 pathology from a different angle.
    """

    def run():
        rows = {}
        for app in ("strassen", "fib"):
            for label, overrides in (
                ("lifo + steal", {}),
                ("fifo + steal", {"queue_policy": "fifo"}),
                ("lifo, no steal", {"steal": False}),
            ):
                result = run_app(
                    app,
                    size=SIZE,
                    variant="stress",
                    n_threads=4,
                    instrument=False,
                    seed=0,
                    **overrides,
                )
                rows[(app, label)] = (
                    result.kernel_time,
                    result.parallel.tasks_stolen,
                    result.verified,
                )
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    report.section("Ablation: ready-queue policy and work stealing (4 thr)")
    report(
        format_table(
            ["code", "configuration", "kernel [us]", "steals", "verified"],
            [
                [app, label, f"{v[0]:.0f}", v[1], v[2]]
                for (app, label), v in rows.items()
            ],
        )
    )
    # Every configuration computes the right answer.
    assert all(v[2] for v in rows.values())
    # Stealing happens when enabled, never when disabled.
    assert rows[("strassen", "lifo + steal")][1] > 0
    assert rows[("strassen", "lifo, no steal")][1] == 0
    # Coarse tasks: stealing is what buys parallelism.
    assert rows[("strassen", "lifo, no steal")][0] > 1.5 * min(
        rows[("strassen", "lifo + steal")][0],
        rows[("strassen", "fifo + steal")][0],
    )
    # Tiny tasks: parallel execution under contention loses to the
    # producer just running everything (the Fig. 15 inversion).
    assert rows[("fib", "lifo, no steal")][0] < rows[("fib", "lifo + steal")][0]


def test_ablation_contention_model(benchmark, report):
    """Switching the contention model off must kill the Fig. 15 effect."""

    def run():
        contended = runtime_scaling("fib", size=SIZE, threads=(1, 8))
        free = runtime_scaling(
            "fib", size=SIZE, threads=(1, 8), costs=CostModel().without_contention()
        )
        return contended, free

    contended, free = benchmark.pedantic(run, rounds=1, iterations=1)

    report.section("Ablation: lock contention model (fib no cut-off)")
    report(
        format_table(
            ["model", "1 thr [% of max]", "8 thr [% of max]"],
            [
                ["contended (default)", f"{contended[1]:.0f}", f"{contended[8]:.0f}"],
                ["contention-free", f"{free[1]:.0f}", f"{free[8]:.0f}"],
            ],
        )
    )
    # With contention: 8 threads is the max (runtime increases).
    assert contended[8] == 100.0 and contended[1] < 50.0
    # Without contention: 8 threads is FASTER than 1 thread -- the
    # Fig. 15 inversion is caused by the contention model, nothing else.
    assert free[8] < free[1]


def test_ablation_instrumentation_cost_sweep(benchmark, report):
    """Overhead is ~linear in per-event cost at 1 thread, shadowed at 8."""

    def run():
        rows = []
        for cost in (0.1, 0.45, 1.0):
            costs = CostModel().with_instrumentation_cost(cost)
            points = measure_overhead(
                "fib", size=SIZE, variant="stress", threads=(1, 8), costs=costs
            )
            rows.append((cost, points[0].overhead, points[1].overhead))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)

    report.section("Ablation: per-event instrumentation cost (fib no cut-off)")
    report(
        format_table(
            ["event cost [us]", "overhead @1 thr", "overhead @8 thr"],
            [[c, f"{o1 * 100:+.1f}%", f"{o8 * 100:+.1f}%"] for c, o1, o8 in rows],
        )
    )
    # 1-thread overhead grows with the event cost, roughly linearly.
    ov1 = [o1 for _, o1, _ in rows]
    assert ov1[0] < ov1[1] < ov1[2]
    assert ov1[2] / ov1[0] > 4  # 10x cost -> far more than 4x overhead
    # 8-thread overhead stays shadowed regardless of the event cost.
    assert all(abs(o8) < 0.35 for _, _, o8 in rows)


def test_ablation_management_ratio_by_granularity(benchmark, report):
    """Section VII metric across granularities: the ratio separates
    well-sized from ill-sized task programs."""

    def run():
        out = {}
        for app, variant in (("fib", "stress"), ("strassen", "stress")):
            result = run_app(
                app, size="test", variant=variant, n_threads=4, seed=0,
                substrates=("profiling", "tracing"),
            )
            out[app] = management_ratio(result.parallel.trace)
        return out

    ratios = benchmark.pedantic(run, rounds=1, iterations=1)

    report.section("Trace analysis: management/execution ratio by granularity")
    report(
        format_table(
            ["code", "task exec [us]", "management [us]", "waiting [us]", "ratio"],
            [
                [
                    app,
                    f"{r['task_execution']:.0f}",
                    f"{r['management']:.0f}",
                    f"{r['waiting']:.0f}",
                    f"{r['ratio']:.2f}",
                ]
                for app, r in ratios.items()
            ],
        )
    )
    assert ratios["fib"]["ratio"] > 0.4  # tiny tasks: management rivals work
    assert ratios["strassen"]["ratio"] < 0.2  # large tasks: management negligible


def test_ablation_measurement_filtering(benchmark, report):
    """Score-P-style region filtering recovers most of fib's overhead.

    Filtering the management-region bracketing (taskwait/create enters
    and exits) keeps full task-instance statistics while dropping the
    bulk of the per-task event volume -- the standard mitigation for the
    paper's fib pathology.
    """
    from repro.analysis.overhead import measure_overhead
    from repro.instrument.filtering import RegionFilter

    def run():
        full = measure_overhead("fib", size=SIZE, variant="stress", threads=(1,))
        filtered = measure_overhead(
            "fib",
            size=SIZE,
            variant="stress",
            threads=(1,),
            measurement_filter=RegionFilter(exclude=("taskwait", "taskyield", "create@*")),
        )
        return full[0], filtered[0]

    full, filtered = benchmark.pedantic(run, rounds=1, iterations=1)

    report.section("Ablation: measurement filtering (fib no cut-off, 1 thread)")
    report(
        format_table(
            ["configuration", "overhead"],
            [
                ["full instrumentation", f"{full.overhead_pct:+.1f}%"],
                ["management regions filtered", f"{filtered.overhead_pct:+.1f}%"],
            ],
        )
    )
    assert filtered.overhead < full.overhead * 0.6
    assert filtered.overhead > 0  # task events still cost something
