"""The classic profiler fed through event batches: exact round trip.

Every event reaches a consumer through an :class:`EventBatch`; the
tracing substrate decodes batches back into event objects.  The classic
call-path profiler, fed that trace, is a sensitive oracle for the round
trip: its trees must be *bit*-identical to direct per-event calls on
every stream shape -- deep nesting, flat leaf storms, parameterized
enters, and batches split and reused at arbitrary boundaries.  Errors
raised by the consumer propagate from the failing event.
"""

import random

import pytest

from repro.errors import EventOrderError
from repro.events.batch import EventBatch
from repro.events.regions import RegionRegistry, RegionType
from repro.profiling.basic import ClassicProfiler
from repro.substrates.tracing import TracingSubstrate


def _tracer(reg):
    tracing = TracingSubstrate()
    tracing.initialize(reg, 1, 0.0)
    return tracing


def _classic(main, tracing):
    """A ClassicProfiler fed thread 0's traced stream (finished)."""
    profiler = ClassicProfiler(main)
    profiler.feed(tracing.artifact().stream(0))
    return profiler


def consume(main, batch):
    tracing = _tracer(batch.registry)
    tracing.on_batch(batch)
    return _classic(main, tracing)


@pytest.fixture
def workload():
    reg = RegionRegistry()
    main = reg.register("main", RegionType.FUNCTION)
    functions = [reg.register(f"f{i}", RegionType.FUNCTION) for i in range(6)]
    return reg, main, functions


def _random_stream(functions, n_events, descend_bias, seed):
    """A properly nested enter/exit stream: [("enter"|"exit", region, t)]."""
    rng = random.Random(seed)
    events = []
    stack = []
    t = 0.0
    while len(events) < n_events:
        t += rng.random()
        if stack and (len(stack) > 12 or rng.random() > descend_bias):
            events.append(("exit", stack.pop(), t))
        else:
            region = rng.choice(functions)
            stack.append(region)
            events.append(("enter", region, t))
    while stack:
        t += rng.random()
        events.append(("exit", stack.pop(), t))
    return events


def _run_legacy(main, events):
    profiler = ClassicProfiler(main)
    t_end = events[-1][2] + 1.0
    profiler.enter(main, 0.0)
    for kind, region, t in events:
        if kind == "enter":
            profiler.enter(region, t)
        else:
            profiler.exit(region, t)
    profiler.exit(main, t_end)
    return profiler.finish()


def _run_batched(reg, main, events, split):
    tracing = _tracer(reg)
    t_end = events[-1][2] + 1.0
    batch = EventBatch(reg)
    batch.add_enter(0, main, 0.0)
    for kind, region, t in events:
        if len(batch.codes) >= split:
            tracing.on_batch(batch)
            batch.clear()  # reused in place, as the instrumentation layer does
        if kind == "enter":
            batch.add_enter(0, region, t)
        else:
            batch.add_exit(0, region, t)
    batch.add_exit(0, main, t_end)
    tracing.on_batch(batch)
    return _classic(main, tracing).root


def _signature(node):
    """Everything that identifies a call tree: regions, metrics, child order."""
    m, d = node.metrics, node.metrics.durations
    return (id(node.region), node.parameter, m.visits, m.inclusive_time, d.count, d.total,
            d.minimum, d.maximum, [_signature(c) for c in node.children.values()])


def _tree_equal(a, b):
    return _signature(a) == _signature(b)


# ----------------------------------------------------------------------
# Equivalence on random nesting shapes
# ----------------------------------------------------------------------
@pytest.mark.parametrize("descend_bias", [0.2, 0.5, 0.8])
@pytest.mark.parametrize("split", [7, 64, 10_000])
def test_random_streams_bit_identical(workload, descend_bias, split):
    reg, main, functions = workload
    events = _random_stream(functions, 600, descend_bias, seed=int(descend_bias * 10))
    legacy = _run_legacy(main, events)
    batched = _run_batched(reg, main, events, split)
    assert _tree_equal(batched, legacy)


def test_leaf_storm_bit_identical(workload):
    """Flat enter/exit pairs: the bulk of a fine-grained profile."""
    reg, main, functions = workload
    events = []
    t = 0.0
    for i in range(500):
        region = functions[i % 6]
        events.append(("enter", region, t := t + 1.0))
        events.append(("exit", region, t := t + 1.0))
    assert _tree_equal(
        _run_batched(reg, main, events, split=128), _run_legacy(main, events)
    )


def test_parameterized_enters_split_children(workload):
    """Enter parameters travel in the payload table and split children."""
    reg, main, functions = workload
    f = functions[0]
    batch = EventBatch(reg)
    batch.add_enter(0, main, 0.0)
    for i, n in enumerate((3, 5, 3)):
        batch.add_enter(0, f, 1.0 + i, parameter=("n", n))
        batch.add_exit(0, f, 1.5 + i)
    batch.add_exit(0, main, 10.0)
    root = consume(main, batch).root

    legacy = ClassicProfiler(main)
    legacy.enter(main, 0.0)
    for i, n in enumerate((3, 5, 3)):
        legacy.enter(f, 1.0 + i, parameter=("n", n))
        legacy.exit(f, 1.5 + i)
    legacy.exit(main, 10.0)
    assert _tree_equal(root, legacy.finish())
    # two distinct parameterized children, one visited twice
    assert {k[1] for k in root.children} == {("n", 3), ("n", 5)}
    assert root.children[(f, ("n", 3))].metrics.visits == 2


def test_root_open_set_from_first_batch_time(workload):
    reg, main, functions = workload
    batch = EventBatch(reg)
    batch.add_enter(0, main, 42.5)
    f = functions[0]
    batch.add_enter(0, f, 43.0)
    batch.add_exit(0, f, 44.0)
    batch.add_exit(0, main, 45.0)
    assert consume(main, batch)._root_open == 42.5


def test_empty_batch_is_a_noop(workload):
    reg, main, _ = workload
    profiler = consume(main, EventBatch(reg))
    assert profiler._root_open is None
    assert profiler.depth == 0


# ----------------------------------------------------------------------
# Error behavior
# ----------------------------------------------------------------------
def test_mismatched_exit_raises(workload):
    reg, main, functions = workload
    batch = EventBatch(reg)
    batch.add_enter(0, main, 0.0)
    batch.add_enter(0, functions[0], 1.0)
    batch.add_exit(0, functions[1], 2.0)
    with pytest.raises(EventOrderError, match="does not match"):
        consume(main, batch)


def test_exit_on_empty_stack_raises(workload):
    reg, main, functions = workload
    batch = EventBatch(reg)
    batch.add_exit(0, functions[0], 1.0)
    with pytest.raises(EventOrderError, match="no open region"):
        consume(main, batch)
