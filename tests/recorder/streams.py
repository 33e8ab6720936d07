"""Seeded random record streams for the codec/chunk property tests."""

from __future__ import annotations

import random
from typing import List

from repro.events.regions import Region, RegionRegistry, RegionType
from repro.recorder.codec import unzigzag


def make_regions(registry: RegionRegistry = None) -> List[Region]:
    registry = registry or RegionRegistry()
    return [
        registry.register("main", RegionType.FUNCTION, "main.py", 1),
        registry.register("parallel", RegionType.PARALLEL, "main.py", 10),
        registry.register("task_body", RegionType.TASK, "work.py", 42),
        registry.register("taskwait", RegionType.TASKWAIT),
    ]


def random_records(seed: int, count: int, *, with_fin: bool = True) -> List[tuple]:
    """A seeded stream of every record kind the recorder emits.

    Not a *valid* profiler event sequence -- codec and framing tests
    only care that arbitrary well-formed tuples survive the wire.
    """
    rng = random.Random(seed)
    regions = make_regions()
    records: List[tuple] = [("init", 2, 0.0, regions[0], rng.choice([None, 12]))]
    time = 0.0
    for _ in range(count):
        time += rng.random() * 3.0
        kind = rng.choice(
            ["enter", "exit", "task_begin", "task_end", "task_switch",
             "metric", "phase_begin", "phase_end"]
        )
        region = rng.choice(regions)
        thread_id = rng.randrange(4)
        if kind == "enter":
            parameter = ("depth", rng.randrange(8)) if rng.random() < 0.3 else None
            records.append(("enter", thread_id, time, region, parameter))
        elif kind == "exit":
            records.append(("exit", thread_id, time, region))
        elif kind == "task_begin":
            records.append(
                ("task_begin", thread_id, time, region,
                 rng.randrange(-5, 5000), None)
            )
        elif kind == "task_end":
            records.append(
                ("task_end", thread_id, time, region, rng.randrange(-5, 5000))
            )
        elif kind == "task_switch":
            records.append(("task_switch", thread_id, time, rng.randrange(-3, 100)))
        elif kind == "metric":
            records.append(
                ("metric", thread_id, time,
                 {"tasks_created": rng.randrange(10), "queue_len": rng.randrange(4)})
            )
        elif kind == "phase_begin":
            records.append(("phase_begin", f"phase{rng.randrange(3)}"))
        else:
            records.append(("phase_end", f"phase{rng.randrange(3)}"))
    if with_fin:
        records.append(("fin", time, len(records)))
    return records


#: Thread ids and zigzagged instance ids on both sides of the decoder's
#: inline limits: one-byte ids (< 0x80), two-byte instances (< 0x4000).
WIDE_THREAD_IDS = (127, 128, 300)
WIDE_INSTANCE_ZIGZAGS = (0x7F, 0x80, 0x3FFF, 0x4000, 2**21)


def wide_records() -> List[tuple]:
    """Every task/region kind at and past the decoder's inline limits.

    Region handles are pinned at 127, 128 and 20000; instance ids span
    one- to four-byte varints plus negative implicit-task ids; ``enter``
    and ``task_begin`` alternate between no parameter and a parameter.
    Handle 64 equals the top byte of every timestamp in [2, 2**16), so
    an inline read at a position shifted by a wide thread id resolves
    to a defined region instead of falling through.
    """
    registry = RegionRegistry()
    regions = [
        registry.register("alias", RegionType.FUNCTION, "wide.py", 0, handle=64),
        registry.register("edge", RegionType.FUNCTION, "wide.py", 1, handle=127),
        registry.register("wide", RegionType.TASK, "wide.py", 2, handle=128),
        registry.register("far", RegionType.TASKWAIT, handle=20000),
    ]
    instances = [unzigzag(zz) for zz in WIDE_INSTANCE_ZIGZAGS] + [-1, -2]
    records: List[tuple] = []
    time = 0.0
    for thread_id in WIDE_THREAD_IDS:
        for region in regions:
            for parameter in (None, ("depth", 3)):
                time += 0.5
                records.append(("enter", thread_id, time, region, parameter))
            records.append(("exit", thread_id, time, region))
            for index, instance in enumerate(instances):
                time += 0.25
                parameter = ("depth", index) if index % 2 else None
                records.append(
                    ("task_begin", thread_id, time, region, instance, parameter)
                )
                records.append(("task_end", thread_id, time, region, instance))
        for instance in instances:
            records.append(("task_switch", thread_id, time, instance))
    return records


def comparable(record: tuple) -> tuple:
    """Region objects -> identity keys, so streams from different
    registries (encoder side vs decoder side) compare by value."""
    out = []
    for item in record:
        if isinstance(item, Region):
            out.append((item.name, item.region_type, item.file, item.line))
        else:
            out.append(item)
    return tuple(out)
