"""Golden outputs of the task profiler's three modes: strict, lenient, governed.

Every value below was captured once and is pinned, so a change to how
the profiler consumes events in any mode that moves one byte fails here:

* **governed** live runs (``run_app``, ``size="test"``, seed 0): fib,
  nqueens and sort x 2/4 threads x ``max_live_instances`` 2/4/8 x the
  ``degrade``/``stop`` policies.  Pinned: the cube's content hash and the
  sha256 of the governor report, or, when the run stops, the exception
  type and message;
* **lenient** salvage through ``run_tolerant`` for the fault modes the
  fault-grid golden does not cover (``task_exception``, ``stuck_task``,
  ``pressure``; seeds 0 and 1): status, salvage report sha256, cube hash;
* **lenient replay** of a fib ``small`` x 4-thread recording with 25
  records dropped, duplicated or swapped (``random.Random(seed)``):
  salvage report sha256 and cube hash of the lenient rebuild, and the
  error the strict rebuild raises on the same records;
* **checkpoint snapshots** (``checkpoint_every=2000``) of a governed
  (budget 8) and an ungoverned recording: the dispatched-event count and
  the sha256 of the checkpoint's canonical profile dict.
"""

import hashlib
import json
import random

import pytest

from repro.analysis.experiment import run_app
from repro.archive.store import content_hash, profile_dict_hash
from repro.errors import ProfileError, RecordingError
from repro.faults.campaign import run_tolerant
from repro.faults.plan import plan_for_mode
from repro.governor import MemoryBudget
from repro.recorder import rebuild_profile
from repro.recorder.chunks import read_records
from repro.recorder.store import events_path, load_checkpoint

#: (app, threads, max_live_instances, policy) ->
#: (cube hash, governor report sha256) or (exception type, message)
GOLDEN_GOVERNED = {
    ("fib", 2, 2, "degrade"): (
        "afdbbcc27613ee3fe162b24ba3900ab17e6d148756f7d8fb73550fb96b4fb2a4",
        "d8247584430e313dff06ea2e085e8fb1d444b0e1643bffb65c42d325d30b9743",
    ),
    ("fib", 2, 2, "stop"): (
        "MemoryPressureStop",
        "memory budget exhausted: live_instances=2 vs cap 2 (100%); 4 pressure incident(s), profile salvaged at degradation level L4",
    ),
    ("fib", 2, 4, "degrade"): (
        "2f2018b363cbffe814129345499db24847207a56a8acc733849973624dc005f4",
        "5dcfdd65162a4d38c6431a95b33e6beaf95a32a352b46d68c97edbf46e9123d5",
    ),
    ("fib", 2, 4, "stop"): (
        "MemoryPressureStop",
        "memory budget exhausted: live_instances=4 vs cap 4 (100%); 4 pressure incident(s), profile salvaged at degradation level L4",
    ),
    ("fib", 2, 8, "degrade"): (
        "e356492fa8bc43860ce75d88060b4d486971306a72eddfbcf3b15d6eaed2fa62",
        "214fa70b93fc0139d9507520a23090f8185cb19927f074d276b8462233b45343",
    ),
    ("fib", 2, 8, "stop"): (
        "MemoryPressureStop",
        "memory budget exhausted: live_instances=7 vs cap 8 (88%); 4 pressure incident(s), profile salvaged at degradation level L4",
    ),
    ("fib", 4, 2, "degrade"): (
        "b270f43d19ed8503dc2d82c305f4cd70444e5e5133f56cde41bdab194d290610",
        "6d1451bd0ea0bd4541e72e5a09a695ad080eee10e9404c2e6f57f7a7d0eb0211",
    ),
    ("fib", 4, 2, "stop"): (
        "MemoryPressureStop",
        "memory budget exhausted: live_instances=2 vs cap 2 (100%); 4 pressure incident(s), profile salvaged at degradation level L4",
    ),
    ("fib", 4, 4, "degrade"): (
        "a4a8f889666f21f25a5ffda7e4e1ab4ed96aa203244e38ea087e8f9f830aceb6",
        "5f50e471747320a3bd44345f1ae852c68fa7d19d23b53a31e59b2bf3d7b78e1b",
    ),
    ("fib", 4, 4, "stop"): (
        "MemoryPressureStop",
        "memory budget exhausted: live_instances=4 vs cap 4 (100%); 4 pressure incident(s), profile salvaged at degradation level L4",
    ),
    ("fib", 4, 8, "degrade"): (
        "78cf03f4f9c329ad1a2ab3ef8ae94a11cc133392dd676c47d90e7cd04917421e",
        "a5c3725c68fc31ccc802298a7a50286af13e18dc1b7831155ce819370ec18a1a",
    ),
    ("fib", 4, 8, "stop"): (
        "MemoryPressureStop",
        "memory budget exhausted: live_instances=7 vs cap 8 (88%); 4 pressure incident(s), profile salvaged at degradation level L4",
    ),
    ("nqueens", 2, 2, "degrade"): (
        "39ced724525af70dec6f5648bf529f432ca560c5fd6052c8f3584e9ca328bce0",
        "082a260a1b2c3fa4a91687e781bbd77eb7962e211abed936418b6c101d7ead1a",
    ),
    ("nqueens", 2, 2, "stop"): (
        "MemoryPressureStop",
        "memory budget exhausted: live_instances=2 vs cap 2 (100%); 4 pressure incident(s), profile salvaged at degradation level L4",
    ),
    ("nqueens", 2, 4, "degrade"): (
        "3b13266e2cc739ea4f11dbfd347ccd1100e9fc61c7267f5076fa405baa50155f",
        "7888b6404a663d11215ddcf85c791f734a5abc6ab5cd3f8172fc0911a612ff92",
    ),
    ("nqueens", 2, 4, "stop"): (
        "MemoryPressureStop",
        "memory budget exhausted: live_instances=4 vs cap 4 (100%); 4 pressure incident(s), profile salvaged at degradation level L4",
    ),
    ("nqueens", 2, 8, "degrade"): (
        "2e0e56e0b3591ea0c31faaa40e1b126a3703fdc5797ab3e2f076993961717546",
        "886e32a0f026a3bf66dffe3de2472ea39d6767ed4a4973f3b30bba86218d1e7b",
    ),
    ("nqueens", 2, 8, "stop"): (
        "fcc6728fc381f2258097c2192756b82867a29b83262cd59f38c999deedec963a",
        "cf333f390237233280224a911fe3277f66154d951df41e97ad02812e929d8b70",
    ),
    ("nqueens", 4, 2, "degrade"): (
        "7827aeb77b7eea262cb8cee1dcb5c1a1c0b1cd65a999e10335cb5718560dce61",
        "4d06730d1873dfb564ddab9063c4690a48ce0e31ee8ae4d8d2e0bb2d3a0db5ad",
    ),
    ("nqueens", 4, 2, "stop"): (
        "MemoryPressureStop",
        "memory budget exhausted: live_instances=2 vs cap 2 (100%); 4 pressure incident(s), profile salvaged at degradation level L4",
    ),
    ("nqueens", 4, 4, "degrade"): (
        "2e8144abfbb458c442c5c54bfd87c7a32ef359fd3c47c91a448d72f67d28bf40",
        "22beb710685c2a80f8f21a254ff6662eb877871b7a1af1dd835149e835b858f9",
    ),
    ("nqueens", 4, 4, "stop"): (
        "MemoryPressureStop",
        "memory budget exhausted: live_instances=4 vs cap 4 (100%); 4 pressure incident(s), profile salvaged at degradation level L4",
    ),
    ("nqueens", 4, 8, "degrade"): (
        "c5dfba77982b7b818fdee581dfe06a252d4607a3ab1d5ea8f75a862dc84c8866",
        "9c3f7428e1ee9866834479de6e0d5606eb35a0921eaa1f0ed79184d9364209ac",
    ),
    ("nqueens", 4, 8, "stop"): (
        "MemoryPressureStop",
        "memory budget exhausted: live_instances=7 vs cap 8 (88%); 4 pressure incident(s), profile salvaged at degradation level L4",
    ),
    ("sort", 2, 2, "degrade"): (
        "fc397195713c62a2618d8d5d5f40fcd39d942712bdef7e8db5e46e6cf739cbf8",
        "6aa7fe9b80290cc97ee90a03fe67584baddf9752fb47220b79491cea629413f1",
    ),
    ("sort", 2, 2, "stop"): (
        "MemoryPressureStop",
        "memory budget exhausted: live_instances=2 vs cap 2 (100%); 4 pressure incident(s), profile salvaged at degradation level L4",
    ),
    ("sort", 2, 4, "degrade"): (
        "ee275da56891790bb15a43ec1c9e4f2ab66f3237ad4bd6c8cf9801f047897f70",
        "de22f6503d26ba449c495620c66fbc30562e97b916aa07ba1dac3ba9223b2ef8",
    ),
    ("sort", 2, 4, "stop"): (
        "MemoryPressureStop",
        "memory budget exhausted: live_instances=4 vs cap 4 (100%); 4 pressure incident(s), profile salvaged at degradation level L4",
    ),
    ("sort", 2, 8, "degrade"): (
        "6a3660e3e022cc7c91cbc91baea297347ef12005bad089aa237f970ef1fe00d2",
        "5266b59de49ec3acd63c6b8bbdf6e8f5175711b5384ed598c1a2bacb076785c8",
    ),
    ("sort", 2, 8, "stop"): (
        "de201910d973d4d911c764a5c34875c20b71bcef097426dccbcc17d1363ed8d6",
        "0863f59910312760b935b98e8d77ea19c0b724383f6fabb1db1592a5c17fcabc",
    ),
    ("sort", 4, 2, "degrade"): (
        "60f0a44f6672597c220baae7568b0f284661d28f699410108f2ba80a7c34cffe",
        "87a5794fcf550359dbdf0642424f4255ba28c8229778501640dbf2cda6764bff",
    ),
    ("sort", 4, 2, "stop"): (
        "MemoryPressureStop",
        "memory budget exhausted: live_instances=2 vs cap 2 (100%); 4 pressure incident(s), profile salvaged at degradation level L4",
    ),
    ("sort", 4, 4, "degrade"): (
        "d1e1a34cddc50a00d15007a438af6f1a9a5a7fb1fc3a98e9d6b65a43db9b3a02",
        "e77d9c745e8db8f7c80e14f1d7bb23ef95347b11e2e33d60680f1750c12279c8",
    ),
    ("sort", 4, 4, "stop"): (
        "MemoryPressureStop",
        "memory budget exhausted: live_instances=4 vs cap 4 (100%); 4 pressure incident(s), profile salvaged at degradation level L4",
    ),
    ("sort", 4, 8, "degrade"): (
        "71ae42424bf437fb8efa603a1a676d0754c43e8da5e7b9685fb5ebb128330eec",
        "b1f0d20c2e069fc0756aeb81c654797b462713eacdc50ae39e65ce34016689a6",
    ),
    ("sort", 4, 8, "stop"): (
        "1e2a642aa0de10764fbbe4e0859e931bc013cfc41367e51c24cff09512816367",
        "0863f59910312760b935b98e8d77ea19c0b724383f6fabb1db1592a5c17fcabc",
    ),
}

#: (app, mode, seed) -> (status, salvage report sha256, cube hash)
GOLDEN_TOLERANT = {
    ("fib", "task_exception", 0): (
        "partial",
        "36bbb741bd73866e0957dd4c11c864cca36afa74bb5d4875c7d70a3d673ee318",
        "6dc0caf637604192af3ffb1258f89377ea807979093033dde9fd2fd0388a0fcb",
    ),
    ("fib", "task_exception", 1): (
        "partial",
        "d906c0d90c8a4037e786a341d3678a779aeb4406c40b61299887e33e8a89935e",
        "8ccda4988cf470fee33e620d909813bf61ba9d1e4eba322e1a7598eb5222480a",
    ),
    ("fib", "stuck_task", 0): (
        "partial",
        "0d302a8dd30f74dbe4f811b668d03dc240d531e5f01fd30bd986af0253b8747e",
        "4f5dce027a961b076f82d4da414c18b1434e68205f5c9f3812954c6939bb7ab8",
    ),
    ("fib", "stuck_task", 1): (
        "partial",
        "ffca83cdab13a92b99073036e75776b3c1dcb1f99fb0869cda1ef7edcae3e26b",
        "61d4058768e84b6a638b592d7b0ac3fe76c61e906be3a6ee2175cd1f2d19a3e9",
    ),
    ("fib", "pressure", 0): (
        "complete",
        "76a19e40b1f2f4d0bfa3cb380854816d39fdbdb0c1fbaa7c4f8e1045175f1908",
        "2f2018b363cbffe814129345499db24847207a56a8acc733849973624dc005f4",
    ),
    ("fib", "pressure", 1): (
        "complete",
        "76a19e40b1f2f4d0bfa3cb380854816d39fdbdb0c1fbaa7c4f8e1045175f1908",
        "2f2018b363cbffe814129345499db24847207a56a8acc733849973624dc005f4",
    ),
    ("nqueens", "task_exception", 0): (
        "partial",
        "8763833286ed0039019eb065ac71ebafd5fa581961de797c280b973f6c341955",
        "adb7090f8ca49ef5ba7090ef711100a860f8b747a2423843ec2c109ca9d7ade5",
    ),
    ("nqueens", "task_exception", 1): (
        "partial",
        "d521533a5304964cb04ac5ee1bcd70e5bb5b104f55fddd185cb13e4ea5882eb8",
        "53adb9211b00374fa1ed44217e609154fd91fbe24977d764fda85baa157a6c7d",
    ),
    ("nqueens", "stuck_task", 0): (
        "partial",
        "89b31af64677b271521fda31e38405ce9f84bda534ef64b9140be692fbc0af35",
        "109908c77b0b9eee1cce1610cb15d03520abb0bd434848040eda9269024e3629",
    ),
    ("nqueens", "stuck_task", 1): (
        "partial",
        "2c057d938e3fd79d3c29ca6cd67196b6cc38e11ad3c95540370585bd24105f56",
        "18952e3f9c5af6e35c3e6acd9f9e26466f71cde13436f7db3e7f025eea8e199a",
    ),
    ("nqueens", "pressure", 0): (
        "complete",
        "aeb96df742674709f1c5a7eb91268eb4e3dbf11619febe88527dae0c4aa50369",
        "3b13266e2cc739ea4f11dbfd347ccd1100e9fc61c7267f5076fa405baa50155f",
    ),
    ("nqueens", "pressure", 1): (
        "complete",
        "aeb96df742674709f1c5a7eb91268eb4e3dbf11619febe88527dae0c4aa50369",
        "3b13266e2cc739ea4f11dbfd347ccd1100e9fc61c7267f5076fa405baa50155f",
    ),
    ("sort", "task_exception", 0): (
        "partial",
        "52ca4b804b23184cbf23c64ce49bb7f42d06661571f8423d320d506e14029242",
        "94ee36387e426e95cb5b3546688cebe3eea5aa0b771023315cc41ac608ceb9c3",
    ),
    ("sort", "task_exception", 1): (
        "partial",
        "ed19d848d0d7faa2500b1c8f374e5f4595b2ffc1a1995bdedd0c715516bd3875",
        "84048ee7a8d10504875bb6df116c4d2654b0bc14e2042da430930314211a1d83",
    ),
    ("sort", "stuck_task", 0): (
        "partial",
        "08a6728121125a3cdf6f45ee5222dab0aa15d72fbcc6b048a0655004cbdea7ed",
        "415cf2c012d85b0a2328b4997b2d0132debf14aa88b685470263fabc51077d14",
    ),
    ("sort", "stuck_task", 1): (
        "partial",
        "4275ced843c372972b06e1c2ecb4d136d1ded8bae3dca0547e7a9d834b38f0b1",
        "596ca06c6e2a9b6dcf6c50190bef9af02925a09cd86ea56d372f25ac444d193f",
    ),
    ("sort", "pressure", 0): (
        "complete",
        "76a19e40b1f2f4d0bfa3cb380854816d39fdbdb0c1fbaa7c4f8e1045175f1908",
        "ee275da56891790bb15a43ec1c9e4f2ab66f3237ad4bd6c8cf9801f047897f70",
    ),
    ("sort", "pressure", 1): (
        "complete",
        "76a19e40b1f2f4d0bfa3cb380854816d39fdbdb0c1fbaa7c4f8e1045175f1908",
        "ee275da56891790bb15a43ec1c9e4f2ab66f3237ad4bd6c8cf9801f047897f70",
    ),
}

#: seed -> (lenient report sha256, lenient cube hash, strict rebuild error)
GOLDEN_CORRUPTED_REBUILDS = {
    0: (
        "546217b08c7dd3b39c250af1cde250e5e53365a0262a6ee978c93d5efd3cc14b",
        "b4dae49c3b547465b76421d5b72e8f88808523a38d7d5ecfb1e58cd05db2e3f9",
        "ProfileError: instance 260 ended with open region(s): create@fib_task",
    ),
    1: (
        "645fc059e26531099bf172cf2a06f4a8ce98f1d15a59338400daf757b0d41988",
        "4b737a57cc8b9b7b271207f6c2c71c8c1de31886aff12040be5e1511cc493229",
        "ProfileError: task_end for unknown instance 87",
    ),
    2: (
        "c3d83ed7123c2803b6ead04508954fa414ad6ca8392a6ad48df37ffa39619074",
        "ed65ba0f81a689d59034e56f229827b6729b1644338b9826c0103fbc9d6ac860",
        "ProfileError: task_end for unknown instance 106",
    ),
    3: (
        "95307fd3ecdc22ccf0fa43ce132d28a7c03fccf5f2d24449026b39a8341fe599",
        "7d472238f6606a5a25ef509a8a1c7c0485e6c78e2f21b1c5e2ce5da2a37d2d4b",
        "ProfileError: task_end for unknown instance 58",
    ),
    4: (
        "94877f427115e891ba1c1b730993d435062af0919522fd150f81743c2892da17",
        "fcfa9b3d2791cf00b4c37a464dc79e31edf807d20d032e01db4bd10dc5cd722a",
        "ProfileError: task_switch to unknown instance 197",
    ),
    5: (
        "eb0fcd1949aaa09e0ac612b58066993aeb3069abcd357a4db7b18384157f6db8",
        "de70ad81a725b8d1f40f05785476889504b7dc788afd6dbb745dcff58bfeea69",
        "ProfileError: thread 3: exit 'create@fib_task' with no open region",
    ),
}

#: recording -> (events at the last checkpoint, checkpoint profile sha256)
#: Checkpoints land on batch boundaries, where the profiler and the
#: recorder have consumed the same prefix; the ungoverned snapshot is the
#: lenient rebuild of that prefix (tests/recorder/test_substrate_store.py).
GOLDEN_CHECKPOINTS = {
    "governed": (
        10006,
        "8ce555e8f5c2b95fb1e8d65bc4aed02e529aa036f04c11d738b1c60e3bc5b763",
    ),
    "ungoverned": (
        10244,
        "f0790f21391fb2d5900dbf7115213a78c5a19f486bf4967ba41905e874831395",
    ),
}


def _sha(data) -> str:
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("app,threads,cap,policy", sorted(GOLDEN_GOVERNED))
def test_governed_run_matches_golden(app, threads, cap, policy):
    try:
        result = run_app(
            app, size="test", n_threads=threads, seed=0,
            memory_budget=MemoryBudget(max_live_instances=cap, on_pressure=policy),
        )
        got = (
            content_hash(result.profile),
            _sha(result.parallel.extra["governor"]),
        )
    except Exception as exc:
        got = (type(exc).__name__, str(exc))
    assert got == GOLDEN_GOVERNED[app, threads, cap, policy]


@pytest.mark.parametrize("app,mode,seed", sorted(GOLDEN_TOLERANT))
def test_tolerant_cell_matches_golden(app, mode, seed):
    outcome = run_tolerant(
        app, size="test", n_threads=2, seed=seed,
        plan=plan_for_mode(mode, seed=seed),
    )
    got = (outcome.status, _sha(outcome.salvage.to_dict()), content_hash(outcome.profile))
    assert got == GOLDEN_TOLERANT[app, mode, seed]


@pytest.fixture(scope="module")
def recorded_records(tmp_path_factory):
    record_dir = str(tmp_path_factory.mktemp("modes") / "rec")
    outcome = run_tolerant("fib", size="small", n_threads=4, seed=0, record_dir=record_dir)
    assert outcome.status == "complete"
    return read_records(events_path(record_dir)).records


def _corrupt(records, seed):
    """25 drops, duplicates or adjacent swaps, never touching init or fin."""
    rng = random.Random(seed)
    records = list(records)
    for _ in range(25):
        op = rng.choice(("drop", "dup", "swap"))
        i = rng.randrange(1, len(records) - 2)
        if op == "drop":
            del records[i]
        elif op == "dup":
            records.insert(i, records[i])
        else:
            records[i], records[i + 1] = records[i + 1], records[i]
    return records


@pytest.mark.parametrize("seed", sorted(GOLDEN_CORRUPTED_REBUILDS))
def test_corrupted_rebuild_matches_golden(recorded_records, seed):
    records = _corrupt(recorded_records, seed)
    lenient = rebuild_profile(records, strict=False)
    try:
        rebuild_profile(records, strict=True)
        error = None
    except (ProfileError, RecordingError) as exc:
        error = f"{type(exc).__name__}: {exc}"
    got = (_sha(lenient.salvage.to_dict()), content_hash(lenient), error)
    assert got == GOLDEN_CORRUPTED_REBUILDS[seed]


@pytest.mark.parametrize("name", sorted(GOLDEN_CHECKPOINTS))
def test_checkpoint_snapshot_matches_golden(tmp_path, name):
    budget = MemoryBudget(max_live_instances=8) if name == "governed" else None
    record_dir = str(tmp_path / "rec")
    run_tolerant(
        "fib", size="small", n_threads=4, seed=0, record_dir=record_dir,
        checkpoint_every=2000, memory_budget=budget,
    )
    checkpoint = load_checkpoint(record_dir)
    got = (checkpoint["records"], profile_dict_hash(checkpoint["profile"]))
    assert got == GOLDEN_CHECKPOINTS[name]
