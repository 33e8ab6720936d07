"""Golden fault grid: stream faults perturb the same events the same way.

For fib and nqueens (``size="test"``, 2 threads) under each of the five
stream-fault modes and seeds 0 and 1, the values below were captured
once and are pinned:

* from :func:`~repro.faults.campaign.run_tolerant`: the outcome status,
  the sha256 of the salvage report's ``to_dict()`` (sorted-key JSON) and
  the content hash of the salvaged cube;
* from ``run_app(substrates=("profiling", "tracing"), fault_plan=...)``:
  the sha256 of the faulted trace (``repr`` of every event, stream by stream).

A change to where faults are applied, how the trace is repaired, or how
the repaired stream reaches the lenient profiler that moves one byte of
any of these fails here.
"""

import hashlib
import json

import pytest

from repro.analysis.experiment import run_app
from repro.archive.store import content_hash
from repro.faults.campaign import run_tolerant
from repro.faults.plan import plan_for_mode

#: (app, mode, seed) -> (status, salvage report sha256, cube content hash)
GOLDEN_CELLS = {
    ("fib", "drop_events", 0): (
        "partial",
        "c72f4a6b1f3ea4dc574246158e418a92bf5b4820138ecd7a8c5795ce1240b3c5",
        "3db0badba9b35144caa446e01632a9d60826b60ba69e21e0d4dce1500063c592",
    ),
    ("fib", "drop_events", 1): (
        "partial",
        "f8a25a7180834a796c58778b68b9ddb854ae670a0f08f9f06e091ac5db99502d",
        "cf3b33a831b557dbfbdd3cf4518d86a4c541c72834d3de36302d6bf66820a0e3",
    ),
    ("fib", "duplicate_events", 0): (
        "partial",
        "db83a234bff61e825b14b61dfd0e4b5adac87b0951b50cad7c14b9fde5281399",
        "196b3d61d789e2010ac4f65baa4bbd017778e0148a29d50f26c1696b41ca3a66",
    ),
    ("fib", "duplicate_events", 1): (
        "partial",
        "acfc85fb5eba9df3d8ead3fd7aaf220585855e28766ee17bdedf418ad8045c2f",
        "b1cd2f278066551b0d40ca16886c127431936ad838cf57d94d0cba79029cc843",
    ),
    ("fib", "reorder_events", 0): (
        "partial",
        "10343c16c49f2b19a9dabffa84f222630f4ebce0d08ef798984ba87be0cff2a3",
        "b7d0e06cc93bf5645e1ab3c8b78a2ef071c08ca0d5817cdba62d5515072c19a6",
    ),
    ("fib", "reorder_events", 1): (
        "partial",
        "db8a62a8dd8425121847bd06b108bfaad560775980a148f322658a044c84d100",
        "aa7f56c4b170417a31fb684c8c16073b4988c6e3666cf84b9a687b677d2524af",
    ),
    ("fib", "truncate_stream", 0): (
        "partial",
        "514b3836c7f7ff87826d890447d4a6f25b6197a09042568919f3486210f9c5c9",
        "21825c6b2a5238e7804058b3f16cf85919f48f69b59139059de1484f8460e398",
    ),
    ("fib", "truncate_stream", 1): (
        "partial",
        "04e15c7c999d5812220740ea8342a55b08e4d4328bafbf0f269040cc432b52ed",
        "f7e37b5c977314617541f34a9dcf411605e1867c6a4b154b78ad0a01aecfe3e9",
    ),
    ("fib", "clock_skew", 0): (
        "partial",
        "98a43750d24a5eb62ca56b4efda8ff03e9ad86d9f34b7bae6f3ea4a346334192",
        "b61b41fbbd171ed9fbffba7b91be0bf19504717e1b30597e055b80378ddeafdd",
    ),
    ("fib", "clock_skew", 1): (
        "partial",
        "01b8336edfb44c9d45c1bd2c5a86407cc2d2f86231299387ade26039e50b2d01",
        "4251c4b8942a4fab76e4612ea405cdc2d374accdc01490c0afbaefe7e8ee4b45",
    ),
    ("nqueens", "drop_events", 0): (
        "partial",
        "fc53c7ecfd0c48be94156c030e0dd0fc9749b6670e72aad9f206bd3ddec235a4",
        "155645a95035a9b56e6b9e8d57825e166ce0969e11b8ffe287365851e7040ae3",
    ),
    ("nqueens", "drop_events", 1): (
        "partial",
        "145c9548483cc04be03b103b5bbc21402533fc3a3d5c16bdc1f66848fa3cb1a3",
        "3fd3380145713ba76cc3da916618702abc318369ee377db2ad5518ddfd552422",
    ),
    ("nqueens", "duplicate_events", 0): (
        "partial",
        "5040e7a13527aba6d2d644dcf784b8860cd0128e65593a232542d3b2b6f455f2",
        "bbd4ae3b2823c15fe1ac327c6f5aac3423913fae29b9fc3d30f47393dd026590",
    ),
    ("nqueens", "duplicate_events", 1): (
        "partial",
        "285595c6ba7f82e4f08f4c411fe509032317d381c130332278815f0675023de0",
        "a8e3399a54282fd9910ddf5b2d100379a97a30f19230a70f5b24e50aac6e3021",
    ),
    ("nqueens", "reorder_events", 0): (
        "partial",
        "538bbf9f6fd50d22e3a7d69374f11ff29c63b1bb3bfe740560f0882f179890a7",
        "5473b1f32cb469f3875486cdfdf550ccee0b4cf8d42793b2220e9c9d5349214e",
    ),
    ("nqueens", "reorder_events", 1): (
        "partial",
        "1d2cb01fc6ee91cd4b8a78dc08a75d41cc94c1e980f19697050f0fd7c02a2203",
        "4c6189f3d3add040eea21f2b6c89c5768ddace91cbaf8057ca016b13f00e2e2a",
    ),
    ("nqueens", "truncate_stream", 0): (
        "partial",
        "022d16f562e56cfe3d59635c576ad86ab3f001b5fb54f8bf4a7ae9d23f5eb542",
        "d4f7727444ba24baceae00386af612c5bfef7c2cb4fe4918b77bfa9dfc23a303",
    ),
    ("nqueens", "truncate_stream", 1): (
        "partial",
        "3b94a40eba963a0680c96912affb4d560834f0eecf4e40c986acad1bc324d3c2",
        "f01b720a6bf147f3cc7eb0490ddacdba9af437cfb3b0bb47973f7c4f8274d0a2",
    ),
    ("nqueens", "clock_skew", 0): (
        "partial",
        "144220af5c000adf151d84ed96407f7279cf612c93c0c9b14ba81e71350adb5b",
        "78d5a979978f2360c7aeeb7c8774105ff3384bcd0ecc167f500f43739c3965a6",
    ),
    ("nqueens", "clock_skew", 1): (
        "partial",
        "e3b34f262fd6813dcaa63d378eada2c71b34d7fef5077e21e787ffefa2556bca",
        "22a834f1c1f5a52756acb3f09fe6c93e40171e8b03625b58974be911f8bed897",
    ),
}

#: (app, mode, seed) -> sha256 of the faulted trace
GOLDEN_TRACES = {
    ("fib", "drop_events", 0): "bb0eacd8963ceedc14defc21fea23f23e027dc5ccc95f4d333493531b8b037bc",
    ("fib", "drop_events", 1): "820d8519d9720ca1486dd29675414a3c6b8dde269c8448f747c3dc3cf6ef3963",
    ("fib", "duplicate_events", 0): "ce72332ab8e164772b6990d0774760aa841f64c586705e6de2b4ba2389e2dd29",
    ("fib", "duplicate_events", 1): "4963d26dc4dd28a94968fe5e353757492ecac500662bccd83fe986c177531844",
    ("fib", "reorder_events", 0): "75df46774fa811d4443ee91a58a57e7d6cd4cb3e24e3aff4447195231fc4aa0f",
    ("fib", "reorder_events", 1): "9426b095164deff7cb9029235e8f978467fea2dc44c0e3d670a3290ad51d588e",
    ("fib", "truncate_stream", 0): "4e9f76400e957f2f7bd0c1d0acfa216993b413cffcadacd12f5ec4ac29ddc3a8",
    ("fib", "truncate_stream", 1): "4e9f76400e957f2f7bd0c1d0acfa216993b413cffcadacd12f5ec4ac29ddc3a8",
    ("fib", "clock_skew", 0): "5ea8bd86c36a5483a3555d208041342177afe21565151bd0716721552bece9d6",
    ("fib", "clock_skew", 1): "b42359ee5aa28b8800a66d267202cfee0a6c56bc4ceea31fd03ff9f9f586705f",
    ("nqueens", "drop_events", 0): "78e9fdb588e28929592613a2350001f33e9ce33fe8cec37cf11841c4561a6ba9",
    ("nqueens", "drop_events", 1): "0e2623737f016c0cbc5febafed3a1b8424522f9b81300c1f91221c771d6cfbfd",
    ("nqueens", "duplicate_events", 0): "44aaf02859dcf186111c79a45428f1465d16afcaf1d551fb5f9c2f2df3afb42a",
    ("nqueens", "duplicate_events", 1): "07a2dab48bf5562dec329c8478106c67198b10c1c293663a8530ce3dd22756ac",
    ("nqueens", "reorder_events", 0): "e380933392c00ee1ac08355c3027755218a3418d067568f2c6589ab373f742dd",
    ("nqueens", "reorder_events", 1): "e337644e7feefcd1421d4e707df56caab19d6d7fc970f158dab8aa530a8dbe7d",
    ("nqueens", "truncate_stream", 0): "b7535b205f73f1ec5b864cdfc6982eb303763fcb500706eaf545000d2c6f23ca",
    ("nqueens", "truncate_stream", 1): "b7535b205f73f1ec5b864cdfc6982eb303763fcb500706eaf545000d2c6f23ca",
    ("nqueens", "clock_skew", 0): "d3c6c95fd4b41adb2410448802161a17ba23db627b371e4cb82b812a6fc87b12",
    ("nqueens", "clock_skew", 1): "93d6164f447c90f4263814e88749201df24afd53382e424e5b2d8d9948397544",
}


@pytest.mark.parametrize("app,mode,seed", sorted(GOLDEN_CELLS))
def test_tolerant_cell_matches_golden(app, mode, seed):
    outcome = run_tolerant(
        app, size="test", n_threads=2, seed=seed,
        plan=plan_for_mode(mode, seed=seed),
    )
    report = hashlib.sha256(
        json.dumps(outcome.salvage.to_dict(), sort_keys=True).encode()
    ).hexdigest()
    assert (outcome.status, report, content_hash(outcome.profile)) == (
        GOLDEN_CELLS[app, mode, seed]
    )


@pytest.mark.parametrize("app,mode,seed", sorted(GOLDEN_TRACES))
def test_faulted_trace_matches_golden(app, mode, seed):
    result = run_app(
        app, size="test", n_threads=2, seed=seed,
        substrates=("profiling", "tracing"),
        fault_plan=plan_for_mode(mode, seed=seed),
    )
    digest = hashlib.sha256()
    for stream in result.parallel.trace.streams:
        for event in stream:
            digest.update(repr(event).encode() + b"\n")
    assert digest.hexdigest() == GOLDEN_TRACES[app, mode, seed]
