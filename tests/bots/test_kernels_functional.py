"""Functional correctness of each BOTS kernel (real results, verified).

Kernels run at size 'test' across thread counts; every run must produce
the kernel's ground-truth answer regardless of schedule.
"""

import pytest

from repro.bots import get_program, list_programs
from repro.bots.common import first_result
from repro.runtime import RuntimeConfig
from repro.runtime.runtime import run_parallel


def run(name, variant="optimized", n_threads=2, seed=0, size="test", **kwargs):
    prog = get_program(name, size=size, variant=variant, **kwargs)
    config = RuntimeConfig(n_threads=n_threads, instrument=False, seed=seed)
    result = run_parallel(prog.body, config=config, name=prog.label)
    return prog, result


def test_registry_lists_all_nine_kernels_plus_extras():
    programs = list_programs()
    for name in (
        "alignment",
        "fft",
        "fib",
        "floorplan",
        "health",
        "nqueens",
        "sort",
        "sparselu",
        "strassen",
    ):
        assert name in programs
    # extensions beyond the paper's nine are registered too
    assert "uts" in programs


def test_unknown_kernel_and_variant_rejected():
    with pytest.raises(KeyError, match="unknown BOTS kernel") as excinfo:
        get_program("mandelbrot")
    assert f"available: {list_programs()}" in str(excinfo.value)
    with pytest.raises(ValueError, match="unknown variant"):
        get_program("fib", variant="turbo")


@pytest.mark.parametrize("name", list_programs())
@pytest.mark.parametrize("n_threads", [1, 4])
def test_optimized_variant_correct(name, n_threads):
    prog, result = run(name, "optimized", n_threads=n_threads)
    assert prog.verify(result), f"{prog.label} produced a wrong result"


@pytest.mark.parametrize("name", list_programs())
def test_stress_variant_correct(name):
    prog, result = run(name, "stress", n_threads=2)
    assert prog.verify(result)


@pytest.mark.parametrize("name", ["fib", "nqueens", "sort", "strassen", "fft"])
def test_task_counts_match_analytic_prediction(name):
    for variant in ("optimized", "stress"):
        prog, result = run(name, variant, n_threads=2)
        assert result.completed_tasks == prog.meta["expected_tasks"], prog.label


def test_fib_value_and_task_count_formulas():
    from repro.bots.fib import call_count, fib_value, task_count

    assert [fib_value(i) for i in range(8)] == [0, 1, 1, 2, 3, 5, 8, 13]
    assert call_count(5) == 15  # 2*F(6)-1
    assert task_count(5, None) == 15
    assert task_count(5, 0) == 1  # cut-off at the root


def test_nqueens_serial_solver_matches_known_counts():
    from repro.bots.nqueens import SOLUTIONS, solve_serial

    for n in (4, 5, 6, 7, 8):
        solutions, nodes = solve_serial(n, ())
        assert solutions == SOLUTIONS[n]
        assert nodes > solutions


def test_nqueens_cutoff_result_independent_of_cutoff_level():
    results = set()
    for cutoff in (None, 1, 2, 3):
        prog, result = run("nqueens", "optimized", n_threads=2, cutoff=cutoff)
        results.add(first_result(result))
    assert len(results) == 1


def test_sort_actually_sorts():
    prog, result = run("sort", "optimized", n_threads=2)
    output = first_result(result)
    assert output == sorted(output)
    assert len(output) == prog.meta["n"]


def test_strassen_matches_numpy():
    import numpy as np

    prog, result = run("strassen", "stress", n_threads=2)
    from repro.bots.strassen import make_inputs

    a, b = make_inputs(prog.meta["n"])
    assert np.allclose(first_result(result), a @ b, rtol=1e-6, atol=1e-6)


def test_sparselu_both_variants_factorize():
    for variant in ("single", "for"):
        prog, result = run("sparselu", variant=variant, n_threads=2)
        assert prog.verify(result), f"sparselu/{variant}"


def test_floorplan_finds_optimum_for_every_seed():
    from repro.bots.floorplan import CELL_SETS, solve_serial

    optimal, _ = solve_serial(CELL_SETS[5], 6)
    for seed in range(3):
        prog, result = run("floorplan", "stress", n_threads=4, seed=seed)
        assert first_result(result) == optimal


def test_health_total_schedule_independent():
    values = set()
    for n_threads in (1, 2, 4):
        for seed in (0, 1):
            _, result = run("health", "stress", n_threads=n_threads, seed=seed)
            values.add(first_result(result))
    assert len(values) == 1


def test_alignment_scores_match_serial_dp():
    from repro.bots.alignment import expected_scores, make_sequences

    prog, result = run("alignment", n_threads=2)
    sequences = make_sequences(prog.meta["sequences"], prog.meta["length"])
    assert first_result(result) == expected_scores(sequences)


def test_alignment_no_nested_tasks():
    """Alignment tasks never suspend: Table II reports max-concurrent 1."""
    prog = get_program("alignment", size="test")
    config = RuntimeConfig(n_threads=2, instrument=True, seed=0)
    result = run_parallel(prog.body, config=config)
    assert result.profile.max_concurrent_tasks_per_thread() == 1


def test_fft_matches_numpy():
    import numpy as np

    prog, result = run("fft", "stress", n_threads=2)
    from repro.bots.fft import make_input

    data = make_input(prog.meta["n"])
    assert np.allclose(first_result(result), np.fft.fft(data), rtol=1e-8, atol=1e-8)


def test_bad_size_rejected_with_helpful_message():
    with pytest.raises(ValueError, match="available"):
        get_program("fib", size="gigantic")
