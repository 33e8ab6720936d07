"""The Barcelona OpenMP Tasks Suite (BOTS), re-implemented.

Duran et al., ICPP 2009.  Nine task-parallel kernels, each expressed as a
task program for the simulated runtime (:mod:`repro.runtime`) and each
computing a *real, verifiable* result:

========== ===================================================== =========
kernel     computation                                           variants
========== ===================================================== =========
fib        Fibonacci numbers by binary task recursion            cutoff
nqueens    count of n-queens solutions (backtracking)            cutoff
sort       mergesort of an integer array                         cutoff
strassen   Strassen matrix multiplication (numpy blocks)         cutoff
sparselu   LU factorization of a sparse block matrix             single/for
floorplan  optimal cell placement by branch & bound              cutoff
health     multi-level health-system simulation                  cutoff
alignment  pairwise sequence alignment scores (Needleman-Wunsch) --
fft        Cooley-Tukey FFT                                      cutoff
========== ===================================================== =========

Virtual compute costs are charged per unit of real work with per-kernel
constants calibrated so the *relative* task granularities of the paper's
Table I hold (fib/nqueens/health tasks at the ~1 µs scale, floorplan ~7x
larger, strassen two orders of magnitude larger).

Use :func:`repro.bots.registry.get_program` /
:func:`repro.bots.registry.list_programs` to obtain runnable programs.
"""

from repro.bots.common import BotsProgram, single_producer_region
from repro.bots.registry import get_program, list_programs

__all__ = [
    "BotsProgram",
    "single_producer_region",
    "get_program",
    "list_programs",
]
