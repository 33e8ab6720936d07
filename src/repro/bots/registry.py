"""Registry of the nine BOTS kernels and their paper variants.

:func:`get_program` builds a *fresh* program instance on every call --
required because some kernels (sparselu, floorplan) mutate shared state
in place during the run, so a program object is single-use.  A kernel
module is imported on the first :func:`get_program` for it, so only
that kernel's runs pay for its imports (``fft``, ``sparselu`` and
``strassen`` pull in numpy).

The variant strings follow the paper's evaluation setup:

* ``'optimized'`` -- the Fig. 13 configuration: cut-off versions where
  BOTS provides one (fib, floorplan, health, nqueens, strassen), the
  single-producer sparselu, default versions otherwise.
* ``'stress'`` -- the Fig. 14 configuration: no cut-off anywhere.
"""

from __future__ import annotations

import importlib
from types import ModuleType
from typing import List

from repro.bots.common import BotsProgram

#: kernels with a BOTS-provided cut-off version (paper Section V-A)
CUTOFF_KERNELS = ("fib", "floorplan", "health", "nqueens", "strassen")

#: all nine kernel names
ALL_KERNELS = (
    "alignment",
    "fft",
    "fib",
    "floorplan",
    "health",
    "nqueens",
    "sort",
    "sparselu",
    "strassen",
)

#: kernels beyond the paper's nine (extensions; excluded from the
#: paper-reproduction benchmark sweeps)
EXTRA_KERNELS = ("uts",)


def get_program(name: str, size: str = "small", variant: str = "optimized", **kwargs) -> BotsProgram:
    """Build a fresh program for ``name``.

    ``variant``:

    * ``'optimized'`` -- the kernel's tuned configuration (cut-off if the
      suite provides one; sparselu single-producer),
    * ``'stress'``    -- no cut-off (the Fig. 14 / Fig. 15 runs),
    * anything else is forwarded to the kernel factory (e.g.
      ``variant='for'`` for sparselu).

    Extra keyword arguments go to the kernel's ``make_program``.
    """
    factory = load_kernel(name).make_program

    if name == "sparselu":
        if variant == "optimized":
            return factory(size=size, variant="single", **kwargs)
        if variant == "stress":
            # sparselu has no cut-off; the stress run is the same single
            # version (matching the paper, which always uses `single`).
            return factory(size=size, variant="single", **kwargs)
        return factory(size=size, variant=variant, **kwargs)

    if name == "alignment":
        # no variants: one flat level of tasks
        return factory(size=size, **kwargs)

    if variant == "optimized":
        use_cutoff = name in CUTOFF_KERNELS or name in ("sort", "fft", "uts")
        return factory(size=size, use_cutoff=use_cutoff, **kwargs)
    if variant == "stress":
        return factory(size=size, use_cutoff=False, **kwargs)
    raise ValueError(
        f"unknown variant {variant!r} for {name!r}; use 'optimized' or 'stress'"
    )


def load_kernel(name: str) -> ModuleType:
    """Import (once) and return the module of kernel ``name``."""
    if name not in ALL_KERNELS + EXTRA_KERNELS:
        raise KeyError(f"unknown BOTS kernel {name!r}; available: {list_programs()}")
    return importlib.import_module(f"repro.bots.{name}")


def list_programs() -> List[str]:
    return sorted(ALL_KERNELS + EXTRA_KERNELS)
