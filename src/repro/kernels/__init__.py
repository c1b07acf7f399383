"""Vectorized batch-trial kernels: GF(2) codec decode + injection planning.

Every Table 1 codec is GF(2)-linear, so batch encode is one bit-matrix
product and batch decode is a handful of precomputed-table gathers —
orders of magnitude faster than looping the scalar codecs, while the
scalar implementations in :mod:`repro.ecc` remain the reference oracle
(kernels derive their generator matrices *from* the scalar encoders and
are property-tested bit-identical to them).

Entry points:

* :func:`get_kernel` — memoized batch kernel per technique name;
* :class:`BatchInjectionPlanner` — draws the flip masks of any number
  of cells' trials from the derived per-trial seed streams,
  scalar-identically (a campaign plans all its cells in one call);
* :mod:`repro.kernels.mt19937` — seeds tens of thousands of
  ``random.Random`` streams per call in ~170 bytes of state each
  (``init_by_array`` streamed, keeping only the rows the first outputs
  read) and replays the planner's draws on them, which the planner
  uses for every single-bit trial of a batch at or above break-even;
* the default ``backend="pruned"`` of
  :class:`~repro.core.campaign.CharacterizationCampaign` wires the
  planner into the characterization loop.
"""

from repro.kernels.base import (
    STATUS_CORRECTED,
    STATUS_DETECTED,
    STATUS_OK,
    BatchCodecKernel,
    BatchDecodeResult,
)
from repro.kernels.chipkill import ChipkillKernel
from repro.kernels.composite import MirroringKernel, RaimKernel
from repro.kernels.dected import DecTedKernel
from repro.kernels.gf2 import bits_to_ints, generator_matrix, gf2_matmul, ints_to_bits
from repro.kernels.planner import BatchInjectionPlanner, InjectionPlan
from repro.kernels.registry import available_kernels, clear_kernel_cache, get_kernel
from repro.kernels.secded import SecDedKernel
from repro.kernels.simple import NoProtectionKernel, ParityKernel

__all__ = [
    "STATUS_OK",
    "STATUS_CORRECTED",
    "STATUS_DETECTED",
    "BatchCodecKernel",
    "BatchDecodeResult",
    "NoProtectionKernel",
    "ParityKernel",
    "SecDedKernel",
    "DecTedKernel",
    "ChipkillKernel",
    "RaimKernel",
    "MirroringKernel",
    "BatchInjectionPlanner",
    "InjectionPlan",
    "available_kernels",
    "get_kernel",
    "clear_kernel_cache",
    "ints_to_bits",
    "bits_to_ints",
    "gf2_matmul",
    "generator_matrix",
]
