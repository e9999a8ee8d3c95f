"""CTA residency and SRAM utilization (Fig 6, Fig 11, Table III).

How many CTAs of a kernel fit on one SM is the minimum over four
limits: the CTA cap, the thread cap, the register file, and shared
memory.  SRAM utilization (Fig 6) is the fraction of each structure the
resident CTAs actually occupy.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.config import GPUConfig
from repro.sim.kernel import KernelProgram


@dataclass(frozen=True)
class OccupancyReport:
    """Residency and the limiting resource for one kernel/config pair."""

    ctas_per_sm: int
    limiter: str  # "cta" | "threads" | "registers" | "shared_memory"
    register_utilization: float
    shared_utilization: float
    constant_utilization: float
    thread_utilization: float


def ctas_per_sm(config: GPUConfig, kernel: KernelProgram) -> int:
    """Concurrent CTAs of ``kernel`` on one SM under ``config``."""
    return occupancy_report(config, kernel).ctas_per_sm


class SimulationDeadlock(RuntimeError):
    """The device has pending work but no SM can ever make progress.

    Defined beside the fit check, whose :class:`CTAMisfit` is one, and
    raised by :mod:`repro.sim.gpu` (which callers import it from) for
    the rest."""


class CTAMisfit(SimulationDeadlock, ValueError):
    """One CTA of a kernel needs more than an empty SM has: a host grid
    of it can never start, and the kernel has no occupancy."""


def check_cta_fits(config: GPUConfig, kernel: KernelProgram) -> None:
    """Raise :class:`CTAMisfit` when one CTA of ``kernel`` fits no SM
    under ``config``, even an empty one.  The message names the kernel
    and the first resource, in the SM's ``can_admit`` order, that the
    CTA exceeds; an empty SM always has a CTA slot (``max_ctas_per_sm``
    is at least 1)."""
    regs = kernel.regs_per_thread * kernel.cta_threads
    for need, have, what, field in (
        (kernel.cta_threads, config.max_threads_per_sm, "threads",
         "max_threads_per_sm"),
        (regs, config.registers_per_sm, "registers", "registers_per_sm"),
        (kernel.smem_per_cta, config.shared_mem_per_sm,
         "bytes of shared memory", "shared_mem_per_sm"),
    ):
        if need > have:
            raise CTAMisfit(
                f"kernel {kernel.name!r} does not fit on an SM: one CTA "
                f"needs {need} {what} and an SM has {have} ({field})"
            )


def occupancy_report(config: GPUConfig, kernel: KernelProgram) -> OccupancyReport:
    """Full occupancy analysis for Fig 6 / Fig 11."""
    check_cta_fits(config, kernel)
    limits = {
        "cta": config.max_ctas_per_sm,
        "threads": config.max_threads_per_sm // kernel.cta_threads,
    }
    regs_per_cta = kernel.regs_per_thread * kernel.cta_threads
    if regs_per_cta > 0:
        limits["registers"] = config.registers_per_sm // regs_per_cta
    if kernel.smem_per_cta > 0:
        limits["shared_memory"] = config.shared_mem_per_sm // kernel.smem_per_cta

    limiter = min(limits, key=lambda k: (limits[k], k))
    resident = limits[limiter]

    threads = resident * kernel.cta_threads
    return OccupancyReport(
        ctas_per_sm=resident,
        limiter=limiter,
        register_utilization=min(
            1.0, resident * regs_per_cta / config.registers_per_sm
        ),
        shared_utilization=min(
            1.0, resident * kernel.smem_per_cta / config.shared_mem_per_sm
        )
        if config.shared_mem_per_sm
        else 0.0,
        constant_utilization=min(
            1.0, kernel.const_bytes / config.const_cache.size_bytes
        )
        if config.const_cache.size_bytes
        else 0.0,
        thread_utilization=min(1.0, threads / config.max_threads_per_sm),
    )
