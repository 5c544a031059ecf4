"""The benchmark's workloads: seeded job lists for serial sweeps.

Each workload is a list of :class:`repro.Job` built from one or more
``SweepGrid``s.  The workload seed becomes ``Job.seed``, the trace-variant
salt, so the program only ever sees the traces the seed generates.  All jobs
run with ``warmup=True``: the modelled caches are filled before statistics
start.

Why these three (README.md has the measured profile of each):

* ``fig11-hits`` - the paper's own Figure-11 PCT sweep on the two
  L1-hit-dominated benchmarks; the native scheduler's hit path and the
  trace build do most of the work.
* ``families-miss`` - one miss-heavy benchmark under all six protocol
  families; about half the records leave the native scheduler for the
  Python miss path (mesh, R-NUCA, DRAM fills).
* ``verify-tiny`` - the CI differential-sweep shape: every Table-2
  benchmark at tiny scale under golden verification, which turns the fast
  path off and makes per-job fixed costs weigh most.

``reduced=True`` shrinks each definition to a few tiny jobs of the same
shape for the smoke tests.
"""

from __future__ import annotations

from repro import ArchConfig, Job, ProtocolConfig, baseline_protocol
from repro.runner import FIGURE11_PCTS, SweepGrid
from repro.workloads import WORKLOAD_NAMES

NAMES = ("fig11-hits", "families-miss", "verify-tiny")

#: Protocol points the ``model.*`` ratios compare: adaptive PCT=4 against
#: the baseline directory protocol (PCT=1 of the ``pct`` family *is* the
#: baseline, see ``repro.runner.sweep``).
ADAPTIVE_PCT4 = ProtocolConfig(protocol="adaptive", pct=4, rat_max=16)
BASELINE = baseline_protocol()

_ALL_FAMILIES = ("pct", "baseline", "victim", "dls", "neat", "phase")


def grids(name: str, seed: int, reduced: bool = False) -> list[SweepGrid]:
    """The sweep grids that make up workload ``name`` at ``seed``."""
    if name == "fig11-hits":
        if reduced:
            return [SweepGrid(workloads=("susan",), pcts=(1, 4),
                              arch=ArchConfig(num_cores=16), scale="tiny", seed=seed)]
        return [SweepGrid(workloads=("susan", "water-sp"), families=("pct",),
                          pcts=FIGURE11_PCTS, arch=ArchConfig(num_cores=64),
                          scale="full", seed=seed)]
    if name == "families-miss":
        return [SweepGrid(workloads=("radix",), families=_ALL_FAMILIES, pcts=(4,),
                          arch=ArchConfig(num_cores=16 if reduced else 64),
                          scale="tiny" if reduced else "small", seed=seed)]
    if name == "verify-tiny":
        benchmarks = ("radix", "tsp") if reduced else WORKLOAD_NAMES
        return [SweepGrid(workloads=benchmarks,
                          families=("pct", "victim", "dls", "neat", "phase"),
                          pcts=(1, 4), arch=ArchConfig(num_cores=16), scale="tiny",
                          seed=seed, verify=True)]
    raise ValueError(f"unknown workload {name!r} (choose from {', '.join(NAMES)})")


def jobs(name: str, seed: int, reduced: bool = False) -> list[Job]:
    """Workload ``name``'s job list, in submission order."""
    return [job for grid in grids(name, seed, reduced) for job in grid.jobs()]


def label(job: Job) -> str:
    """A job's name in the reference files: ``<benchmark>/<protocol>[@pct]``.

    Unlike ``Job.key`` it survives job-schema bumps, so a reference digest
    only changes when the simulated statistics do.
    """
    proto = job.proto
    point = f"@{proto.pct}" if proto.protocol == "adaptive" else ""
    return f"{job.workload}/{proto.protocol}{point}"
