"""Seeded job lists for the benchmark workloads.

A workload is an endless sequence of batches.  Every batch holds the same mix
of job kinds; the batch's own random stream, derived from the workload name,
the workload seed and the batch number, picks the tapes, step budgets, trial
seeds and the order.  The same seed therefore always gives the same jobs, and
the program only ever sees the generated argument lists.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from random import Random
from typing import Callable, Iterator

MACHINE_DIR = "tests/machines"

# Corpus machine -> input alphabet, as on the `input:` line of its file.
CORPUS = {
    "m1_unary_append": ("1",),
    "bouncer": ("1",),
    "binary_increment": ("0", "1"),
}


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the number of `CHECK` lines it must print."""

    argv: tuple[str, ...]
    checks: int


def machine_path(name: str) -> str:
    return f"{MACHINE_DIR}/{name}.tm"


def _tape(rng: Random, alphabet: tuple[str, ...], cells: int) -> str:
    """A random input word; a full window a quarter of the time, so some runs overflow."""
    length = cells if rng.random() < 0.25 else rng.randint(1, cells - 1)
    return " ".join(rng.choice(alphabet) for _ in range(length))


# Every batch holds 15 jobs.  Job kinds differ in cost, so with an odd batch
# size the latency quantiles fall inside one kind's block of samples (the median
# at the 8th cheapest job, the 90th percentile at the 14th), never on the
# boundary between two kinds.

# Windows for evolve-wide.  Each step of `type1` scans all N^2 (m+1) n entries
# of B and a job takes about 2N steps, so a job costs in proportion to
# (m+1) n N^3: 4 N^3 for m1 and the bouncer, 9 N^3 for binary_increment, whose
# windows are therefore 0.76 of theirs.  The 15 jobs of a batch form five tiers
# of three jobs of about equal cost, each tier about 1.9 times the last; the
# median sits in the middle of the third tier, the 90th percentile in the fifth.
EVOLVE_WINDOWS = {
    "m1_unary_append": (21, 26, 32, 39, 48),
    "bouncer": (21, 26, 32, 39, 48),
    "binary_increment": (16, 20, 24, 30, 36),
}


def evolve_wide(rng: Random) -> list[Job]:
    jobs = []
    for name, alphabet in CORPUS.items():
        for cells in EVOLVE_WINDOWS[name]:
            command = rng.choice(("evolve", "verify"))
            steps = 2 * cells + rng.randint(-2, 2)
            argv = (
                command, machine_path(name), "--cells", str(cells),
                "--steps", str(steps), "--tape", _tape(rng, alphabet, cells),
            )
            jobs.append(Job(argv, 1 if command == "verify" else 0))
    rng.shuffle(jobs)
    return jobs


# (N, e) pairs for compose-power.  Power 4 is left out: at N = 2 the m1 power
# alone takes seconds and most of a GiB.
COMPOSE_SHAPES = ((4, 2), (6, 2), (8, 2), (2, 3), (3, 3))
COMPOSE_STEPS = 2


def compose_power(rng: Random) -> list[Job]:
    jobs = []
    for name, alphabet in CORPUS.items():
        for cells, power in COMPOSE_SHAPES:
            argv = (
                "compose", machine_path(name), "--cells", str(cells),
                "--power", str(power), "--steps", str(COMPOSE_STEPS),
                "--tape", _tape(rng, alphabet, cells),
            )
            jobs.append(Job(argv, COMPOSE_STEPS))
    rng.shuffle(jobs)
    return jobs


@dataclass(frozen=True)
class AssocGroup:
    """A group of the acceptance schedule and how many of its trials a batch holds.

    ``pool`` holds the trial seeds the group draws from; None leaves the seed free.
    """

    cells: int
    symbols: int
    states: int  # real states, without the bookkeeping slot 0
    p: int
    q: int
    r: int | None
    densities: tuple[float, ...]
    per_batch: int
    pool: tuple[int, ...] | None


# SMALL is Dims(2, 2, 2) and BIG is Dims(3, 2, 3), as in the acceptance battery.
# A batch holds 15 trials.  Ordered by cost the groups run SMALL (1, 1), the
# --r trial, BIG, SMALL (2, 1), SMALL (1, 2), so the median falls inside the BIG
# block (8th of 15) and the 90th percentile at the centre of the SMALL (1, 2)
# block (14th).
# Density 0.3 stays with p = q = 1: with q = 2 it goes over the default cap.
#
# A trial's cost and peak memory follow the number of terms its `type2`
# compositions expand, which varies several-fold between seeds (SMALL (1, 2)
# has a long tail).  To keep the work of a batch, and the peak RSS of a run,
# the same across workload seeds, every group but SMALL (1, 1) draws its trial
# seeds from a fixed pool: the first 24 seeds whose expansion, summed over the
# trial's compositions as the program counts them, lies within 10 % of the
# group's median over seeds 1-400.  Trials in the light and heavy tails are
# therefore excluded.
POOL_R = (53, 71, 88, 103, 117, 118, 120, 140, 156, 199, 225, 251,
          254, 260, 283, 320, 342, 363, 367, 382, 383, 388, 390, 393)
POOL_BIG = (1, 2, 4, 7, 8, 10, 11, 13, 15, 18, 19, 20,
            21, 22, 23, 24, 25, 26, 27, 28, 30, 32, 33, 34)
POOL_21 = (1, 2, 3, 5, 6, 13, 14, 19, 20, 23, 25, 26,
           35, 39, 40, 41, 44, 47, 50, 51, 52, 53, 58, 60)
POOL_12 = (1, 10, 13, 14, 36, 53, 55, 70, 78, 97, 99, 108,
           109, 111, 112, 115, 119, 124, 125, 131, 137, 146, 153, 161)
ASSOC_GROUPS = (
    AssocGroup(2, 2, 1, 1, 1, None, (0.1, 0.15, 0.2, 0.25, 0.3), 5, None),
    AssocGroup(2, 2, 1, 1, 1, 1, (0.05,), 1, POOL_R),
    AssocGroup(3, 2, 2, 1, 1, None, (0.1,), 4, POOL_BIG),
    AssocGroup(2, 2, 1, 2, 1, None, (0.1,), 2, POOL_21),
    AssocGroup(2, 2, 1, 1, 2, None, (0.1,), 3, POOL_12),
)


def trial_seed(rng: Random, group: AssocGroup) -> int:
    return rng.randrange(2**31) if group.pool is None else rng.choice(group.pool)


def assoc_random(rng: Random) -> list[Job]:
    jobs = []
    for group in ASSOC_GROUPS:
        for i in range(group.per_batch):
            density = group.densities[i % len(group.densities)]
            argv = (
                "assoc", "--cells", str(group.cells), "--symbols", str(group.symbols),
                "--states", str(group.states), "--p", str(group.p), "--q", str(group.q),
                "--trials", "1", "--density", str(density),
                "--seed", str(trial_seed(rng, group)),
            )
            checks = 1
            if group.r is not None:
                argv += ("--r", str(group.r))
                checks += 2
            jobs.append(Job(argv, checks))
    rng.shuffle(jobs)
    return jobs


WORKLOADS: dict[str, Callable[[Random], list[Job]]] = {
    "evolve-wide": evolve_wide,
    "compose-power": compose_power,
    "assoc-random": assoc_random,
}


def batch(workload: str, seed: int, number: int) -> list[Job]:
    return WORKLOADS[workload](Random(f"{workload}/{seed}/{number}"))


def batches(workload: str, seed: int) -> Iterator[list[Job]]:
    for number in itertools.count():
        yield batch(workload, seed, number)
