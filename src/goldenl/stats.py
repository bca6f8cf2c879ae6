"""Distribution of base-word lengths over uniformly random words.

Appending a letter to a word whose base word has length l >= 1 cancels with
probability 1/4 (the letter equal to the current last letter) and extends with
probability 3/4; from l = 0 every letter extends. Reduced length is therefore
a nearest-neighbor walk on the nonnegative integers. One pass of its recurrence
yields the exact profile of every length in turn, so `stats --max-n N` builds
its whole table in one pass. Brute force enumeration and Monte Carlo sampling
are kept around as independent checks; McKay's (1981) closed form for closed
walks on the 4-regular tree is a third, checked in the tests up to m = 400,
where enumeration cannot reach.
"""

from __future__ import annotations

import itertools
import random
from collections.abc import Iterator
from fractions import Fraction
from typing import NamedTuple

from .errors import CapExceededError, _check_int
from .words import reduce_word

DEFAULT_ENUMERATION_LIMIT = 10
_MC_SHARD_SIZE = 1 << 16


class ReductionProfile(NamedTuple):
    """counts[l] = number of length-m words whose base word has length l."""

    word_length: int
    counts: dict[int, int]

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def probability(self, reduced_length: int) -> Fraction:
        return Fraction(self.counts.get(reduced_length, 0), 4**self.word_length)


def _exact_profiles() -> Iterator[ReductionProfile]:
    """Exact profiles for m = 0, 1, 2, ...: the walk recurrence, one step per length."""
    counts = {0: 1}
    for m in itertools.count():
        yield ReductionProfile(word_length=m, counts=counts)
        step: dict[int, int] = {}
        for length, ways in counts.items():
            if length == 0:
                step[1] = step.get(1, 0) + 4 * ways
            else:
                step[length - 1] = step.get(length - 1, 0) + ways
                step[length + 1] = step.get(length + 1, 0) + 3 * ways
        counts = step


def exact_profile(m: int) -> ReductionProfile:
    """Exact base-word length distribution via the walk recurrence."""
    _check_int("word length", m, 0)
    return next(itertools.islice(_exact_profiles(), m, None))


def count_empty_reductions(m: int) -> int:
    """How many of the 4**m words reduce to the empty word."""
    return exact_profile(m).counts.get(0, 0)


def empty_reduction_probability(m: int) -> Fraction:
    return exact_profile(m).probability(0)


def brute_force_profile(m: int, limit: int = DEFAULT_ENUMERATION_LIMIT) -> ReductionProfile:
    """Enumerate all 4**m words and reduce each one. Exponential; capped."""
    _check_int("word length", m, 0)
    _check_int("limit", limit, 0)
    if m > limit:
        raise CapExceededError(f"enumeration of 4**{m} words exceeds the limit {limit}")
    counts: dict[int, int] = {}
    for word in itertools.product((0, 1, 2, 3), repeat=m):
        length = len(reduce_word(word))
        counts[length] = counts.get(length, 0) + 1
    return ReductionProfile(word_length=m, counts=counts)


class MonteCarloEstimate(NamedTuple):
    word_length: int
    samples: int
    seed: int
    hits: int

    @property
    def estimate(self) -> float:
        return self.hits / self.samples

    @property
    def stderr(self) -> float:
        p = self.estimate
        return (p * (1.0 - p) / self.samples) ** 0.5


def monte_carlo_empty_rate(m: int, samples: int, seed: int = 0) -> MonteCarloEstimate:
    """Estimate the empty-reduction probability by sampling uniform words.

    Sampling is sharded with one RNG per (seed, m, shard) so the result is a
    pure function of the arguments no matter how shards would be scheduled.
    """
    _check_int("word length", m, 0)
    _check_int("sample count", samples, 1)
    _check_int("seed", seed)
    hits = 0
    done = 0
    shard = 0
    while done < samples:
        batch = min(_MC_SHARD_SIZE, samples - done)
        rng = random.Random(f"{seed}:{m}:{shard}")
        for _ in range(batch):
            stack: list[int] = []
            for _ in range(m):
                letter = rng.randrange(4)
                if stack and stack[-1] == letter:
                    stack.pop()
                else:
                    stack.append(letter)
            if not stack:
                hits += 1
        done += batch
        shard += 1
    return MonteCarloEstimate(word_length=m, samples=samples, seed=seed, hits=hits)
