"""Annealed stochastic local search over rule lists.

Starting from a few random pool rules, each iteration proposes one edit
(add / remove / swap / replace, drawn uniformly), scores the edited list, and
accepts it with probability exp(delta / temperature) where delta is the
objective change and the temperature c0 / log2(1 + n) cools as the iteration
count n grows; improvements are always accepted. The best list seen so far is
tracked separately, so the returned model never depends on where the chain
happens to end.

Every draw of a chain comes from one PCG64 ``Generator`` seeded with the
config's seed, so runs are bit-reproducible for a fixed seed. ``init_list``
draws through the ``Generator`` itself; from the first proposal on the loop
draws through :class:`_RawSampler`, which pulls raw 64-bit PCG64 outputs in
blocks and rebuilds from them, bit for bit, what the ``Generator``'s
``random``, ``integers`` and ``choice`` would have returned. One numpy call
costs far more than the arithmetic of a draw, and nothing reads the
generator after the search, so reading a block ahead changes no result.
Edits that are impossible on the current list (removing from an empty list,
swapping with fewer than two rules, inserting a rule the list already
contains) trigger a fresh operation draw, capped at 16 attempts before the
proposal degenerates to the unchanged list.

Inside the loop a list is a tuple of indices into the candidate pool, whose
rules are distinct, so membership is an integer test and no :class:`RuleList`
is built until the best list is returned. Each proposal also reports the first
position its edit touches (the insertion slot, the removed or replaced
position, the smaller swapped position, or the list length for identity), and
the scorer re-sweeps the objective only from that level of the current list,
resuming its per-level sweep tuples (each level's covered and correctly
answered rows, so a level costs two popcounts). The objective of every list
the chain scores is memoized for the whole chain, so a list the chain has
already proposed, from this current list or an earlier one, is not swept
again.
"""

from __future__ import annotations

import math
import os
from contextlib import closing
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from typing import NamedTuple

import numpy as np

from .data import BinaryDataset, PredictionVector, _first_repeat, child_seeds
from .errors import SearchError
from .mining import CandidatePool
from .objective import (
    ObjectiveValue,
    TradeoffCurve,
    _check_alignment,
    autac_hat,
    check_alpha,
    cover_masks,
    curve,
    sweep,
)
from .rules import RuleList

ALPHA_CANDIDATES = (0.01, 0.005, 0.001, 0.0008, 0.0005, 0.0002, 0.0001)

SCORING_COMPANION = "companion"
SCORING_RULES_ONLY = "rules_only"

# Operation draws :func:`propose` makes before it returns the identity.
PROPOSE_ATTEMPTS = 16

# Raw 64-bit outputs :class:`_RawSampler` pulls from the bit generator at once.
RAW_BLOCK = 1024


@dataclass(frozen=True)
class SearchConfig:
    """Knobs of one search chain.

    ``scoring`` selects the trained objective: "companion" maximizes the
    penalized area under the transparency-accuracy curve; "rules_only" is a
    degenerate baseline that ignores the black-box entirely and maximizes the
    stand-alone accuracy of the rule list (first-match on covered rows, the
    training majority class on the rest), used to build naively-paired
    reference models.
    """

    alpha: float
    c0: float = 0.001
    n_iters: int = 50_000
    seed: int = 0
    init_size: int = 3
    max_rules_guard: int | None = None
    scoring: str = SCORING_COMPANION

    def __post_init__(self) -> None:
        check_alpha(self.alpha)
        # NaN fails every comparison, so finiteness is checked on its own.
        if not math.isfinite(self.c0) or self.c0 <= 0:
            raise ValueError("c0 must be a finite positive number")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.n_iters < 1:
            raise ValueError("n_iters must be >= 1")
        if self.init_size < 0:
            raise ValueError("init_size must be >= 0")
        if self.max_rules_guard is not None and self.max_rules_guard < self.init_size:
            raise ValueError("max_rules_guard must be >= init_size")
        if self.scoring not in (SCORING_COMPANION, SCORING_RULES_ONLY):
            raise ValueError(f"unknown scoring {self.scoring!r}")


class SearchStep(NamedTuple):
    iteration: int
    op: str
    proposed_objective: float
    accepted: bool
    best_objective: float


@dataclass(eq=False)
class SearchTrace:
    """Per-iteration record of the chain."""

    steps: list[SearchStep] = field(default_factory=list)


@dataclass(eq=False)
class SearchResult:
    best_list: RuleList
    curve: TradeoffCurve
    trace: SearchTrace
    objective: ObjectiveValue


def temperature(n: int, c0: float) -> float:
    """Annealing temperature at iteration n >= 1; exactly c0 at n = 1."""
    return c0 / math.log2(1 + n)


def accept(delta: float, n: int, c0: float, rng: np.random.Generator) -> bool:
    """Annealing acceptance test; always draws one uniform.

    Non-negative objective changes are always accepted; a decrease passes with
    probability exp(delta / temperature(n)).
    """
    eps = rng.random()
    if delta >= 0:
        return True
    return eps <= math.exp(delta / temperature(n, c0))


def init_list(pool: CandidatePool, k: int, rng: np.random.Generator) -> tuple[int, ...]:
    """k distinct pool indices drawn uniformly without replacement, in draw order."""
    if len(pool) < k:
        raise SearchError(f"pool of {len(pool)} rules is smaller than init size {k}")
    idx = rng.choice(len(pool), size=k, replace=False)
    return tuple(int(i) for i in idx)


def propose(
    state: tuple[int, ...],
    pool: CandidatePool,
    rng: np.random.Generator,
) -> tuple[tuple[int, ...], str, int]:
    """Draw one edit of a list of pool indices; returns (new state, operation, k).

    Operations are equiprobable. Add draws a pool rule, then an insertion slot
    among the M+1 positions; remove and replace draw a list position (replace
    additionally draws the incoming pool rule); swap draws two distinct
    positions. Proposals that are impossible on the state, including one
    that would hold a pool index twice, re-draw the operation, and after
    ``PROPOSE_ATTEMPTS`` failures the unchanged state is returned with operation
    "identity". ``k`` is the first position the edit touches (``len(state)``
    for identity): the two states share their first ``k`` indices, which is
    what :meth:`_Scorer.score` resumes from.
    """
    m = len(state)
    n_pool = len(pool)
    for _ in range(PROPOSE_ATTEMPTS):
        delta = rng.random()
        if delta < 0.25:
            j = int(rng.integers(n_pool))
            pos = int(rng.integers(m + 1))
            if j in state:
                continue
            return state[:pos] + (j,) + state[pos:], "add", pos
        elif delta < 0.5:
            if m < 1:
                continue
            i = int(rng.integers(m))
            return state[:i] + state[i + 1 :], "remove", i
        elif delta < 0.75:
            if m < 2:
                continue
            i, j = (int(x) for x in rng.choice(m, size=2, replace=False))
            swapped = list(state)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            return tuple(swapped), "swap", min(i, j)
        else:
            if m < 1:
                continue
            i = int(rng.integers(m))
            j = int(rng.integers(n_pool))
            if j != state[i] and j in state:
                continue
            return state[:i] + (j,) + state[i + 1 :], "replace", i
    return state, "identity", m


class _RawSampler:
    """The draws of a PCG64 ``Generator``, rebuilt from its raw output in blocks.

    ``random``, ``integers(high)`` and ``choice(m, size=2, replace=False)``
    return exactly what the same calls on the ``Generator`` would, in the same
    order, without a numpy call per draw:

    * ``random`` is numpy's double, ``(x >> 11) * 2**-53`` of one raw output;
    * ``integers`` is numpy's 32-bit Lemire draw on [0, high), fed by 32-bit
      halves the way PCG64 hands them out: the low half of a fresh output
      first, its upper half cached for the next 32-bit draw. A range of one
      value draws nothing;
    * ``choice`` is numpy's Floyd sampling of two values (a draw on [0, m-1)
      and one on [0, m), where a repeat takes m-1) followed by its shuffle of
      the pair, one draw on [0, 2).

    The sampler starts from the generator's cached upper half, if any, and
    then owns the stream: the generator must not be drawn from afterwards.
    Ranges of 2**32 values or more take other numpy algorithms and are
    refused; a candidate pool that size cannot be held in memory.
    """

    __slots__ = ("_next64", "_half")

    def __init__(self, rng: np.random.Generator, block: int = RAW_BLOCK) -> None:
        bit_generator = rng.bit_generator
        state = bit_generator.state
        self._half = state["uinteger"] if state["has_uint32"] else None
        blocks = map(bit_generator.random_raw, repeat(block))
        self._next64 = chain.from_iterable(map(np.ndarray.tolist, blocks)).__next__

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0**-53

    def _next32(self) -> int:
        half = self._half
        if half is None:
            x = self._next64()
            self._half = x >> 32
            return x & 0xFFFFFFFF
        self._half = None
        return half

    def integers(self, high: int) -> int:
        if high == 1:
            return 0
        m = self._next32() * high
        if (m & 0xFFFFFFFF) < high:
            # Every range of 2**32 values or more reaches this branch.
            if high > 0xFFFFFFFF:
                raise ValueError(f"range of {high} values exceeds 32 bits")
            threshold = (0x100000000 - high) % high
            while (m & 0xFFFFFFFF) < threshold:
                m = self._next32() * high
        return m >> 32

    def choice(self, m: int, size: int, replace: bool) -> tuple[int, int]:
        if size != 2 or replace:
            raise ValueError("only two draws without replacement are supported")
        first = self.integers(m - 1)
        second = self.integers(m)
        if second == first:
            second = m - 1
        return (first, second) if self.integers(2) else (second, first)


class _Scorer:
    """Objective evaluation for the hot loop: :meth:`score` sweeps each state once a chain.

    Each pool rule's raw cover and its flip mask (see :func:`cover_masks`)
    are precomputed against the training data and its base, in a list indexed
    like ``pool.rules``. The scorer keeps the per-level :func:`sweep` state of
    the committed list (the last one scored before :meth:`commit`).
    :meth:`score` takes a state of pool indices and the level ``k`` up to
    which it agrees with the committed one, and sweeps only from there. Both
    scorings read the same :func:`sweep` as the module-level curve and
    objective functions, so results are bit-identical to them. Rules-only
    scoring answers uncovered rows with the training majority class instead
    of the black-box and reads only the sweep's last level.

    The chain proposes the same few neighbours again and again, and returns
    to lists it has left, so the objective of every state it scores is
    memoized for the whole chain: an objective depends on the state alone,
    and a resumed sweep is bit-identical to a full one. A hit sweeps nothing,
    and :meth:`commit` sweeps a hit's levels only if it is the list being
    committed. The memo holds one float per distinct state scored, keyed by
    the state's tuple: at most one entry per iteration, of about 0.1-0.25 KB
    as lists grow from 3 to 17 rules, the same order as the
    :class:`SearchStep` the trace keeps per iteration. At the default 50k
    iterations (``crl train``, alpha 0.001) it held 6.8k entries, 0.9 MB, on
    a planted 20k-row table and 40k entries, 9.3 MB, on a mixed 10k-row one.
    """

    def __init__(
        self,
        data: BinaryDataset,
        preds: PredictionVector,
        pool: CandidatePool,
        alpha: float,
        scoring: str,
    ) -> None:
        self.n = data.n_rows
        self.alpha = alpha
        self.rules_only = scoring == SCORING_RULES_ONLY
        if self.rules_only:
            negative, positive = data.class_masks
            self.base_correct = positive if 2 * positive.bit_count() >= self.n else negative
        else:
            self.base_correct = preds.correct_mask(data.labels)
        self.masks = cover_masks(pool.rules, data, self.base_correct)
        self.committed = ((), sweep((), self.base_correct, self.n))
        # (state, its sweep levels), or (state, k) when the score was a memo hit
        self._scored = self.committed
        self._memo: dict[tuple[int, ...], float] = {}

    def score(self, state: tuple[int, ...], k: int) -> float:
        """Objective of ``state``, whose first ``k`` indices are the committed state's."""
        obj = self._memo.get(state)
        if obj is not None:
            self._scored = (state, k)
            return obj
        levels = self._sweep(state, k)
        self._scored = (state, levels)
        _, _, _, _, _, accuracy, area = levels[-1]
        quality = accuracy if self.rules_only else 0.5 * area
        obj = self._memo[state] = quality - self.alpha * len(state)
        return obj

    def commit(self) -> None:
        """Make the last scored list the one later proposals are swept against."""
        state, levels = self._scored
        if isinstance(levels, int):
            levels = self._sweep(state, levels)
        self.committed = self._scored = (state, levels)

    def _sweep(self, state: tuple[int, ...], k: int):
        masks = self.masks
        return sweep(
            [masks[i] for i in state[k:]], self.base_correct, self.n, self.committed[1], k
        )


def run_search(
    data: BinaryDataset,
    preds: PredictionVector,
    pool: CandidatePool,
    config: SearchConfig,
) -> SearchResult:
    """Run one annealed search chain; fully deterministic given its inputs."""
    _check_alignment(data, preds)
    if len(pool) == 0:
        raise SearchError("cannot search an empty candidate pool")
    rng = np.random.default_rng(config.seed)
    scorer = _Scorer(data, preds, pool, config.alpha, config.scoring)

    current = init_list(pool, config.init_size, rng)
    rng = _RawSampler(rng)  # owns the stream from here on
    current_obj = scorer.score(current, 0)
    scorer.commit()
    best, best_obj = current, current_obj

    trace = SearchTrace()
    guard = config.max_rules_guard
    for n in range(1, config.n_iters + 1):
        proposal, op, k = propose(current, pool, rng)
        proposed_obj = scorer.score(proposal, k)
        if guard is not None and len(proposal) > guard:
            accepted = False
        else:
            accepted = accept(proposed_obj - current_obj, n, config.c0, rng)
        if accepted:
            current, current_obj = proposal, proposed_obj
            scorer.commit()
        if current_obj > best_obj:
            best, best_obj = current, current_obj
        trace.steps.append(SearchStep(n, op, proposed_obj, accepted, best_obj))

    best_list = RuleList(tuple(pool.rules[i] for i in best))
    best_curve = curve(best_list, data, preds)
    obj = ObjectiveValue(autac_hat(best_curve), config.alpha, len(best_list))
    return SearchResult(best_list=best_list, curve=best_curve, trace=trace, objective=obj)


@dataclass(frozen=True)
class AlphaCandidate:
    alpha: float
    n_rules: int
    n_conditions: int
    train_autac: float
    admissible: bool

    def summary(self) -> str:
        """This candidate as one line of the ``crl tune`` table."""
        flag = "ok " if self.admissible else "cap"
        return (
            f"alpha={self.alpha:<7g} rules={self.n_rules:<3d} "
            f"conditions={self.n_conditions:<3d} train_autac={self.train_autac:.6f} [{flag}]"
        )


@dataclass(eq=False)
class AlphaTuneReport:
    """Outcome of the penalty sweep: one search per candidate alpha.

    A candidate is admissible when its best list stays under the rule cap; the
    chosen alpha is the admissible one with maximal training curve area.
    Candidates are scanned in the given (descending) order with a strict
    improvement test, so on ties the larger alpha wins and the equal ones are
    recorded in ``tied_alphas``.
    """

    candidates: tuple[AlphaCandidate, ...]
    chosen_alpha: float
    tied_alphas: tuple[float, ...]
    chosen: SearchResult


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


# The job `_run_chains` is running, and the event that tells a worker to skip
# it. Workers inherit both through the fork, so no task pickles the data the
# job reads.
_job = None
_stop = None


def _call_job(i: int):
    return None if _stop.is_set() else _job(i)


def _run_chains(job, n: int, noun: str):
    """``job(i)`` for each ``i`` in ``range(n)``, in order.

    On more than one usable CPU the chains run in up to that many forked worker
    processes. Closing the generator, which a failed chain does too, sets a
    stop event: a chain a worker has not started yet is skipped, and the ones
    running are waited for, so no healthy worker is killed mid-write. A dead
    worker breaks the pool: every pending chain fails with it, so the error
    names the chain the run was waiting on, not necessarily the dead one.
    """
    global _job, _stop
    workers = min(n, _usable_cpus())
    if workers < 2:
        yield from map(job, range(n))
        return
    # imported here: a one-CPU run and every other command never pay for them
    from concurrent.futures.process import BrokenProcessPool, ProcessPoolExecutor
    from multiprocessing import get_context

    context = get_context("fork")
    _job, _stop = job, context.Event()
    ex = ProcessPoolExecutor(workers, mp_context=context)
    try:
        results = ex.map(_call_job, range(n))  # drops each future as it yields its result
        for i in range(n):
            try:
                yield next(results)
            except BrokenProcessPool:
                raise SearchError(f"a worker process ended before {noun} {i} returned") from None
    finally:
        _stop.set()
        ex.shutdown(cancel_futures=True)
        _job = _stop = None


def check_candidates(candidates) -> tuple[float, ...]:
    """``candidates`` as a tuple, refused when empty, repeated or holding a bad alpha."""
    candidates = tuple(candidates)
    if not candidates:
        raise ValueError("need at least one alpha candidate")
    for alpha in candidates:
        check_alpha(alpha)
    # a repeat would run chains that differ only in their seeds
    repeated = _first_repeat(candidates)
    if repeated is not None:
        raise ValueError(f"alpha candidate {repeated!r} is given more than once")
    return candidates


def tune_alpha(
    data: BinaryDataset,
    preds: PredictionVector,
    pool: CandidatePool,
    candidates=ALPHA_CANDIDATES,
    i_max: int = 20,
    base_config: SearchConfig | None = None,
) -> AlphaTuneReport:
    """Pick the penalty weight by maximizing training curve area under a cap.

    Runs one full search per candidate against the shared pool (nothing is
    re-mined) through :func:`_run_chains`, with per-candidate seeds derived
    deterministically from the base seed. Candidates whose best list has
    ``i_max`` or more rules are inadmissible; if every candidate is, the search
    fails with advice to use larger alphas or a looser cap. Every candidate is
    checked by :func:`check_candidates` before the first search runs.
    """
    candidates = check_candidates(candidates)
    base = base_config if base_config is not None else SearchConfig(alpha=0.0)
    configs = [
        replace(base, alpha=alpha, seed=seed)
        for alpha, seed in zip(candidates, child_seeds(base.seed, len(candidates)))
    ]
    chains = _run_chains(
        lambda i: run_search(data, preds, pool, configs[i]), len(configs), "candidate"
    )
    records: list[AlphaCandidate] = []
    chosen: SearchResult | None = None
    ties: list[float] = []
    with closing(chains) as results:
        for alpha, result in zip(candidates, results):
            n_rules = len(result.best_list)
            n_conditions = sum(len(r.conditions) for r in result.best_list)
            train_autac = result.objective.autac
            admissible = n_rules < i_max
            records.append(AlphaCandidate(alpha, n_rules, n_conditions, train_autac, admissible))
            if not admissible:
                continue
            if chosen is None or train_autac > chosen.objective.autac:
                chosen, ties = result, []
            elif train_autac == chosen.objective.autac:
                ties.append(alpha)
    if chosen is None:
        raise SearchError(
            f"every alpha candidate produced {i_max} rules or more; add larger "
            "alpha candidates or raise the rule cap"
        )
    return AlphaTuneReport(
        candidates=tuple(records),
        chosen_alpha=chosen.objective.alpha,
        tied_alphas=tuple(ties),
        chosen=chosen,
    )
