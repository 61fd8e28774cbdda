"""Annealed stochastic local search over rule lists.

Starting from a few random pool rules, each iteration proposes one edit
(add / remove / swap / replace, drawn uniformly), scores the edited list, and
accepts it with probability exp(delta / temperature) where delta is the
objective change and the temperature c0 / log2(1 + n) cools as the iteration
count n grows; improvements are always accepted. The best list seen so far is
tracked separately, so the returned model never depends on where the chain
happens to end.

Every draw of a chain comes from one :class:`~crl.streams.Stream` seeded with
the config's seed, so runs are bit-reproducible for a fixed seed: the initial
list, then each proposal and acceptance, draw from it in turn. Edits that are
impossible on the current list (removing from an empty list, swapping with
fewer than two rules, inserting a rule the list already contains) trigger a
fresh operation draw, capped at 16 attempts before the proposal degenerates to
the unchanged list.

Inside the loop a list is a tuple of indices into the candidate pool, whose
rules are distinct, so membership is an integer test and no :class:`RuleList`
is built until the best list is returned. Each proposal also reports the first
position its edit touches (the insertion slot, the removed or replaced
position, the smaller swapped position, or the list length for identity).
The chain's :class:`~crl.objective.ChainScorer` takes that position, scores
the proposal from that level of the current list on, and memoizes every
objective it computes for the whole chain; the loop only asks it for a
score and tells it which list was accepted.
"""

from __future__ import annotations

import math
import os
import sys
from contextlib import closing, suppress
from dataclasses import dataclass, field, replace
from itertools import cycle, islice
from typing import NamedTuple

from .data import BinaryDataset, PredictionVector, _first_repeat
from .errors import SearchError
from .mining import CandidatePool
from .objective import (
    ChainScorer,
    ObjectiveValue,
    TradeoffCurve,
    _check_alignment,
    autac_hat,
    check_alpha,
    curve,
)
from .rules import RuleList
from .streams import Stream, child_seeds

ALPHA_CANDIDATES = (0.01, 0.005, 0.001, 0.0008, 0.0005, 0.0002, 0.0001)

SCORING_COMPANION = "companion"
SCORING_RULES_ONLY = "rules_only"

# Operation draws :func:`propose` makes before it returns the identity.
PROPOSE_ATTEMPTS = 16


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
    trace: SearchTrace | None  # None in a tune report and in a cv fold's reply
    objective: ObjectiveValue
    seed: int  # the seed the chain ran with


def temperature(n: int, c0: float) -> float:
    """Annealing temperature at iteration n >= 1; exactly c0 at n = 1."""
    return c0 / math.log2(1 + n)


def accept(delta: float, n: int, c0: float, rng: Stream) -> bool:
    """Annealing acceptance test; always draws one uniform.

    Non-negative objective changes are always accepted; a decrease passes with
    probability exp(delta / temperature(n)).
    """
    eps = rng.random()
    if delta >= 0:
        return True
    return eps <= math.exp(delta / temperature(n, c0))


def init_list(pool: CandidatePool, k: int, rng: Stream) -> tuple[int, ...]:
    """k distinct pool indices drawn uniformly without replacement, in draw order."""
    if len(pool) < k:
        raise SearchError(f"pool of {len(pool)} rules is smaller than init size {k}")
    idx = rng.choice(len(pool), size=k, replace=False)
    return tuple(int(i) for i in idx)


def propose(
    state: tuple[int, ...],
    n_pool: int,
    rng: Stream,
) -> tuple[tuple[int, ...], str, int]:
    """Draw one edit of a list of indices into a pool of ``n_pool`` rules.

    Returns (new state, operation, k). Operations are equiprobable. Add draws
    a pool rule, then an insertion slot among the M+1 positions; remove and
    replace draw a list position (replace additionally draws the incoming
    pool rule); swap draws two distinct positions with
    :meth:`~crl.streams.Stream.pair`. Proposals that are impossible on the
    state, including one that would hold a pool index twice, re-draw the
    operation, and after ``PROPOSE_ATTEMPTS`` failures the unchanged state is
    returned with operation "identity". ``k`` is the first position the edit
    touches (``len(state)`` for identity): the two states share their first
    ``k`` indices, which is what :meth:`~crl.objective.ChainScorer.score`
    resumes from.
    """
    m = len(state)
    for _ in range(PROPOSE_ATTEMPTS):
        delta = rng.random()
        if delta < 0.25:
            j = rng.integers(n_pool)
            pos = rng.integers(m + 1)
            if j in state:
                continue
            return state[:pos] + (j,) + state[pos:], "add", pos
        elif delta < 0.5:
            if m < 1:
                continue
            i = rng.integers(m)
            return state[:i] + state[i + 1 :], "remove", i
        elif delta < 0.75:
            if m < 2:
                continue
            i, j = rng.pair(m)
            swapped = list(state)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            return tuple(swapped), "swap", min(i, j)
        else:
            if m < 1:
                continue
            i = rng.integers(m)
            j = rng.integers(n_pool)
            if j != state[i] and j in state:
                continue
            return state[:i] + (j,) + state[i + 1 :], "replace", i
    return state, "identity", m


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
    rng = Stream(config.seed)
    scorer = ChainScorer(
        data, preds, pool.rules, config.alpha, config.scoring == SCORING_RULES_ONLY
    )

    current = init_list(pool, config.init_size, rng)
    current_obj = scorer.score(current, 0)
    scorer.commit()
    best, best_obj = current, current_obj

    trace = SearchTrace()
    guard = config.max_rules_guard
    n_pool = len(pool)
    for n in range(1, config.n_iters + 1):
        # propose and accept stay lookups of this module's names: perfbench/tracing.py patches them
        proposal, op, k = propose(current, n_pool, rng)
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
    return SearchResult(
        best_list=best_list, curve=best_curve, trace=trace, objective=obj, seed=config.seed
    )


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
    recorded in ``tied_alphas``. ``chosen.trace`` is None: the chains' traces
    are dropped where they run.
    """

    candidates: tuple[AlphaCandidate, ...]
    chosen_alpha: float
    tied_alphas: tuple[float, ...]
    chosen: SearchResult


def _usable_cpus() -> int:
    """The CPUs this process may run on; 1 where the platform does not say."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def _move_worker(cpu: int) -> None:
    """Move this worker to ``cpu``, then let it run on its whole mask again.

    A forked worker starts on its parent's CPU and tends to stay there, so the
    chains would share one core. Once moved, the worker stays where it was
    put until the kernel has a reason to move it. A move that fails (a CPU
    taken offline since the parent read its mask) leaves the worker where it
    is.
    """
    mask = os.sched_getaffinity(0)
    with suppress(OSError):
        os.sched_setaffinity(0, {cpu})
        os.sched_setaffinity(0, mask)


def _serve(job, cpu: int, tasks: int, results: int, others) -> None:
    """A forked worker: ``job(i)`` for each chain index ``i`` read from ``tasks``.

    The worker first closes ``others``, the parent's ends of every worker's
    pipes, so that a pipe the parent closes reads as closed. Each reply,
    ``(True, value)`` or ``(False, exception)``, goes to ``results`` as one
    pickle behind its 8-byte length. The worker ends when ``tasks`` is
    closed, when ``results`` is closed under a reply, or when a reply does
    not pickle, and leaves through ``os._exit``: no ``atexit`` hook runs, and
    nothing that the parent buffered before the fork is written again.
    """
    try:
        import pickle

        for fd in others:
            os.close(fd)
        _move_worker(cpu)
        with open(results, "wb") as out:
            while index := os.read(tasks, 4):
                try:
                    reply = True, job(int.from_bytes(index, "little"))
                except Exception as exc:
                    reply = False, exc
                payload = pickle.dumps(reply)
                out.write(len(payload).to_bytes(8, "little"))
                out.write(payload)
                out.flush()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(0)


def _run_chains(job, n: int, noun: str):
    """``job(i)`` for each ``i`` in ``range(n)``, in order.

    On more than one usable CPU the chains run in up to that many worker
    processes, forked here and each first moved to a CPU of its own by
    :func:`_move_worker`; they inherit ``job`` through the fork, so no chain
    pickles the data it reads. The parent writes the next chain index to
    whichever worker has just replied, reads every busy worker's replies as
    they arrive, and yields them in chain order. A chain's exception is
    raised when the run reaches that chain; a worker that ends before it
    replies fails the chain it held. After the first failure no chain
    starts. Closing the generator, which a failure does too, closes every
    worker's pipes, so each worker ends after the chain it is running, and
    waits for them all: no worker is killed mid-write.
    """
    workers = min(n, _usable_cpus())
    if workers < 2:
        yield from map(job, range(n))
        return
    # imported here: a one-CPU run and every other command never pay for them
    import pickle
    import select

    # a buffer flushed now is not written again by a worker
    sys.stdout.flush()
    sys.stderr.flush()
    tasks = {}  # each worker's results pipe -> its tasks pipe, the parent's ends
    pids = []
    try:
        # one CPU for each worker, in mask order; cycled should there be more
        # workers than CPUs in the mask
        for cpu in islice(cycle(sorted(os.sched_getaffinity(0))), workers):
            task_read, task_write = os.pipe()
            result_read, result_write = os.pipe()
            tasks[result_read] = task_write
            pid = os.fork()
            if pid == 0:
                _serve(job, cpu, task_read, result_write, (*tasks, *tasks.values()))
            pids.append(pid)
            os.close(task_read)
            os.close(result_write)

        idle = list(tasks)
        held = {}  # a busy worker's results pipe -> the chain it runs
        received = {fd: bytearray() for fd in tasks}
        replies = {}  # chain -> (ok, value), kept until the run reaches it
        started, failed = 0, False
        for i in range(n):
            while True:
                # a worker that has replied gets its next chain before the run yields
                while idle and started < n and not failed:
                    fd = idle.pop()
                    with suppress(BrokenPipeError):  # a dead worker reads as one below
                        os.write(tasks[fd], started.to_bytes(4, "little"))
                    held[fd] = started
                    started += 1
                if i in replies:
                    break
                for fd in select.select(list(held), [], [])[0]:
                    data = os.read(fd, 1 << 16)
                    buf = received[fd]
                    buf += data
                    if len(buf) >= 8 and len(buf) == 8 + int.from_bytes(buf[:8], "little"):
                        reply = pickle.loads(memoryview(buf)[8:])
                        received[fd] = bytearray()
                        idle.append(fd)
                    elif data:
                        continue
                    else:
                        reply = False, SearchError(
                            f"a worker process ended before {noun} {held[fd]} returned"
                        )
                    replies[held.pop(fd)] = reply
                    failed = failed or not reply[0]
            ok, value = replies.pop(i)
            if not ok:
                raise value
            yield value
    finally:
        for fd, task_write in tasks.items():
            os.close(fd)
            os.close(task_write)
        for pid in pids:
            os.waitpid(pid, 0)


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
    # a worker pickles each result to the parent, so the trace nothing reads stays behind
    chains = _run_chains(
        lambda i: replace(run_search(data, preds, pool, configs[i]), trace=None),
        len(configs),
        "candidate",
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
