"""Annealed stochastic local search over rule lists.

Starting from a few random pool rules, each iteration proposes one edit
(add / remove / swap / replace, drawn uniformly), scores the edited list, and
accepts it with probability exp(delta / temperature) where delta is the
objective change and the temperature c0 / log2(1 + n) cools as the iteration
count n grows; improvements are always accepted. The best list seen so far is
tracked separately, so the returned model never depends on where the chain
happens to end.

A single named generator drives every draw, which makes runs bit-reproducible
for a fixed seed. Edits that are impossible on the current list (removing from
an empty list, swapping with fewer than two rules, inserting a rule the list
already contains) trigger a fresh operation draw, capped at 16 attempts before
the proposal degenerates to the unchanged list.

Inside the loop a list is a tuple of indices into the candidate pool, whose
rules are distinct, so membership is an integer test and no :class:`RuleList`
is built until the best list is returned. Each proposal also reports the first
position its edit touches (the insertion slot, the removed or replaced
position, the smaller swapped position, or the list length for identity), and
the scorer re-sweeps the objective only from that level of the current list.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import NamedTuple

import numpy as np

from .data import BinaryDataset, PredictionVector
from .errors import SearchError
from .mining import CandidatePool
from .objective import (
    ObjectiveValue,
    TradeoffCurve,
    autac_hat,
    check_alpha,
    cover_masks,
    curve,
    make_objective,
    sweep,
)
from .rules import RuleList

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
    trace: SearchTrace
    objective: ObjectiveValue
    config: SearchConfig


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


class _Scorer:
    """Objective evaluation for the hot loop: a proposal re-sweeps from its first changed rule.

    Raw covers, per-rule correct-row masks and their popcounts are
    precomputed for the whole pool against the training data, in a list
    indexed like ``pool.rules``. The scorer keeps the per-level :func:`sweep`
    state of the committed list (the last one scored before :meth:`commit`).
    :meth:`score` takes a state of pool indices and the level ``k`` up to
    which it agrees with the committed one, and sweeps only from there. Both
    scorings read the same :func:`sweep` as the module-level curve and
    objective functions, so results are bit-identical to them. Rules-only
    scoring answers uncovered rows with the training majority class instead
    of the black-box and reads only the sweep's last level.
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
            label_mask = data.label_mask
            if 2 * label_mask.bit_count() >= data.n_rows:
                self.base_correct = label_mask
            else:
                self.base_correct = ~label_mask & data.full_mask
        else:
            self.base_correct = preds.correct_mask(data.labels)
        self.masks = cover_masks(pool.rules, data)
        self.committed = ((), sweep((), self.base_correct, self.n))
        self._scored = self.committed

    def score(self, state: tuple[int, ...], k: int) -> float:
        """Objective of ``state``, whose first ``k`` indices are the committed state's."""
        masks = self.masks
        counts = sweep(
            [masks[i] for i in state[k:]],
            self.base_correct,
            self.n,
            self.committed[1],
            k,
        )
        self._scored = (state, counts)
        if self.rules_only:
            area = (counts.rule_correct[-1] + counts.base_rest[-1]) / self.n
        else:
            area = 0.5 * counts.area[-1]
        return area - self.alpha * len(state)

    def commit(self) -> None:
        """Make the last scored list the one later proposals are swept against."""
        self.committed = self._scored


def run_search(
    data: BinaryDataset,
    preds: PredictionVector,
    pool: CandidatePool,
    config: SearchConfig,
) -> SearchResult:
    """Run one annealed search chain; fully deterministic given its inputs."""
    if len(pool) == 0:
        raise SearchError("cannot search an empty candidate pool")
    rng = np.random.default_rng(config.seed)
    scorer = _Scorer(data, preds, pool, config.alpha, config.scoring)

    current = init_list(pool, config.init_size, rng)
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
    obj = make_objective(autac_hat(best_curve), config.alpha, len(best_list))
    return SearchResult(
        best_list=best_list,
        curve=best_curve,
        trace=trace,
        objective=obj,
        config=config,
    )


@dataclass(frozen=True)
class AlphaCandidate:
    alpha: float
    n_rules: int
    n_conditions: int
    train_autac: float
    admissible: bool


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
    re-mined), with per-candidate seeds derived deterministically from the base
    seed. Candidates whose best list has ``i_max`` or more rules are
    inadmissible; if every candidate is, the search fails with advice to use
    larger alphas or a looser cap.
    """
    candidates = tuple(candidates)
    if not candidates:
        raise ValueError("need at least one alpha candidate")
    base = base_config if base_config is not None else SearchConfig(alpha=0.0)
    children = np.random.SeedSequence(base.seed).spawn(len(candidates))
    # Every candidate is validated before the first search runs.
    configs = [
        replace(base, alpha=alpha, seed=int(child.generate_state(1)[0]))
        for alpha, child in zip(candidates, children)
    ]
    records: list[AlphaCandidate] = []
    chosen: SearchResult | None = None
    chosen_alpha = 0.0
    best_autac = -math.inf
    ties: list[float] = []
    for alpha, cfg in zip(candidates, configs):
        result = run_search(data, preds, pool, cfg)
        n_rules = len(result.best_list)
        n_conditions = sum(len(r.conditions) for r in result.best_list)
        train_autac = autac_hat(result.curve)
        admissible = n_rules < i_max
        records.append(
            AlphaCandidate(alpha, n_rules, n_conditions, train_autac, admissible)
        )
        if not admissible:
            continue
        if chosen is None or train_autac > best_autac:
            chosen, chosen_alpha, best_autac = result, alpha, train_autac
            ties = []
        elif train_autac == best_autac:
            ties.append(alpha)
    if chosen is None:
        raise SearchError(
            f"every alpha candidate produced {i_max} rules or more; add larger "
            "alpha candidates or raise the rule cap"
        )
    return AlphaTuneReport(
        candidates=tuple(records),
        chosen_alpha=chosen_alpha,
        tied_alphas=tuple(ties),
        chosen=chosen,
    )
