#!/usr/bin/env python3
"""Planted-rule benchmark: train a companion list and compare it against the
exhaustive optimum over all short lists from the same pool.

Generates the synthetic benchmark, splits it 80/20, mines the pool on the
training part, runs the annealed search, and scores the result on the held-out
part next to (a) the planted ground-truth list and (b) the best ordered list
of up to ``--max-len`` pool rules found by brute-force enumeration. The search
is capped at ``--max-len`` rules too, so the two compete over the same lists.
"""

import argparse
import time

from crl import (
    SearchConfig,
    autac_hat,
    curve,
    mine_rules,
    planted_benchmark,
    run_search,
    split_folds,
    train_indices,
)
from crl.objective import cover_masks, sweep


def exhaustive_best(pool, data, preds, max_len=3):
    """Brute-force AUTAC maximum over ordered lists of length <= max_len.

    A depth-first walk over list prefixes: each node resumes its parent's
    per-level :func:`sweep` state and sweeps one more rule.
    """
    n = data.n_rows
    masks = cover_masks(pool.rules, data)
    bb = preds.correct_mask(data.labels)
    best = 0.0

    def extend(prefix_ids, levels):
        nonlocal best
        depth = len(prefix_ids)
        for j, mask in enumerate(masks):
            if j in prefix_ids:
                continue
            child = sweep((mask,), bb, n, levels, depth)
            best = max(best, 0.5 * child[-1][-1])
            if depth + 1 < max_len:
                extend(prefix_ids | {j}, child)

    extend(frozenset(), sweep((), bb, n))
    return best


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--rows", type=int, default=2000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--search-seed", type=int, default=1)
    parser.add_argument("--alpha", type=float, default=0.001)
    parser.add_argument("--iters", type=int, default=50_000)
    parser.add_argument("--max-len", type=int, default=3)
    args = parser.parse_args()

    bench = planted_benchmark(n_rows=args.rows, seed=args.seed)
    folds = split_folds(bench.data, k=5, seed=args.seed)
    tr, te = train_indices(folds, 0), folds[0]
    data_tr, preds_tr = bench.data.subset(tr), bench.preds.subset(tr)
    data_te, preds_te = bench.data.subset(te), bench.preds.subset(te)

    pool = mine_rules(data_tr, gamma=0.05, max_cardinality=2)
    print(f"pool: {len(pool)} rules mined on {data_tr.n_rows} training rows")

    t0 = time.time()
    # the trained list is capped at --max-len rules, the optimum's length bound
    cfg = SearchConfig(
        alpha=args.alpha,
        n_iters=args.iters,
        seed=args.search_seed,
        init_size=min(3, args.max_len),
        max_rules_guard=args.max_len,
    )
    result = run_search(data_tr, preds_tr, pool, cfg)
    print(f"search: {time.time() - t0:.1f}s, best list has {len(result.best_list)} rules")
    print(result.best_list.describe(bench.data.feature_names))

    search_autac = autac_hat(curve(result.best_list, data_te, preds_te))
    planted_autac = autac_hat(curve(bench.planted, data_te, preds_te))
    t0 = time.time()
    optimum = exhaustive_best(pool, data_te, preds_te, max_len=args.max_len)
    print(f"exhaustive enumeration (length <= {args.max_len}): {time.time() - t0:.1f}s")

    print()
    print(f"test AUTAC, trained list:        {search_autac:.4f}")
    print(f"test AUTAC, planted list alone:  {planted_autac:.4f}")
    print(f"test AUTAC, exhaustive optimum:  {optimum:.4f}")
    print(f"trained vs optimum ratio:        {search_autac / optimum:.3f}")


if __name__ == "__main__":
    main()
