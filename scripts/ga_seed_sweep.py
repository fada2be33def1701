"""Seed sweep for the genetic compensator search.

Runs the order-n search once per seed with the default configuration,
independently verifies every claimed success, and writes a one-line-per-seed
CSV summary.  The default ten-seed study at n=3 took 54 s (4.3-6.5 s per
seed) on a 2-vCPU Xeon VM with Python 3.11 and numpy 2.4.

    python3 scripts/ga_seed_sweep.py --seeds 10 --out sweep.csv
"""

import argparse
import csv
import sys
import time

from pfclab.plant import position_plant
from pfclab.synth import GaConfig, ObjectiveConfig, ga_search, verify_pair


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=3, help="compensator order")
    ap.add_argument("--seeds", type=int, default=10, help="number of seeds (0..N-1)")
    ap.add_argument("--population", type=int, default=GaConfig.population)
    ap.add_argument("--generations", type=int, default=GaConfig.generations)
    ap.add_argument("--out", default="sweep.csv", help="summary CSV path")
    args = ap.parse_args()

    G = position_plant()
    obj = ObjectiveConfig(plant=G)
    rows = []
    for seed in range(args.seeds):
        cfg = GaConfig(
            population=args.population, generations=args.generations, seed=seed
        )
        t0 = time.perf_counter()
        res = ga_search(obj, cfg, n=args.n)
        secs = time.perf_counter() - t0
        verified = res.success and verify_pair(G, res.pair).passed
        rows.append((seed, res.best_F, res.success, verified, secs))
        tag = "success" if res.success else "-"
        print(
            f"seed {seed:2d}: F = {res.best_F:+.6f}  {tag:9s}"
            f"  verified={verified!s:5s}  {secs:6.1f}s"
        )

    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["seed", "best_F", "success", "verified", "seconds"])
        w.writerows(rows)

    wins = sum(1 for r in rows if r[2])
    print(f"\n{wins} of {args.seeds} seeds found a stabilizing pair -> {args.out}")
    if any(r[2] and not r[3] for r in rows):
        sys.exit("a claimed success failed independent verification")
    if wins == 0:
        sys.exit(1)


if __name__ == "__main__":
    main()
