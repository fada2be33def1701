"""Regenerate every analysis artifact in one run.

Drives the command line interface exactly as a user would, writing each
command's CSV/JSON output into a subdirectory of --out.  On a 2-vCPU Xeon
VM (Python 3.11, numpy 2.4) the run took 36 s with the search included
(default) and 6 s with --skip-search.

    python3 scripts/reproduce_all.py --out artifacts
"""

import argparse
import sys
from pathlib import Path

from pfclab.cli import main as pfclab


def run(out_root: Path, name: str, argv: list[str]) -> None:
    out = out_root / name
    print(f"== {name}: pfclab {' '.join(argv)}")
    rc = pfclab(argv + ["--out", str(out)])
    if rc != 0:
        sys.exit(f"command failed with exit code {rc}: {argv}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="artifacts", help="artifact root directory")
    ap.add_argument(
        "--skip-search",
        action="store_true",
        help="skip the genetic search (the slowest step)",
    )
    args = ap.parse_args()
    root = Path(args.out)

    run(root, "verify_a", ["verify", "--pair", "a"])
    run(root, "verify_b", ["verify", "--pair", "b"])

    run(root, "step_a", ["step", "--pair", "a"])
    run(root, "step_b", ["step", "--pair", "b"])
    run(root, "angle_b", ["angle", "--pair", "b"])

    run(root, "bode_h_b", ["bode", "--pair", "b", "--channel", "h"])
    run(root, "bode_e2_b", ["bode", "--pair", "b", "--channel", "e2"])
    run(root, "noise_b", ["noise", "--pair", "b"])

    run(root, "robustness_a", ["robustness", "--pair", "a"])
    run(root, "robustness_b", ["robustness", "--pair", "b"])
    run(root, "fragility_a", ["fragility", "--pair", "a"])
    run(root, "fragility_b", ["fragility", "--pair", "b"])

    run(root, "modern", ["modern"])

    if not args.skip_search:
        run(root, "search_n3_seed0", ["synthesize", "--n", "3", "--seed", "0"])

    files = sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())
    print(f"\n{len(files)} artifacts under {root}/:")
    for f in files:
        print(f"  {f}")


if __name__ == "__main__":
    main()
