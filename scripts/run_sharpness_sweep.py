#!/usr/bin/env python3
"""Run the default sharpness sweep and print the headline ratios.

Equivalent to `czlab sharpness-sweep --config <generated>`; writes sweep.csv,
sweep.json, and manifest.json into the output directory.
"""

import argparse
import json

from czlab.cli import run
from czlab.config import parse_config


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="out/sweep")
    ap.add_argument("--seed", type=int, default=20250810)
    ap.add_argument("--N", type=int, nargs="+", default=[8, 10])
    ap.add_argument("--p", type=float, nargs="+", default=[1.5, 2.0, 3.0])
    ap.add_argument(
        "--budget", type=int, default=6,
        help="how many of the best-scoring starts Boyd's iteration refines per search",
    )
    args = ap.parse_args()

    cfg = parse_config(
        {
            "verb": "sharpness-sweep",
            "grid": {"d": 1, "N": max(args.N)},
            "seed": args.seed,
            "params": {"p": args.p, "N": args.N, "budget": args.budget},
            "output": {"format": "json"},
        }
    )
    manifest = run(cfg, args.out)
    print(json.dumps(manifest["constants"], indent=2))
    print(f"rows written to {args.out}/sweep.csv")


if __name__ == "__main__":
    main()
