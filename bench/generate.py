"""Write a workload's synthetic input as an SSML file.

Runs as its own process so that generation never counts toward the peak
memory of the process that loads and runs the workload.

    python3 bench/generate.py --shape viper --seed 1 --out input.ssml
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from nullmargin import SyntheticSpec, generate_synthetic, save_feature_table  # noqa: E402

from workloads import SHAPES  # noqa: E402


def synthetic_table(shape_name: str, seed: int):
    shape = SHAPES[shape_name]
    return generate_synthetic(
        SyntheticSpec(
            identities=shape.identities,
            cameras=shape.cameras,
            dim=shape.dim,
            per_camera_transform_strength=shape.strength,
            noise_sigma=shape.noise,
            seed=seed,
        )
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--shape", required=True, choices=sorted(SHAPES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    save_feature_table(synthetic_table(args.shape, args.seed), args.out, "binary")
    return 0


if __name__ == "__main__":
    sys.exit(main())
