"""Workload table of the protocol benchmark.

A workload is one synthetic input shape plus the protocol settings it is run
with. Every workload uses labeled fraction 1/3, the default LoopConfig (k=1,
quantile 0.25, rbf kernel with auto bandwidth) and ranks 1,5,10,20. Inputs are
made by ``generate_synthetic`` from the workload seed; the protocol seed is
derived from the same seed the way ``nullmargin run --seed`` derives it.
"""

from __future__ import annotations

from dataclasses import dataclass

RANKS = (1, 5, 10, 20)

# The seed a plain run uses, and a seed the recorded reference never saw, on
# which a later speed claim can be checked against fresh inputs.
DEFAULT_SEED = 1
HELD_OUT_SEED = 1009


@dataclass(frozen=True)
class Shape:
    identities: int
    cameras: int
    dim: int
    strength: float
    noise: float


SHAPES = {
    # The real-data shape of the acceptance dry run. Noise 1.75 keeps rank-1
    # and mined-pair precision below 100%, where a regression stays visible.
    "viper": Shape(632, 2, 29920, 0.0, 1.75),
    # d < 4 * n_train, so span rotation never runs; 4 images per class.
    "multicam": Shape(316, 4, 1000, 0.85, 1.5),
    # Tiny stand-ins of the two shapes for the self-test. They keep the
    # branch each real shape takes: tiny viper rotates, tiny multicam does not.
    "viper_tiny": Shape(40, 2, 400, 0.0, 1.75),
    "multicam_tiny": Shape(40, 4, 100, 0.85, 1.5),
}


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str
    mode: str
    trials: int      # trials per pass, i.e. per run_protocol call

    def shape_name(self, tiny: bool) -> str:
        return f"{self.shape}_tiny" if tiny else self.shape

    def reference_key(self, tiny: bool) -> str:
        return f"{self.shape_name(tiny)}/{self.mode}"


WORKLOADS = {
    w.name: w
    for w in (
        # Every layer in one run: span rotation, ~20 primary refits, mining,
        # checksums of a lifted 29920-dim model.
        Workload("viper_semi", "viper", "semi_supervised", trials=1),
        # Span rotation dominates; no loop, no mining. Bypasses selftrain,
        # mining and margin-fit changes. Three trials per pass, because one
        # trial's rank-1 swings by several points between seeds.
        Workload("viper_labeled", "viper", "labeled_only", trials=3),
        # No span rotation; refits on 4 * c rows dominate; mining scans three
        # non-anchor cameras.
        Workload("multicam_semi", "multicam", "semi_supervised", trials=1),
    )
}


def reference_trials() -> dict[str, int]:
    """Trials each reference key must cover, tiny keys included."""
    return {
        w.reference_key(tiny): w.trials for w in WORKLOADS.values() for tiny in (False, True)
    }
