"""The benchmark's workloads: fixed stakesim CLI command sequences.

Standard library only, because the orchestrator (run.py) imports it without
numpy or stakesim.  Every workload derives its program seed from the
benchmark seed and hands the program nothing but a generated config file and
command-line arguments.  Why each workload exists is in DESIGN.md.
"""
from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

DEFAULT_SEED = 1
STEPS_N = 1000
BUDGET_K = 200
TABLE1_REPS = 2000
# table1's four stock setups run under both schemes: 8 run_experiment calls
TABLE1_RUNS = 8


def program_seed(seed: int) -> int:
    """stakesim `base_seed` for a benchmark seed.

    Hashed, so benchmark seeds that differ only in their low bits do not
    hand the program streams that alias under `base_seed XOR rep`.  62 bits
    leave room for table1's `base_seed + row`.
    """
    digest = hashlib.sha256(f"stakesim-bench:{seed}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 2


@dataclass(frozen=True)
class Workload:
    name: str
    stakes: tuple[float, ...]
    repetitions: int
    stride: int
    table1: bool = False

    def config_bytes(self, seed: int) -> bytes:
        """The generated config file.  table1 takes no config file; its
        set-up loads the first stock row instead, so set-up does the same
        work on every workload."""
        record: dict = {"stride": self.stride}
        if self.table1:
            record["track_nodes"] = [0]
        doc = {
            "initial_stakes": list(self.stakes),
            "scheme": "frd",
            "reward_budget_K": BUDGET_K,
            "steps_n": STEPS_N,
            "repetitions": self.repetitions,
            "base_seed": program_seed(seed),
            "record": record,
        }
        return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()

    def commands(self, seed: int, config_path: str, out_dir: str) -> list[list[str]]:
        """argv lists for `stakesim.cli.main`, run one after the other, each
        on one worker."""
        if self.table1:
            return [["table1", "--reps", str(self.repetitions), "--seed",
                     str(program_seed(seed)), "--workers", "1", "--out", out_dir]]
        return [
            ["simulate", "--config", config_path, "--out", out_dir, "--workers", "1"],
            ["hist", "--samples", f"{out_dir}/samples.csv", "--out", f"{out_dir}/hist.svg",
             "--mean-marker", "0.5"],
        ]

    @property
    def outputs(self) -> tuple[str, ...]:
        if self.table1:
            return ("report.csv",)
        return ("samples.csv", "stats.csv", "run.json", "hist.svg")

    @property
    def rep_steps(self) -> int:
        """Repetitions x steps_n summed over one pass of the commands."""
        runs = TABLE1_RUNS if self.table1 else 1
        return runs * self.repetitions * STEPS_N


WORKLOADS = {
    w.name: w
    for w in (
        Workload("simulate_final", (50.0, 50.0), 20_000, 0),
        Workload("simulate_recorded", (50.0, 50.0), 5_000, 10),
        Workload("table1", (10.0, 30.0, 30.0, 30.0), TABLE1_REPS, 0, table1=True),
    )
}
