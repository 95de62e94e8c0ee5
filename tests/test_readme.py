"""README's claims, checked: the "One trajectory" recipe and the
reproducibility contract."""

import ast
import re
from pathlib import Path

import numpy as np

from stakesim import ExperimentConfig, run_experiment

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def section(heading: str) -> str:
    """The text under a `## ` heading, up to the next one."""
    return README.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]


def run_trajectory_blocks() -> list[list[tuple[int, np.ndarray]]]:
    """Run the two Python blocks of the "One trajectory" recipe in one
    namespace, as a reader pastes them; return each block's printed
    (step, fractions) pairs."""
    recipe = section("Recipes").split("One trajectory", 1)[1]
    blocks = re.findall(r"```python\n(.*?)```", recipe, re.S)
    assert len(blocks) == 2
    namespace: dict = {}
    printed = []
    for block in blocks:
        lines: list[tuple[int, np.ndarray]] = []
        namespace["print"] = lambda step, fractions, lines=lines: lines.append(
            (step, np.array(fractions)))
        exec(compile(block, "README.md", "exec"), namespace)
        printed.append(lines)
    return printed


class TestOneTrajectoryRecipe:
    def test_both_blocks_print_the_same_snapshots(self):
        loop, one_pass = run_trajectory_blocks()
        assert [step for step, _ in loop] == [0, 20, 40, 60, 80, 95]
        assert [step for step, _ in one_pass] == [step for step, _ in loop]
        for (_, a), (_, b) in zip(loop, one_pass):
            assert a.tobytes() == b.tobytes()

    def test_last_snapshot_is_row_zero_of_a_run(self):
        # "stakes[0] / total at step 95 equals row 0 of final_fractions of a
        # run with base_seed 5 and steps_n 95, bit for bit"
        loop, _ = run_trajectory_blocks()
        step, fractions = loop[-1]
        config = ExperimentConfig(initial_stakes=(30.0, 70.0), scheme="frd",
                                  reward_budget_K=200.0, steps_n=95, repetitions=3,
                                  base_seed=5)
        assert step == 95
        assert fractions.tobytes() == run_experiment(config).final_fractions[0].tobytes()


CONTRACT = section("Reproducibility contract")
TEST_ID = re.compile(r"`(tests/[\w/]+\.py)::(\w+)(?:::(\w+))?`")


def defines_test(path: Path, owner: str, name: str | None) -> bool:
    """Whether `path` defines test `owner` (a module-level function) or test
    `name` of class `owner`."""
    tree = ast.parse(path.read_text())
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name != owner:
            continue
        if name is None:
            return isinstance(node, ast.FunctionDef) and owner.startswith("test_")
        return isinstance(node, ast.ClassDef) and name.startswith("test_") and any(
            isinstance(item, ast.FunctionDef) and item.name == name for item in node.body)
    return False


class TestContract:
    """The contract states only the rules that decide bytes, each with the
    test that pins it; how the code goes fast belongs in its docstrings."""

    def test_at_most_fifty_lines(self):
        assert len(CONTRACT.strip("\n").splitlines()) + 1 <= 50  # with its heading

    def test_every_rule_cites_a_test(self):
        rules = CONTRACT.split("\n- ")[1:]
        assert len(rules) >= 8
        for rule in rules:
            assert TEST_ID.search(rule), rule

    def test_every_cited_test_exists(self):
        cited = TEST_ID.findall(CONTRACT)
        assert cited
        for path, owner, name in cited:
            assert defines_test(ROOT / path, owner, name or None), (path, owner, name)

    def test_names_no_private_identifier(self):
        assert not re.findall(r"(?<![\w.])_[A-Za-z]\w*", CONTRACT)
