"""Smoke tests of the scripts under scripts/, run in-process on a tiny run.

seed_sweep.py trains the full default run for every seed and takes no
config, so it is left out.
"""

import io
import json
import runpy
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from orchardrl.cli import main as cli_main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture(scope="module")
def tiny_run(tmp_path_factory):
    """A 6-day, 3-region run config and a policy snapshot trained on it for
    one small iteration."""
    root = tmp_path_factory.mktemp("tiny")
    config = root / "run.json"
    config.write_text(json.dumps({
        "days": 6, "n_regions": 3,
        "trainer": {"max_iterations": 1, "convergence_window": 2,
                    "episodes_per_iteration": 2, "episode_length": 4,
                    "minibatch_size": 8, "hidden": [8], "warmup_episodes": 2}}))
    with redirect_stdout(io.StringIO()):
        assert cli_main(["train", "--config", str(config),
                         "--out", str(root / "train")]) == 0
    return config, root / "train" / "policy.npz"


def run_script(name, argv):
    return runpy.run_path(str(SCRIPTS / name), run_name="script")["main"](argv)


def test_shield_ablation(tiny_run, capsys):
    config, policy = tiny_run
    rc = run_script("shield_ablation.py", ["--config", str(config),
                                           "--policy", str(policy)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "policy     shield  water_in below_mad triggers" in out
    assert "adversary-on trigger days" in out
