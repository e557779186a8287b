"""CLI argument validation: bad inputs exit with argparse errors.

Every malformed flag — out-of-range probabilities, negative seeds,
zero/negative job counts or timeouts, unknown channels and fault keys,
``--resume`` without ``--checkpoint``, radio-unsafe combinations — must
produce a clean ``SystemExit`` from argparse (exit code 2), never a
traceback from deep inside the harness. The happy paths confirm the same
flags work when well-formed, including a faulty single run and a
checkpointed multi-seed run driven entirely through ``main(argv)``.
"""

import pytest

from repro.__main__ import main
from repro.harness.parallel import set_default_resilience
from repro.obs.telemetry import set_telemetry_path


@pytest.fixture(autouse=True)
def _reset_cli_globals():
    """``main`` installs module-wide defaults; restore them after each test."""
    yield
    set_telemetry_path(None)
    set_default_resilience(retries=0, task_timeout=None, backoff=0.5)


def _expect_usage_error(argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv)
    assert excinfo.value.code == 2  # argparse usage error, not a traceback


BASE = ["--algorithm", "luby", "--n", "24", "--seed", "1"]


# -- malformed values -----------------------------------------------------

@pytest.mark.parametrize("argv", [
    BASE + ["--faults", "drop=1.5"],          # probability out of range
    BASE + ["--faults", "drop=-0.1"],
    BASE + ["--faults", "crash=2"],
    BASE + ["--faults", "drop=abc"],
    BASE + ["--faults", "warp=0.1"],          # unknown fault key
    BASE + ["--faults", "drop"],              # missing =VAL
    ["--algorithm", "luby", "--n", "0"],      # sizes must be positive
    ["--algorithm", "luby", "--n", "-5"],
    ["--algorithm", "luby", "--seed", "-1"],  # negative seed
    ["--algorithm", "luby", "--seeds", "0"],
    ["--algorithm", "luby", "--jobs", "0"],   # only positive or -1
    ["--algorithm", "luby", "--jobs", "-2"],
    ["--algorithm", "luby", "--retries", "-1"],
    ["--algorithm", "luby", "--task-timeout", "0"],
    ["--algorithm", "luby", "--task-timeout", "-3"],
    BASE + ["--channel", "pigeon"],           # unknown channel
    BASE + ["--channel", "lossy(drop=7):congest"],
    BASE + ["--channel", "blursed(x=1):congest"],
    BASE + ["--resume"],                      # --resume needs --checkpoint
])
def test_malformed_flags_exit_cleanly(argv):
    _expect_usage_error(argv)


def test_radio_unsafe_combination_is_an_argparse_error():
    # Luby needs per-neighbor CONGEST messages; a broadcast medium (even a
    # fault-wrapped one) must be refused up front.
    _expect_usage_error(BASE + ["--channel", "broadcast"])
    _expect_usage_error(BASE + ["--channel", "lossy(drop=0.1):broadcast"])


def test_dynamic_subcommand_validates_too():
    _expect_usage_error(["dynamic", "--n", "0"])
    _expect_usage_error(["dynamic", "--seed", "-1"])
    _expect_usage_error(["dynamic", "--retries", "-1"])


# -- happy paths ----------------------------------------------------------

def test_single_run_with_faults_flag(capsys):
    code = main(BASE + ["--faults", "drop=0.1,crash=0.05,seed=3", "--quiet"])
    assert code in (0, 2)  # 2 = non-independent result, still a clean exit
    out = capsys.readouterr().out
    assert "|MIS|" in out


def test_jammed_radio_run_via_faults_flag(capsys):
    code = main([
        "--algorithm", "radio_decay", "--n", "24", "--seed", "1",
        "--faults", "jam=0.2,seed=3", "--quiet",
    ])
    assert code in (0, 2)
    assert "|MIS|" in capsys.readouterr().out


def test_multi_seed_checkpoint_roundtrip(tmp_path, capsys):
    path = str(tmp_path / "cli-cp.jsonl")
    argv = BASE + ["--seeds", "2", "--checkpoint", path, "--quiet"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert "mean" in first
    # Resume over the complete checkpoint: replay only, same table.
    assert main(argv + ["--resume"]) == 0
    assert capsys.readouterr().out == first
