"""One table of bad run settings, refused alike by every entry point.

:func:`repro.core.engine.check_run_settings` is the one check of a run's
settings.  ``stream_probes``, ``run_sweep``, the service's request
normalizers and the ``estimate``/``sweep`` commands all go through it, so
each bad setting below must be refused by each of them with a message
naming the field — and a refused sweep writes no file.
"""

from __future__ import annotations

import math

import pytest

from repro.algorithms import ProbeTree
from repro.cli import main
from repro.core.engine import RunSpec, stream_probes
from repro.experiments.sweep import run_sweep
from repro.service.jobs import BadRequest, normalize_estimate, normalize_sweep
from repro.systems import build_system

#: ``(settings, the name the refusal must contain)``.
BAD_SETTINGS = [
    ({"trials": 0}, "trials"),
    ({"trials": -5}, "trials"),
    ({"trials": 2.5}, "trials"),
    ({"trials": True}, "trials"),
    ({"trials": "64"}, "trials"),
    ({"chunk_size": 0}, "chunk_size"),
    ({"chunk_size": 16.0}, "chunk_size"),
    ({"chunk_size": False}, "chunk_size"),
    ({"min_trials": 0, "target_ci": 0.5}, "min_trials"),
    ({"min_trials": 1.5, "target_ci": 0.5}, "min_trials"),
    ({"max_trials": 0, "target_ci": 0.5}, "max_trials"),
    ({"max_trials": True, "target_ci": 0.5}, "max_trials"),
    ({"min_trials": 50, "max_trials": 40, "target_ci": 0.5}, "min_trials"),
    ({"seed": -1}, "seed"),
    ({"seed": 1.5}, "seed"),
    ({"seed": True}, "seed"),
    ({"seed": "7"}, "seed"),
    ({"target_ci": 0}, "target_ci"),
    ({"target_ci": -0.5}, "target_ci"),
    ({"target_ci": math.inf}, "target_ci"),
    ({"target_ci": math.nan}, "target_ci"),
    ({"target_ci": True}, "target_ci"),
    ({"target_ci": "0.5"}, "target_ci"),
    ({"trials": 64, "target_ci": 0.5}, "mutually exclusive"),
]

IDS = [
    ",".join(f"{key}={value!r}" for key, value in setting.items())
    for setting, _ in BAD_SETTINGS
]


@pytest.mark.parametrize("setting,name", BAD_SETTINGS, ids=IDS)
def test_stream_probes_refuses(setting, name):
    with pytest.raises(ValueError, match=name):
        stream_probes(ProbeTree(build_system("tree", 2)), p=0.2, **setting)


@pytest.mark.parametrize("setting,name", BAD_SETTINGS, ids=IDS)
def test_run_sweep_refuses_and_writes_nothing(tmp_path, setting, name):
    with pytest.raises(ValueError, match=name):
        run_sweep("tree", [2], [0.2], checkpoint_path=tmp_path / "ckpt", **setting)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("setting,name", BAD_SETTINGS, ids=IDS)
def test_normalize_estimate_refuses(setting, name):
    with pytest.raises(BadRequest, match=name):
        normalize_estimate({"system": "tree", "size": 2, "p": 0.2, **setting})


@pytest.mark.parametrize("setting,name", BAD_SETTINGS, ids=IDS)
def test_normalize_sweep_refuses(setting, name):
    with pytest.raises(BadRequest, match=name):
        normalize_sweep({"system": "tree", "sizes": [2], "ps": [0.2], **setting})


#: The command-line flag of each setting the commands take.
FLAGS = {
    "trials": ("--trials", int),
    "chunk_size": ("--chunk-size", int),
    "max_trials": ("--max-trials", int),
    "seed": ("--seed", int),
    "target_ci": ("--target-ci", float),
}


def _argv(setting: dict) -> list[str] | None:
    """The flags spelling ``setting``, or None when a flag cannot (no
    flag for the setting, or a value its parser would not produce)."""
    argv = []
    for key, value in setting.items():
        if key not in FLAGS:
            return None
        flag, kind = FLAGS[key]
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        if kind is int and not isinstance(value, int):
            return None
        argv += [flag, str(value)]
    return argv


CLI_SETTINGS = [
    (argv, name)
    for argv, name in ((_argv(setting), name) for setting, name in BAD_SETTINGS)
    if argv is not None
]


@pytest.mark.parametrize("command", ["estimate", "sweep"])
@pytest.mark.parametrize("argv,name", CLI_SETTINGS, ids=[" ".join(a) for a, _ in CLI_SETTINGS])
def test_commands_refuse_and_write_nothing(tmp_path, monkeypatch, command, argv, name):
    monkeypatch.chdir(tmp_path)
    grid = ["--sizes", "2", "--ps", "0.2"] if command == "sweep" else ["--size", "2"]
    with pytest.raises(SystemExit, match=name):
        main([command, "--system", "tree", *grid, *argv, "--checkpoint", "ckpt"])
    assert list(tmp_path.iterdir()) == []


def test_the_table_reaches_the_commands():
    # Integer flags with out-of-range values, target_ci's bad numbers and
    # the trials/target_ci mix all have a spelling on the command line.
    assert len(CLI_SETTINGS) >= 10


def test_numpy_integer_settings_run_and_checkpoint(tmp_path):
    # numpy integers are integers; the resolved settings are plain ints, so
    # the checkpoint still serializes.
    import numpy as np

    run = RunSpec("tree", np.int64(2), np.float64(0.2))
    checkpoint = tmp_path / "run.ckpt"
    result = stream_probes(
        run, trials=np.int64(64), chunk_size=np.int32(16),
        seed=np.int64(3), checkpoint_path=checkpoint,
    )
    plain = stream_probes(RunSpec("tree", 2, 0.2), trials=64, chunk_size=16, seed=3)
    assert result.histogram == plain.histogram and checkpoint.is_file()
