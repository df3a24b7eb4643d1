"""One run description: :class:`~repro.core.engine.RunSpec`.

A measurement is a quorum system, its probing algorithm and the failure
model at ``p``.  The spec names them canonically, builds the one pair, and
is what an engine checkpoint records and a resume compares, field by
field, through every entry point that resumes: ``stream_probes``,
``run_sweep(resume=)`` and ``repro-probe estimate --resume``.
"""

from __future__ import annotations

import shutil
from dataclasses import replace

import numpy as np
import pytest

from repro.algorithms import IRProbeHQS, ProbeMaj, ProbeTree, RProbeCW
from repro.cli import main
from repro.core import engine
from repro.core.checkpoint import CheckpointRefused
from repro.core.distributions import BernoulliSource, FixedCountSource
from repro.core.engine import RunSpec, stream_probes
from repro.experiments.sweep import run_sweep

#: The run every resume below was written by.
BASE = RunSpec("tree", 2, 0.2)

SETTINGS = dict(trials=64, chunk_size=16, seed=7)

#: One change per RunSpec field, with what the refusal must say of it.
CHANGES = {
    "system": ({"system": "hqs"}, "system='hqs' (checkpoint: 'tree')"),
    "size": ({"size": 3}, "size=3 (checkpoint: 2)"),
    "p": ({"p": 0.9}, "p=0.9 (checkpoint: 0.2)"),
    "randomized": ({"randomized": True}, "randomized=True (checkpoint: False)"),
    "distribution": (
        {"distribution": "fixed_count"},
        "distribution='fixed_count' (checkpoint: 'bernoulli')",
    ),
}


class TestRunSpec:
    def test_fields_are_canonical(self):
        spec = RunSpec("Majority", np.int64(9), 0, distribution="IID")
        assert spec == RunSpec("maj", 9, 0.0)
        assert (type(spec.size), type(spec.p)) == (int, float)
        assert RunSpec("wall", 3, 0.5).system == "cw"

    @pytest.mark.parametrize(
        "arguments, named",
        [
            (("nope", 2, 0.2), "unknown system 'nope'"),
            (("tree", 2, 0.2, False, "nope"), "unknown coloring source 'nope'"),
            (("tree", 2.5, 0.2), "size must be an integer"),
            (("tree", True, 0.2), "size must be an integer"),
        ],
    )
    def test_bad_fields_raise_naming_them(self, arguments, named):
        with pytest.raises(ValueError, match=named):
            RunSpec(*arguments)

    @pytest.mark.parametrize(
        "spec, algorithm, source",
        [
            (RunSpec("maj", 9, 0.3), ProbeMaj, BernoulliSource),
            (RunSpec("tree", 2, 0.3), ProbeTree, BernoulliSource),
            (RunSpec("hqs", 2, 0.3, randomized=True), IRProbeHQS, BernoulliSource),
            (RunSpec("triang", 4, 0.5, True, "fixed_count"), RProbeCW, FixedCountSource),
        ],
    )
    def test_build_makes_the_papers_pair(self, spec, algorithm, source):
        built, drawn = spec.build()
        assert type(built) is algorithm and type(drawn) is source
        assert drawn.n == built.system.n
        assert spec.build()[0] is not built  # a fresh pair per call

    def test_name_labels_the_run(self):
        assert BASE.name == "tree(2) p=0.2"
        assert RunSpec("cw", 3, 0.5, True, "fixed_count").name == (
            "cw(3) p=0.5 randomized fixed_count"
        )


def _refusal(call) -> str:
    with pytest.raises(CheckpointRefused) as refused:
        call()
    return str(refused.value)


class TestRefusalNamesTheField:
    @pytest.mark.parametrize("field", CHANGES)
    def test_stream_probes(self, tmp_path, field):
        change, says = CHANGES[field]
        checkpoint = tmp_path / "run.ckpt"
        stream_probes(BASE, checkpoint_path=checkpoint, **SETTINGS)
        message = _refusal(
            lambda: stream_probes(replace(BASE, **change), resume=checkpoint)
        )
        assert message.startswith(f"{checkpoint}: written by another run")
        assert says in message and message.count("(checkpoint: ") == 1

    @pytest.mark.parametrize("field", CHANGES)
    def test_run_sweep(self, tmp_path, field):
        change, says = CHANGES[field]
        spec = replace(BASE, **change)
        run_sweep("tree", [2], [0.2], checkpoint_path=tmp_path, **SETTINGS)
        # The written cell's file, under the name the changed cell reads.
        cell = tmp_path / f"cell-{spec.size}-{spec.p!r}.ckpt"
        if not cell.exists():
            shutil.move(tmp_path / "cell-2-0.2.ckpt", cell)
        message = _refusal(
            lambda: run_sweep(
                spec.system, [spec.size], [spec.p], randomized=spec.randomized,
                distribution=spec.distribution, resume=tmp_path, **SETTINGS,
            )
        )
        assert message.startswith(f"{cell}: written by another run")
        assert says in message

    @pytest.mark.parametrize("field", CHANGES)
    def test_cli_estimate(self, tmp_path, field):
        change, says = CHANGES[field]

        def command(spec):
            return [
                "estimate", "--system", spec.system, "--size", str(spec.size),
                "--p", repr(spec.p), *(["--randomized"] if spec.randomized else []),
                "--distribution", spec.distribution,
                "--trials", "64", "--chunk-size", "16", "--seed", "7",
            ]

        checkpoint = str(tmp_path / "e.ckpt")
        assert main([*command(BASE), "--checkpoint", checkpoint]) == 0
        with pytest.raises(SystemExit) as exited:
            main([*command(replace(BASE, **change)), "--resume", checkpoint])
        assert str(exited.value.code).startswith(f"{checkpoint}: written by another run")
        assert says in str(exited.value.code)

    def test_every_differing_field_is_named(self, tmp_path):
        checkpoint = tmp_path / "run.ckpt"
        stream_probes(BASE, checkpoint_path=checkpoint, **SETTINGS)
        message = _refusal(
            lambda: stream_probes(
                RunSpec("maj", 9, 0.5, True, "fixed_count"), resume=checkpoint, seed=8
            )
        )
        for says in (
            "seed=8 (checkpoint: 7)",
            "system='maj' (checkpoint: 'tree')",
            "size=9 (checkpoint: 2)",
            "p=0.5 (checkpoint: 0.2)",
            "randomized=True (checkpoint: False)",
            "distribution='fixed_count' (checkpoint: 'bernoulli')",
        ):
            assert says in message


class TestSameRunResumes:
    def test_a_sweep_written_at_p_0_0_resumes_at_p_0(self, tmp_path, monkeypatch):
        # The grid's p values reach the spec as floats, so 0 and 0.0 are
        # one cell: one file, one seed and one run.
        written = run_sweep("tree", [2], [0.0, 0.5], checkpoint_path=tmp_path, **SETTINGS)
        monkeypatch.setattr(
            engine, "_run_chunk", lambda *args: pytest.fail("the resume ran a chunk")
        )
        resumed = run_sweep("tree", [2], [0, 0.5], resume=tmp_path, fail_fast=True, **SETTINGS)
        assert [cell.mean for cell in resumed.cells] == [cell.mean for cell in written.cells]

    def test_aliases_resume_the_run_they_name(self, tmp_path):
        checkpoint = tmp_path / "run.ckpt"
        base = stream_probes(RunSpec("maj", 9, 0.3), checkpoint_path=checkpoint, **SETTINGS)
        again = stream_probes(RunSpec("MAJORITY", 9, 0.3, distribution="iid"), resume=checkpoint)
        assert again.histogram == base.histogram


class TestSchema6IsRefused:
    """A checkpoint the schema-6 build wrote names its run by a pickle
    digest; every entry point refuses it naming the file, "start afresh"."""

    def test_stream_probes(self, tmp_path, write_schema_6_checkpoint):
        checkpoint = write_schema_6_checkpoint(tmp_path / "run.ckpt")
        message = _refusal(lambda: stream_probes(BASE, resume=checkpoint))
        assert message.startswith(f"{checkpoint}: schema version 6")
        assert "start afresh" in message

    def test_cli_estimate_exits_nonzero(self, tmp_path, write_schema_6_checkpoint):
        checkpoint = write_schema_6_checkpoint(tmp_path / "e.ckpt")
        with pytest.raises(SystemExit) as exited:
            main(["estimate", "--system", "tree", "--size", "2", "--p", "0.2",
                  "--trials", "64", "--chunk-size", "16", "--seed", "7",
                  "--resume", str(checkpoint)])
        assert str(exited.value.code).startswith(f"{checkpoint}: schema version 6")
        assert "start afresh" in str(exited.value.code)

    def test_a_sweep_directory_raises_out_of_run_sweep(
        self, tmp_path, write_schema_6_checkpoint
    ):
        cell = write_schema_6_checkpoint(tmp_path / "cell-2-0.2.ckpt")
        message = _refusal(lambda: run_sweep("tree", [2], [0.2], resume=tmp_path, **SETTINGS))
        assert message.startswith(f"{cell}: schema version 6")
        assert "start afresh" in message
