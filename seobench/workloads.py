"""The benchmark's workloads: real CLI commands and their references.

Each workload is one ``repro.cli`` command a user runs, sized so that a run
of the benchmark repeats it several times.  The benchmark seed is passed
through as the command's ``--seed``, so the seed alone picks the scenarios
(obstacle placement, sensor noise, wireless draws) and the program sees
only the generated inputs.

Every timed output is checked byte for byte against the *other* engine's
rendering of the same command and seed: batch against serial, serial
against batch, async against serial.  Worker counts never exceed two, the
core count of the machine the sizes were chosen on.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from pathlib import Path


@dataclass(frozen=True)
class Workload:
    """One benchmarked CLI command.

    Attributes:
        name: Workload name passed as ``--workload``.
        why: One-line reason the workload exists (mirrored in BENCHMARK.json).
        experiment: CLI subcommand (``all`` or ``suite``).
        engine: Execution flags of the timed command.
        reference_engine: Execution flags of the reference rendering.
        episodes: ``--episodes`` of the timed command.
        max_steps: ``--max-steps`` of the timed command.
        own_ledger: Whether the timed command records a fresh ledger of its
            own (and the resume re-renders from it); otherwise the resume
            re-renders from the reference's ledger.
    """

    name: str
    why: str
    experiment: str
    engine: tuple[str, ...]
    reference_engine: tuple[str, ...]
    episodes: int
    max_steps: int
    own_ledger: bool = False

    def argv(
        self, seed: int, minimal: bool = False, ledger: Path | None = None
    ) -> list[str]:
        """The timed command (``minimal``: 1 episode of 1 base period),
        recording into ``ledger`` when one is given."""
        argv = self._argv(self.engine, seed, minimal)
        return argv if ledger is None else [*argv, "--ledger-dir", str(ledger)]

    def reference_argv(self, seed: int, minimal: bool = False) -> list[str]:
        """The same command on the reference engine."""
        return self._argv(self.reference_engine, seed, minimal)

    def resume_argv(self, seed: int, ledger: Path) -> list[str]:
        """Re-render the timed command from a ledger, executing nothing."""
        return [*self.argv(seed, ledger=ledger), "--resume"]

    def _argv(self, engine: tuple[str, ...], seed: int, minimal: bool) -> list[str]:
        episodes, max_steps = (1, 1) if minimal else (self.episodes, self.max_steps)
        return [
            self.experiment,
            *engine,
            "--episodes", str(episodes),
            "--max-steps", str(max_steps),
            "--seed", str(seed),
        ]

    def scaled(self, episodes: int, max_steps: int) -> "Workload":
        """The same workload at another size (self-tests use tiny ones)."""
        return replace(self, episodes=episodes, max_steps=max_steps)


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper-batch",
            why="all --backend batch, 16-wide lockstep: how users regenerate "
                "the paper; batch engine and kernels at N=16, no pools or ledger",
            experiment="all",
            engine=("--backend", "batch"),
            reference_engine=("--backend", "process", "--jobs", "2"),
            episodes=16,
            max_steps=80,
        ),
        Workload(
            name="suite-serial",
            why="suite over all 8 families on the serial oracle: kernels at "
                "N=1, per-beam scans, curved roads, moving obstacles, dropouts",
            experiment="suite",
            engine=(),
            reference_engine=("--backend", "batch"),
            episodes=1,
            max_steps=400,
        ),
        Workload(
            name="sweep-async-ledger",
            why="all --backend async --jobs 2 into a fresh ledger, then --resume: "
                "worker pool, JSON dispatch, unit hashing, ledger writes and reads",
            experiment="all",
            engine=("--backend", "async", "--jobs", "2"),
            reference_engine=(),
            episodes=2,
            max_steps=100,
            own_ledger=True,
        ),
    )
}
