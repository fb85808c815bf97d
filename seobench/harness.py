"""Process-level measurement: timed CLI invocations, references, fingerprint.

Every CLI invocation the benchmark times runs as its own subprocess, started
in a fresh session so that a timeout can stop the command together with any
worker processes it spawned.  Resource usage comes from ``os.wait4`` on the
command's pid, which on Linux folds in every descendant the command reaped
(async worker subprocesses included): CPU time is user + system of the whole
process tree, and ``ru_maxrss`` is the largest resident set of any of them.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path


@dataclass(frozen=True)
class Invocation:
    """Outcome of one timed CLI invocation."""

    argv: tuple[str, ...]
    returncode: int
    stdout: str
    stderr: str
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    load_before: tuple[float, float, float]
    load_after: tuple[float, float, float]

    def record(self) -> dict:
        """JSON-ready summary (output text omitted)."""
        return {
            "argv": list(self.argv),
            "returncode": self.returncode,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "peak_rss_mb": self.peak_rss_mb,
            "load_before": list(self.load_before),
            "load_after": list(self.load_after),
        }


class Checkout:
    """The source tree under test and the benchmark's scratch area inside it.

    Args:
        root: Root of the checkout (the directory holding ``src/``).
    """

    SCRATCH = ".seobench"

    def __init__(self, root: Path) -> None:
        self.root = root.resolve()
        self.src = self.root / "src"
        self.scratch = self.root / self.SCRATCH
        self.tmp = self.scratch / "tmp"

    def is_complete(self) -> bool:
        """Whether the checkout holds the program the benchmark drives."""
        return (self.src / "repro" / "cli.py").is_file()

    def prepare(self) -> None:
        """Create the scratch area and route temporary files into it."""
        self.tmp.mkdir(parents=True, exist_ok=True)
        os.environ["TMPDIR"] = str(self.tmp)
        if str(self.src) not in sys.path:
            sys.path.insert(0, str(self.src))

    def child_env(self) -> dict[str, str]:
        """Environment of every CLI subprocess: the package importable from
        ``src/`` and temporary files kept inside the checkout."""
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(self.src) + (os.pathsep + existing if existing else "")
        env["TMPDIR"] = str(self.tmp)
        return env

    def fresh_dir(self, name: str) -> Path:
        """An empty scratch directory (removed and recreated)."""
        path = self.scratch / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def source_digest(self) -> str:
        """SHA-256 over every Python file of ``src/`` (path and content)."""
        digest = hashlib.sha256()
        for path in sorted(self.src.rglob("*.py")):
            digest.update(str(path.relative_to(self.src)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        return digest.hexdigest()

    def commit(self) -> str | None:
        """The git commit of the checkout, when it is a git repository."""
        if not (self.root / ".git").exists():
            return None
        try:
            done = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=self.root,
                capture_output=True,
                text=True,
                timeout=10,
                check=False,
            )
        except (OSError, subprocess.TimeoutExpired):
            return None
        return done.stdout.strip() or None


def _stop_group(pgid: int, grace_s: float = 5.0) -> None:
    """Kill a process group and wait until none of its members is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def invoke(checkout: Checkout, argv: list[str], timeout_s: float) -> Invocation:
    """Run ``python -m repro.cli <argv>`` once and measure it.

    The wall clock spans fork/exec to the reaping of the command, so it
    includes interpreter start and imports.  A command that outlives
    ``timeout_s`` is killed with its whole session and reported with
    return code -9.
    """
    out_path = checkout.tmp / "stdout.txt"
    err_path = checkout.tmp / "stderr.txt"
    load_before = os.getloadavg()
    with out_path.open("wb") as out, err_path.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", *argv],
            cwd=checkout.root,
            env=checkout.child_env(),
            stdin=subprocess.DEVNULL,
            stdout=out,
            stderr=err,
            start_new_session=True,
        )
        timer = threading.Timer(timeout_s, _stop_group, args=(proc.pid,))
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (e.g. SIGTERM turned into SystemExit): take the
            # command's whole session down with us.
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            os.waitpid(proc.pid, 0)
            _stop_group(proc.pid)
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - start
    returncode = os.waitstatus_to_exitcode(status)
    proc.returncode = returncode  # reaped by wait4; keep Popen from waiting
    # Nothing of the command's session may outlive it.
    _stop_group(proc.pid)
    return Invocation(
        argv=tuple(argv),
        returncode=returncode,
        stdout=out_path.read_text(),
        stderr=err_path.read_text(),
        wall_s=wall_s,
        cpu_s=usage.ru_utime + usage.ru_stime,
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        load_before=load_before,
        load_after=os.getloadavg(),
    )


@dataclass(frozen=True)
class Reference:
    """The other engine's rendering of a command, with the ledger it wrote.

    Attributes:
        stdout: The rendered artifact the timed runs must reproduce.
        ledger: Ledger directory holding every unique unit of the command.
        frames: Simulated base periods summed over those unique units.
        wall_s: How long computing the reference took (untimed work).
        cached: Whether it was loaded from an earlier run in this checkout.
    """

    stdout: str
    ledger: Path
    frames: int
    wall_s: float
    cached: bool


class ReferenceFailed(RuntimeError):
    """The reference command itself failed, so nothing can be checked."""


def ledger_frames(ledger_dir: Path) -> int:
    """Sum of ``EpisodeReport.steps`` over every unit recorded in a ledger."""
    import numpy as np

    from repro.runtime.ledger import RunLedger, report_from_jsonable

    ledger = RunLedger(ledger_dir)
    frames = 0
    for key in ledger.keys():
        with np.load(ledger.blob_path(key)) as blob:
            frames += sum(
                report_from_jsonable(json.loads(entry)).steps
                for entry in blob["reports"]
            )
    return frames


def reference(
    checkout: Checkout, digest: str, argv: list[str], timeout_s: float
) -> Reference:
    """Compute (or load) the reference rendering of ``argv`` on this source.

    The reference runs with a fresh ``--ledger-dir`` and ``--resume``, so
    each unique work unit executes once and is recorded; the ledger then
    yields the frame count of the artifact's unique work and serves the
    timed runs' ``--resume`` re-render.  References are cached under the
    scratch area keyed by the source digest and the argv, so a seed that
    recurs on the same source is not recomputed.
    """
    key = hashlib.sha256(json.dumps([digest, argv]).encode()).hexdigest()[:24]
    entry = checkout.scratch / "ref" / key
    ledger = entry / "ledger"
    done = entry / "reference.json"
    if done.is_file():
        saved = json.loads(done.read_text())
        return Reference(
            stdout=(entry / "stdout.txt").read_text(),
            ledger=ledger,
            frames=int(saved["frames"]),
            wall_s=float(saved["wall_s"]),
            cached=True,
        )
    shutil.rmtree(entry, ignore_errors=True)
    entry.mkdir(parents=True)
    run = invoke(
        checkout, [*argv, "--ledger-dir", str(ledger), "--resume"], timeout_s
    )
    if run.returncode != 0:
        raise ReferenceFailed(
            f"reference command failed with code {run.returncode}: "
            f"{' '.join(argv)}\n{run.stderr[-2000:]}"
        )
    frames = ledger_frames(ledger)
    (entry / "stdout.txt").write_text(run.stdout)
    done.write_text(json.dumps({"argv": argv, "frames": frames, "wall_s": run.wall_s}))
    return Reference(
        stdout=run.stdout, ledger=ledger, frames=frames, wall_s=run.wall_s, cached=False
    )


def summarize(values: list[float]) -> dict:
    """Median, quartiles and sample count of a list of measurements."""
    if len(values) >= 2:
        q1, median, q3 = statistics.quantiles(values, n=4)
        median = statistics.median(values)
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def _cpu_info() -> tuple[str, list[str]]:
    try:
        text = Path("/proc/cpuinfo").read_text()
    except OSError:
        return platform.processor() or "unknown", []
    model, flags = "unknown", []
    for line in text.splitlines():
        name, _, value = line.partition(":")
        name = name.strip()
        if name == "model name" and model == "unknown":
            model = value.strip()
        elif name == "flags" and not flags:
            flags = value.split()
    return model, flags


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: the machine's speed right now.

    The load average only counts this machine's own processes.  On a shared
    host, other tenants can halve the speed without showing there, so each
    run records this probe before and after it measures.
    """
    times = []
    for _ in range(7):
        start = time.perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1000.0


def fingerprint(checkout: Checkout, digest: str) -> dict:
    """Identify the machine and the program a result was measured on."""
    model, flags = _cpu_info()
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "cpu_model": model,
        "cpu_flags_sha256": hashlib.sha256(" ".join(sorted(flags)).encode()).hexdigest(),
        "avx512": sorted(flag for flag in flags if flag.startswith("avx512")),
        "avx2": "avx2" in flags,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": checkout.commit(),
        "src_sha256": digest,
        "loadavg_before": list(os.getloadavg()),
        "host_probe_ms_before": host_probe_ms(),
    }
