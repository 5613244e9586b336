"""Shared plumbing: locating the program, statistics, the environment
fingerprint and the result record."""

from __future__ import annotations

import gc
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"


class SetupError(Exception):
    """The benchmark cannot run here (for example: no program)."""


def import_program() -> None:
    """Put the checkout's ``src`` first on ``sys.path`` and import the
    package from there, never from an installed copy."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SetupError(f"no program sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    where = Path(repro.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise SetupError(f"repro imported from {where}, not from {SRC}")


def scrub_environment() -> None:
    """Drop every ``CIP_*`` variable, so no cache setting leaks in."""
    for key in [k for k in os.environ if k.startswith("CIP_")]:
        del os.environ[key]


def make_workdir() -> Path:
    """A fresh temporary directory inside the checkout."""
    SCRATCH.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="run-", dir=SCRATCH))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        SCRATCH.rmdir()
    except OSError:
        pass


def percentile(values: list[float], share: float) -> float:
    """Linear-interpolated percentile of ``values`` at ``share`` in
    [0, 1] (the 'inclusive' definition)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("no samples")
    position = share * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def peak_rss_mb(who: int = resource.RUSAGE_SELF) -> float:
    """Peak resident set size in MiB (Linux reports KiB)."""
    return resource.getrusage(who).ru_maxrss / 1024.0


#: Median seconds of one ``reference_task`` of each width on the
#: reference machine (2-core Xeon, Python 3.11.7) at a quiet time.  They
#: set only the scale of the reported timings, never their spread.
REFERENCE_SECONDS = {6: 0.0100, 7: 0.0500}


def reference_task(width: int = 6) -> int:
    """A fixed breadth-first search over the ``4**width`` markings of
    ``width`` independent four-cycles: tuples in a set and a deque, the
    kind of work the exploration kernel does, but no program code."""
    start = (0,) * width
    seen = {start}
    queue = deque([start])
    while queue:
        marking = queue.popleft()
        for i in range(width):
            step = marking[:i] + ((marking[i] + 1) % 4,) + marking[i + 1:]
            if step not in seen:
                seen.add(step)
                queue.append(step)
    return len(seen)


class HostSpeed:
    """The host's speed, from the reference task timed between requests.

    The benchmark shares its cores with other tenants, whose load makes
    the same pure-Python work take up to twice as long from one second
    to the next, with no steal time to show for it.  Each request's time
    is therefore reported scaled to the reference machine: multiplied by
    the reference task's time there over the mean of its two runs just
    before and just after the request here.  The host's drift cancels;
    a change in the program's own work does not, since the reference
    runs no program code.  The report prints the unscaled timings too.
    """

    def __init__(self, width: int = 6):
        self.width = width
        self.samples: list[float] = []

    def measure(self) -> int:
        """Time one reference run; return its index.  The task runs
        once untimed first, so that what the request before it left in
        the caches and the allocator does not weigh on the timed run."""
        gc.disable()
        try:
            reference_task(self.width)
            start = time.perf_counter()
            reference_task(self.width)
            self.samples.append(time.perf_counter() - start)
        finally:
            gc.enable()
        return len(self.samples) - 1

    def scale(self, before: int) -> float:
        """The factor for a request between reference runs ``before``
        and ``before + 1``."""
        after = self.samples[min(before + 1, len(self.samples) - 1)]
        return 2 * REFERENCE_SECONDS[self.width] / (self.samples[before] + after)


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    """The machine and software each result was measured on."""
    import numpy
    import scipy

    try:
        load = list(os.getloadavg())
    except OSError:
        load = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _commit(),
        "pythonhashseed": os.environ.get("PYTHONHASHSEED", "random"),
        "loadavg_at_start": load,
    }


@dataclass
class Sample:
    """One timed request."""

    label: str
    seconds: float
    ok: bool
    #: Index of the reference run just before the request.
    reference: int


@dataclass
class RunRecord:
    """Everything one run measured, before it is reduced to metrics."""

    workload: str
    seed: int
    samples: list[Sample] = field(default_factory=list)
    timed_seconds: float = 0.0
    rounds: int = 0
    setup_seconds: float = 0.0
    peak_rss_mb: float = 0.0
    tail_share: float = 0.9
    failures: list[str] = field(default_factory=list)
    benchmark_defects: list[str] = field(default_factory=list)
    notes: dict = field(default_factory=dict)
    host: HostSpeed = field(default_factory=HostSpeed)

    @property
    def attempted(self) -> int:
        return len(self.samples)

    @property
    def failed(self) -> int:
        return sum(1 for sample in self.samples if not sample.ok)


def request_seconds(record: RunRecord, scaled: bool = True) -> list[float]:
    return [
        sample.seconds * (record.host.scale(sample.reference) if scaled else 1.0)
        for sample in record.samples
    ]


def timings(record: RunRecord, scaled: bool = True) -> dict:
    """Latency percentiles and throughput (requests per second of
    request time), scaled to the reference machine (see ``HostSpeed``)
    or as this host measured them.  Set-up time is reported as measured:
    imports, file writes and first calls are not the work the reference
    task tracks, and scaling them made its spread between runs wider."""
    latencies = request_seconds(record, scaled)
    return {
        "latency_p50_s": percentile(latencies, 0.5),
        "latency_tail_s": percentile(latencies, record.tail_share),
        "throughput_ops_s": len(latencies) / sum(latencies),
        "setup_s": record.setup_seconds,
    }


def end_to_end_metrics(record: RunRecord) -> dict:
    units = {"latency_p50_s": "s", "latency_tail_s": "s",
             "throughput_ops_s": "1/s", "setup_s": "s"}
    metrics = {
        name: {"value": value, "unit": units[name]}
        for name, value in timings(record).items()
    }
    metrics["peak_rss_mb"] = {"value": record.peak_rss_mb, "unit": "MiB"}
    metrics["success_ratio"] = {
        "value": (record.attempted - record.failed) / record.attempted,
        "unit": "ratio",
    }
    return metrics


def report(record: RunRecord, metrics: dict, env: dict) -> None:
    """Human-readable lines on stdout, ahead of the JSON result."""
    latencies = request_seconds(record)
    beyond = sum(
        1 for value in latencies if value > metrics["latency_tail_s"]["value"]
    ) if "latency_tail_s" in metrics else None
    print(f"# workload {record.workload} seed {record.seed}")
    print(f"# environment {json.dumps(env, sort_keys=True)}")
    print(
        f"# {record.attempted} requests in {record.rounds} round(s),"
        f" {record.timed_seconds:.3f} s timed; closed loop, one client"
    )
    if beyond is not None:
        print(
            f"# tail = p{100 * record.tail_share:g} of {len(latencies)}"
            f" samples ({beyond} beyond it)"
        )
    by_label: dict[str, list[float]] = {}
    for sample in record.samples:
        by_label.setdefault(sample.label, []).append(sample.seconds)
    print(
        "# median s per request (unscaled): "
        + ", ".join(
            f"{label} {percentile(values, 0.5):.4f}"
            for label, values in sorted(by_label.items())
        )
    )
    if record.host.samples and record.samples:
        print(
            f"# host speed: {len(record.host.samples)} reference runs of width"
            f" {record.host.width}, median"
            f" {percentile(record.host.samples, 0.5):.5f} s (reference machine"
            f" {REFERENCE_SECONDS[record.host.width]} s); unscaled: "
            + ", ".join(
                f"{name} {value:.6g}"
                for name, value in timings(record, scaled=False).items()
            )
        )
    for key, value in sorted(record.notes.items()):
        print(f"# {key}: {value}")
    for failure in record.failures[:20]:
        print(f"# FAILED {failure}")
    for defect in record.benchmark_defects:
        print(f"# BENCHMARK DEFECT {defect}")
    for name, entry in metrics.items():
        print(f"# {name:28s} {entry['value']:.6g} {entry['unit']}")
