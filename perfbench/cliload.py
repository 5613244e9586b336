"""The ``cli`` workload: sequential ``python -m repro`` runs.

Every round runs each distinct command once, plus byte-identical
repeats of about a quarter of them (drawn by seed), against one fresh
``--cache-dir`` store per round: first occurrences miss and write,
repeats read.  Children run one at a time, with ``CIP_*`` scrubbed from
their environment and ``HOME`` pointed into the run's directory.

Known answers, from construction or the paper: exit codes (0 receptive
or success, 1 not receptive), the explored-state counts the
repository's tests pin for the paper pairs, the obligation and size
counts of channel banks and pipeline grids, the signal sets of compose
and hide outputs, and byte-identical output for every repeat.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from perfbench import inputs
from perfbench.common import ROOT, SRC, Sample

CHILD_TIMEOUT = 120.0


@dataclass(frozen=True)
class Command:
    """One ``python -m repro`` invocation and its known answer."""

    label: str
    argv: tuple[str, ...]
    status: int
    stdout_has: tuple[str, ...] = ()
    output: str | None = None
    output_signals: frozenset[str] | None = None


def commands(directory: Path, seed: int, smoke: bool) -> list[Command]:
    """Generate the inputs and the distinct commands of one seed.

    Each command reads its own copies of its nets, renamed after the
    command, so no two commands share a content hash: a first
    occurrence misses the store throughout and a repeat hits it
    throughout, whatever the order.  Nine of the eleven commands miss
    into work that loads scipy today (the Thm 5.7 LP, lowering bound
    certificates); with three repeats per round that keeps the median
    inside the miss mode.
    """
    from repro.stg.stg import compose

    prefix = inputs.name_prefix(seed)
    stgs = inputs.paper_modules()
    n = 2 if smoke else 4
    stgs["masters"], stgs["slaves"] = inputs.bank_halves(n, prefix)
    bank = stgs["bank"] = compose(stgs["masters"], stgs["slaves"])
    hidden = (f"{prefix}r0", f"{prefix}a0")

    def own(label: str, key: str, suffix: str) -> str:
        stg = stgs[key]
        original = stg.net.name
        stg.net.name = f"{original}_{label.replace('-', '_')}"
        try:
            return inputs.write(stg, directory, f"{label}_{key}", suffix)
        finally:
            stg.net.name = original

    def verify(label, first, second, status, *expect, flags=()):
        return Command(
            label, ("verify", own(label, *first), own(label, *second), *flags),
            status, expect,
        )

    def info(key: str, suffix: str) -> Command:
        stats = stgs[key].net.stats()
        label = f"info-{key}"
        return Command(
            label, ("info", own(label, key, suffix)), 0,
            (f"size     : {stats['places']} places,"
             f" {stats['transitions']} transitions",),
        )

    cmds = [
        verify(
            "verify-bank", ("masters", ".g"), ("slaves", ".g"), 0,
            f"receptive: {4 * n} synchronization obligations checked (structural)",
        ),
        verify(
            "verify-fig8-fig7", ("fig8", ".pnml"), ("fig7", ".pnml"), 1,
            "NOT receptive", "# states explored: 199 (onthefly)",
        ),
        info("fig5", ".json"),
        Command(
            "compose-bank",
            ("compose", own("compose-bank", "masters", ".g"),
             own("compose-bank", "slaves", ".g"), "-o", "out/bank.json"),
            0, (f"'places': {8 * n}, 'transitions': {4 * n}",),
            output="out/bank.json", output_signals=frozenset(bank.signals()),
        ),
        Command(
            "hide-bank",
            ("hide", own("hide-bank", "bank", ".pnml"), "-s", hidden[0],
             "-s", hidden[1], "-o", "out/hidden.g"),
            0, output="out/hidden.g",
            output_signals=frozenset(bank.signals() - set(hidden)),
        ),
    ]
    if smoke:
        return cmds
    return cmds + [
        verify(
            "verify-fig5-fig7-por", ("fig5", ".json"), ("fig7", ".pnml"), 0,
            "receptive: ", "# states explored: 228 (por)",
            "# eager baseline : 1444 states", flags=("--engine", "por"),
        ),
        verify(
            "verify-fig7-fig6", ("fig7", ".net"), ("fig6", ".pnml"), 0,
            "receptive: ", "# states explored: 844 (onthefly)",
        ),
        verify(
            "verify-fig7-fig6-eager", ("fig7", ".json"), ("fig6", ".net"), 0,
            "receptive: ", "# states explored: 844 (eager)",
            flags=("--method", "reachability", "--engine", "eager"),
        ),
        info("fig6", ".pnml"),
        info("fig7", ".net"),
        info("fig8", ".net"),
    ]


def round_order(cmds: list[Command], rng: random.Random) -> list[Command]:
    """Each command once in seeded order, plus byte-identical repeats of
    a third of them (a quarter of the round) later in the round."""
    order = list(cmds)
    rng.shuffle(order)
    repeats = rng.sample(range(len(order)), max(1, len(order) // 3))
    for index in sorted(repeats, reverse=True):
        slot = rng.randint(index + 1, len(order))
        order.insert(slot, order[index])
    return order


def child_environment(home: Path) -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("CIP_")}
    env["PYTHONPATH"] = str(SRC)
    env["HOME"] = str(home)
    return env


@dataclass
class Ran:
    """One finished child process."""

    seconds: float
    status: int
    stdout: str
    stderr: str
    spawned_at: float


def spawn(argv: list[str], cwd: Path, env: dict) -> Ran:
    spawned = time.monotonic()
    start = time.perf_counter()
    child = subprocess.Popen(
        argv, cwd=cwd, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True,
    )
    try:
        out, err = child.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        child.kill()
        out, err = child.communicate()
        return Ran(time.perf_counter() - start, -1, out, "timeout", spawned)
    return Ran(time.perf_counter() - start, child.returncode, out, err, spawned)


def judge(command: Command, ran: Ran, cwd: Path, first: dict) -> str:
    """Empty when the run's answer is right, else the reason."""
    from repro.io.formats import load_stg

    problems = []
    if ran.status != command.status:
        problems.append(f"exit {ran.status} != {command.status}: {ran.stderr.strip()[:200]}")
    for needle in command.stdout_has:
        if needle not in ran.stdout:
            problems.append(f"stdout lacks {needle!r}")
    if command.output is not None and ran.status == 0:
        try:
            written = load_stg(str(cwd / command.output))
        except Exception as error:
            problems.append(f"output unreadable: {error}")
        else:
            if command.output_signals is not None and (
                written.signals() != set(command.output_signals)
            ):
                problems.append("output signals differ from construction")
    seen = first.setdefault(command.label, (ran.status, ran.stdout))
    if seen != (ran.status, ran.stdout):
        problems.append("a repeat differs from its first run")
    return "; ".join(problems)


def directory_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def run_round(order, directory: Path, cache: str, env: dict, first: dict,
              samples, record, trace: bool):
    """Run one round against the fresh store ``directory/cache``.

    Times the reference task into ``record.host`` before each command,
    appends a sample per command to ``samples`` (unless ``None``) and
    each wrong answer to ``record.failures``; returns the round's wall time,
    the traced children's records and the bytes the store holds
    afterwards."""
    traces = []
    started = time.perf_counter()
    for index, command in enumerate(order):
        argv = [sys.executable]
        if trace:
            trace_file = directory / f"{cache}-trace-{index}.json"
            argv += [str(ROOT / "perfbench" / "cli_child.py"), str(trace_file)]
        else:
            argv += ["-m", "repro"]
        argv += [*command.argv, "--cache-dir", cache]
        reference = record.host.measure()
        ran = spawn(argv, directory, env)
        reason = judge(command, ran, directory, first)
        if samples is not None:
            samples.append(Sample(command.label, ran.seconds, not reason, reference))
        if reason:
            record.failures.append(f"{command.label}: {reason}")
        if trace:
            try:
                child = json.loads(trace_file.read_text())
            except (OSError, ValueError):
                child = None
            traces.append((ran, child))
    elapsed = time.perf_counter() - started
    store = directory / cache
    written = directory_bytes(store) if store.exists() else 0
    return elapsed, traces, written
