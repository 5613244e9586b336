"""The in-process workloads, ``explore`` and ``decide``.

Each request loads its nets from the generated files (as ``cip verify``
does) and calls a public API: ``check_receptiveness`` or
``repro.petri.symbolic.analyze``.  Every answer is checked against a
known answer from construction or from the paper.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from perfbench import inputs

ENGINES = ("eager", "onthefly", "por")

#: Explored-state counts the repository's own tests pin for the paper
#: pairs (``tests/test_cli.py``, ``benchmarks/BENCH_por.json``).
PAPER_COUNTS = {
    "fig5|fig7": {"full": 1444, "onthefly": 1444, "por": 228},
    "fig7|fig6": {"full": 844, "onthefly": 844, "por": 389},
    "fig8|fig7": {"onthefly": 199, "por": 49},
}


@dataclass(frozen=True)
class Check:
    """One request and its known answer."""

    label: str
    instance: str
    files: tuple[str, ...]
    kind: str = "receptiveness"
    method: str = "reachability"
    engine: str | None = None
    weight: int = 1
    receptive: bool | None = None
    states: int | None = None
    states_at_most: int | None = None
    route: str | None = None
    failing_any_of: frozenset[str] = frozenset()
    no_dead_actions: bool = False


@dataclass
class Outcome:
    """What one request did, and whether its answer was right."""

    ok: bool
    reason: str = ""
    states: int = 0
    obligations: int = 0
    decided: int = 0


def report_counts(report) -> dict:
    """Work counts of one receptiveness report: states the kernel
    explored, obligations the decision layer answered, and how many of
    those it decided without falling back to search."""
    if getattr(report, "cached", False):
        return {"states": 0, "obligations": 0, "decided": 0}
    states = report.states_explored or 0
    if report.method == "structural":
        total = len(report.obligations)
        return {"states": 0, "obligations": total, "decided": total}
    if report.symbolic is not None:
        info = report.symbolic
        return {
            "states": states,
            "obligations": len(report.obligations),
            "decided": info["safe"] + info["failed"],
        }
    return {"states": states, "obligations": 0, "decided": 0}


def _judge_receptiveness(check: Check, report) -> Outcome:
    counts = report_counts(report)
    outcome = Outcome(True, **counts)
    problems = []
    if check.receptive is not None and report.is_receptive() != check.receptive:
        problems.append(
            f"verdict {report.is_receptive()} != {check.receptive}"
        )
    if check.states is not None and report.states_explored != check.states:
        problems.append(f"states {report.states_explored} != {check.states}")
    if check.states_at_most is not None and (
        report.states_explored is None
        or report.states_explored > check.states_at_most
    ):
        problems.append(
            f"states {report.states_explored} > {check.states_at_most}"
        )
    if check.route is not None and report.method != check.route:
        problems.append(f"route {report.method} != {check.route}")
    if check.failing_any_of and not (
        check.failing_any_of & set(report.failing_actions())
    ):
        problems.append(
            f"failing {report.failing_actions()} misses"
            f" {sorted(check.failing_any_of)}"
        )
    if problems:
        outcome.ok = False
        outcome.reason = "; ".join(problems)
    return outcome


def _judge_analyze(check: Check, result: dict) -> Outcome:
    problems = []
    bounded = result["bounded"]
    if bounded.conclusive and not bounded.holds:
        problems.append("a safe net reported unbounded")
    if check.no_dead_actions and result["dead_actions"]:
        problems.append(f"dead actions {sorted(result['dead_actions'])}")
    return Outcome(not problems, "; ".join(problems))


def execute(check: Check, directory: Path) -> Outcome:
    """Run one request; never raises."""
    import repro.io.formats as formats
    import repro.petri.symbolic as symbolic
    import repro.verify.receptiveness as receptiveness

    try:
        stgs = [formats.load_stg(str(directory / name)) for name in check.files]
        if check.kind == "analyze":
            return _judge_analyze(check, symbolic.analyze(stgs[0].net))
        report = receptiveness.check_receptiveness(
            stgs[0], stgs[1], method=check.method, engine=check.engine
        )
        return _judge_receptiveness(check, report)
    except Exception as error:  # a crash is a failed request
        return Outcome(False, f"{type(error).__name__}: {error}")


# -- workload definitions ----------------------------------------------------


def _write_pair(first, second, directory, stem, rng) -> tuple[str, str]:
    left, right = inputs.pair_suffixes(rng)
    return (
        inputs.write(first, directory, f"{stem}_a", left),
        inputs.write(second, directory, f"{stem}_b", right),
    )


def _paper_pairs(directory: Path, rng, names: tuple[str, ...]) -> dict:
    modules = inputs.paper_modules()
    pairs = {}
    for name in names:
        first, second = name.split("|")
        pairs[name] = _write_pair(
            modules[first], modules[second], directory, name.replace("|", "_"), rng
        )
    return pairs


def explore_checks(directory: Path, seed: int, smoke: bool) -> list[Check]:
    """Reachability checks under every explicit engine: channel-bank
    and pipeline-grid halves and the paper pairs."""
    rng = random.Random(f"explore:{seed}")
    prefix = inputs.name_prefix(seed)
    # Size -> weight.  A round's 36 requests sort into three blocks:
    # fifteen under 0.15 s (bank5, grid4x2, paper pairs), six bank6
    # (0.2-0.45 s on the reference machine) and fifteen grid5x2
    # (0.3-0.6 s).  The median falls in the middle of the bank6 block
    # and the p85 tail inside the grid5x2 block, never on the edge
    # between two blocks, so neither jumps with the order of the run.
    banks = {2: 1, 3: 1} if smoke else {5: 1, 6: 2}
    grids = {2: 1} if smoke else {4: 1, 5: 5}
    paper = ("fig8|fig7",) if smoke else ("fig5|fig7", "fig7|fig6", "fig8|fig7")
    checks = []
    for n, weight in banks.items():
        files = _write_pair(*inputs.bank_halves(n, prefix), directory, f"bank{n}", rng)
        for engine in ENGINES:
            checks.append(
                Check(
                    f"bank{n}/{engine}", f"bank{n}", files, engine=engine,
                    weight=weight, receptive=True,
                    states=None if engine == "por" else 4**n,
                    states_at_most=4**n,
                )
            )
    for lanes, weight in grids.items():
        files = _write_pair(*inputs.grid_halves(lanes, prefix), directory, f"grid{lanes}", rng)
        for engine in ENGINES:
            checks.append(
                Check(
                    f"grid{lanes}x2/{engine}", f"grid{lanes}", files, engine=engine,
                    weight=weight, receptive=True,
                    states=None if engine == "por" else 6**lanes,
                    states_at_most=6**lanes,
                )
            )
    for name, files in _paper_pairs(directory, rng, paper).items():
        pinned = PAPER_COUNTS[name]
        for engine in ENGINES:
            checks.append(
                Check(
                    f"{name}/{engine}", name, files, engine=engine,
                    receptive=name != "fig8|fig7",
                    states=pinned.get("full" if engine == "eager" else engine),
                )
            )
    return checks


def decide_checks(directory: Path, seed: int, smoke: bool) -> list[Check]:
    """Structural (Thm 5.7) and state-equation decisions, and the
    symbolic analysis of the paper modules."""
    rng = random.Random(f"decide:{seed}")
    prefix = inputs.name_prefix(seed)
    # Request -> weight.  A round's 21 requests sort into blocks: seven
    # under 0.15 s (banks 8/16 and grids 8/16, but bank16/auto), seven
    # sender analyses (0.17 s on the reference machine), then bank16/auto
    # and bank24/symbolic (0.2-0.25 s), three bank24/auto (0.4 s) and the
    # two translator-family requests (1-1.7 s).  The median falls in the
    # middle of the sender block and the p85 tail in the middle of the
    # bank24/auto block.  No request takes seconds, so a run times
    # several rounds.
    banks = {3: (1, 1)} if smoke else {8: (1, 1), 16: (1, 1), 24: (3, 1)}
    grids = {3: (1, 1)} if smoke else {8: (1, 1), 16: (1, 1)}
    checks = []
    families = [
        (f"bank{n}", inputs.bank_halves(n, prefix), weights)
        for n, weights in banks.items()
    ] + [
        (f"grid{lanes}x2", inputs.grid_halves(lanes, prefix), weights)
        for lanes, weights in grids.items()
    ]
    for stem, halves, (auto, symbolic) in families:
        files = _write_pair(*halves, directory, stem, rng)
        checks.append(
            Check(
                f"{stem}/auto", stem, files, method="auto", weight=auto,
                receptive=True, route="structural",
            )
        )
        checks.append(
            Check(
                f"{stem}/symbolic", stem, files, engine="symbolic",
                weight=symbolic, receptive=True,
            )
        )
    pairs = _paper_pairs(directory, rng, ("fig8|fig7",))
    checks.append(
        Check("fig8|fig7/symbolic", "fig8|fig7", pairs["fig8|fig7"],
              engine="symbolic", receptive=False)
    )
    # Every transition of the Fig 5 sender lies on a command cycle that
    # the free inputs can start, so it has no dead action.
    modules = inputs.paper_modules()
    analyses = {"fig5": 4} if smoke else {"fig5": 7, "fig9b": 1}
    for name, weight in analyses.items():
        suffix = ".net" if rng.random() < 0.5 else ".pnml"
        files = (inputs.write(modules[name], directory, f"{name}_module", suffix),)
        checks.append(
            Check(f"{name}/analyze", name, files, kind="analyze", weight=weight,
                  no_dead_actions=name == "fig5")
        )
    return checks


WORKLOADS = {"explore": explore_checks, "decide": decide_checks}


def round_order(checks: list[Check], rng: random.Random) -> list[Check]:
    """One round: every check ``weight`` times, in seeded order."""
    order = [check for check in checks for _ in range(check.weight)]
    rng.shuffle(order)
    return order
