"""The repository benchmark.

    python3 perfbench/run.py --workload {explore,decide,cli} --seed N
        --seconds S --trace {0,1} [--smoke] [--wrong-answer]

Run from the root of a checkout; the program is imported (and, for
``cli``, spawned) from the checkout's ``src``.  One client sends one
request at a time (closed loop).  Set-up -- imports, input generation
from ``--seed``, and one warm-up of every distinct request -- is timed
as ``setup_s``.  The timed part runs whole rounds, each holding every
request of the workload at its weight in seeded order, as many as come
closest to ``--seconds`` at the pace of the round before (at least the
workload's minimum).  Every answer is checked against a known answer.
A fixed reference task, timed between requests, measures the shared
host's speed; request timings are reported scaled to the reference
machine (``common.HostSpeed``), and the report prints them unscaled as
well.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced rounds with rounds under the layer timers of
``perfbench/tracer.py`` and reports per-layer self-times (mean seconds
per request), per-round work counts, the unattributed rest and the
tracing overhead.  ``--smoke`` shrinks every input so that a run takes
seconds; ``--wrong-answer`` plants one wrong expected answer, which
must show up as failed requests.

Human-readable lines (environment fingerprint, tail percentile and
sample count, layer shares, failures) come first; the last line of
stdout is the JSON result.  Without the program's sources the command
exits with status 2 and prints no result.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from dataclasses import replace  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import common  # noqa: E402
from perfbench.common import HostSpeed, RunRecord, Sample, SetupError  # noqa: E402

WORKLOADS = ("explore", "decide", "cli")

#: The tail percentile of each workload: the highest percentile with
#: at least ten samples beyond it at the fewest samples a 30-second run
#: gathers on the reference machine (2-core Xeon, Python 3.11).  Fixed
#: per workload so that the metric names the same point of the same
#: request mix whatever the number of rounds.
TAIL_SHARE = {"explore": 0.85, "decide": 0.85, "cli": 0.6}

#: Fewest rounds a run times, so that the tail has samples beyond it.
MIN_ROUNDS = {"explore": 2, "decide": 4, "cli": 2}

COUNT_KEYS = (
    "states", "obligations", "decided", "lowerings",
    "cache_hits", "cache_misses", "bytes_written",
)


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--wrong-answer", action="store_true")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def another_round(args, done: int, spent: float, last: float) -> bool:
    """Whole rounds, as many as come closest to ``--seconds`` at the
    pace of the last; at least the workload's minimum (one when traced,
    which runs every round twice)."""
    least = 1 if args.trace else MIN_ROUNDS[args.workload]
    return done < least or spent + last / 2 <= args.seconds


class Totals:
    """What the traced rounds measured, summed."""

    def __init__(self):
        self.wall = 0.0
        self.covered = 0.0
        self.spawn = 0.0
        self.imports = 0.0
        self.self_time = {}
        self.traced_time = 0.0
        self.traced_requests = 0
        self.untraced_time = 0.0
        self.untraced_requests = 0
        self.round_counts = []
        self.reduction_ratio = 0.0

    def add_layers(self, snapshot: dict) -> None:
        for layer, seconds in snapshot["self_time"].items():
            self.self_time[layer] = self.self_time.get(layer, 0.0) + seconds
        self.covered += snapshot["covered"]


def check_counts_repeat(record: RunRecord, rounds: list) -> None:
    """Every round holds the same requests, so its work counts must
    repeat exactly; a difference is a defect of the benchmark."""
    for key in COUNT_KEYS:
        values = {counts.get(key) for counts in rounds if key in counts}
        if len(values) > 1:
            record.benchmark_defects.append(
                f"count {key} differs between rounds: {sorted(values)}"
            )


def layer_metrics(totals: Totals) -> dict:
    per = max(totals.traced_requests, 1)
    layer = lambda name: totals.self_time.get(name, 0.0)  # noqa: E731
    counts = totals.round_counts[0] if totals.round_counts else {}
    count = lambda key: counts.get(key, 0)  # noqa: E731
    traced_rounds = max(len(totals.round_counts), 1)
    kernel_per_round = layer("kernel") / traced_rounds
    lookups = count("cache_hits") + count("cache_misses")
    traced = totals.traced_requests / totals.traced_time
    untraced = totals.untraced_requests / totals.untraced_time
    values = {
        "kernel.explore_s": (layer("kernel") / per, "s"),
        "kernel.states": (count("states"), "count"),
        "kernel.states_per_s": (
            count("states") / kernel_per_round if kernel_per_round else 0.0, "1/s"
        ),
        "kernel.reduction_ratio": (totals.reduction_ratio, "ratio"),
        "decide.symbolic_s": (layer("decide.symbolic") / per, "s"),
        "decide.structural_s": (layer("decide.structural") / per, "s"),
        "decide.obligations": (count("obligations"), "count"),
        "decide.decided_ratio": (
            count("decided") / count("obligations") if count("obligations") else 0.0,
            "ratio",
        ),
        "compiled.lower_s": (layer("compiled") / per, "s"),
        "compiled.lowerings": (count("lowerings"), "count"),
        "io.load_s": (layer("io.load") / per, "s"),
        "io.save_s": (layer("io.save") / per, "s"),
        "algebra.compose_s": (layer("algebra.compose") / per, "s"),
        "algebra.hide_s": (layer("algebra.hide") / per, "s"),
        "verify.self_s": (layer("verify") / per, "s"),
        "cache.get_s": (layer("cache.get") / per, "s"),
        "cache.put_s": (layer("cache.put") / per, "s"),
        "cache.hash_s": (layer("cache.hash") / per, "s"),
        "cache.hits": (count("cache_hits"), "count"),
        "cache.misses": (count("cache_misses"), "count"),
        "cache.hit_ratio": (count("cache_hits") / lookups if lookups else 0.0, "ratio"),
        "cache.bytes_written": (count("bytes_written"), "bytes"),
        "cli.spawn_s": (totals.spawn / per, "s"),
        "cli.import_s": (totals.imports / per, "s"),
        "cli.self_s": (layer("cli") / per, "s"),
        "unattributed_s": (
            (totals.wall - totals.covered - totals.spawn - totals.imports) / per, "s"
        ),
        "trace.overhead_ratio": (traced / untraced, "ratio"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def layer_report(record: RunRecord, totals: Totals) -> None:
    """Each layer's share of the traced requests' wall time."""
    if not totals.wall:
        return
    shares = {name: seconds / totals.wall for name, seconds in totals.self_time.items()}
    shares["cli.spawn"] = totals.spawn / totals.wall
    shares["cli.import"] = totals.imports / totals.wall
    shares["unattributed"] = 1.0 - sum(shares.values())
    ranked = sorted(shares.items(), key=lambda item: -item[1])
    record.notes["layer shares"] = ", ".join(
        f"{name} {100 * share:.1f}%" for name, share in ranked if share > 0.0005
    )


# -- in-process workloads ----------------------------------------------------


def run_inprocess(args, record: RunRecord, workdir: Path) -> Totals:
    from perfbench import inproc
    from perfbench.tracer import Tracer
    from repro.cache.store import active_store

    checks = inproc.WORKLOADS[args.workload](workdir, args.seed, args.smoke)
    if args.wrong_answer:
        checks[0] = replace(checks[0], receptive=not checks[0].receptive)
    if active_store() is not None:
        raise SetupError("an artifact store is active in-process")
    warm_cost = {}
    warm = {}
    for check in checks:
        record.host.measure()
        gc.collect()
        start = time.perf_counter()
        warm[check.label] = outcome = inproc.execute(check, workdir)
        warm_cost[check.label] = time.perf_counter() - start
        if not outcome.ok:
            record.failures.append(f"warm-up {check.label}: {outcome.reason}")
    record.setup_seconds = time.perf_counter() - STARTED
    last = sum(warm_cost[c.label] * c.weight for c in checks)
    if args.trace:
        last *= 2

    totals = Totals()
    full = {c.instance: warm[c.label].states for c in checks if c.engine == "eager"}
    por = {c.instance: warm[c.label].states for c in checks if c.engine == "por"}
    paired = [name for name in por if full.get(name)]
    if paired:
        totals.reduction_ratio = sum(por[n] for n in paired) / sum(full[n] for n in paired)

    rng = random.Random(f"order:{args.workload}:{args.seed}")
    tracer = Tracer()
    outcome_rounds = []

    def timed(check):
        # Each request starts on a collected heap, so no request pays
        # for the garbage of the one before it.
        reference = record.host.measure()
        gc.collect()
        start = time.perf_counter()
        outcome = inproc.execute(check, workdir)
        seconds = time.perf_counter() - start
        record.samples.append(Sample(check.label, seconds, outcome.ok, reference))
        if not outcome.ok:
            record.failures.append(f"{check.label}: {outcome.reason}")
        return outcome, seconds

    rounds = 0
    spent = 0.0
    while another_round(args, rounds, spent, last):
        order = inproc.round_order(checks, rng)
        counts = dict.fromkeys(("states", "obligations", "decided"), 0)
        started = time.perf_counter()
        rounds += 1
        if not args.trace:
            for check in order:
                outcome, _ = timed(check)
                for key in counts:
                    counts[key] += getattr(outcome, key)
            totals.untraced_time += time.perf_counter() - started
            totals.untraced_requests += len(order)
            outcome_rounds.append(counts)
            last = time.perf_counter() - started
            spent += last
            continue
        # Traced: each request runs twice in a row, untraced and under
        # the layer timers, which goes first alternating, so that drift
        # of the host and warm caches cancel out of the overhead ratio.
        tracer.reset()
        for position, check in enumerate(order):
            for traced in (False, True) if position % 2 else (True, False):
                if not traced:
                    totals.untraced_time += timed(check)[1]
                    continue
                tracer.install()
                outcome, seconds = timed(check)
                tracer.uninstall()
                totals.traced_time += seconds
                totals.wall += seconds
                for key in counts:
                    counts[key] += getattr(outcome, key)
        totals.untraced_requests += len(order)
        totals.traced_requests += len(order)
        snapshot = tracer.snapshot()
        totals.add_layers(snapshot)
        counts["lowerings"] = snapshot["counts"].get("lowerings", 0)
        totals.round_counts.append(counts)
        outcome_rounds.append(counts)
        last = time.perf_counter() - started
        spent += last
    record.host.measure()  # the reference run after the last request
    check_counts_repeat(record, outcome_rounds)
    check_counts_repeat(record, totals.round_counts)
    record.rounds = rounds
    record.timed_seconds = totals.untraced_time
    record.peak_rss_mb = common.peak_rss_mb()
    return totals


# -- the cli workload --------------------------------------------------------


def run_cli(args, record: RunRecord, workdir: Path) -> Totals:
    from perfbench import cliload

    directory = workdir / "inputs"
    (directory / "out").mkdir(parents=True)
    home = workdir / "home"
    home.mkdir()
    cmds = cliload.commands(directory, args.seed, args.smoke)
    if args.wrong_answer:
        cmds[0] = replace(cmds[0], status=1 - cmds[0].status)
    env = cliload.child_environment(home)
    first: dict = {}
    warm_start = time.perf_counter()
    cliload.run_round(cmds, directory, "cache-warm", env, first, None,
                      record, trace=False)
    warm_seconds = time.perf_counter() - warm_start
    record.setup_seconds = time.perf_counter() - STARTED
    rng = random.Random(f"order:cli:{args.seed}")
    order = cliload.round_order(cmds, rng)
    last = warm_seconds * len(order) / len(cmds) * (2 if args.trace else 1)

    # A traced run repeats each round's order under the layer timers,
    # in a store of its own.
    totals = Totals()
    rounds = 0
    spent = 0.0
    while another_round(args, rounds, spent, last):
        if rounds:
            order = cliload.round_order(cmds, rng)
        index = rounds
        rounds += 1
        started = time.perf_counter()
        elapsed, _, _ = cliload.run_round(
            order, directory, f"cache-{index}", env, first, record.samples,
            record, trace=False,
        )
        totals.untraced_time += elapsed
        totals.untraced_requests += len(order)
        if not args.trace:
            last = time.perf_counter() - started
            spent += last
            continue
        before = len(record.samples)
        elapsed, traces, written = cliload.run_round(
            order, directory, f"cache-{index}-traced", env, first,
            record.samples, record, trace=True,
        )
        counts = dict.fromkeys(COUNT_KEYS, 0)
        counts["bytes_written"] = written
        for sample, (ran, child) in zip(record.samples[before:], traces):
            totals.wall += sample.seconds
            if child is None:
                record.benchmark_defects.append(f"no trace from {sample.label}")
                continue
            totals.add_layers(child)
            totals.spawn += child["started"] - ran.spawned_at
            totals.imports += child["import_seconds"]
            for key in ("states", "obligations", "decided", "cache_hits", "cache_misses"):
                counts[key] += child[key]
            counts["lowerings"] += child["counts"].get("lowerings", 0)
        totals.traced_time += elapsed
        totals.traced_requests += len(order)
        totals.round_counts.append(counts)
        last = time.perf_counter() - started
        spent += last
    record.host.measure()  # the reference run after the last request
    check_counts_repeat(record, totals.round_counts)
    record.rounds = rounds
    record.timed_seconds = totals.untraced_time
    record.peak_rss_mb = common.peak_rss_mb(resource.RUSAGE_CHILDREN)
    return totals


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        common.import_program()
    except SetupError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    common.scrub_environment()
    import repro.io.formats  # noqa: F401  (set-up: the program's imports)
    import repro.petri.symbolic  # noqa: F401
    import repro.verify.receptiveness  # noqa: F401

    env = common.fingerprint()
    record = RunRecord(args.workload, args.seed, tail_share=TAIL_SHARE[args.workload])
    if args.workload == "cli":
        # A child takes about a second: the wider reference task keeps
        # to the same few per cent of a request as in-process.
        record.host = HostSpeed(7)
    workdir = common.make_workdir()
    try:
        runner = run_cli if args.workload == "cli" else run_inprocess
        totals = runner(args, record, workdir)
    except SetupError as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    finally:
        common.remove_workdir(workdir)

    if args.trace:
        metrics = layer_metrics(totals)
        layer_report(record, totals)
    else:
        metrics = common.end_to_end_metrics(record)
    common.report(record, metrics, env)
    result = {
        "correct": not record.failures and not record.benchmark_defects,
        "attempted": record.attempted,
        "failed": record.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
