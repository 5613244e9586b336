"""Seeded input generation: every file a workload feeds the program.

Channel banks and pipeline grids are split into two halves (masters ||
slaves, first stages || second stages) so that their receptiveness
check composes them.  Their signal and module names carry one common
seed-derived prefix: the files differ per seed while every sorted order
inside a net, and therefore every count the program reports, stays the
same.  The paper modules (Figs 5-9) are written as the model library
builds them.

Known answers come from construction, never from a run of the program:

* a channel bank of ``n`` four-phase channels has ``4**n`` reachable
  markings (independent 4-cycles) and is receptive;
* a grid of ``L`` two-stage pipeline lanes has ``6**L`` markings (each
  lane is one sequential 6-cycle once its internal handshake is
  fused) and is receptive;
* both compose to live marked graphs, so ``method="auto"`` takes the
  Thm 5.7 structural route;
* the composite of ``n`` master/slave pairs has ``8n`` places and
  ``4n`` transitions (four private places per module, one fused
  transition per signal edge).
"""

from __future__ import annotations

import random
from pathlib import Path


def name_prefix(seed: int) -> str:
    """A lowercase identifier prefix drawn from ``seed``."""
    rng = random.Random(f"names:{seed}")
    return "x" + "".join(rng.choice("abcdefghijklmnopqrstuvwxyz") for _ in range(5))


def bank_halves(channels: int, prefix: str):
    """``(masters, slaves)`` of an ``channels``-wide four-phase bank."""
    from repro.core.circuit import compose_many
    from repro.models.library import four_phase_master, four_phase_slave

    masters = compose_many(
        four_phase_master(
            req=f"{prefix}r{i}", ack=f"{prefix}a{i}", name=f"{prefix}m{i}"
        )
        for i in range(channels)
    )
    slaves = compose_many(
        four_phase_slave(
            req=f"{prefix}r{i}", ack=f"{prefix}a{i}", name=f"{prefix}s{i}"
        )
        for i in range(channels)
    )
    return masters, slaves


def grid_halves(lanes: int, prefix: str):
    """``(first stages, second stages)`` of ``lanes`` two-stage
    transition-signalling pipelines with no shared signals."""
    from repro.core.circuit import compose_many
    from repro.models.library import two_phase_buffer_stage

    halves = []
    for stage in (0, 1):
        halves.append(
            compose_many(
                two_phase_buffer_stage(
                    left_req=f"{prefix}l{lane}d{stage}",
                    left_ack=f"{prefix}l{lane}k{stage}",
                    right_req=f"{prefix}l{lane}d{stage + 1}",
                    right_ack=f"{prefix}l{lane}k{stage + 1}",
                    name=f"{prefix}l{lane}s{stage}",
                )
                for lane in range(lanes)
            )
        )
    return halves[0], halves[1]


def paper_modules() -> dict:
    """The paper's modules by short name."""
    from repro.models import protocol_translator as pt

    return {
        "fig5": pt.sender(),
        "fig6": pt.receiver(),
        "fig7": pt.translator(),
        "fig8": pt.inconsistent_sender(),
        "fig9b": pt.simplified_translator(),
    }


def write(stg, directory: Path, stem: str, suffix: str) -> str:
    """Save ``stg`` as ``directory/stem.suffix``; return the file name."""
    from repro.io.formats import save_stg

    name = f"{stem}{suffix}"
    save_stg(stg, str(directory / name))
    return name


def pair_suffixes(rng: random.Random) -> tuple[str, str]:
    """One half as TINA ``.net`` and the other as PNML, side by seed."""
    return (".net", ".pnml") if rng.random() < 0.5 else (".pnml", ".net")
