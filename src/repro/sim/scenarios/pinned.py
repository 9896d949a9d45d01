"""Pinned scenarios promoted from the coverage-guided synthesis sweep.

Each block is one synthesized scenario as
:func:`repro.sim.synthesis.render_pinned` prints it, reason comment included
(promotion workflow in ``docs/scenarios.md``), so the combination it
exercises stays in the regression matrix no matter how the generator's
draw order evolves. Add a block by pasting ``render_pinned`` output rather
than by writing one by hand.
"""

from __future__ import annotations

from repro.sim.faults import (
    AuditEpoch,
    DropFault,
    DuplicateFault,
    ReorderFault,
    ReshardService,
)
from repro.sim.scenarios.spec import Scenario

__all__ = ["pinned_matrix"]


def pinned_matrix() -> list[Scenario]:
    """The pinned scenarios the default matrix appends."""
    return [
        # Pinned reproducer: synth seed 2150 aiming at fault=drop phase=mid-audit — loss hitting the epoch auditor's own bundle fetches, a cell the hand matrix reached only after PR 9
        Scenario(
            name='pinned-audit-lossy-fetch-2150',
            app='odoh',
            ops=8,
            shards=2,
            seed=2150,
            rules=(
                DropFault(probability=0.6, source=None, destination=None),
            ),
            events=(
                ReshardService(at_op=2, shards=4),
                AuditEpoch(at_op=3),
            ),
            min_success_rate=0.0,
            regions=('us-east', 'eu-west'),
            description='synthesized (seed 2150) aiming at fault=drop phase=mid-audit topology=geo/4',
        ),
        # Pinned reproducer: synth seed 2151 aiming at fault=duplicate phase=mid-audit — duplicated bundle fetches must stay at-most-once on the epoch-log endpoint
        Scenario(
            name='pinned-audit-duplicate-fetch-2151',
            app='prio',
            ops=6,
            shards=2,
            seed=2151,
            rules=(
                DuplicateFault(probability=0.6, source=None, destination=None, copies=2),
            ),
            events=(
                ReshardService(at_op=2, shards=4),
                AuditEpoch(at_op=3),
            ),
            min_success_rate=0.0,
            regions=('us-east', 'eu-west'),
            description='synthesized (seed 2151) aiming at fault=duplicate phase=mid-audit topology=geo/2',
        ),
        # Pinned reproducer: synth seed 2152 aiming at fault=reorder phase=mid-migration on geo/4 — WAN reordering against a cross-region epoch handoff
        Scenario(
            name='pinned-geo-reshard-reorder-2152',
            app='odoh',
            ops=7,
            shards=2,
            seed=2152,
            rules=(
                ReorderFault(probability=0.162, source=None, destination=None, max_delay_s=0.0228),
            ),
            events=(
                ReshardService(at_op=4, shards=4),
            ),
            min_success_rate=0.0,
            regions=('us-east', 'eu-west'),
            description='synthesized (seed 2152) aiming at fault=reorder phase=mid-migration topology=geo/4',
        ),
    ]
