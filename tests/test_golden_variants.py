"""Golden deep fingerprints for the configurations off the default path.

``tests/test_golden_stats.py`` pins the paper's default machine.  This
file pins the two controller variants that change how the scheduling
point behaves: DDR2 auto-refresh (``refresh_enabled=True``), which
pushes bank ready times and closes rows between decisions, and split
per-channel controllers (``controller_kind="split"``), where every
sub-controller sees its channel re-homed to index 0.

Floats are compared through ``float.hex()``.  Regenerate only for a
deliberate model change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_variants.py
"""

from __future__ import annotations

import json
import os
from dataclasses import replace
from pathlib import Path

import pytest

from repro import workload_by_name
from repro.config import SystemConfig
from repro.core.registry import make_policy
from repro.sim.system import MultiCoreSystem
from repro.workloads.synthetic import make_trace

from tests.test_golden_stats import _diff_paths, _hex

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_variants.json"

MIX = "2MEM-1"
WARMUP = 2000

#: name -> (policy, seed, controller_kind, refresh_enabled, budget); the
#: refresh run is long enough to cross several refresh windows per channel
VARIANTS = {
    "refresh": ("HF-RF", 7, "shared", True, 60000),
    "split": ("LREQ", 3, "split", False, 2500),
}


def _fingerprint(
    policy: str, seed: int, kind: str, refresh: bool, budget: int
) -> dict:
    mix = workload_by_name(MIX)
    cfg = SystemConfig().with_cores(mix.num_cores)
    cfg = replace(
        cfg, controller=replace(cfg.controller, refresh_enabled=refresh)
    )
    traces = [
        make_trace(app, seed, "eval", core_id=i)
        for i, app in enumerate(mix.apps())
    ]
    system = MultiCoreSystem(
        cfg, make_policy(policy), traces, budget, warmup_insts=WARMUP,
        seed=seed, controller_kind=kind,
        policy_factory=lambda: make_policy(policy),
    )
    system.run()
    st = system.controller.stats
    per_core = []
    for i, core in enumerate(system.cores):
        win = system.window(i)
        per_core.append({
            "ipc": _hex(core.ipc()),
            "finish_cycle": core.finish_cycle,
            "reads": win.read_count,
            "avg_read_latency": _hex(win.avg_read_latency),
            "bytes_total": win.bytes_total,
        })
    refresh_sched = getattr(system.controller, "refresh", None)
    return {
        "budget": budget,
        "end_cycle": system.end_cycle,
        "row_hit_rate": _hex(system.dram.row_hit_rate()),
        "drain_entries": st.drain_entries,
        "events_processed": system.engine.events_processed,
        "clamped_events": system.engine.clamped_events,
        "transactions": system.dram.total_transactions,
        "activations": system.dram.total_activations,
        "read_latency_sum": list(st.read_latency_sum),
        "read_latency_max": list(st.read_latency_max),
        "refreshes_issued": (
            refresh_sched.refreshes_issued if refresh_sched is not None else 0
        ),
        "per_core": per_core,
    }


@pytest.fixture(scope="module")
def snapshot():
    return {
        "mix": MIX,
        "warmup": WARMUP,
        "runs": {
            name: _fingerprint(*spec) for name, spec in VARIANTS.items()
        },
    }


def test_golden_variants_bit_identical(snapshot):
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        GOLDEN_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    golden = json.loads(GOLDEN_PATH.read_text())
    diffs = _diff_paths(golden, snapshot)
    assert not diffs, (
        "refresh/split statistics drifted from the golden snapshot:\n  "
        + "\n  ".join(diffs[:40])
    )


def test_variants_exercise_their_feature(snapshot):
    """A refresh golden with no refreshes would pin nothing."""
    assert snapshot["runs"]["refresh"]["refreshes_issued"] > 0
    assert snapshot["runs"]["split"]["refreshes_issued"] == 0
