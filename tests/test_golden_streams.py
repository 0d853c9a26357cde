"""Golden reference streams: the bit-identity contract for trace generation.

The other golden files pin what a simulation *does* with its reference
streams; this one pins the streams themselves.  Each entry is a SHA-256
over ``(gap, addr, is_write)`` of the first ``OPS`` operations of one
deterministic stream:

* every SPEC CPU2000 model (seed 1, ``eval`` phase, core 0);
* three models on the ``profile`` phase at core 3 (other derived seed,
  other address space);
* one phased profile (``phase_period > 0``, the online-ME ablation's
  runtime behaviour change);
* one open-loop cloud stream per service.

A change to how draws are made (a faster RNG path, a reordered draw, a
different integer reduction) shows here first, by stream name, before it
reaches a simulated statistic.  Regenerate only when the streams are
meant to change::

    REPRO_REGEN_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_golden_streams.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import pytest

from repro.workloads.cloud import SERVICES, make_cloud_trace
from repro.workloads.spec2000 import APPS, app_by_code
from repro.workloads.synthetic import _raw_trace

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_streams.json"

SEED = 1
OPS = 50_000
#: (code, phase, core) of the extra profiling-phase streams
PROFILE_STREAMS = (("c", 3), ("k", 3), ("a", 3))
#: the phased stream: a streaming MEM code alternating its miss rate
PHASED_CODE = "d"
PHASED_PERIOD = 1_000


def _streams() -> dict:
    """Stream name -> zero-argument factory of a fresh trace source."""
    out = {}
    for app in APPS:
        out[f"eval/core0/{app.name}"] = (
            lambda app=app: _raw_trace(app, SEED, "eval", 0)
        )
    for code, core in PROFILE_STREAMS:
        app = app_by_code(code)
        out[f"profile/core{core}/{app.name}"] = (
            lambda app=app, core=core: _raw_trace(app, SEED, "profile", core)
        )
    phased = dataclasses.replace(
        app_by_code(PHASED_CODE), phase_period=PHASED_PERIOD
    )
    out[f"phased/core0/{phased.name}"] = (
        lambda: _raw_trace(phased, SEED, "eval", 0)
    )
    for service in SERVICES:
        out[f"cloud/core0/{service.name}"] = (
            lambda service=service: make_cloud_trace(service, SEED, "eval", 0)
        )
    return out


STREAMS = _streams()


def stream_digest(source, n: int = OPS) -> str:
    """SHA-256 over the text ``gap,addr,is_write`` lines of ``n`` ops."""
    lines = []
    for _ in range(n):
        op = source.next_op()
        lines.append(f"{op.gap},{op.addr},{int(op.is_write)}\n")
    return hashlib.sha256("".join(lines).encode()).hexdigest()


def _golden() -> dict:
    return json.loads(GOLDEN_PATH.read_text())


def test_golden_covers_every_stream():
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        snapshot = {
            "seed": SEED,
            "ops": OPS,
            "sha256": {name: stream_digest(make()) for name, make in STREAMS.items()},
        }
        GOLDEN_PATH.write_text(json.dumps(snapshot, indent=2) + "\n")
        pytest.skip(f"regenerated {GOLDEN_PATH}")
    golden = _golden()
    assert golden["seed"] == SEED and golden["ops"] == OPS
    assert sorted(golden["sha256"]) == sorted(STREAMS)


def test_phased_stream_changes_phase():
    """A phased golden whose 50k ops never left phase 0 would pin nothing."""
    src = STREAMS[f"phased/core0/{app_by_code(PHASED_CODE).name}"]()
    assert src.profile.phase_period > 0
    assert OPS > 2 * src.profile.phase_period + src._prologue_left


@pytest.mark.parametrize("name", sorted(STREAMS))
def test_stream_bit_identical(name):
    if os.environ.get("REPRO_REGEN_GOLDEN"):
        pytest.skip("regenerating")
    assert stream_digest(STREAMS[name]()) == _golden()["sha256"][name], (
        f"reference stream {name!r} drifted from the golden digest"
    )
