"""Determinism contract of the parallel sharded experiment runner.

Three guarantees, each pinned here:

* sharding cells over worker processes (``jobs`` 2..4) produces figure
  tables equal to the serial path, element for element;
* the parallel execution path reproduces the checked-in golden
  float-hex fingerprints (``tests/golden/golden_stats.json``) exactly —
  the bit-identity contract extends to worker processes;
* a cache hit returns the identical result without re-simulating.

The :class:`TaskBoard` rules behind ``run_cells`` (dedup, retry budget,
ME-profile gating, ready order) are pinned at the end of the file: the
board is pure, so each rule is checked without a pool.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.config import SystemConfig
from repro.experiments.cache import ResultCache
from repro.experiments.cells import (
    ME_FAMILY,
    Cell,
    eval_cell_key,
    profile_cell_key,
)
from repro.experiments.ablations import (
    ablation_lookahead,
    ablation_page_policy,
    ablation_table_bits,
    ablation_write_drain,
)
from repro.experiments.figure2 import run_figure2
from repro.experiments.harness import ExperimentContext
from repro.experiments.parallel import (
    TaskBoard,
    merge_into,
    plan_cells,
    run_cells,
)
from repro.experiments.table2 import run_table2
from repro.metrics.memory_efficiency import MeProfile
from repro.workloads.mixes import workload_by_name

GOLDEN_PATH = Path(__file__).parent / "golden" / "golden_stats.json"

# Small budgets keep the determinism checks fast; bit-identity does not
# depend on run length.
BUDGET = 300
WARMUP = 200
PROFILE = 200
SEED = 7


def _ctx(**overrides) -> ExperimentContext:
    kw = dict(inst_budget=BUDGET, warmup_insts=WARMUP,
              profile_budget=PROFILE, seeds=(SEED,))
    kw.update(overrides)
    return ExperimentContext(**kw)


def _figure2_rows(ctx):
    return run_figure2(ctx, core_counts=(2,), groups=("MEM",))


def _ablation_rows(ctx):
    return (ablation_table_bits(ctx), ablation_page_policy(ctx),
            ablation_write_drain(ctx), ablation_lookahead(ctx))


#: section -> (plan_cells keyword arguments, rendered rows of the section)
SECTIONS = {
    "figure2": ({"figure2": ((2,), ("MEM",))}, _figure2_rows),
    "table2": ({"table2": True}, run_table2),
    "ablations": ({"ablations": True}, _ablation_rows),
}


@pytest.fixture(scope="module")
def serial_rows():
    return _figure2_rows(_ctx())


@pytest.mark.parametrize("section,jobs", [
    pytest.param("figure2", 2, id="2"),
    pytest.param("figure2", 4, id="4"),
    pytest.param("table2", 2, id="table2-2"),
    pytest.param("ablations", 2, id="ablations-2"),
])
def test_parallel_figure2_matches_serial(serial_rows, section, jobs):
    """Every cell kind (profile, single, eval, custom) prewarmed over a
    pool renders the same rows as the serial harness."""
    plan, render = SECTIONS[section]
    ctx = _ctx()
    cells = plan_cells(ctx, **plan)
    report = run_cells(cells, jobs=jobs)
    assert not report.failures, report.failure_report()
    merge_into(ctx, report)
    want = serial_rows if section == "figure2" else render(_ctx())
    assert render(ctx) == want
    # every cell came from the prewarm, none from in-section simulation
    assert report.executed == len(cells)


def test_serial_order_is_single_core_then_multi_core_in_key_order():
    """``--jobs 1`` runs profile/single cells first, then multi-core
    cells, each in canonical key order: the trace replay cache holds a
    mix's streams only while its cells run back to back."""
    from repro.telemetry.bus import TelemetryBus

    cells = plan_cells(_ctx(), figure2=((2,), ("MEM",)))
    bus = TelemetryBus()
    run_cells(list(reversed(cells)), jobs=1, bus=bus)
    order = [e.args["key"] for e in bus.named("experiment.cell")]
    single = sorted(c.key.key_str() for c in cells
                    if c.key.kind in ("profile", "single"))
    multi = sorted(c.key.key_str() for c in cells
                   if c.key.kind not in ("profile", "single"))
    assert order == single + multi


def test_merge_order_is_key_order_not_completion_order(serial_rows):
    """Shuffling the submitted cell order must not change anything:
    results are merged in canonical key order by construction."""
    ctx = _ctx()
    cells = plan_cells(ctx, figure2=((2,), ("MEM",)))
    report = run_cells(list(reversed(cells)), jobs=2)
    assert list(report.results) == sorted(
        report.results, key=lambda k: k.key_str()
    )
    merge_into(ctx, report)
    assert _figure2_rows(ctx) == serial_rows


def test_parallel_reproduces_golden_fingerprints():
    """Worker-process results must match the checked-in golden stats
    (same float bits, compared through ``float.hex``)."""
    golden = json.loads(GOLDEN_PATH.read_text())["runs"]
    cfg = SystemConfig()
    mix = workload_by_name("4MEM-1")
    cells: list[Cell] = []
    for policy in ("HF-RF", "ME-LREQ", "RR", "LREQ"):
        key = eval_cell_key(mix.name, policy, 7, 2500, 2000, 256, cfg, 2000)
        deps = ()
        if policy in ME_FAMILY:
            deps = tuple(profile_cell_key(c, 7, 2000, cfg)
                         for c in mix.codes)
            cells.extend(Cell(key=d, config=cfg) for d in deps)
        cells.append(Cell(key=key, config=cfg, me_deps=deps))
    report = run_cells(cells, jobs=2)
    assert not report.failures, report.failure_report()
    by_policy = {k.policy: v for k, v in report.results.items()
                 if k.kind == "eval"}
    for policy, want in golden.items():
        got = by_policy[policy]
        assert got.end_cycle == want["end_cycle"], policy
        assert got.row_hit_rate.hex() == want["row_hit_rate"], policy
        assert got.drain_entries == want["drain_entries"], policy
        for core, w in zip(got.per_core, want["per_core"]):
            assert core.app == w["app"]
            assert core.ipc.hex() == w["ipc"]
            assert core.finish_cycle == w["finish_cycle"]
            assert core.reads == w["reads"]
            assert core.avg_read_latency.hex() == w["avg_read_latency"]
            assert core.bytes_total == w["bytes_total"]
            assert core.bw_gbps.hex() == w["bw_gbps"]


def test_cache_hits_return_identical_results_without_resimulating(
    tmp_path, serial_rows
):
    cells_ctx = _ctx()
    cells = plan_cells(cells_ctx, figure2=((2,), ("MEM",)))

    first = ResultCache(root=tmp_path, mode="rw")
    warm = run_cells(cells, jobs=2, cache=first)
    assert warm.executed == len(cells) and warm.cache_hits == 0

    second = ResultCache(root=tmp_path, mode="rw")
    ctx = _ctx(cache=second)
    report = run_cells(cells, jobs=2, cache=second)
    assert report.executed == 0
    assert report.cache_hits == len(cells)
    assert second.stats.hits == len(cells)
    assert second.stats.misses == 0
    assert report.results == warm.results  # bit-exact payload round-trip
    merge_into(ctx, report)
    assert _figure2_rows(ctx) == serial_rows


def test_write_mode_never_reads_but_leaves_resumable_trail(tmp_path):
    all_cells = plan_cells(_ctx(), figure2=((2,), ("MEM",)))
    cells = [c for c in all_cells if c.key.policy == "HF-RF"][:3]
    cache = ResultCache(root=tmp_path, mode="write")
    rep = run_cells(cells, jobs=1, cache=cache)
    assert rep.executed == len(cells)
    assert cache.stats.writes == len(cells)

    again = ResultCache(root=tmp_path, mode="write")
    rep2 = run_cells(cells, jobs=1, cache=again)
    assert rep2.cache_hits == 0 and rep2.executed == len(cells)

    resumed = ResultCache(root=tmp_path, mode="rw")
    rep3 = run_cells(cells, jobs=1, cache=resumed)
    assert rep3.cache_hits == len(cells) and rep3.executed == 0
    assert rep3.results == rep.results


def test_progress_events_on_bus():
    from repro.telemetry.bus import TelemetryBus

    bus = TelemetryBus()
    all_cells = plan_cells(_ctx(), figure2=((2,), ("MEM",)))
    cells = [c for c in all_cells if c.key.policy == "HF-RF"][:4]
    run_cells(cells, jobs=1, bus=bus)
    done = bus.named("experiment.cell")
    assert len(done) == len(cells)
    assert [e.args["done"] for e in done] == list(range(1, len(cells) + 1))
    assert all(e.args["total"] == len(cells) for e in done)
    assert all(e.args["status"] == "run" for e in done)
    stats = bus.named("experiment.cache")
    assert len(stats) == 1


# -- the task board ---------------------------------------------------------------

CFG = SystemConfig()


def _eval_cell(policy: str, mix: str = "4MEM-1", codes: str = "") -> Cell:
    key = eval_cell_key(mix, policy, SEED, BUDGET, WARMUP, 256, CFG, PROFILE)
    deps = tuple(profile_cell_key(c, SEED, PROFILE, CFG) for c in codes)
    return Cell(key=key, config=CFG, me_deps=deps)


def _profile_cell(code: str) -> Cell:
    return Cell(key=profile_cell_key(code, SEED, PROFILE, CFG), config=CFG)


def _me_profile(code: str, me: float) -> MeProfile:
    return MeProfile(app=f"app{code}", code=code, ipc=1.0, bw_gbps=1.0,
                     me=me, avg_read_latency=100.0)


def test_board_add_is_idempotent():
    board = TaskBoard()
    a = board.add(_eval_cell("HF-RF"))
    b = board.add(_eval_cell("HF-RF"))
    assert a is b
    assert len(board.tasks) == 1


def test_retry_budget_requeues_then_fails():
    board = TaskBoard(max_attempts=2)
    state = board.add(_eval_cell("HF-RF"))
    board.lease(state)
    assert state.attempts == 1
    assert board.release(state, "boom") == "pending"  # budget left
    board.lease(state)
    assert board.release(state, "boom again") == "failed"  # exhausted
    assert state.status == "failed"
    assert state.error == "boom again"
    assert board.counts()["failed"] == 1


def test_me_cell_blocked_until_profiles_settle_then_resolved():
    board = TaskBoard()
    me = board.add(_eval_cell("ME-LREQ", codes="EF"))
    p_e = board.add(_profile_cell("E"))
    p_f = board.add(_profile_cell("F"))
    ready = board.ready()
    assert me not in ready and p_e in ready and p_f in ready

    board.mark_done(p_e.digest, _me_profile("E", 1.5))
    assert me not in board.ready()  # one dependency still pending
    board.mark_done(p_f.digest, _me_profile("F", 0.25))
    assert me in board.ready()

    resolved = board.resolve(me)
    assert resolved.me_values == (1.5, 0.25)
    assert me.cell.me_values is None  # board state untouched


def test_failed_or_absent_dependency_does_not_block():
    board = TaskBoard(max_attempts=1)
    # dependencies never registered on the board at all
    orphan = board.add(_eval_cell("ME-LREQ", mix="4MIX-1", codes="EF"))
    assert orphan in board.ready()
    assert board.resolve(orphan).me_values is None  # cell profiles itself

    # dependency registered but permanently failed
    me = board.add(_eval_cell("ME-LREQ", codes="E"))
    dep = board.add(_profile_cell("E"))
    board.lease(dep)
    assert me not in board.ready()
    board.release(dep, "boom")
    assert dep.status == "failed"
    assert me in board.ready()
    assert board.resolve(me).me_values is None


def test_non_me_policies_never_consult_dependencies():
    board = TaskBoard()
    cell = _eval_cell("HF-RF", codes="EF")  # deps present but irrelevant
    state = board.add(cell)
    assert state in board.ready()
    assert board.resolve(state) is cell


def test_ready_is_sorted_by_canonical_key():
    board = TaskBoard()
    for policy in ("RR", "HF-RF", "LREQ"):
        board.add(_eval_cell(policy))
    keys = [s.cell.key.key_str() for s in board.ready()]
    assert keys == sorted(keys)


def test_max_attempts_must_be_positive():
    with pytest.raises(ValueError):
        TaskBoard(max_attempts=0)
