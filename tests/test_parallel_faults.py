"""Robustness of the parallel runner: crashes, resume, corruption.

* a worker that raises is retried once, then reported with its cell key
  — the pool never hangs;
* an interrupted run resumes from the on-disk cache, completing only the
  missing cells;
* a corrupted / truncated cache entry is detected (payload digest
  mismatch) and recomputed, never trusted;
* entries written by a different code revision are treated as stale;
* concurrent invocations sharing one cache directory serialise their
  writes on its :class:`DirLock` and leave only valid entries.

Fault injection goes through the ``REPRO_PARALLEL_FAULT*`` env hooks in
:mod:`repro.experiments.cells` (they match a substring of the cell key
and only exist for these tests).
"""

from __future__ import annotations

import json
import multiprocessing
import os

import pytest

from repro.config import SystemConfig
from repro.experiments.cache import DirLock, ResultCache, payload_sha
from repro.experiments.cells import CellFault, eval_cell_key, execute_cell
from repro.experiments.harness import ExperimentContext
from repro.experiments.parallel import plan_cells, run_cells
from repro.sim.runner import CoreResult

BUDGET = 300
WARMUP = 200
PROFILE = 200
SEED = 7


def _ctx(**overrides) -> ExperimentContext:
    kw = dict(inst_budget=BUDGET, warmup_insts=WARMUP,
              profile_budget=PROFILE, seeds=(SEED,))
    kw.update(overrides)
    return ExperimentContext(**kw)


@pytest.fixture()
def cells():
    all_cells = plan_cells(_ctx(), figure2=((2,), ("MEM",)))
    # two eval cells plus the two single-core baselines behind them
    return [c for c in all_cells
            if c.key.workload in ("2MEM-1", "b", "c")
            and c.key.policy in ("HF-RF", "LREQ", "")]


def _fault_key(cells):
    """Pick one eval cell to sabotage; returns (cell, unique substring)."""
    target = next(c for c in cells if c.key.kind == "eval")
    return target, target.key.key_str()


def test_fault_hook_raises(monkeypatch, cells):
    target, pattern = _fault_key(cells)
    monkeypatch.setenv("REPRO_PARALLEL_FAULT", pattern)
    with pytest.raises(CellFault):
        execute_cell(target, attempt=0)
    # the retry attempt is clean unless FAULT_ALWAYS is set
    result = execute_cell(target, attempt=1)
    assert result is not None


@pytest.mark.parametrize("jobs", [1, 2])
def test_crashed_cell_is_retried_once_and_succeeds(monkeypatch, cells, jobs):
    target, pattern = _fault_key(cells)
    baseline = run_cells(cells, jobs=1)

    monkeypatch.setenv("REPRO_PARALLEL_FAULT", pattern)
    report = run_cells(cells, jobs=jobs)
    assert not report.failures, report.failure_report()
    assert pattern in report.retried
    assert report.results == baseline.results


def test_persistent_crash_is_reported_with_cell_key(monkeypatch, cells):
    target, pattern = _fault_key(cells)
    monkeypatch.setenv("REPRO_PARALLEL_FAULT", pattern)
    monkeypatch.setenv("REPRO_PARALLEL_FAULT_ALWAYS", "1")
    report = run_cells(cells, jobs=2)
    assert len(report.failures) == 1
    failure = report.failures[0]
    assert failure.key_str == pattern
    assert failure.attempts == 2
    assert "CellFault" in failure.error
    assert target.key not in report.results
    # every other cell still completed
    assert len(report.results) == len(cells) - 1
    assert pattern in report.failure_report()


def test_hard_worker_crash_falls_back_serially(monkeypatch, cells):
    """A worker dying without raising (os._exit) breaks the pool; the
    runner must finish the round in-parent instead of hanging."""
    target, pattern = _fault_key(cells)
    baseline = run_cells(cells, jobs=1)

    monkeypatch.setenv("REPRO_PARALLEL_FAULT", pattern)
    monkeypatch.setenv("REPRO_PARALLEL_FAULT_KIND", "exit")
    report = run_cells(cells, jobs=2)
    assert report.pool_broken
    assert not report.failures, report.failure_report()
    assert report.results == baseline.results


@pytest.mark.parametrize("jobs", [1, 2])
def test_failed_profile_does_not_fail_its_me_dependents(monkeypatch, jobs):
    """A profile cell that fails for good leaves its ME-LREQ dependents
    ready: they profile in-process and match the fault-free results."""
    cells = [c for c in plan_cells(_ctx(), figure2=((2,), ("MEM",)))
             if c.key.workload in ("2MEM-1", "b", "c")
             and c.key.policy in ("ME-LREQ", "")]
    target = next(c for c in cells
                  if c.key.kind == "profile" and c.key.workload == "b")
    pattern = target.key.key_str()
    baseline = run_cells(cells, jobs=1)

    monkeypatch.setenv("REPRO_PARALLEL_FAULT", pattern)
    monkeypatch.setenv("REPRO_PARALLEL_FAULT_ALWAYS", "1")
    report = run_cells(cells, jobs=jobs)
    assert [f.key_str for f in report.failures] == [pattern]
    dependents = [c.key for c in cells if target.key in c.me_deps]
    assert dependents
    for key in dependents:
        assert report.results[key] == baseline.results[key]


def test_interrupted_run_resumes_only_missing_cells(tmp_path, cells):
    # "interrupt" after a prefix of the work: only some cells got cached
    done = cells[: len(cells) // 2]
    first = ResultCache(root=tmp_path, mode="rw")
    run_cells(done, jobs=1, cache=first)
    assert first.stats.writes == len(done)

    resumed = ResultCache(root=tmp_path, mode="rw")
    report = run_cells(cells, jobs=2, cache=resumed)
    assert report.cache_hits == len(done)
    assert report.executed == len(cells) - len(done)
    assert len(report.results) == len(cells)

    # and the completed trail makes a third pass simulation-free
    final = ResultCache(root=tmp_path, mode="rw")
    again = run_cells(cells, jobs=1, cache=final)
    assert again.executed == 0 and again.cache_hits == len(cells)


def test_corrupted_cache_entry_is_recomputed(tmp_path, cells):
    pristine = ResultCache(root=tmp_path, mode="rw")
    baseline = run_cells(cells, jobs=1, cache=pristine)

    entries = sorted(tmp_path.glob("*.json"))
    assert len(entries) == len(cells)
    # flip a payload bit in one entry, truncate another
    doc = json.loads(entries[0].read_text())
    doc["payload"]["end_cycle"] = doc["payload"].get("end_cycle", 0) + 1
    entries[0].write_text(json.dumps(doc))
    entries[1].write_text(entries[1].read_text()[: 40])

    cache = ResultCache(root=tmp_path, mode="rw")
    report = run_cells(cells, jobs=1, cache=cache)
    assert cache.stats.corrupt == 2
    assert report.executed == 2  # only the damaged entries re-simulate
    assert report.cache_hits == len(cells) - 2
    assert report.results == baseline.results

    # the recompute healed the damaged entries on disk
    healed = ResultCache(root=tmp_path, mode="rw")
    again = run_cells(cells, jobs=1, cache=healed)
    assert again.cache_hits == len(cells) and healed.stats.corrupt == 0


def test_stale_code_fingerprint_invalidates(tmp_path, monkeypatch, cells):
    monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "rev-a")
    run_cells(cells, jobs=1, cache=ResultCache(root=tmp_path, mode="rw"))

    monkeypatch.setenv("REPRO_CODE_FINGERPRINT", "rev-b")
    cache = ResultCache(root=tmp_path, mode="rw")
    report = run_cells(cells, jobs=1, cache=cache)
    assert cache.stats.stale == len(cells)
    assert report.executed == len(cells) and report.cache_hits == 0


# -- concurrent invocations on one cache directory --------------------------------


def _key(policy: str = "HF-RF"):
    return eval_cell_key("4MEM-1", policy, SEED, BUDGET, WARMUP, 256,
                         SystemConfig(), PROFILE)


def _result() -> CoreResult:
    return CoreResult(app="art", code="E", core_id=0, ipc=0.5,
                      finish_cycle=1000, committed=300, reads=10,
                      avg_read_latency=200.0, bytes_total=640,
                      bw_gbps=1.25)


def _locked_increments(root: str, counter: str, iters: int) -> None:
    lock = DirLock(root)
    for _ in range(iters):
        with lock.held():
            value = int(open(counter).read())
            open(counter, "w").write(str(value + 1))


def test_dirlock_serialises_concurrent_processes(tmp_path):
    """A read-modify-write cycle under the lock must never lose an
    update across processes — the property the cache-entry writes of
    concurrent invocations rely on."""
    counter = tmp_path / "counter"
    counter.write_text("0")
    procs = [
        multiprocessing.Process(
            target=_locked_increments,
            args=(str(tmp_path), str(counter), 50),
        )
        for _ in range(4)
    ]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    assert int(counter.read_text()) == 4 * 50


def _put_many(root: str, n: int) -> None:
    cache = ResultCache(root=root, mode="rw")
    result = _result()
    for i in range(n):
        cache.put(_key(f"P{i % 5}"), result)


def test_concurrent_cache_writers_leave_only_valid_entries(tmp_path):
    """Two invocations hammering the same five entries: every surviving
    file must parse and verify (no interleaved/torn writes), and no
    temp files leak."""
    procs = [multiprocessing.Process(target=_put_many,
                                     args=(str(tmp_path), 40))
             for _ in range(3)]
    for p in procs:
        p.start()
    for p in procs:
        p.join(timeout=60)
        assert p.exitcode == 0
    entries = list(tmp_path.glob("*.json"))
    assert len(entries) == 5
    for path in entries:
        doc = json.loads(path.read_text())
        assert payload_sha(doc["payload"]) == doc["sha"]
    assert not list(tmp_path.glob("*.tmp.*"))
    assert (tmp_path / DirLock.LOCK_NAME).exists()


def test_lockfile_is_not_mistaken_for_an_entry(tmp_path):
    cache = ResultCache(root=tmp_path, mode="rw")
    cache.put(_key(), _result())
    assert (tmp_path / ".lock").exists()
    assert cache.get(_key()) == _result()
    assert os.path.basename(cache._path(_key())) != DirLock.LOCK_NAME
