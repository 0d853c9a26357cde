"""Property-based, full-stack invariants under randomly generated traces.

Hypothesis drives small random programs through the complete machine and
checks invariants that must hold for *any* workload under *any* policy:
causality (no response before request), conservation (requests neither
lost nor duplicated), monotone commit, and cross-policy functional
equivalence (scheduling may reorder, never change, the work done).
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.config import SystemConfig
from repro.core import make_policy
from repro.cpu.trace import ListTrace, MemOp
from repro.sim.system import MultiCoreSystem

CFG1 = SystemConfig(num_cores=1)
CFG2 = SystemConfig(num_cores=2)

# Small random programs: gaps up to 50, a handful of 64 B-aligned lines
# spread over regions that hit different banks/rows.
#: back-to-back loads of 60 distinct lines: more misses than one core has
#: MSHRs, so fetch stalls structurally and retries (pinned as an example
#: so the counter ledger is always checked across a blocked access)
DENSE_MISSES = [(0, line, False) for line in range(60)]

ops_strategy = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=50),  # gap
        st.integers(min_value=0, max_value=255),  # line selector
        st.booleans(),  # store?
    ),
    min_size=1,
    max_size=60,
)


def build_trace(raw):
    return ListTrace(
        [MemOp(gap, (line * 73 % 4096) * 64 * 513, w) for gap, line, w in raw]
    )


def total_insts(raw):
    return sum(gap + 1 for gap, _, _ in raw)


def assert_counter_ledger(sys_):
    """Every reference is charged once, by its actual result: blocked
    attempts are structural stalls, not extra accesses or misses."""
    h = sys_.hierarchy
    for i, core in enumerate(sys_.cores):
        l1 = h.l1d[i].stats
        assert h.demand_accesses[i] == core.stats.loads + core.stats.stores
        assert l1.hits + l1.misses == h.demand_accesses[i]
    l2 = h.l2.stats
    assert sum(c.stats.misses for c in h.l1d) == l2.hits + l2.misses
    assert l2.misses == sum(h.l2_misses) + sum(m.merges for m in h.mshrs)


class TestSingleCoreInvariants:
    @settings(max_examples=30, deadline=None)
    @given(ops_strategy)
    @example(DENSE_MISSES)
    def test_causality_and_conservation(self, raw):
        trace = build_trace(raw)
        target = total_insts(raw) + 20
        sys_ = MultiCoreSystem(CFG1, make_policy("HF-RF"), [trace], target)
        sys_.run()
        core = sys_.cores[0]
        assert core.finish_cycle is not None
        assert core.committed >= target
        # every load/store accounted for
        assert core.stats.loads + core.stats.stores == len(raw)
        # no response precedes its request
        st_ = sys_.controller.stats
        assert all(v >= 0 for v in st_.read_latency_sum)
        # bytes moved == transactions * line size
        lines = sum(st_.read_count) + sum(st_.write_count)
        assert sum(st_.bytes_read) + sum(st_.bytes_written) == 64 * lines
        assert_counter_ledger(sys_)

    @settings(max_examples=15, deadline=None)
    @given(ops_strategy)
    def test_finish_cycle_lower_bound(self, raw):
        """A core can never finish faster than ideal issue width allows."""
        trace = build_trace(raw)
        target = total_insts(raw)
        sys_ = MultiCoreSystem(CFG1, make_policy("HF-RF"), [trace], target)
        sys_.run()
        ideal = (target + CFG1.core.issue_width - 1) // CFG1.core.issue_width
        assert sys_.cores[0].finish_cycle >= ideal

    @settings(max_examples=15, deadline=None)
    @given(ops_strategy, st.sampled_from(["FCFS", "HF-RF", "LREQ", "RR"]))
    def test_policy_does_not_change_work(self, raw, policy):
        """Scheduling reorders service; committed work must be identical."""
        trace = build_trace(raw)
        target = total_insts(raw) + 20
        sys_ = MultiCoreSystem(CFG1, make_policy(policy), [trace], target)
        sys_.run()
        core = sys_.cores[0]
        assert core.stats.loads + core.stats.stores == len(raw)


class TestTwoCoreInvariants:
    @settings(max_examples=15, deadline=None)
    @given(ops_strategy, ops_strategy)
    @example(DENSE_MISSES, DENSE_MISSES)
    def test_two_cores_both_finish(self, raw_a, raw_b):
        traces = [build_trace(raw_a), build_trace(raw_b)]
        target = max(total_insts(raw_a), total_insts(raw_b)) + 20
        sys_ = MultiCoreSystem(CFG2, make_policy("LREQ"), traces, target)
        sys_.run()
        assert all(c.finished for c in sys_.cores)
        # per-core accounting is independent
        for i, raw in enumerate((raw_a, raw_b)):
            c = sys_.cores[i]
            assert c.stats.loads + c.stats.stores >= len(raw)
        assert_counter_ledger(sys_)

    @settings(max_examples=10, deadline=None)
    @given(ops_strategy)
    def test_identical_programs_roughly_symmetric(self, raw):
        """Two cores running the same program under RR finish near each
        other (no systematic asymmetry in the machine)."""
        traces = [build_trace(raw), build_trace(list(raw))]
        target = total_insts(raw) + 20
        sys_ = MultiCoreSystem(CFG2, make_policy("RR"), traces, target)
        sys_.run()
        a, b = (c.finish_cycle for c in sys_.cores)
        assert abs(a - b) <= max(a, b) * 0.5 + 200
