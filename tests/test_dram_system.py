"""Tests for the assembled DRAM system."""

from repro.config import DramTimingConfig, DramTopologyConfig
from repro.dram.dram_system import DramSystem


def make_system():
    return DramSystem(DramTopologyConfig(), DramTimingConfig(), line_bytes=64)


class TestRouting:
    def test_channel_count(self):
        sys_ = make_system()
        assert len(sys_.channels) == 2
        assert all(ch.num_banks == len(ch.ready) == 16 for ch in sys_.channels)

    def test_execute_routes_to_decoded_channel(self):
        sys_ = make_system()
        addr = 64  # line 1 -> channel 1
        coord = sys_.coord(addr)
        assert coord.channel == 1
        sys_.execute(coord, 0, is_write=False, keep_open=False)
        assert sys_.channels[1].transactions == 1
        assert sys_.channels[0].transactions == 0

    def test_row_hit_query(self):
        sys_ = make_system()
        coord = sys_.coord(0)
        assert not sys_.is_row_hit(coord)
        sys_.execute(coord, 0, is_write=False, keep_open=True)
        assert sys_.is_row_hit(coord)


class TestStats:
    def test_aggregates(self):
        sys_ = make_system()
        c = sys_.coord(0)
        sys_.execute(c, 0, is_write=False, keep_open=True)
        sys_.execute(c, 500, is_write=False, keep_open=True)
        assert sys_.total_transactions == 2
        assert sys_.total_row_hits == 1
        assert sys_.total_activations == 1
        assert sys_.row_hit_rate() == 0.5

    def test_empty_hit_rate(self):
        assert make_system().row_hit_rate() == 0.0

    def test_reset(self):
        sys_ = make_system()
        sys_.execute(sys_.coord(0), 0, is_write=False, keep_open=True)
        sys_.reset()
        assert sys_.total_transactions == 0
        assert not sys_.is_row_hit(sys_.coord(0))
