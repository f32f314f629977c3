"""Stride prefetcher: Baer-Chen state machine and 16-data lookahead."""

from repro.config import PrefetcherConfig
from repro.memory import StridePrefetcher


def pf(degree=16, enabled=True):
    return StridePrefetcher(PrefetcherConfig(enabled=enabled, degree=degree),
                            line_bytes=64)


def train_stream(p, pc, start, stride, n, miss=True):
    out = []
    for i in range(n):
        out = p.train(pc, start + i * stride, miss=miss)
    return out


class TestStrideDetection:
    def test_needs_stable_stride(self):
        p = pf()
        assert p.train(0x100, 0x1000, miss=True) == []
        assert p.train(0x100, 0x1040, miss=True) == []   # first stride seen
        # second identical stride -> steady -> prefetch
        assert p.train(0x100, 0x1080, miss=True) != []

    def test_no_prefetch_on_hit(self):
        p = pf()
        train_stream(p, 0x100, 0x1000, 64, 3)
        assert p.train(0x100, 0x10C0, miss=False) == []

    def test_disabled(self):
        p = pf(enabled=False)
        assert train_stream(p, 0x100, 0x1000, 64, 5) == []

    def test_stride_change_resets(self):
        p = pf()
        train_stream(p, 0x100, 0x1000, 64, 4)
        assert p.train(0x100, 0x5000, miss=True) == []   # broken stride

    def test_zero_stride_no_prefetch(self):
        p = pf()
        for _ in range(5):
            out = p.train(0x100, 0x1000, miss=True)
        assert out == []

    def test_negative_stride(self):
        p = pf()
        out = train_stream(p, 0x100, 0x10000, -64, 4)
        assert out
        assert all(a < 0x10000 for a in out)


class TestLookahead:
    def test_sixteen_data_lookahead_small_stride(self):
        """Table 1: '16-data prefetch' — 16 *elements*, so a 16-byte
        stride covers only ~4 lines of lookahead, far short of hiding a
        300-cycle latency (this is why libquantum stays slow)."""
        p = pf(degree=16)
        out = train_stream(p, 0x100, 0x10000, 16, 4)
        # 16 * 16B = 256B of lookahead = at most 5 distinct lines
        assert 4 <= len(out) <= 5
        span = max(out) - min(out)
        assert span <= 256

    def test_line_stride_gives_sixteen_lines(self):
        p = pf(degree=16)
        out = train_stream(p, 0x100, 0x10000, 64, 4)
        assert len(out) == 16

    def test_candidates_are_line_aligned(self):
        p = pf(degree=16)
        out = train_stream(p, 0x100, 0x8, 24, 3)
        assert all(a % 64 == 0 for a in out)

    def test_candidates_deduplicated(self):
        p = pf(degree=16)
        out = train_stream(p, 0x100, 0x0, 8, 3)
        assert len(out) == len(set(out))


class TestTable:
    def test_per_pc_entries_independent(self):
        p = pf()
        train_stream(p, 0x100, 0x0, 64, 4)
        # a different PC with no history must not prefetch yet
        assert p.train(0x200, 0x9000, miss=True) == []

    def test_table_capacity_eviction(self):
        p = StridePrefetcher(
            PrefetcherConfig(table_entries=4, table_assoc=2), line_bytes=64)
        # all PCs map somewhere in 2 sets of 2 ways; flood them
        for pc in range(0x100, 0x100 + 4 * 40, 4):
            p.train(pc, 0x1000, miss=True)
        total = sum(len(s) for s in p._sets.values())
        assert total <= 4

    def test_reset(self):
        p = pf()
        train_stream(p, 0x100, 0x0, 64, 4)
        p.reset()
        assert p.trained == 0
        assert p.train(0x100, 0x100, miss=True) == []
