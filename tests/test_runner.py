"""Experiment runner machinery: Settings, Sweep caching, CLI parsing."""

import pytest

from repro.config import base_config, fixed_config
from repro.experiments.parallel import _memo_trace
from repro.experiments.runner import (
    Settings,
    Sweep,
    cli_settings,
    quick_settings,
    render_table,
)


class TestSettings:
    def test_defaults(self):
        s = Settings()
        assert s.all_programs
        assert s.trace_ops == s.warmup + s.measure + 1000

    def test_selected_subset(self):
        s = Settings(all_programs=False)
        assert len(s.programs()) == 14
        assert len(s.memory_programs()) == 8
        assert len(s.compute_programs()) == 6

    def test_full_set_partitions(self):
        s = Settings()
        mem, comp = s.memory_programs(), s.compute_programs()
        assert set(mem) | set(comp) == set(s.programs())
        assert not set(mem) & set(comp)

    def test_quick_settings_smaller(self):
        q = quick_settings()
        assert not q.all_programs
        assert q.measure < Settings().measure

    def test_frozen(self):
        with pytest.raises(Exception):
            Settings().measure = 5


class TestSweepCache:
    @pytest.fixture(scope="class")
    def sweep(self):
        return Sweep(Settings(all_programs=False, warmup=800,
                              measure=2000))

    def test_traces_cached(self, sweep):
        settings = sweep.settings
        assert (_memo_trace("gcc", settings.trace_ops, settings.seed)
                is _memo_trace("gcc", settings.trace_ops, settings.seed))

    def test_results_cached_by_config(self, sweep):
        a = sweep.run("gcc", base_config())
        b = sweep.run("gcc", base_config())
        assert a is b

    def test_distinct_levels_distinct_results(self, sweep):
        a = sweep.run("gcc", fixed_config(1))
        b = sweep.run("gcc", fixed_config(2))
        assert a is not b

    def test_key_extra_separates(self, sweep):
        a = sweep.run("gcc", base_config())
        b = sweep.run("gcc", base_config(), key_extra="other")
        assert a is not b

    def test_energy_annotated(self, sweep):
        res = sweep.run("gcc", base_config())
        assert res.energy_nj > 0 and res.edp > 0

    def test_speedup_helper(self, sweep):
        assert sweep.speedup("gcc", sweep.base("gcc")) == \
            pytest.approx(1.0)

    def test_gm_speedups(self, sweep):
        gm = sweep.gm_speedups(("gcc",), sweep.base)
        assert gm == pytest.approx(1.0)


class TestCLISettings:
    def test_defaults(self):
        s = cli_settings([])
        assert s.all_programs and s.measure == 15_000

    def test_flags(self):
        s = cli_settings(["--selected", "--measure", "5000",
                          "--warmup", "1000", "--seed", "9"])
        assert not s.all_programs
        assert (s.measure, s.warmup, s.seed) == (5000, 1000, 9)


class TestRenderTable:
    def test_alignment(self):
        text = render_table(["col", "x"], [["aaaa", "1"]])
        lines = text.splitlines()
        assert len({len(l) for l in lines if l.strip()}) <= 2

    def test_empty_rows(self):
        text = render_table(["a"], [])
        assert "a" in text
