"""Unit tests for multi-dimensional resources."""

import math

import pytest

from repro.cluster.worker import CpuWorker
from repro.sim import MultiResource
from repro.vcu.chip import Vcu

NON_FINITE = [math.nan, math.inf, -math.inf]


class TestMultiResource:
    def make(self):
        return MultiResource({"decode": 3000, "encode": 10000, "dram": 8 << 30})

    def test_acquire_all_dimensions(self):
        res = self.make()
        assert res.acquire({"decode": 500, "encode": 3750})
        assert res.available["decode"] == 2500
        assert res.available["encode"] == 6250

    def test_reject_when_any_dimension_short(self):
        res = self.make()
        assert res.acquire({"decode": 3000})
        # encode has room but decode is exhausted: whole request must fail.
        assert not res.acquire({"decode": 1, "encode": 1})
        assert res.available["encode"] == 10000

    def test_unknown_dimension_never_fits(self):
        res = self.make()
        assert not res.fits({"gpu": 1})
        assert not res.could_ever_fit({"gpu": 1})

    def test_zero_amounts_ignored(self):
        res = self.make()
        assert res.acquire({"decode": 0, "gpu": 0})
        assert res.is_idle()

    def test_release_restores(self):
        res = self.make()
        request = {"decode": 1000, "encode": 2000}
        res.acquire(request)
        res.release(request)
        assert res.is_idle()

    def test_over_release_rejected(self):
        res = self.make()
        with pytest.raises(ValueError):
            res.release({"decode": 1})

    def test_utilization_max_across_dimensions(self):
        res = self.make()
        res.acquire({"decode": 3000, "encode": 1000})
        assert res.utilization() == pytest.approx(1.0)
        assert res.utilization("encode") == pytest.approx(0.1)

    def test_could_ever_fit_ignores_current_use(self):
        res = self.make()
        res.acquire({"decode": 3000})
        assert res.could_ever_fit({"decode": 3000})
        assert not res.could_ever_fit({"decode": 3001})

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            MultiResource({"x": -1})

    @pytest.mark.parametrize("cap", NON_FINITE)
    def test_non_finite_capacity_rejected_naming_the_dimension(self, cap):
        with pytest.raises(ValueError, match="'dram'"):
            MultiResource({"decode": 3000, "dram": cap})

    @pytest.mark.parametrize("cap", NON_FINITE)
    def test_non_finite_cpu_cores_rejected(self, cap):
        with pytest.raises(ValueError, match="cores"):
            CpuWorker(cores=cap)

    @pytest.mark.parametrize("cap", NON_FINITE)
    def test_non_finite_host_decode_capacity_rejected(self, cap):
        with pytest.raises(ValueError, match="host_decode"):
            Vcu(host_decode_capacity=cap)

    def test_capacity_is_read_only(self):
        res = self.make()
        with pytest.raises(TypeError):
            res.capacity["decode"] = 1
        assert res.capacity["decode"] == 3000

    def test_empty_capacities_rejected(self):
        with pytest.raises(ValueError):
            MultiResource({})
