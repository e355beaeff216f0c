"""Unit tests for multi-dimensional resources."""

import pytest

from repro.sim import MultiResource


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

    def test_empty_capacities_rejected(self):
        with pytest.raises(ValueError):
            MultiResource({})
