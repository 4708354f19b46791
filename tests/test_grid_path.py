import pytest

from rbsdelab.grid_path import TimeGrid


class TestTimeGrid:
    def test_dt_times_steps_is_horizon(self):
        grid = TimeGrid(2.5, 7)
        assert grid.dt * grid.steps == pytest.approx(2.5, abs=1e-15)
        assert len(grid.times()) == 8
        assert grid.times()[0] == 0.0
        assert grid.times()[-1] == pytest.approx(2.5, abs=1e-15)

    @pytest.mark.parametrize("horizon,steps", [(0.0, 4), (-1.0, 4), (1.0, 0), (1.0, -2)])
    def test_rejects_degenerate_grids(self, horizon, steps):
        with pytest.raises(ValueError):
            TimeGrid(horizon, steps)
