"""Grid geometry, frame weights, scan order, and weight-map input."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lfalloc import (
    DegenerateWeights,
    FrameCoord,
    FrameGrid,
    IncompleteInput,
    ParseError,
    WeightSet,
    frame_weight,
    proximity,
    read_weight_map_csv,
    spiral_order,
    unify_weights,
)
from lfalloc.lightfield import grid_to_text


class TestFrameWeight:
    """Mean reduction of a per-pixel weight map."""

    def test_constant_channel_is_its_value(self):
        assert frame_weight(np.ones((2, 2))) == 1.0

    def test_single_hot_pixel_averages_out(self):
        assert frame_weight(np.array([[0.0, 0.0], [0.0, 4.0]])) == 1.0

    def test_row_mean(self):
        assert frame_weight(np.array([[0.2, 0.5, 0.8]])) == pytest.approx(0.5)

    @pytest.mark.parametrize(
        "weight_map, mean",
        [
            (np.full((2, 2), 1e308), 1e308),
            (np.array([[1.5e308, 1.5e308, 0.0, 0.0]]), 0.75e308),
        ],
    )
    def test_mean_of_an_overflowing_sum_is_finite(self, weight_map, mean):
        # Tests run with warnings as errors, so an overflow warning fails here.
        assert frame_weight(weight_map) == pytest.approx(mean, rel=1e-15)

    def test_negative_weights_rejected(self):
        with pytest.raises(ValueError):
            frame_weight(-np.ones((2, 2)))

    def test_non_2d_map_rejected(self):
        with pytest.raises(ValueError):
            frame_weight(np.ones(4))

    def test_empty_map_rejected(self):
        with pytest.raises(ValueError):
            frame_weight(np.zeros((0, 3)))

    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_map_rejected(self, value):
        with pytest.raises(ValueError):
            frame_weight(np.array([[1.0, value]]))


class TestUnifyWeights:
    """Rescaling raw weights to a unit maximum."""

    def test_two_frames(self):
        ws = unify_weights({FrameCoord(0, 0): 2.0, FrameCoord(1, 0): 4.0})
        assert ws.unified[FrameCoord(0, 0)] == 0.5
        assert ws.unified[FrameCoord(1, 0)] == 1.0

    def test_single_frame_becomes_one(self):
        ws = unify_weights({FrameCoord(0, 0): 7.0})
        assert ws.unified[FrameCoord(0, 0)] == 1.0

    def test_all_zero_raises(self):
        with pytest.raises(DegenerateWeights):
            unify_weights({FrameCoord(0, 0): 0.0, FrameCoord(1, 0): 0.0})

    def test_empty_raises(self):
        with pytest.raises(DegenerateWeights):
            unify_weights({})

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            unify_weights({FrameCoord(0, 0): -1.0})

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_raises(self, bad):
        with pytest.raises(ValueError):
            unify_weights({FrameCoord(0, 0): 1.0, FrameCoord(1, 0): bad})

    def test_raw_values_kept(self):
        ws = unify_weights({FrameCoord(0, 0): 3.0, FrameCoord(1, 0): 6.0})
        assert ws.raw[FrameCoord(0, 0)] == 3.0

    def test_weight_set_derives_unified_from_raw(self):
        raw = {FrameCoord(0, 0): 0.3, FrameCoord(1, 0): 0.0, FrameCoord(2, 0): 0.7}
        ws = WeightSet(raw=raw)
        assert ws.unified.keys() == raw.keys()
        assert all(ws.unified[c] == w / 0.7 for c, w in raw.items())
        assert max(ws.unified.values()) == 1.0

    @pytest.mark.parametrize("raw", [{}, {FrameCoord(0, 0): 0.0, FrameCoord(1, 0): 0.0}])
    def test_weight_set_of_no_or_zero_weights_raises(self, raw):
        with pytest.raises(DegenerateWeights):
            WeightSet(raw=raw)

    @pytest.mark.parametrize("bad", [-1.0, float("nan"), float("inf")])
    def test_weight_set_rejects_a_negative_or_non_finite_weight(self, bad):
        raw = {FrameCoord(0, 0): 1.0, FrameCoord(1, 0): bad}
        with pytest.raises(ValueError, match=r"^raw weights must be nonnegative and finite$"):
            WeightSet(raw=raw)

    @pytest.mark.parametrize(
        "raw, error, message",
        [
            ({}, DegenerateWeights, "no frame weights given"),
            ({(0, 0): 0.0, (1, 0): 0.0}, DegenerateWeights, "all frame weights are zero"),
            # The weight check comes before the all-zero test.
            ({(0, 0): -1.0, (1, 0): 0.0}, ValueError, "raw weights must be nonnegative and finite"),
            ({(0, 0): float("nan")}, ValueError, "raw weights must be nonnegative and finite"),
            ({(0, 0): float("inf")}, ValueError, "raw weights must be nonnegative and finite"),
        ],
    )
    def test_outcome_of_each_kind_of_table(self, raw, error, message):
        with pytest.raises(error, match=rf"^{message}$"):
            unify_weights(raw)

    def test_valid_table_is_copied(self):
        raw = {FrameCoord(0, 0): 0.5, FrameCoord(1, 0): 2.0}
        ws = unify_weights(raw)
        raw[FrameCoord(0, 0)] = 8.0
        assert ws.raw == {FrameCoord(0, 0): 0.5, FrameCoord(1, 0): 2.0}
        assert ws.unified == {FrameCoord(0, 0): 0.25, FrameCoord(1, 0): 1.0}

    @settings(derandomize=True, max_examples=25)
    @given(scale=st.floats(min_value=1e-6, max_value=1e6))
    def test_scale_invariance(self, scale):
        raw = {FrameCoord(0, 0): 0.25, FrameCoord(1, 0): 0.75, FrameCoord(2, 0): 1.5}
        base = unify_weights(raw)
        scaled = unify_weights({c: w * scale for c, w in raw.items()})
        for c in raw:
            assert scaled.unified[c] == pytest.approx(base.unified[c], rel=1e-12)


class TestProximity:
    """L1 distance and the distance-gated coupling strength."""

    def test_l1_examples(self):
        assert proximity(FrameCoord(1, 2), FrameCoord(3, 1)) == 0.0
        assert proximity(FrameCoord(1, 2), FrameCoord(2, 1)) == 1.0
        assert proximity(FrameCoord(0, 0), FrameCoord(0, 1)) == 2.0
        assert proximity(FrameCoord(0, 0), FrameCoord(0, 0)) == 3.0

    def test_gate_values(self):
        a = FrameCoord(2, 2)
        assert proximity(a, a) == 3.0
        assert proximity(a, FrameCoord(3, 3)) == 1.0
        assert proximity(a, FrameCoord(2, 7)) == 0.0

    def test_zero_from_distance_three(self):
        assert proximity(FrameCoord(0, 0), FrameCoord(3, 0)) == 0.0
        assert proximity(FrameCoord(0, 0), FrameCoord(2, 1)) == 0.0

    @settings(derandomize=True, max_examples=50)
    @given(
        au=st.integers(0, 20), av=st.integers(0, 20),
        bu=st.integers(0, 20), bv=st.integers(0, 20),
    )
    def test_symmetric_and_gated(self, au, av, bu, bv):
        a, b = FrameCoord(au, av), FrameCoord(bu, bv)
        assert proximity(a, b) == proximity(b, a)
        assert (proximity(a, b) == 0.0) == (abs(au - bu) + abs(av - bv) >= 3)


class TestCoupledPairs:
    """Offset enumeration of the coupled frame pairs."""

    @staticmethod
    def assert_matches_proximity(grid):
        """The pair arrays equal a brute-force scan of every ordered pair."""
        coords = grid.coding_order
        expected = [
            (i, j, proximity(a, b))
            for i, a in enumerate(coords)
            for j, b in enumerate(coords)
            if i != j and proximity(a, b) > 0.0
        ]
        pairs = grid.coupled_pairs
        got = list(zip(pairs.i.tolist(), pairs.j.tolist(), pairs.delta.tolist()))
        assert got == expected

    @pytest.mark.parametrize("width, height", [(1, 1), (2, 1), (1, 5), (3, 4), (6, 2), (9, 9)])
    def test_matches_proximity_over_all_pairs(self, width, height):
        self.assert_matches_proximity(spiral_order(width, height))

    @pytest.mark.parametrize("order", ["raster", "reversed raster"])
    @pytest.mark.parametrize("width, height", [(1, 7), (7, 1), (3, 4), (6, 2), (9, 9)])
    def test_matches_proximity_in_other_coding_orders(self, width, height, order):
        raster = [FrameCoord(u, v) for v in range(height) for u in range(width)]
        coords = raster if order == "raster" else raster[::-1]
        self.assert_matches_proximity(FrameGrid(width, height, coords))

    def test_built_once_per_grid(self):
        grid = spiral_order(4, 4)
        assert grid.coupled_pairs is grid.coupled_pairs

    @pytest.mark.parametrize("name", ["i", "j", "delta"])
    def test_arrays_are_read_only(self, name):
        array = getattr(spiral_order(3, 3).coupled_pairs, name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 1


class TestLatticeIndex:
    """The coding-order index of every grid position."""

    @pytest.mark.parametrize("width, height", [(1, 1), (3, 4), (6, 2)])
    def test_holds_each_frames_coding_index(self, width, height):
        grid = spiral_order(width, height)
        assert grid.lattice_index.shape == (width, height)
        assert [grid.lattice_index[c] for c in grid.coding_order] == list(range(grid.n_frames))

    def test_built_once_and_read_only(self):
        grid = spiral_order(3, 3)
        assert grid.lattice_index is grid.lattice_index
        with pytest.raises(ValueError, match="read-only"):
            grid.lattice_index[0, 0] = 1


class TestFrameCoord:
    """A frame key is a (u, v) tuple with named fields."""

    def test_equals_and_hashes_as_its_tuple(self):
        coord = FrameCoord(2, 3)
        assert coord == (2, 3)
        assert hash(coord) == hash((2, 3))
        assert {(2, 3): "x"}[coord] == "x"

    def test_sorts_like_tuples(self):
        coords = [FrameCoord(1, 0), FrameCoord(0, 2), FrameCoord(0, 1), FrameCoord(1, -1)]
        assert sorted(coords) == sorted(tuple(c) for c in coords)
        assert FrameCoord(0, 5) < FrameCoord(1, 0)

    def test_unpacks_and_names_fields(self):
        u, v = FrameCoord(4, 7)
        assert (u, v) == (4, 7)
        assert FrameCoord(4, 7).u == 4 and FrameCoord(4, 7).v == 7

    def test_repr(self):
        assert repr(FrameCoord(0, 1)) == "FrameCoord(u=0, v=1)"


class TestAlign:
    """A per-frame table read into coding order."""

    def test_values_in_coding_order(self):
        grid = spiral_order(3, 2)
        table = {c: c.u * 10 + c.v for c in sorted(grid.coding_order)}
        assert grid.align(table, "values") == [c.u * 10 + c.v for c in grid.coding_order]

    def test_plain_tuple_keys(self):
        grid = spiral_order(2, 2)
        table = {(u, v): (u, v) for u in range(2) for v in range(2)}
        assert grid.align(table, "values") == list(grid.coding_order)

    def test_missing_frame_is_named(self):
        grid = spiral_order(2, 2)
        table = {c: 1.0 for c in grid.coding_order if c != (0, 1)}
        with pytest.raises(IncompleteInput, match=r"^widths missing for frame \(0,1\)$"):
            grid.align(table, "widths")

    def test_frame_off_the_grid_is_named(self):
        grid = spiral_order(2, 2)
        table = {c: 1.0 for c in grid.coding_order} | {FrameCoord(9, 9): 4.0}
        with pytest.raises(IncompleteInput, match=r"^widths given for frame \(9,9\) off the grid$"):
            grid.align(table, "widths")


class TestSpiralOrder:
    """Center-out clockwise scan."""

    def test_single_frame(self):
        grid = spiral_order(1, 1)
        assert grid.coding_order == (FrameCoord(0, 0),)

    def test_three_by_three_sequence(self):
        grid = spiral_order(3, 3)
        expected = [
            (1, 1), (2, 1), (2, 2), (1, 2), (0, 2), (0, 1), (0, 0), (1, 0), (2, 0),
        ]
        assert [(c.u, c.v) for c in grid.coding_order] == expected

    def test_two_by_two_sequence(self):
        grid = spiral_order(2, 2)
        expected = [(1, 1), (0, 1), (0, 0), (1, 0)]
        assert [(c.u, c.v) for c in grid.coding_order] == expected

    def test_starts_at_center_and_steps_right(self):
        grid = spiral_order(5, 3)
        assert grid.coding_order[0] == FrameCoord(2, 1)
        assert grid.coding_order[1] == FrameCoord(3, 1)

    @settings(derandomize=True, max_examples=30)
    @given(width=st.integers(1, 9), height=st.integers(1, 9))
    def test_permutation_of_lattice(self, width, height):
        grid = spiral_order(width, height)
        lattice = {FrameCoord(u, v) for u in range(width) for v in range(height)}
        assert len(grid.coding_order) == width * height
        assert set(grid.coding_order) == lattice

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            spiral_order(0, 3)

    def test_two_negative_sides_are_refused_before_the_walk(self):
        # Their product is positive, so the walk would never fill its quota.
        with pytest.raises(ValueError, match="grid dimensions must be positive"):
            spiral_order(-1, -3)

    def test_grid_rejects_duplicates(self):
        order = (FrameCoord(0, 0), FrameCoord(0, 0))
        with pytest.raises(ValueError):
            FrameGrid(width=2, height=1, coding_order=order)

    def test_grid_rejects_missing_coords(self):
        with pytest.raises(ValueError):
            FrameGrid(width=2, height=1, coding_order=(FrameCoord(0, 0),))


class TestGridText:
    """Text form of a scan order, as `lfalloc spiral` prints it."""

    def test_header_then_one_coord_per_line(self):
        text = grid_to_text(spiral_order(2, 1))
        assert text.splitlines()[0] == "2 1"
        assert len(text.splitlines()) == 3


class TestWeightMapCsv:
    """Weight maps as one CSV row per grid row."""

    def test_read(self, tmp_path):
        path = tmp_path / "weights.csv"
        path.write_text("# center-weighted\n1,0.5\n0.25,1\n")
        width, height, raw = read_weight_map_csv(path)
        assert (width, height) == (2, 2)
        assert raw[FrameCoord(0, 0)] == 1.0
        assert raw[FrameCoord(1, 0)] == 0.5
        assert raw[FrameCoord(0, 1)] == 0.25
        assert raw[FrameCoord(1, 1)] == 1.0

    def test_ragged_rows(self, tmp_path):
        path = tmp_path / "weights.csv"
        path.write_text("1,0.5\n0.25\n")
        with pytest.raises(ParseError, match=r"line 2: expected 2 weights, got 1$"):
            read_weight_map_csv(path)

    def test_empty(self, tmp_path):
        path = tmp_path / "weights.csv"
        path.write_text("\n")
        with pytest.raises(ParseError):
            read_weight_map_csv(path)

    def test_bad_token(self, tmp_path):
        path = tmp_path / "weights.csv"
        path.write_text("1,spam\n")
        with pytest.raises(ParseError):
            read_weight_map_csv(path)
