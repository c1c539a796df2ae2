"""Equivalence suite for the crosstalk hub's FFT convolution (paper Eq. 5).

The hub must reproduce the dense alpha-table matvec (diagonal zeroed)
element for element (<= 1e-12) for every shipped coupling model, including
edge/corner cells, non-square and single-row geometries and sub-ambient
temperature maps, while holding only O(cells) alpha state.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuit import CrosstalkHub
from repro.config import CrossbarGeometry
from repro.errors import ConfigurationError
from repro.thermal import (
    AlphaExtractionResult,
    AnalyticCouplingModel,
    ExtractedCouplingModel,
    UniformCouplingModel,
)

#: Equivalence budget of the suite (relative; victims receiving exactly zero
#: coupling are compared against a matching absolute floor).
RTOL = 1e-12
ATOL = 1e-12

GEOMETRIES = [
    (5, 5),  # the paper's square array
    (3, 3),  # the Monte-Carlo maps' nominal array
    (3, 7),  # wide non-square
    (6, 2),  # tall non-square
    (1, 8),  # single row (degenerate kernel axis)
]


def synthetic_extraction(rows: int, columns: int, selected=(1, 1), seed: int = 0):
    """A translation-invariant extraction window with known values."""
    rng = np.random.default_rng(seed)
    alpha = rng.uniform(0.01, 0.4, size=(rows, columns))
    alpha[selected] = 1.0
    return AlphaExtractionResult(
        selected_cell=tuple(selected),
        thermal_resistance_k_per_w=2e6,
        fitted_ambient_k=300.0,
        alpha=alpha,
        r_squared=1.0,
        neighbour_r_squared=np.ones((rows, columns)),
        sweep_powers_w=np.array([1e-6, 2e-6]),
        sweep_temperatures_k=[np.full((rows, columns), 300.0)] * 2,
    )


def coupling_models(rows: int, columns: int):
    geometry = CrossbarGeometry(rows=rows, columns=columns)
    selected = (min(1, rows - 1), min(1, columns - 1))
    return [
        AnalyticCouplingModel(geometry),
        ExtractedCouplingModel(geometry, synthetic_extraction(rows, columns, selected)),
        UniformCouplingModel(geometry, alpha=0.17),
    ]


def rise_maps(rows: int, columns: int, seed: int = 1):
    """Rise maps exercising hot corners, hot edges and dense random fields."""
    rng = np.random.default_rng(seed)
    maps = [rng.uniform(0.0, 650.0, size=(rows, columns))]
    corner = np.zeros((rows, columns))
    corner[0, 0] = 650.0
    corner[-1, -1] = 420.0
    maps.append(corner)
    edge = np.zeros((rows, columns))
    edge[0, :] = 300.0
    maps.append(edge)
    return maps


def dense_additional_temperatures(coupling, temperatures: np.ndarray) -> np.ndarray:
    """The seed's dense Eq. 5: the (cells, cells) alpha table, diagonal
    zeroed, applied to the rise map clamped at the 300 K ambient."""
    table = coupling.alpha_table()
    np.fill_diagonal(table, 0.0)
    rises = np.maximum(temperatures - 300.0, 0.0)
    return (table.T @ rises.ravel()).reshape(rises.shape)


def assert_matches_dense(actual, reference, err_msg=""):
    np.testing.assert_allclose(
        actual,
        reference,
        rtol=RTOL,
        atol=ATOL * max(1.0, float(np.abs(reference).max())),
        err_msg=err_msg,
    )


class TestOperatorEquivalence:
    @pytest.mark.parametrize("rows,columns", GEOMETRIES)
    def test_structured_backends_match_dense_elementwise(self, rows, columns):
        for coupling in coupling_models(rows, columns):
            hub = CrosstalkHub(coupling, 300.0)
            for rises in rise_maps(rows, columns):
                temperatures = 300.0 + rises
                assert_matches_dense(
                    hub.additional_temperatures(temperatures),
                    dense_additional_temperatures(coupling, temperatures),
                    err_msg=type(coupling).__name__,
                )

    @pytest.mark.parametrize("rows,columns", GEOMETRIES)
    def test_single_victim_fast_path_matches_full_apply(self, rows, columns):
        corners_and_edges = {
            (0, 0),
            (0, columns - 1),
            (rows - 1, 0),
            (rows - 1, columns - 1),
            (rows // 2, 0),
            (0, columns // 2),
            (rows // 2, columns // 2),
        }
        for coupling in coupling_models(rows, columns):
            hub = CrosstalkHub(coupling, 300.0)
            temperatures = 300.0 + rise_maps(rows, columns, seed=2)[0]
            full = hub.additional_temperatures(temperatures)
            for victim in corners_and_edges:
                assert hub.additional_temperature_for(victim, temperatures) == pytest.approx(
                    full[victim], rel=RTOL, abs=ATOL * max(1.0, abs(float(full[victim])))
                )

    @pytest.mark.parametrize("rows,columns", GEOMETRIES)
    def test_alpha_between_matches_coupling_model(self, rows, columns):
        for coupling in coupling_models(rows, columns):
            hub = CrosstalkHub(coupling, 300.0)
            for aggressor in [(0, 0), (rows - 1, columns - 1), (rows // 2, columns // 2)]:
                for victim in [(0, columns - 1), (rows - 1, 0), (rows // 2, columns // 2)]:
                    if aggressor == victim:
                        assert hub.alpha_between(aggressor, victim) == 0.0
                    else:
                        assert hub.alpha_between(aggressor, victim) == pytest.approx(
                            coupling.alpha_between(aggressor, victim), rel=RTOL
                        )

    def test_kernel_alpha_table_matches_pairwise_scalar(self):
        geometry = CrossbarGeometry(rows=4, columns=3)
        for coupling in coupling_models(4, 3):
            table = coupling.alpha_table()
            cells = list(geometry.iter_cells())
            for a, aggressor in enumerate(cells):
                for v, victim in enumerate(cells):
                    expected = 1.0 if a == v else coupling.alpha_between(aggressor, victim)
                    assert table[a, v] == pytest.approx(expected, rel=RTOL, abs=1e-15)


class TestBackendSelection:
    """The hub's alpha state stays O(cells) at sizes the dense table cannot reach."""

    def test_large_array_constructs_without_dense_table(self):
        # A 256x256 hub must hold only O(N) alpha state (the dense table
        # would be ~34 GB and would not build).
        geometry = CrossbarGeometry(rows=256, columns=256)
        hub = CrosstalkHub(AnalyticCouplingModel(geometry), 300.0)
        assert hub.alpha_state_bytes <= 4.5 * 1024 * 1024
        rises = np.zeros((256, 256))
        rises[128, 128] = 650.0
        additional = hub.additional_temperatures(300.0 + rises)
        assert additional[128, 129] > additional[100, 100] >= 0.0
        assert additional[128, 128] == pytest.approx(0.0)

    def test_kernel_of_the_wrong_shape_is_rejected(self):
        class CroppedKernel(UniformCouplingModel):
            def kernel(self):
                return super().kernel()[1:-1, 1:-1]

        with pytest.raises(ConfigurationError, match="offset kernel shape"):
            CrosstalkHub(CroppedKernel(CrossbarGeometry(rows=4, columns=4)), 300.0)


class TestHubBackendInvariance:
    @pytest.mark.parametrize("rows,columns", [(5, 5), (3, 7)])
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_hub_results_invariant_to_backend(self, rows, columns, seed):
        """Property: the hub's answers equal the dense alpha-table matvec,
        also on maps with sub-ambient cells and for random single victims."""
        rng = np.random.default_rng(seed)
        temperatures = 300.0 + rng.uniform(-30.0, 650.0, size=(rows, columns))
        victim = (int(rng.integers(rows)), int(rng.integers(columns)))
        for coupling in coupling_models(rows, columns):
            hub = CrosstalkHub(coupling, 300.0)
            reference = dense_additional_temperatures(coupling, temperatures)
            assert_matches_dense(hub.additional_temperatures(temperatures), reference)
            assert hub.additional_temperature_for(victim, temperatures) == pytest.approx(
                float(reference[victim]),
                rel=RTOL,
                abs=ATOL * max(1.0, abs(float(reference[victim]))),
            )

    def test_hub_keeps_seed_semantics(self):
        """Rises are clamped at ambient and the diagonal contributes nothing."""
        hub = CrosstalkHub(AnalyticCouplingModel(CrossbarGeometry()), 300.0)
        cold = np.full((5, 5), 280.0)
        assert np.allclose(hub.additional_temperatures(cold), 0.0)
        with pytest.raises(ConfigurationError):
            hub.additional_temperatures(np.full((3, 3), 300.0))


class TestVectorizedSatellites:
    def test_matrix_for_slices_match_the_loop(self):
        geometry = CrossbarGeometry(rows=4, columns=6)
        for coupling in coupling_models(4, 6):
            for aggressor in [(0, 0), (3, 5), (2, 1)]:
                matrix = coupling.matrix_for(aggressor)
                assert matrix.values[aggressor] == 1.0
                for victim in geometry.iter_cells():
                    if victim == aggressor:
                        continue
                    assert matrix.values[victim] == pytest.approx(
                        coupling.alpha_between(aggressor, victim), rel=RTOL, abs=1e-15
                    )

    def test_hottest_neighbours_argpartition_matches_full_sort(self):
        coupling = AnalyticCouplingModel(CrossbarGeometry(rows=6, columns=6))
        matrix = coupling.matrix_for((3, 3))
        hottest = matrix.hottest_neighbours(5)
        assert len(hottest) == 5
        reference = sorted(
            (
                (float(matrix.values[cell]), cell)
                for cell in coupling.geometry.iter_cells()
                if cell != (3, 3)
            ),
            reverse=True,
        )
        assert sorted(hottest.values(), reverse=True) == [v for v, _ in reference[:5]]
        # Order inside the dict is descending, like the seed full sort.
        assert list(hottest.values()) == sorted(hottest.values(), reverse=True)

    def test_hottest_neighbours_count_exceeding_cells(self):
        coupling = UniformCouplingModel(CrossbarGeometry(rows=2, columns=2), 0.3)
        matrix = coupling.matrix_for((0, 0))
        hottest = matrix.hottest_neighbours(99)
        assert len(hottest) == 3  # everything but the aggressor
        assert (0, 0) not in hottest

    def test_extracted_coupling_offset_array_lookup(self):
        geometry = CrossbarGeometry(rows=3, columns=3)
        extraction = synthetic_extraction(3, 3, selected=(1, 1), seed=5)
        coupling = ExtractedCouplingModel(geometry, extraction)
        # In-window offsets read the extraction matrix directly.
        assert coupling.alpha_between((1, 1), (0, 2)) == pytest.approx(extraction.alpha[0, 2])
        # Translation invariance of the lookup.
        assert coupling.alpha_between((0, 0), (0, 1)) == pytest.approx(
            coupling.alpha_between((1, 1), (1, 2))
        )
        # Offsets outside the window fall back to the most distant value.
        assert coupling.alpha_between((0, 0), (2, 2)) == pytest.approx(
            float(extraction.alpha.min())
        )

    def test_extracted_kernel_with_offcentre_selected_cell(self):
        geometry = CrossbarGeometry(rows=4, columns=4)
        extraction = synthetic_extraction(4, 4, selected=(0, 0), seed=6)
        coupling = ExtractedCouplingModel(geometry, extraction)
        temperatures = 300.0 + rise_maps(4, 4, seed=7)[0]
        np.testing.assert_allclose(
            CrosstalkHub(coupling, 300.0).additional_temperatures(temperatures),
            dense_additional_temperatures(coupling, temperatures),
            rtol=RTOL,
            atol=1e-9,
        )
