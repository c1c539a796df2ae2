"""Structured application of the crosstalk coupling (paper Eq. 5).

The crosstalk hub needs, per electrical solve, the map

    T_in(v) = sum_a alpha(a, v) * rise(a)

over every victim cell ``v``.  The seed implementation materialised the full
``(cells, cells)`` alpha table and computed a dense matvec — O(cells^2) memory
and time, which is 134 MB at 64x64 and a prohibitive ~34 GB at 256x256.  All
shipped coupling models are translation-invariant by construction, so the
table row for any aggressor is one fixed 2-D *kernel* shifted to the
aggressor's position and clipped at the array edges.  The sum above is then a
2-D convolution of the rise map with that kernel, which this module applies in

* O(N log N) time / O(N) memory through FFT convolution with a precomputed
  kernel spectrum and transform shape (:class:`FftCrosstalkOperator`),
* O(taps * N) time through direct shifted adds when the kernel is compact
  (:class:`StencilCrosstalkOperator`, e.g. the nearest-neighbour
  :class:`~repro.thermal.coupling.UniformCouplingModel`),
* the original dense matvec for genuinely non-stationary custom models
  (:class:`DenseCrosstalkOperator`), kept as an automatic fallback.

Edge clipping is exact, not approximate: the convolution zero-pads outside
the array, which is precisely the dense table's behaviour (cells outside the
array do not exist, and edge victims simply sum over fewer aggressors).

:func:`make_crosstalk_operator` selects the backend through the
:meth:`~repro.thermal.coupling.CouplingModel.kernel` capability probe: models
that can state their coupling as an offset kernel get the structured path,
anything else falls back to the dense table.
"""

from __future__ import annotations

import abc
from typing import Optional, Tuple

import numpy as np

try:  # SciPy's pocketfft is faster and pads to 5-smooth sizes; optional.
    from scipy import fft as _fft_module

    _next_fast_len = _fft_module.next_fast_len
except Exception:  # pragma: no cover - exercised only on scipy-less installs
    _fft_module = np.fft

    def _next_fast_len(target: int, real: bool = True) -> int:
        return int(target)

from ..config import CrossbarGeometry
from ..errors import ConfigurationError
from ..obs import get_telemetry
from .coupling import CouplingModel

Cell = Tuple[int, int]

#: Kernels with at most this many non-zero taps are applied as a direct
#: stencil; larger kernels go through the FFT path.
STENCIL_MAX_TAPS = 32

#: Backend names accepted by :func:`make_crosstalk_operator`.
OPERATOR_BACKENDS = ("auto", "fft", "stencil", "dense")


class CrosstalkOperator(abc.ABC):
    """Applies the aggressor->victim coupling to a map of temperature rises."""

    #: Backend identifier ("fft", "stencil" or "dense").
    backend: str = "abstract"

    def __init__(self, coupling: CouplingModel):
        self.coupling = coupling
        self.geometry: CrossbarGeometry = coupling.geometry

    @abc.abstractmethod
    def apply(self, rises_k: np.ndarray) -> np.ndarray:
        """Per-victim additional temperature for a (rows, cols) rise map [K]."""

    @abc.abstractmethod
    def apply_single(self, victim: Cell, rises_k: np.ndarray) -> float:
        """Additional temperature of one victim cell [K] — O(cells), never
        materialises the full output map."""

    @abc.abstractmethod
    def alpha_between(self, aggressor: Cell, victim: Cell) -> float:
        """Coupling coefficient from aggressor to victim (0.0 on the diagonal,
        matching the zero-diagonal the hub historically applied)."""

    @property
    @abc.abstractmethod
    def state_bytes(self) -> int:
        """Memory held by the operator's alpha state (kernel or table)."""


class KernelCrosstalkOperator(CrosstalkOperator):
    """Base for operators backed by a full offset kernel.

    ``kernel[dr + rows - 1, dc + cols - 1]`` is the alpha value a victim at
    relative offset ``(dr, dc)`` receives; the centre (zero offset) is 0.0.
    """

    def __init__(self, coupling: CouplingModel, kernel: np.ndarray):
        super().__init__(coupling)
        rows, cols = self.geometry.rows, self.geometry.columns
        kernel = np.asarray(kernel, dtype=np.float64)
        if kernel.shape != (2 * rows - 1, 2 * cols - 1):
            raise ConfigurationError(
                f"offset kernel shape {kernel.shape} does not match the "
                f"{rows}x{cols} geometry (expected {(2 * rows - 1, 2 * cols - 1)})"
            )
        self.kernel = kernel.copy()
        self.kernel[rows - 1, cols - 1] = 0.0

    def alpha_between(self, aggressor: Cell, victim: Cell) -> float:
        rows, cols = self.geometry.rows, self.geometry.columns
        dr = victim[0] - aggressor[0]
        dc = victim[1] - aggressor[1]
        return float(self.kernel[dr + rows - 1, dc + cols - 1])

    def apply_single(self, victim: Cell, rises_k: np.ndarray) -> float:
        rows, cols = self.geometry.rows, self.geometry.columns
        vr, vc = victim
        # T_in(v) = sum_a K[v - a] * rise[a]; the kernel slice below holds
        # K[(vr - ar, vc - ac)] for ar, ac descending, hence the double flip.
        window = self.kernel[vr : vr + rows, vc : vc + cols][::-1, ::-1]
        return float(np.sum(window * rises_k))

    @property
    def state_bytes(self) -> int:
        return int(self.kernel.nbytes)


class FftCrosstalkOperator(KernelCrosstalkOperator):
    """O(N log N) convolution through precomputed rfft2 state.

    The kernel spectrum and the padded FFT shape are computed once at
    construction; each :meth:`apply` performs one forward and one inverse
    real FFT of the rise map.
    """

    backend = "fft"

    def __init__(self, coupling: CouplingModel, kernel: np.ndarray):
        super().__init__(coupling, kernel)
        rows, cols = self.geometry.rows, self.geometry.columns
        # A circular convolution of length >= 2N-1 per axis is exact for the
        # central (rows, cols) output block: the victim indices live at
        # n = v + (N-1) in [N-1, 2N-2] of the full linear convolution (support
        # [0, 3N-3]), and with L >= 2N-1 every alias n +- L falls outside
        # that support.  This halves the padded transform size versus the
        # full-linear (3N-2) padding.
        self._fft_shape = (_next_fast_len(2 * rows - 1), _next_fast_len(2 * cols - 1))
        self._kernel_fft = _fft_module.rfft2(self.kernel, s=self._fft_shape)
        self._out_slice = (slice(rows - 1, 2 * rows - 1), slice(cols - 1, 2 * cols - 1))

    def apply(self, rises_k: np.ndarray) -> np.ndarray:
        spectrum = _fft_module.rfft2(rises_k, s=self._fft_shape)
        spectrum *= self._kernel_fft
        full = _fft_module.irfft2(spectrum, s=self._fft_shape)
        return np.ascontiguousarray(full[self._out_slice])

    @property
    def state_bytes(self) -> int:
        return int(self.kernel.nbytes + self._kernel_fft.nbytes)


class StencilCrosstalkOperator(KernelCrosstalkOperator):
    """Direct shifted-add convolution for compact (few-tap) kernels.

    O(taps * N) with pure array slicing — for the four-tap nearest-neighbour
    kernel this beats the FFT path by a wide margin and allocates nothing
    beyond the output map.
    """

    backend = "stencil"

    def __init__(self, coupling: CouplingModel, kernel: np.ndarray):
        super().__init__(coupling, kernel)
        rows, cols = self.geometry.rows, self.geometry.columns
        taps_r, taps_c = np.nonzero(self.kernel)
        self._taps = [
            (int(tr) - (rows - 1), int(tc) - (cols - 1), float(self.kernel[tr, tc]))
            for tr, tc in zip(taps_r, taps_c)
        ]

    @property
    def taps(self) -> int:
        """Number of non-zero kernel entries."""
        return len(self._taps)

    def apply(self, rises_k: np.ndarray) -> np.ndarray:
        rows, cols = self.geometry.rows, self.geometry.columns
        out = np.zeros((rows, cols))
        for dr, dc, weight in self._taps:
            # Victim v receives weight * rise[v - (dr, dc)] wherever the
            # shifted source cell exists inside the array.
            src_r = slice(max(0, -dr), rows - max(0, dr))
            src_c = slice(max(0, -dc), cols - max(0, dc))
            dst_r = slice(max(0, dr), rows - max(0, -dr))
            dst_c = slice(max(0, dc), cols - max(0, -dc))
            out[dst_r, dst_c] += weight * rises_k[src_r, src_c]
        return out


class DenseCrosstalkOperator(CrosstalkOperator):
    """The seed dense alpha-table matvec, kept for non-stationary models.

    Custom :class:`~repro.thermal.coupling.CouplingModel` subclasses whose
    coupling genuinely depends on absolute position (``kernel()`` returns
    None) still get exact results at the original O(cells^2) cost.
    """

    backend = "dense"

    def __init__(self, coupling: CouplingModel):
        super().__init__(coupling)
        self._alpha = np.array(coupling.alpha_table(), dtype=np.float64)
        np.fill_diagonal(self._alpha, 0.0)
        self._columns = self.geometry.columns

    def apply(self, rises_k: np.ndarray) -> np.ndarray:
        shape = (self.geometry.rows, self.geometry.columns)
        return (self._alpha.T @ rises_k.ravel()).reshape(shape)

    def apply_single(self, victim: Cell, rises_k: np.ndarray) -> float:
        column = victim[0] * self._columns + victim[1]
        return float(self._alpha[:, column] @ rises_k.ravel())

    def alpha_between(self, aggressor: Cell, victim: Cell) -> float:
        a = aggressor[0] * self._columns + aggressor[1]
        v = victim[0] * self._columns + victim[1]
        return float(self._alpha[a, v])

    @property
    def state_bytes(self) -> int:
        return int(self._alpha.nbytes)


def make_crosstalk_operator(
    coupling: CouplingModel,
    backend: str = "auto",
    stencil_max_taps: int = STENCIL_MAX_TAPS,
) -> CrosstalkOperator:
    """Build the cheapest exact operator the coupling model supports.

    The ``"auto"`` backend probes :meth:`CouplingModel.kernel`: stationary models
    get the stencil path when the kernel has at most ``stencil_max_taps``
    non-zero taps and the FFT path otherwise; models without a kernel fall
    back to the dense table.  Explicit ``"fft"``/``"stencil"`` backends raise
    if the model cannot state a kernel; ``"dense"`` always works.
    """
    operator = _build_crosstalk_operator(coupling, backend, stencil_max_taps)
    tel = get_telemetry()
    if tel.enabled:
        tel.count(f"crosstalk.operator.built.{operator.backend}")
        if isinstance(operator, FftCrosstalkOperator):
            tel.gauge("crosstalk.fft_size", float(np.prod(operator._fft_shape)))
        elif isinstance(operator, StencilCrosstalkOperator):
            tel.gauge("crosstalk.stencil_taps", float(operator.taps))
    return operator


def _build_crosstalk_operator(
    coupling: CouplingModel,
    backend: str,
    stencil_max_taps: int,
) -> CrosstalkOperator:
    if backend not in OPERATOR_BACKENDS:
        raise ConfigurationError(
            f"unknown crosstalk backend {backend!r}; expected one of {OPERATOR_BACKENDS}"
        )
    if backend == "dense":
        return DenseCrosstalkOperator(coupling)
    kernel = coupling.kernel()
    if kernel is None:
        if backend in ("fft", "stencil"):
            raise ConfigurationError(
                f"coupling model {type(coupling).__name__} does not provide an offset "
                f"kernel; the {backend!r} backend needs a translation-invariant model"
            )
        return DenseCrosstalkOperator(coupling)
    if backend == "fft":
        return FftCrosstalkOperator(coupling, kernel)
    if backend == "stencil":
        return StencilCrosstalkOperator(coupling, kernel)
    rows, cols = coupling.geometry.rows, coupling.geometry.columns
    centre_zeroed = np.asarray(kernel, dtype=np.float64).copy()
    centre_zeroed[rows - 1, cols - 1] = 0.0
    if np.count_nonzero(centre_zeroed) <= stencil_max_taps:
        return StencilCrosstalkOperator(coupling, kernel)
    return FftCrosstalkOperator(coupling, kernel)
