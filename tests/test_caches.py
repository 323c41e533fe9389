"""Per-process caches of wave-independent vectors: equal to a fresh build bit
for bit, read-only, keyed by value, and filled once per key."""

import math
from collections import Counter

import numpy as np
import pytest

from periwave import io, spectral
from periwave.cli import main
from periwave.config import list_presets, load_config, symbol_from_config
from periwave.io import format_float
from periwave.spectral import (
    DispersionSymbol,
    PeriodicGrid,
    _sobolev_weights,
    derivative_matrix,
    multiplier_matrix,
    sobolev_weight_matrix,
    verify_symbol_bounds,
)

CACHES = (
    PeriodicGrid.nodes.fget,
    PeriodicGrid.wavenumbers.fget,
    PeriodicGrid.frequencies.fget,
    DispersionSymbol.values_on,
    spectral._sobolev_weights,
    spectral.verify_symbol_bounds,
    io._node_column,
)


def _clear_caches():
    for cache in CACHES:
        cache.cache_clear()


def _same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _circulant(diag):
    """The collocation matrix of F^-1 diag F by its index formula c[(j - l) mod K]."""
    n = np.arange(diag.size)
    return np.fft.ifft(diag).real[(n[:, None] - n[None, :]) % diag.size]


def _preset_symbol(preset):
    return symbol_from_config(load_config(preset=preset))


@pytest.mark.parametrize("K", [16, 62, 128, 1024])
@pytest.mark.parametrize("preset", list_presets())
def test_cached_builders_match_a_fresh_build(preset, K):
    symbol = _preset_symbol(preset)
    L, s = symbol.length, 0.5 * symbol.order
    grid = PeriodicGrid(L, K)
    kappa = np.fft.fftfreq(K, 1.0 / K)
    xi = 2.0 * math.pi * kappa / L
    theta = np.asarray(symbol.value(kappa))
    d = 1j * xi
    d[K // 2] = 0.0
    weight = (1.0 + xi**2) ** s
    ks = np.arange(max(symbol.threshold, 1), K // 2 + 1, dtype=float)
    ratio = np.asarray(symbol.value(ks)) / ks**symbol.order
    for _ in range(2):  # a miss or a hit, then a hit
        assert _same_bits(grid.nodes, L * np.arange(K) / K)
        assert _same_bits(grid.wavenumbers, kappa)
        assert _same_bits(grid.frequencies, xi)
        assert _same_bits(symbol.values_on(grid), theta)
        assert _same_bits(_sobolev_weights(grid, s), weight)
        for built, diag in (
            (multiplier_matrix(symbol, grid), theta),
            (derivative_matrix(grid), d),
            (sobolev_weight_matrix(grid, s), weight),
        ):
            assert _same_bits(built, _circulant(diag))
            assert built.flags.writeable and built.flags.owndata
        report = verify_symbol_bounds(symbol, grid)
        assert (report.tightest_lower, report.tightest_upper) == (ratio.min(), ratio.max())
        assert io._node_column(grid) == ("%s", tuple(format_float(x) for x in grid.nodes))


def test_each_call_gets_its_own_matrix():
    symbol = DispersionSymbol.hilbert_derivative(2.0 * math.pi)
    grid = PeriodicGrid(2.0 * math.pi, 32)
    first = multiplier_matrix(symbol, grid)
    first[0, 0] = 1e6
    assert multiplier_matrix(symbol, grid)[0, 0] != 1e6


def test_cached_arrays_are_read_only():
    symbol = DispersionSymbol.ilw(1.0, 2.0 * math.pi)
    grid = PeriodicGrid(2.0 * math.pi, 64)
    for arr in (
        grid.nodes,
        grid.wavenumbers,
        grid.frequencies,
        symbol.values_on(grid),
        _sobolev_weights(grid, 0.5),
    ):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 1.0
        with pytest.raises(ValueError):
            arr += 0.0


def _missed(cache, build):
    """(whether ``build()`` missed ``cache``, its result)."""
    misses = cache.cache_info().misses
    out = build()
    return cache.cache_info().misses == misses + 1, out


def test_other_period_size_or_index_misses():
    _clear_caches()
    grids = PeriodicGrid(3.0, 32), PeriodicGrid(3.5, 32), PeriodicGrid(3.0, 48)
    for name in ("nodes", "frequencies"):
        cache = getattr(PeriodicGrid, name).fget
        built = []
        for grid in grids:
            missed, out = _missed(cache, lambda: getattr(grid, name))
            assert missed and not any(np.array_equal(out, other) for other in built)
            built.append(out)
        # an equal grid built anew hits
        missed, again = _missed(cache, lambda: getattr(PeriodicGrid(3.0, 32), name))
        assert not missed and again is built[0]
    keys = ((grids[0], 0.5), (grids[1], 0.5), (grids[2], 0.5), (grids[0], 1.0))
    for key in keys:
        assert _missed(spectral._sobolev_weights, lambda: _sobolev_weights(*key))[0]
        assert not _missed(spectral._sobolev_weights, lambda: _sobolev_weights(*key))[0]
    # a symbol is keyed by its parameters, not by identity
    for symbol, grid, misses in ((DispersionSymbol.ilw(1.0, 3.0), grids[0], True),
                                 (DispersionSymbol.ilw(1.0, 3.0), grids[0], False),
                                 (DispersionSymbol.ilw(2.0, 3.0), grids[0], True),
                                 (DispersionSymbol.ilw(1.0, 3.0), grids[2], True)):
        assert _missed(DispersionSymbol.values_on, lambda: symbol.values_on(grid))[0] == misses


def test_grid_of_another_period_is_refused_every_time():
    symbol = DispersionSymbol.second_derivative(2.0 * math.pi)
    for _ in range(2):
        with pytest.raises(ValueError, match="symbol was built for period"):
            symbol.values_on(PeriodicGrid(3.0, 32))
        with pytest.raises(ValueError, match="symbol was built for period"):
            multiplier_matrix(symbol, PeriodicGrid(3.0, 32))


def test_sweep_evaluates_each_symbol_once_per_grid(tmp_path, monkeypatch):
    _clear_caches()
    value = DispersionSymbol.value
    calls = Counter()

    def counted(self, kappa):
        k = np.asarray(kappa)
        if k.ndim == 1 and np.array_equal(k, np.fft.fftfreq(k.size, 1.0 / k.size)):
            calls[self, k.size] += 1
        return value(self, kappa)

    monkeypatch.setattr(DispersionSymbol, "value", counted)
    assert main(["sweep", "--preset", "ilw", "--out", str(tmp_path)]) == 0
    assert calls and set(calls.values()) == {1}, calls
