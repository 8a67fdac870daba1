"""Tests for host calibration: the model form must track host reality."""

import pytest

from repro.core.flops import gemm_cost, stream_cost
from repro.machine.calibrate import (
    calibrate_host_model,
    measure_gemm_gflops,
    measure_stream_bandwidth,
)


@pytest.fixture(scope="module")
def host():
    # Small sizes keep calibration fast; they are large enough to exceed
    # caches on any realistic host.
    return calibrate_host_model(stream_entries=4_000_000, gemm_size=384)


class TestMicrobenchmarks:
    def test_stream_bandwidth_positive(self):
        bw = measure_stream_bandwidth(entries=1_000_000, repeats=2)
        assert 0.1 < bw < 10_000  # GB/s, sane on any hardware

    def test_gemm_gflops_positive(self):
        gf = measure_gemm_gflops(256, 256, 256, repeats=2)
        assert 0.1 < gf < 100_000

    def test_bad_entries(self):
        with pytest.raises(ValueError):
            measure_stream_bandwidth(entries=0)


class TestCalibratedModel:
    def test_fields_sane(self, host):
        assert host.cores >= 1
        assert host.bw_single_gbs > 0
        assert host.peak_gflops_per_core > 0
        assert host.bw_max_gbs >= host.bw_single_gbs

    @pytest.mark.bench
    def test_stream_prediction_tracks_measurement(self, host):
        """Model form check: predicted STREAM time within 3x of measured
        (loose on purpose — container timing is noisy)."""
        entries = 4_000_000
        measured_bw = measure_stream_bandwidth(entries=entries, repeats=2)
        measured_time = 2 * entries * 8 / (measured_bw * 1e9)
        predicted = host.stream_time(stream_cost(entries), 1)
        # stream_cost charges write-allocate (3x8 bytes/entry vs 2x8
        # measured-denominator), so allow the factor plus noise.
        assert predicted / measured_time < 4.0
        assert measured_time / predicted < 4.0

    @pytest.mark.bench
    def test_gemm_prediction_tracks_measurement(self, host):
        n = 384
        gf = measure_gemm_gflops(n, n, n, repeats=2)
        measured_time = 2.0 * n**3 / (gf * 1e9)
        predicted = host.blas_time(gemm_cost(n, n, n), 1)
        assert predicted / measured_time < 3.0
        assert measured_time / predicted < 3.0
