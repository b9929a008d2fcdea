"""Tests for the Monte Carlo harness: estimates, sweeps, thresholds."""

import dataclasses
import json
import math
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkptrack.harness import (
    BLOCK_SIZE,
    CSV_HEADER,
    CrossingPair,
    CsvSink,
    NoCrossingError,
    PointEstimate,
    SweepConfig,
    ThresholdEstimate,
    check_resume,
    estimate_point,
    find_threshold,
    philox_key,
    read_results,
    sweep,
    wilson_interval,
    write_manifest,
)
from gkptrack.kernels import STREAM_VERSION


class RiggedBackend:
    """Deterministic stand-in kernel failing with a known probability."""

    name = "rigged"

    def __init__(self, p_fail):
        self.p_fail = p_fail

    def run_block(self, params, generator, trials):
        draws = generator.random(trials)
        return int(np.sum(draws < self.p_fail))


class CountingBackend(RiggedBackend):
    """Rigged kernel that counts its ``run_block`` calls (from any thread)."""

    def __init__(self, p_fail, raise_on_call=None):
        super().__init__(p_fail)
        self.calls = 0
        self.raise_on_call = raise_on_call
        self._lock = threading.Lock()

    def run_block(self, params, generator, trials):
        with self._lock:
            self.calls += 1
            call = self.calls
        if call == self.raise_on_call:
            raise RuntimeError("block failed")
        return super().run_block(params, generator, trials)


class ThreadRecordingBackend(RiggedBackend):
    """Rigged kernel under another kernel's name that records its threads."""

    def __init__(self, name):
        super().__init__(0.5)
        self.name = name
        self.threads = set()

    def run_block(self, params, generator, trials):
        self.threads.add(threading.get_ident())
        return super().run_block(params, generator, trials)


def one_point(protocol, analog, cycles, level, sigma_total, trials, master_seed, **settings):
    """A ``SweepConfig`` of the one point ``(level, sigma_total)``."""
    return SweepConfig(protocol=protocol, analog=analog, cycles=cycles,
                       sigma_total_grid=(sigma_total,), levels=(level,),
                       trials_per_point=trials, master_seed=master_seed, **settings)


def synthetic_estimate(level, sigma, p, trials=10_000, **kw):
    failures = int(round(p * trials))
    lo, hi = wilson_interval(failures, trials)
    return PointEstimate(
        protocol=kw.get("protocol", "conventional"),
        analog=kw.get("analog", True),
        cycles=2,
        level=level,
        sigma_total=sigma,
        trials=trials,
        failures=failures,
        p_fail=failures / trials,
        ci_low=lo,
        ci_high=hi,
        master_seed=1,
    )


class TestWilson:
    def test_basic_properties(self):
        lo, hi = wilson_interval(50, 1000)
        assert 0.0 < lo < 0.05 < hi < 1.0

    def test_zero_failures_one_sided(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0
        assert 0.0 < hi < 0.01

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 0)
        with pytest.raises(ValueError):
            wilson_interval(11, 10)

    def test_coverage(self):
        # interval covers the true rate in >= 93% of repeated estimates
        p_star = 0.013
        backend = RiggedBackend(p_star)
        covered = 0
        reps = 1000
        for i in range(reps):
            cfg = one_point("conventional", True, 2, 1, 1.0, 4000, master_seed=500 + i)
            est = estimate_point(cfg, 0, backend=backend, workers=1)
            covered += est.ci_low <= p_star <= est.ci_high
        assert covered / reps >= 0.93


class TestEstimatePoint:
    def test_deterministic_across_workers(self):
        cfg = SweepConfig(protocol="tracking", analog=True, cycles=2, sigma_total_grid=(0.8, 0.9),
                          levels=(1, 2), trials_per_point=30_000, master_seed=99)
        a = estimate_point(cfg, 3, workers=1)
        b = estimate_point(cfg, 3, workers=8)
        assert (a.level, a.sigma_total) == (2, 0.9)
        assert a == b

    @pytest.mark.parametrize("index", [-1, 4])
    def test_index_outside_grid_refused(self, index):
        cfg = SweepConfig(protocol="tracking", analog=True, cycles=2, sigma_total_grid=(0.8, 0.9),
                          levels=(1, 2), trials_per_point=10, master_seed=99)
        with pytest.raises(ValueError, match=f"point index {index} outside the sweep's 4 points"):
            estimate_point(cfg, index, backend=CountingBackend(0.5))

    def test_max_failures_stop_truncates_deterministically(self):
        backend = RiggedBackend(0.5)
        cfg = one_point("conventional", True, 2, 1, 1.0, 100_000, master_seed=1,
                        max_failures_stop=500)
        a = estimate_point(cfg, 0, backend=backend, workers=1)
        b = estimate_point(cfg, 0, backend=backend, workers=6)
        assert a == b
        assert a.trials < 100_000
        assert a.failures >= 500

    def test_philox_key_limits(self):
        philox_key(2**63, 2**39, 2**23)
        with pytest.raises(ValueError):
            philox_key(1, 1, 2**24)
        with pytest.raises(ValueError):
            philox_key(1, 2**40, 0)


class TestBlockScheduling:
    """The stop is decided in block order, and no block is started past it."""

    # 6 blocks of BLOCK_SIZE trials; at p = 0.5 block 0 alone has ~4,096 failures
    POINT = one_point("conventional", True, 2, 1, 1.0, 6 * BLOCK_SIZE, master_seed=3)

    def estimate(self, backend, max_failures_stop=None, **kwargs):
        cfg = dataclasses.replace(self.POINT, max_failures_stop=max_failures_stop)
        return estimate_point(cfg, 0, backend=backend, **kwargs)

    def test_serial_stop_runs_one_block(self):
        backend = CountingBackend(0.5)
        est = self.estimate(backend, workers=1, max_failures_stop=100)
        assert backend.calls == 1
        assert est.trials == BLOCK_SIZE

    @pytest.mark.parametrize("workers", [2, 3, 4, 6])
    def test_pool_stop_runs_at_most_workers_blocks(self, workers):
        backend = CountingBackend(0.5)
        est = self.estimate(backend, workers=workers, max_failures_stop=100)
        assert 1 <= backend.calls <= workers
        assert est.trials == BLOCK_SIZE

    def test_late_stop_bounded_overshoot(self):
        # ~100 failures per block: the stop falls in block 2
        serial = CountingBackend(100 / BLOCK_SIZE)
        ref = self.estimate(serial, workers=1, max_failures_stop=250)
        stop_blocks = ref.trials // BLOCK_SIZE
        assert serial.calls == stop_blocks == 3
        for workers in (2, 3):
            backend = CountingBackend(100 / BLOCK_SIZE)
            assert self.estimate(backend, workers=workers, max_failures_stop=250) == ref
            assert stop_blocks <= backend.calls <= stop_blocks + workers - 1

    @pytest.mark.parametrize("stop", [None, 1, 100, 1200, 10_000])
    def test_estimate_identical_across_workers(self, stop):
        # ~500 failures per block: stops in block 0, in block 2, and never
        p_fail = 500 / BLOCK_SIZE
        ref = self.estimate(RiggedBackend(p_fail), workers=1, max_failures_stop=stop)
        for workers in range(2, 7):
            assert self.estimate(RiggedBackend(p_fail), workers=workers, max_failures_stop=stop) == ref

    @pytest.mark.parametrize("workers", [1, 2, 4, 8])
    def test_no_stop_runs_every_block(self, workers):
        backend = CountingBackend(0.5)
        est = self.estimate(backend, workers=workers)
        assert backend.calls == 6
        assert est.trials == 6 * BLOCK_SIZE

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("failing_call", [1, 4, 6])
    def test_block_exception_propagates(self, workers, failing_call):
        backend = CountingBackend(0.5, raise_on_call=failing_call)
        with pytest.raises(RuntimeError, match="block failed"):
            self.estimate(backend, workers=workers)

    @pytest.mark.parametrize("kernel,pooled", [("pure", False), ("rigged", False)])
    def test_default_workers_follow_kernel(self, monkeypatch, kernel, pooled):
        # one rule for every kernel: without ``workers`` the blocks run on the
        # calling thread, however many cores there are
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        backend = ThreadRecordingBackend(kernel)
        est = self.estimate(backend)
        assert est == self.estimate(RiggedBackend(0.5), workers=1)
        on_caller = backend.threads == {threading.get_ident()}
        assert on_caller != pooled
        assert len(backend.threads) <= 4


class TestSweep:
    def test_grid_times_levels_rows(self, tmp_path):
        cfg = SweepConfig(
            protocol="conventional", analog=True, cycles=2,
            sigma_total_grid=tuple(0.9 + 0.05 * i for i in range(9)),
            levels=(1, 2, 3), trials_per_point=200, master_seed=7,
        )
        sink = CsvSink(tmp_path / "r.csv")
        results = sweep(cfg, sink, workers=2)
        assert len(results) == 27
        assert len(read_results(tmp_path / "r.csv")) == 27

    def test_single_point_equals_estimate(self):
        cfg = SweepConfig(
            protocol="tracking", analog=False, cycles=2,
            sigma_total_grid=(0.9,), levels=(1,), trials_per_point=5000, master_seed=3,
        )
        [only] = sweep(cfg, None, workers=1)
        direct = estimate_point(cfg, 0, workers=1)
        assert only == direct

    def test_resume_completes_missing_points(self, tmp_path):
        cfg = SweepConfig(
            protocol="conventional", analog=False, cycles=2,
            sigma_total_grid=(0.8, 1.0), levels=(1, 2), trials_per_point=400,
            master_seed=11,
        )
        path = tmp_path / "r.csv"
        full_sink = CsvSink(path)
        full = sweep(cfg, full_sink, workers=1)
        full_bytes = path.read_bytes()

        # interrupted file: keep only the first two rows
        lines = path.read_text().splitlines(keepends=True)
        path.write_text("".join(lines[:3]))
        resumed = sweep(cfg, CsvSink(path), workers=1)
        assert resumed == full[2:]  # only the missing points were computed
        assert path.read_bytes() == full_bytes

    @pytest.mark.parametrize("cut", [1, 4, 30])
    def test_resume_drops_truncated_last_row(self, tmp_path, cut):
        # a crash mid-write leaves the last row without its newline
        cfg = SweepConfig(
            protocol="conventional", analog=False, cycles=2,
            sigma_total_grid=(0.8, 1.0), levels=(1, 2), trials_per_point=400,
            master_seed=11,
        )
        path = tmp_path / "r.csv"
        sweep(cfg, CsvSink(path), workers=1)
        full_bytes = path.read_bytes()

        path.write_bytes(full_bytes[:-cut])
        resumed = sweep(cfg, CsvSink(path), workers=1)
        assert len(resumed) == 1
        assert path.read_bytes() == full_bytes

    def test_resume_rejects_malformed_complete_row(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text(CSV_HEADER + "\nconventional,on,2,1,1.0,100,bad,0.1,0.0,0.2,7\n"
                        "conventional,on,2,1,1.1,100,3")
        with pytest.raises(ValueError, match="line 2"):
            CsvSink(path)

    def test_reproducible_bytes_across_workers(self, tmp_path):
        cfg = SweepConfig(
            protocol="tracking", analog=True, cycles=2,
            sigma_total_grid=(0.9, 1.0), levels=(1, 2), trials_per_point=3000,
            master_seed=21,
        )
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        sweep(cfg, CsvSink(p1), workers=1)
        sweep(cfg, CsvSink(p2), workers=8)
        assert p1.read_bytes() == p2.read_bytes()

    def test_manifest_written(self, tmp_path):
        cfg = SweepConfig(
            protocol="conventional", analog=True, cycles=2,
            sigma_total_grid=(1.0,), levels=(1,), trials_per_point=10, master_seed=1,
        )
        write_manifest(tmp_path / "m.json", cfg, "pure", 2)
        payload = json.loads((tmp_path / "m.json").read_text())
        assert payload["config"]["master_seed"] == 1
        assert payload["backend"] == "pure"
        assert payload["numpy"] == np.__version__
        # a resume compares run settings only, not the numpy that wrote the rows
        payload["numpy"] = "0.0"
        (tmp_path / "m.json").write_text(json.dumps(payload))
        check_resume(tmp_path / "m.json", tmp_path / "results.csv", cfg)

    def test_manifest_config_is_every_field(self, tmp_path):
        """Every config field reaches the manifest, and a resume compares each of them."""
        cfg = one_point("tracking", True, 3, 2, 1.2, 10, master_seed=1, max_failures_stop=5,
                        quadrature="p", sigma_ancilla=0.15)
        manifest = tmp_path / "m.json"
        write_manifest(manifest, cfg, "pure", 1)
        payload = json.loads(manifest.read_text())
        config = payload["config"]
        names = [f.name for f in dataclasses.fields(SweepConfig)]
        assert config == {**{name: json.loads(json.dumps(getattr(cfg, name))) for name in names},
                          "stream_version": STREAM_VERSION}
        assert list(config) == names + ["stream_version"]
        check_resume(manifest, tmp_path / "results.csv", cfg)
        for name, value in config.items():
            manifest.write_text(json.dumps({**payload, "config": {**config, name: "other"}}))
            with pytest.raises(ValueError, match=re.escape(f"({name} 'other' -> {value!r})")):
                check_resume(manifest, tmp_path / "results.csv", cfg)

    def test_grid_must_be_sorted(self):
        with pytest.raises(ValueError):
            SweepConfig(
                protocol="conventional", analog=True, cycles=2,
                sigma_total_grid=(1.0, 0.9), levels=(1,), trials_per_point=10,
                master_seed=1,
            )

    @pytest.mark.parametrize("fields,message", [
        (dict(levels=(1, 0)), "level must be >= 1, got 0"),
        (dict(sigma_total_grid=(0.0, 1.0)), "sigma_total must be > 0"),
        (dict(sigma_total_grid=()), "at least one sigma_total and one level"),
        (dict(protocol="nope", levels=()), "at least one sigma_total and one level"),
    ])
    def test_every_point_validated(self, fields, message):
        """A config any of whose points a kernel would refuse is refused when it is made."""
        base = dict(protocol="tracking", analog=True, cycles=2, sigma_total_grid=(1.0,),
                    levels=(1,), trials_per_point=10, master_seed=1)
        with pytest.raises(ValueError, match=re.escape(message)):
            SweepConfig(**{**base, **fields})


class TestReadResults:
    def test_bad_header(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text("nope\n")
        with pytest.raises(ValueError, match="line 1"):
            read_results(p)

    def test_malformed_row_names_line(self, tmp_path):
        p = tmp_path / "x.csv"
        p.write_text(CSV_HEADER + "\nconventional,on,2,1,1.0,100,bad,0.1,0.0,0.2,7\n")
        with pytest.raises(ValueError, match="line 2"):
            read_results(p)

    @settings(max_examples=200, deadline=None)
    @given(st.builds(
        PointEstimate,
        protocol=st.sampled_from(["conventional", "tracking"]),
        analog=st.booleans(),
        cycles=st.integers(),
        level=st.integers(),
        sigma_total=st.floats(allow_nan=False, allow_infinity=False),
        trials=st.integers(),
        failures=st.integers(),
        p_fail=st.floats(allow_nan=False, allow_infinity=False),
        ci_low=st.floats(allow_nan=False, allow_infinity=False),
        ci_high=st.floats(allow_nan=False, allow_infinity=False),
        master_seed=st.integers(),
    ))
    def test_csv_row_round_trip(self, tmp_path_factory, est):
        """A row read back is the estimate written: floats bit-equal, on/off intact."""
        path = tmp_path_factory.getbasetemp() / "round-trip.csv"
        path.write_text(CSV_HEADER + "\n" + est.csv_row() + "\n")
        (back,) = read_results(path)
        assert back == est
        assert back.analog is est.analog
        for name in ("sigma_total", "p_fail", "ci_low", "ci_high"):
            assert getattr(back, name).hex() == getattr(est, name).hex()


class TestFindThreshold:
    def test_synthetic_analytic_crossing(self):
        # p_a ~ sigma^2 and p_b ~ sigma^3 cross at sigma = 1 (scaled into (0,1))
        ests = []
        for s in np.linspace(0.8, 1.2, 9):
            ests.append(synthetic_estimate(1, float(s), 0.5 * float(s) ** 2))
            ests.append(synthetic_estimate(2, float(s), 0.5 * float(s) ** 3))
        thr = find_threshold(ests)
        assert thr.sigma_star == pytest.approx(1.0, abs=0.01)
        assert thr.spread == 0.0
        assert thr.crossing_pairs[0] == CrossingPair(1, 2, thr.sigma_star)

    def test_reorder_invariance(self):
        ests = []
        for s in np.linspace(0.8, 1.2, 9):
            for level, expo in ((1, 2), (2, 3), (3, 4)):
                ests.append(synthetic_estimate(level, float(s), 0.4 * float(s) ** expo))
        a = find_threshold(ests)
        rng = np.random.default_rng(0)
        shuffled = list(ests)
        rng.shuffle(shuffled)
        assert find_threshold(shuffled) == a

    def test_no_crossing_raises(self):
        ests = [synthetic_estimate(1, s, 0.2) for s in (0.9, 1.0)]
        ests += [synthetic_estimate(2, s, 0.1) for s in (0.9, 1.0)]
        with pytest.raises(NoCrossingError, match="no crossing in grid"):
            find_threshold(ests)

    def test_single_level_raises(self):
        ests = [synthetic_estimate(1, s, 0.2) for s in (0.9, 1.0)]
        with pytest.raises(NoCrossingError):
            find_threshold(ests)

    def test_mixed_configs_rejected(self):
        ests = [
            synthetic_estimate(1, 0.9, 0.2, protocol="conventional"),
            synthetic_estimate(2, 0.9, 0.1, protocol="tracking"),
        ]
        with pytest.raises(ValueError, match="mix"):
            find_threshold(ests)

    def test_json_round_trip(self):
        thr = ThresholdEstimate(1.11, (CrossingPair(1, 2, 1.10), CrossingPair(2, 3, 1.12)), 0.02)
        payload = json.loads(thr.to_json())
        assert payload["sigma_star"] == 1.11
        assert len(payload["crossings"]) == 2
        assert ThresholdEstimate.from_json(thr.to_json()) == thr
