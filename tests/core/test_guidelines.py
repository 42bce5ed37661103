"""Tests for the Section 8 guidelines advisor."""

import pytest

from repro.core import guidelines, measurement
from repro.core.config import Mode, Pattern
from repro.core.guidelines import SUSPICIOUS_EVENTS, Recommendation, advise
from repro.cpu.events import Event
from repro.cpu.frequency import Governor
from repro.errors import ConfigurationError


class TestAdvise:
    def test_user_mode_recommends_perfmon_family(self):
        rec = advise(processor="CD", mode=Mode.USER, calibration_runs=3)
        # Paper §4.2: perfmon wins user-mode counting.
        assert rec.infra == "pm"
        assert rec.expected_fixed_error < 60

    def test_user_kernel_recommends_perfctr_family(self):
        rec = advise(processor="CD", mode=Mode.USER_KERNEL, calibration_runs=3)
        # Paper §4.2: perfctr wins user+kernel counting.
        assert rec.infra == "pc"

    def test_restricting_candidates(self):
        rec = advise(
            processor="K8", mode=Mode.USER,
            candidate_infras=("PHpm", "PHpc"), calibration_runs=3,
        )
        assert rec.infra in ("PHpm", "PHpc")

    def test_duration_warning_only_for_user_kernel(self):
        user = advise(processor="CD", mode=Mode.USER, calibration_runs=2)
        uk = advise(processor="CD", mode=Mode.USER_KERNEL, calibration_runs=2)
        assert not any("duration" in w for w in user.warnings)
        assert any("duration" in w for w in uk.warnings)
        assert uk.duration_error_per_iteration > 0
        assert user.duration_error_per_iteration == 0

    def test_suspicious_event_warning(self):
        rec = advise(
            processor="CD", mode=Mode.USER, event=Event.CYCLES,
            calibration_runs=2,
        )
        assert any("suspicious" in w for w in rec.warnings)
        assert Event.CYCLES in SUSPICIOUS_EVENTS

    def test_governor_warning(self):
        rec = advise(
            processor="CD", mode=Mode.USER, governor=Governor.ONDEMAND,
            calibration_runs=2,
        )
        assert any("governor" in w for w in rec.warnings)

    def test_kernel_only_rejected(self):
        with pytest.raises(ConfigurationError, match="kernel-only"):
            advise(mode=Mode.KERNEL)

    def test_unknown_processor(self):
        with pytest.raises(ConfigurationError, match="unknown processor"):
            advise(processor="P6")


class TestCalibration:
    def test_equal_null_benchmarks_share_recordings(self, monkeypatch):
        """Each calibration run builds its own ``NullBenchmark()``; equal
        benchmarks share a recording, so of the 20 usable (infra,
        pattern) pairs' five runs each, one is recorded and four
        replay."""
        monkeypatch.setattr(measurement, "_RECORDINGS", {})
        monkeypatch.setattr(measurement, "_resident", measurement._Resident())
        rec = advise(processor="CD", mode=Mode.USER)
        assert len(measurement._RECORDINGS) == 20
        assert measurement.replayed() == 80
        assert (rec.infra, rec.pattern, rec.expected_fixed_error) \
            == ("pm", Pattern.START_READ, 38.0)

    def test_only_unsupported_patterns_are_skipped(self, monkeypatch):
        def broken(config, benchmark):
            raise RuntimeError("kext handler failed")

        monkeypatch.setattr(guidelines, "run_measurement", broken)
        with pytest.raises(RuntimeError, match="kext handler failed"):
            advise(processor="CD", mode=Mode.USER)


class TestRecommendation:
    def rec(self) -> Recommendation:
        return advise(processor="K8", mode=Mode.USER, calibration_runs=2)

    def test_as_config_round_trips(self):
        rec = self.rec()
        config = rec.as_config(seed=7)
        assert config.infra == rec.infra
        assert config.pattern is rec.pattern
        assert config.seed == 7

    def test_recommended_config_actually_performs(self):
        """The advisor's pick must measure at least as well as its
        calibration promised (same machine class, fresh seeds)."""
        from repro.core import NullBenchmark, run_measurement

        rec = self.rec()
        result = run_measurement(rec.as_config(seed=1234), NullBenchmark())
        assert result.error <= rec.expected_fixed_error * 3 + 30

    def test_render(self):
        text = self.rec().render()
        assert "pattern" in text
        assert "fixed cost" in text
