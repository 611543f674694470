"""Shared environment-variable parsing (:mod:`repro.envutil`)."""

import pytest

from repro.envutil import env_flag, env_int, env_jobs, env_str
from repro.errors import ExperimentError


class TestEnvStr:
    def test_unset_is_none(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_STR", raising=False)
        assert env_str("REPRO_TEST_STR") is None

    def test_empty_and_whitespace_are_none(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_STR", "")
        assert env_str("REPRO_TEST_STR") is None
        monkeypatch.setenv("REPRO_TEST_STR", "   ")
        assert env_str("REPRO_TEST_STR") is None

    def test_value_passes_through_raw(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_STR", " seed=7 ")
        assert env_str("REPRO_TEST_STR") == " seed=7 "


class TestEnvInt:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_INT", raising=False)
        assert env_int("REPRO_TEST_INT", 16) == 16

    def test_set_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "42")
        assert env_int("REPRO_TEST_INT", 16) == 42

    def test_non_int_raises_naming_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "many")
        with pytest.raises(ExperimentError, match="REPRO_TEST_INT"):
            env_int("REPRO_TEST_INT", 16)

    def test_negative_rejected_by_default_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "-1")
        with pytest.raises(ExperimentError, match=">= 0"):
            env_int("REPRO_TEST_INT", 16)

    def test_below_explicit_minimum_raises_not_clamps(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "0")
        with pytest.raises(ExperimentError, match=">= 1"):
            env_int("REPRO_TEST_INT", 4, minimum=1)

    def test_value_at_minimum_accepted(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_INT", "1")
        assert env_int("REPRO_TEST_INT", 4, minimum=1) == 1

    def test_default_is_not_validated_against_minimum(self, monkeypatch):
        # The default is the caller's responsibility; only env values
        # are checked (a deliberate asymmetry: defaults are code, env
        # values are user input).
        monkeypatch.delenv("REPRO_TEST_INT", raising=False)
        assert env_int("REPRO_TEST_INT", 0, minimum=1) == 0


class TestEnvFlag:
    @pytest.mark.parametrize("raw", ["1", "true", "YES", "On"])
    def test_truthy(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_FLAG", raw)
        assert env_flag("REPRO_TEST_FLAG", False) is True

    @pytest.mark.parametrize("raw", ["0", "false", "NO", "Off"])
    def test_falsy(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TEST_FLAG", raw)
        assert env_flag("REPRO_TEST_FLAG", True) is False

    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_FLAG", raising=False)
        assert env_flag("REPRO_TEST_FLAG", True) is True
        assert env_flag("REPRO_TEST_FLAG", False) is False

    def test_junk_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_FLAG", "maybe")
        with pytest.raises(ExperimentError, match="REPRO_TEST_FLAG"):
            env_flag("REPRO_TEST_FLAG", True)


class TestWrappers:
    def test_env_jobs_minimum_is_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ExperimentError, match="REPRO_JOBS"):
            env_jobs()

    def test_env_jobs_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        assert env_jobs() == 1
        assert env_jobs(4) == 4
