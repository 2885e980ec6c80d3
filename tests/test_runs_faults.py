"""Tests for the deterministic fault-injection harness (repro.runs.faults)."""

import os

import pytest

from repro.runs.faults import (
    ENV_VAR,
    STATE_ENV_VAR,
    FaultInjector,
    FaultSpec,
    InjectedFault,
    ensure_shared_state_dir,
    injector_from_env,
    parse_faults,
)


class TestParse:
    def test_full_syntax(self):
        specs = parse_faults("kill:shard=1;stall:shard=2,secs=3.5;"
                             "corrupt-cache:times=2;raise:p=0.5,seed=7")
        assert [s.kind for s in specs] == ["kill", "stall",
                                           "corrupt-cache", "raise"]
        assert specs[0].shard == 1
        assert specs[1].secs == 3.5
        assert specs[2].times == 2 and specs[2].shard is None
        assert specs[3].p == 0.5 and specs[3].seed == 7

    def test_bare_kind(self):
        (spec,) = parse_faults("corrupt-cache")
        assert spec.kind == "corrupt-cache"
        assert spec.shard is None and spec.times == 1

    def test_empty_segments_ignored(self):
        assert len(parse_faults("kill; ;stall:shard=0;")) == 2

    def test_unknown_kind(self):
        for text in ("meteor-strike", "drop-shm"):
            with pytest.raises(ValueError, match="unknown fault kind"):
                parse_faults(text)

    def test_unknown_argument(self):
        with pytest.raises(ValueError, match="unknown fault argument"):
            parse_faults("kill:severity=11")

    def test_bad_argument_shape(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_faults("kill:shard")


class TestFiring:
    def test_times_budget(self):
        inj = FaultInjector(parse_faults("stall:times=2"))
        assert len(inj.fire("shard-start", shard=0)) == 1
        assert len(inj.fire("shard-start", shard=1)) == 1
        assert inj.fire("shard-start", shard=2) == []

    def test_shard_filter(self):
        inj = FaultInjector(parse_faults("stall:shard=3"))
        assert inj.fire("shard-start", shard=1) == []
        assert len(inj.fire("shard-start", shard=3)) == 1

    def test_site_filter(self):
        inj = FaultInjector(parse_faults("corrupt-cache"))
        assert inj.fire("shard-start", shard=0) == []
        assert len(inj.fire("cache-saved", shard=0)) == 1

    def test_raise_kind(self):
        inj = FaultInjector(parse_faults("raise:shard=0"))
        with pytest.raises(InjectedFault, match="shard 0"):
            inj.fire("shard-start", shard=0)
        # budget consumed by the raise
        inj.fire("shard-start", shard=0)

    def test_disabled_injector(self):
        inj = FaultInjector.disabled()
        assert not inj
        assert inj.fire("shard-start", shard=0) == []

    def test_probability_is_deterministic(self):
        fires = []
        for _ in range(2):
            inj = FaultInjector(parse_faults("stall:p=0.5,seed=3,times=100"))
            fires.append([bool(inj.fire("shard-start", shard=i))
                          for i in range(20)])
        assert fires[0] == fires[1]
        assert 0 < sum(fires[0]) < 20  # neither always nor never

    def test_state_dir_shares_counts(self, tmp_path):
        a = FaultInjector(parse_faults("stall"), state_dir=tmp_path)
        b = FaultInjector(parse_faults("stall"), state_dir=tmp_path)
        assert len(a.fire("shard-start", shard=0)) == 1
        # the "other process" sees the spent budget
        assert b.fire("shard-start", shard=0) == []


class TestEnv:
    def test_from_env_disabled_by_default(self, monkeypatch):
        monkeypatch.delenv(ENV_VAR, raising=False)
        assert not injector_from_env()

    def test_from_env_parses_and_uses_state_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_VAR, "kill:shard=2")
        monkeypatch.setenv(STATE_ENV_VAR, str(tmp_path / "state"))
        inj = injector_from_env()
        assert inj and inj.specs[0].kind == "kill"
        assert inj.state_dir == tmp_path / "state"

    def test_ensure_shared_state_dir(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_VAR, "stall")
        monkeypatch.delenv(STATE_ENV_VAR, raising=False)
        ensure_shared_state_dir(tmp_path / "shared")
        assert os.environ[STATE_ENV_VAR] == str(tmp_path / "shared")
        # second call keeps the first choice
        ensure_shared_state_dir(tmp_path / "other")
        assert os.environ[STATE_ENV_VAR] == str(tmp_path / "shared")

    def test_ensure_is_noop_without_faults(self, monkeypatch, tmp_path):
        monkeypatch.delenv(ENV_VAR, raising=False)
        monkeypatch.delenv(STATE_ENV_VAR, raising=False)
        ensure_shared_state_dir(tmp_path / "unused")
        assert STATE_ENV_VAR not in os.environ
        assert not (tmp_path / "unused").exists()


class TestSpec:
    def test_ident_stability(self):
        spec = FaultSpec(kind="stall", shard=2)
        assert spec.ident(0) == "0-stall-2"
        assert FaultSpec(kind="kill").ident(3) == "3-kill-any"

    def test_site_mapping(self):
        assert FaultSpec(kind="kill").site == "shard-start"
        assert FaultSpec(kind="corrupt-cache").site == "cache-saved"
