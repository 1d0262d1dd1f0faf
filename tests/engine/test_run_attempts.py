"""run_attempts: the one attempt loop under every engine task and fleet job."""

from __future__ import annotations

import multiprocessing
import pickle

import pytest

from repro.engine import executor as executor_module
from repro.engine.errors import InjectedFaultError
from repro.engine.executor import FaultPolicy, run_attempts


def add_one(x):
    """Module-level so a pool can pickle it."""
    return x + 1


def broken(x):
    raise KeyError("deterministic bug {}".format(x))


def _crashing(crashes):
    """A policy crashing the first *crashes* attempts of every task."""
    return FaultPolicy(crash_rate=1.0, seed=11, crashes_per_task=crashes)


def _attempts(policy=None, task=add_one, x=1, max_retries=2,
              retry_backoff=0.0, stage="narrow[0]", index=0):
    return run_attempts(task, x, policy, stage, index, max_retries,
                        retry_backoff)


class TestOutcome:
    def test_success_without_policy_is_one_attempt(self):
        value, error, attempts, seconds = _attempts(x=41)
        assert (value, error, attempts) == (42, None, 1)
        assert seconds >= 0.0

    def test_genuine_exception_is_returned_not_raised(self):
        value, error, attempts, _ = _attempts(task=broken, max_retries=5)
        assert value is None
        assert isinstance(error, KeyError)
        assert attempts == 1

    def test_injected_faults_retried_to_success(self):
        value, error, attempts, _ = _attempts(_crashing(2), x=9)
        assert (value, error, attempts) == (10, None, 3)

    def test_spent_budget_returns_the_last_injected_fault(self):
        value, error, attempts, _ = _attempts(_crashing(5), max_retries=2)
        assert value is None
        assert isinstance(error, InjectedFaultError)
        assert "attempt 2" in str(error)
        assert attempts == 3

    def test_zero_budget_makes_exactly_one_attempt(self):
        _, error, attempts, _ = _attempts(_crashing(1), max_retries=0)
        assert isinstance(error, InjectedFaultError)
        assert attempts == 1

    def test_genuine_exception_after_a_fault_stops_the_loop(self):
        _, error, attempts, _ = _attempts(
            _crashing(1), task=broken, max_retries=4
        )
        assert isinstance(error, KeyError)
        assert attempts == 2

    def test_policy_rolled_at_the_given_coordinate(self):
        policy = FaultPolicy(crash_rate=0.5, seed=3)
        for index in range(8):
            _, error, attempts, _ = _attempts(
                policy, stage="fleet.job", index=index
            )
            assert error is None
            assert attempts == 1 + policy.crashes_for("fleet.job", index)


class TestBackoff:
    def _sleeps(self, monkeypatch, **kwargs):
        sleeps = []
        monkeypatch.setattr(executor_module.time, "sleep", sleeps.append)
        _attempts(**kwargs)
        return sleeps

    def test_backoff_doubles_and_skips_the_last_attempt(self, monkeypatch):
        sleeps = self._sleeps(
            monkeypatch, policy=_crashing(5), max_retries=3,
            retry_backoff=0.5,
        )
        assert sleeps == [0.5, 1.0, 2.0]

    def test_zero_backoff_never_sleeps(self, monkeypatch):
        sleeps = self._sleeps(
            monkeypatch, policy=_crashing(2), max_retries=2,
            retry_backoff=0.0,
        )
        assert sleeps == []

    def test_genuine_exception_never_sleeps(self, monkeypatch):
        sleeps = self._sleeps(
            monkeypatch, task=broken, max_retries=3, retry_backoff=0.5
        )
        assert sleeps == []


class TestInAWorker:
    def test_loop_is_picklable(self):
        assert pickle.loads(pickle.dumps(run_attempts)) is run_attempts

    def test_outcome_reaches_the_driver_from_a_pool(self):
        with multiprocessing.get_context("fork").Pool(processes=1) as pool:
            ok = pool.apply(run_attempts, (
                add_one, 1, _crashing(1), "narrow[0]", 0, 2, 0.0,
            ))
            failed = pool.apply(run_attempts, (
                broken, 1, None, "narrow[0]", 0, 2, 0.0,
            ))
        assert ok[:3] == (2, None, 2)
        assert isinstance(failed[1], KeyError)
        assert failed[2] == 1
