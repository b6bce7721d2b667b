"""The backend-conformance suite: every execution backend, one set of invariants.

Parametrized over every :data:`execution_conformance.CONTRACTS` entry (serial,
pool, distributed) and -- for cross-process backends -- over the ``fork`` and
``spawn`` start methods.  A future backend inherits this entire suite by
registering one :class:`~execution_conformance.BackendContract`.

The invariants are the acceptance criteria of the execution plane: bit-for-bit
equality with the serial reference, zero builds inside workers, delta-only
journal resume, per-point failure isolation, and graceful cancellation with no
shared-memory residue and a resumable journal.
"""

from __future__ import annotations

import pytest
from execution_conformance import (
    CONTRACTS,
    SOLVERS,
    assert_bit_for_bit,
    base_grid,
    failing_grid,
    serial_reference,
)
from shm_conformance import shm_residue

pytestmark = pytest.mark.parametrize("kind", sorted(CONTRACTS))


@pytest.fixture(params=["fork", "spawn"])
def start_method(request, kind, monkeypatch):
    """Pin the pool start method; single run for non-pool backends."""
    if not CONTRACTS[kind].cross_process and request.param != "fork":
        pytest.skip("start method does not apply to this backend")
    monkeypatch.setenv("REPRO_TEST_START_METHOD", request.param)
    return request.param


class TestBitForBit:
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_matches_serial_reference(self, kind, start_method, solver):
        """Certified bounds and CSV value columns agree with serial exactly."""
        contract = CONTRACTS[kind]
        result = contract.execute(base_grid(solver))
        assert not result.failures
        assert_bit_for_bit(serial_reference(solver=solver), result)
        assert result.description

    def test_chained_series_match_reference(self, kind, start_method):
        """Bound-reuse chains (one unit per series) reproduce serial exactly."""
        contract = CONTRACTS[kind]
        result = contract.execute(base_grid(reuse_p_axis_bounds=True))
        assert not result.failures
        assert_bit_for_bit(serial_reference(chained=True), result)


class TestWorkerBuilds:
    def test_workers_never_explore(self, kind, start_method):
        """Acceptance invariant: worker processes perform zero builds."""
        contract = CONTRACTS[kind]
        if contract.worker_builds is None:
            pytest.skip("backend has no worker processes")
        builds = contract.worker_builds(base_grid())
        assert builds and all(count == 0 for count in builds)


class TestJournalResume:
    @pytest.mark.parametrize("solver", SOLVERS)
    def test_resume_recomputes_nothing_after_a_complete_run(self, kind, tmp_path, solver):
        """A resumed complete journal replays every point and records none."""
        contract = CONTRACTS[kind]
        journal_path = tmp_path / "sweep.journal"
        first = contract.execute(base_grid(solver), journal_path=journal_path)
        assert not first.failures
        first_meta = first.metadata["journal"]
        assert first_meta["recorded"] > 0 and first_meta["replayed"] == 0

        resumed = contract.execute(base_grid(solver), journal_path=journal_path, resume=True)
        assert not resumed.failures
        meta = resumed.metadata["journal"]
        assert meta["recorded"] == 0, "a complete journal must leave no delta"
        assert meta["replayed"] == first_meta["recorded"]
        assert meta["skipped_units"] > 0
        assert_bit_for_bit(first, resumed)
        assert_bit_for_bit(serial_reference(solver=solver), resumed)


class TestFailureIsolation:
    def test_bad_point_is_isolated(self, kind):
        """One invalid grid point fails alone; its neighbours still certify."""
        contract = CONTRACTS[kind]
        result = contract.execute(failing_grid())
        assert [point.p for point in result.points] == [0.1, 0.3]
        assert len(result.failures) == 1
        failure = result.failures[0]
        assert failure.p == 1.5
        assert "ConfigurationError" in failure.message


class TestGracefulCancellation:
    def test_cancellation_leaves_resumable_journal_and_no_residue(self, kind, tmp_path):
        """Cancellation propagates, leaks nothing, and the journal resumes."""
        contract = CONTRACTS[kind]
        residue_before = shm_residue()
        journal_path = tmp_path / "sweep.journal"
        exc = contract.cancel(base_grid(), journal_path)
        assert isinstance(exc, contract.cancelled_type)
        assert shm_residue() == residue_before, "cancellation leaked shared memory"
        assert journal_path.exists(), "the journal must survive a cancellation"

        resumed = contract.execute(base_grid(), journal_path=journal_path, resume=True)
        assert not resumed.failures
        assert_bit_for_bit(serial_reference(), resumed)
        if contract.journals_before_cancel:
            assert resumed.metadata["journal"]["replayed"] > 0
