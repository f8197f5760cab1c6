"""Tests for the simulated MPI communicator."""

import hashlib

import numpy as np
import pytest

from repro.dist import CommLog, SimComm
from repro.resilience import FaultConfig, FaultInjector


class TestAlltoallv:
    def test_transpose_semantics(self):
        comm = SimComm(3)
        send = [
            [np.array([p * 10 + q], dtype=np.float32) for q in range(3)]
            for p in range(3)
        ]
        recv = comm.alltoallv(send)
        for q in range(3):
            for p in range(3):
                assert recv[q][p][0] == p * 10 + q

    def test_volume_logging(self):
        comm = SimComm(2)
        send = [
            [np.zeros(0, dtype=np.float32), np.zeros(5, dtype=np.float32)],
            [np.zeros(3, dtype=np.float32), np.zeros(0, dtype=np.float32)],
        ]
        comm.alltoallv(send)
        assert comm.log.volume_bytes[0, 1] == 20
        assert comm.log.volume_bytes[1, 0] == 12
        assert comm.log.message_counts[0, 0] == 0  # empty buffers not counted
        assert comm.log.collective_calls == 1

    def test_shape_validation(self):
        comm = SimComm(2)
        with pytest.raises(ValueError):
            comm.alltoallv([[np.zeros(1)]])

    def test_empty_exchange(self):
        comm = SimComm(2)
        send = [[np.zeros(0)] * 2 for _ in range(2)]
        recv = comm.alltoallv(send)
        assert all(r.size == 0 for row in recv for r in row)
        assert comm.log.off_diagonal_volume() == 0


class TestAllreduce:
    def test_sum(self):
        comm = SimComm(4)
        pieces = [np.full(3, float(p)) for p in range(4)]
        total = comm.allreduce_sum(pieces)
        np.testing.assert_allclose(total, 6.0)

    def test_traffic_logged(self):
        comm = SimComm(4)
        comm.allreduce_sum([np.zeros(100, dtype=np.float32) for _ in range(4)])
        assert comm.log.off_diagonal_volume() > 0

    def test_shape_mismatch_rejected(self):
        comm = SimComm(2)
        with pytest.raises(ValueError):
            comm.allreduce_sum([np.zeros(2), np.zeros(3)])

    def test_count_mismatch_rejected(self):
        comm = SimComm(3)
        with pytest.raises(ValueError):
            comm.allreduce_sum([np.zeros(2)])


class TestCommLog:
    def test_partner_counts(self):
        log = CommLog(3)
        log.message_counts[0, 1] = 2
        log.message_counts[2, 0] = 1
        np.testing.assert_array_equal(log.partners_per_rank(), [2, 1, 1])

    def test_send_recv_per_rank_exclude_self(self):
        log = CommLog(2)
        log.volume_bytes[0, 0] = 100  # self-copy
        log.volume_bytes[0, 1] = 40
        np.testing.assert_array_equal(log.send_bytes_per_rank(), [40, 0])
        np.testing.assert_array_equal(log.recv_bytes_per_rank(), [0, 40])
        assert log.off_diagonal_volume() == 40

    def test_reset(self):
        comm = SimComm(2)
        comm.alltoallv([[np.zeros(1, dtype=np.float32)] * 2 for _ in range(2)])
        comm.reset_log()
        assert comm.log.collective_calls == 0
        assert comm.log.off_diagonal_volume() == 0

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            SimComm(0)


class TestReliableDelivery:
    def test_seeded_faults_replay_pinned_stats(self):
        """Both collectives share one delivery loop; a seeded, faulted
        4-rank run draws its faults in a fixed order, so the draw sequence,
        its stats, its traffic log and the injector's next draw are
        pinned values."""
        inj = FaultInjector(FaultConfig(drop=0.2, corrupt=0.15, delay=0.1, seed=11))
        draws = []
        real_draw = inj.draw

        def logged_draw(sender, receiver):
            outcome = real_draw(sender, receiver)
            draws.append((sender, receiver, outcome))
            return outcome

        inj.draw = logged_draw
        comm = SimComm(4, fault_injector=inj)
        rng = np.random.default_rng(5)
        send = [[rng.random(p + q + 1) for q in range(4)] for p in range(4)]
        for _ in range(3):
            recv = comm.alltoallv(send)
            total = comm.allreduce_sum([rng.random(6) for _ in range(4)])
            assert all(recv[q][p] is send[p][q] for p in range(4) for q in range(4))
            assert total.shape == (6,)
        assert len(draws) == 87
        assert [d for d in draws if d[2] != "ok"][:6] == [
            (0, 1, "drop"), (1, 0, "drop"), (1, 2, "drop"),
            (2, 0, "drop"), (2, 1, "drop"), (3, 1, "delay"),
        ]
        digest = hashlib.sha256(repr(draws).encode()).hexdigest()[:16]
        assert digest == "2f2caf1ed9ccc384"
        assert inj.stats.as_dict() == {
            "drops": 24, "corruptions": 15, "delays": 5, "crashes": 0,
            "retries": 39, "recoveries": 23,
            "backoff_seconds": pytest.approx(0.029),
        }
        np.testing.assert_array_equal(
            comm.log.volume_bytes,
            [[24, 264, 72, 96], [48, 72, 312, 120], [72, 96, 120, 360],
             [312, 120, 144, 168]],
        )
        np.testing.assert_array_equal(
            comm.log.message_counts,
            [[3, 6, 3, 3], [3, 3, 6, 3], [3, 3, 3, 6], [6, 3, 3, 3]],
        )
        assert comm.log.collective_calls == 6
        assert inj.rng.random() == 0.786284788623732
