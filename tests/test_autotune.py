"""The autotuner: search determinism, persistence, and degradation.

The contract under test (docs/autotuning.md): the predict-then-trial
search is deterministic under a fixed seed; when measurements agree
with the model the pruned search lands within 5% of an exhaustive
sweep; a persisted record makes warm runs free; and a corrupt or stale
record degrades to a re-tune with a warning — it is never trusted.
"""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from repro import obs
from repro.autotune import (
    Autotuner,
    Candidate,
    TuneStore,
    TuningIntegrityWarning,
    TuningRecord,
    TuningRecordError,
    tune_fingerprint,
)
from repro.core import OperatorConfig, preprocess
from repro.geometry import ParallelBeamGeometry
from repro.sparse import CSRMatrix, scan_transpose


def _problem(rows=96, cols=80, seed=0):
    rng = np.random.default_rng(seed)
    S = sp.random(rows, cols, density=0.2, random_state=rng, format="csr",
                  dtype=np.float32)
    A = CSRMatrix.from_scipy(S).sort_rows_by_index()
    return A, scan_transpose(A)


def _synthetic_measure(scale=1.0):
    """A deterministic, model-free cost: cheapest is buffered/32/8192."""

    def measure(cand, forward, adjoint):
        base = {"csr": 3.0, "buffered": 1.0, "ell": 2.0}[cand.kernel]
        cost = base + cand.partition_size / 1e3 + cand.buffer_bytes / 1e6
        return scale * cost

    return measure


class TestSearch:
    def test_deterministic_under_fixed_seed(self):
        A, AT = _problem()
        outcomes = [
            Autotuner(seed=7, measure=_synthetic_measure()).tune(A, AT)
            for _ in range(2)
        ]
        assert outcomes[0].best.candidate == outcomes[1].best.candidate
        assert [s.predicted_seconds for s in outcomes[0].predictions] == [
            s.predicted_seconds for s in outcomes[1].predictions
        ]
        assert [t.measured_seconds for t in outcomes[0].trials] == [
            t.measured_seconds for t in outcomes[1].trials
        ]

    def test_pruned_search_within_5pct_of_exhaustive(self):
        """When trials agree with the model, top-K pruning loses <= 5%.

        The injected measure reproduces the model's own ranking (each
        trial returns the candidate's predicted time), so the pruned
        search must find the same winner an exhaustive sweep finds.
        """
        A, AT = _problem()
        probe = Autotuner(seed=0)
        predicted = {
            s.candidate: s.predicted_seconds for s in probe.predict(A)
        }

        def model_measure(cand, forward, adjoint):
            return predicted[Candidate(cand.kernel, cand.partition_size,
                                       cand.buffer_bytes)]

        tuner = Autotuner(seed=0, measure=model_measure, top_k=3)
        outcome = tuner.tune(A, AT)
        exhaustive_best = min(predicted.values())
        assert outcome.best.measured_seconds <= 1.05 * exhaustive_best

    def test_predict_mode_skips_trials(self):
        A, AT = _problem()
        calls = []

        def counting_measure(cand, forward, adjoint):
            calls.append(cand)
            return 1.0

        outcome = Autotuner(measure=counting_measure).tune(A, AT, mode="predict")
        assert outcome.mode == "predict"
        assert outcome.trials == [] and calls == []
        assert outcome.best.measured_seconds is None
        assert outcome.candidates_considered > 0

    def test_candidate_space_shape(self):
        tuner = Autotuner(partition_sizes=(32, 64), buffer_sizes=(8192, 16384))
        space = tuner.candidate_space()
        kernels = {c.kernel for c in space}
        assert kernels == {"csr", "buffered", "ell"}
        assert sum(c.kernel == "csr" for c in space) == 1  # no knobs
        assert sum(c.kernel == "ell" for c in space) == 2  # partition only
        assert sum(c.kernel == "buffered" for c in space) == 4  # both axes

    def test_counters_cover_candidates_and_trials(self):
        A, AT = _problem()
        with obs.capture() as cap:
            outcome = Autotuner(
                measure=_synthetic_measure(), top_k=2
            ).tune(A, AT)
        assert cap.counters["autotune.candidates"].total == outcome.candidates_considered
        assert cap.counters["autotune.trials"].total == len(outcome.trials)
        # Top-K pruning plus refinement never re-measures a candidate.
        assert 0 < len(outcome.trials) <= outcome.candidates_considered

    def test_real_timing_path_runs(self):
        """No injected measure: actual trials on the built layouts."""
        A, AT = _problem(rows=48, cols=40)
        outcome = Autotuner(top_k=2, trial_repeats=1).tune(A, AT)
        assert all(t.measured_seconds > 0 for t in outcome.trials)


class TestPersistence:
    def test_warm_hit_reuses_record_and_plan(self, tmp_path):
        g = ParallelBeamGeometry(24, 32)
        with obs.capture() as cap:
            op1, rep1 = preprocess(g, OperatorConfig(tune="auto"), cache=tmp_path)
        assert not rep1.cache_hit
        assert "autotune_seconds" in rep1.extra
        assert cap.counters["autotune.misses"].total == 1

        with obs.capture() as cap:
            op2, rep2 = preprocess(g, OperatorConfig(tune="auto"), cache=tmp_path)
        assert rep2.cache_hit  # tuned plan itself was cached
        assert rep2.extra.get("autotune_warm") == 1.0
        assert cap.counters["autotune.hits"].total == 1
        assert "autotune.trials" not in cap.counters  # no search ran
        assert op2.config == op1.config

    def test_force_mode_ignores_record(self, tmp_path):
        g = ParallelBeamGeometry(24, 32)
        preprocess(g, OperatorConfig(tune="auto"), cache=tmp_path)
        _, rep = preprocess(g, OperatorConfig(tune="force"), cache=tmp_path)
        assert "autotune_seconds" in rep.extra  # searched again
        assert rep.extra.get("autotune_warm") is None

    def test_fingerprint_separates_dtype_and_geometry(self):
        g1 = ParallelBeamGeometry(24, 32)
        g2 = ParallelBeamGeometry(24, 36)
        k_default = tune_fingerprint(g1)
        assert k_default == tune_fingerprint(g1)  # stable
        assert k_default != tune_fingerprint(g1, dtype="float32")
        assert tune_fingerprint(g1, dtype="float32") != tune_fingerprint(
            g1, dtype="float64"
        )
        assert k_default != tune_fingerprint(g2)

    def test_record_roundtrip(self, tmp_path):
        store = TuneStore(tmp_path)
        record = TuningRecord(
            key="k1", kernel="buffered", partition_size=64, buffer_bytes=16384,
            workers=2, dtype="float32", mode="auto", predicted_seconds=1e-3,
            measured_seconds=2e-3, candidates_considered=21, trials=6,
            cpu_count=0,
        )
        store.save("k1", record)
        loaded = store.load("k1")
        assert loaded == record
        assert store.entries() == [("k1", record)]
        assert store.clear() == 1
        assert store.load("k1") is None

    @pytest.mark.parametrize("sidecar", ["tune-record", "plan-meta"])
    def test_failed_sidecar_write_leaves_no_temp_and_keeps_previous(
        self, tmp_path, monkeypatch, sidecar
    ):
        """Both JSON sidecars go through ``persist.atomic_write_text``:
        flushed + fsynced before the rename, temp file removed on any
        failure, previous content untouched."""
        from repro.cache import PlanCache

        record = TuningRecord(
            key="k1", kernel="buffered", partition_size=64, buffer_bytes=16384,
            workers=1, dtype=None, mode="auto", predicted_seconds=1e-3,
            measured_seconds=2e-3, candidates_considered=21, trials=6,
            cpu_count=0,
        )
        if sidecar == "tune-record":
            store = TuneStore(tmp_path)
            target = store.path_for("k1")

            def write(tag):
                store.save("k1", TuningRecord(**{**record.to_dict(), "trials": tag}))
        else:
            cache = PlanCache(tmp_path)
            cache.root.mkdir(parents=True, exist_ok=True)
            target = cache.meta_path("k1")

            def write(tag):
                cache._write_meta("k1", {"tag": tag})

        write(1)
        before = target.read_text()

        def failing_fsync(fd):
            raise OSError("injected: disk full")

        monkeypatch.setattr("repro.persist.os.fsync", failing_fsync)
        with pytest.raises(OSError, match="injected"):
            write(2)
        monkeypatch.undo()
        assert target.read_text() == before
        assert list(tmp_path.rglob("*.tmp*")) == []
        write(3)  # and the store still works afterwards
        assert target.read_text() != before

    def test_apply_respects_explicit_workers(self):
        record = TuningRecord(
            key="k", kernel="ell", partition_size=64, buffer_bytes=32768,
            workers=2, dtype=None, mode="auto", predicted_seconds=1.0,
            measured_seconds=1.0, candidates_considered=1, trials=1, cpu_count=0,
        )
        tuned = record.apply(OperatorConfig(tune="auto"))
        assert tuned.kernel == "ell" and tuned.workers == 2 and tuned.tune is None
        pinned = record.apply(OperatorConfig(tune="auto", workers=4))
        assert pinned.workers == 4  # user's execution choice wins

    def test_apply_tuned_serial_leaves_workers_unset(self):
        record = TuningRecord(
            key="k", kernel="csr", partition_size=128, buffer_bytes=32768,
            workers=1, dtype=None, mode="auto", predicted_seconds=1.0,
            measured_seconds=1.0, candidates_considered=1, trials=1, cpu_count=0,
        )
        assert record.apply(OperatorConfig(tune="auto")).workers is None


class TestDegradation:
    def test_corrupt_record_warns_discards_and_retunes(self, tmp_path):
        g = ParallelBeamGeometry(24, 32)
        _, rep1 = preprocess(g, OperatorConfig(tune="auto"), cache=tmp_path)
        store = TuneStore.resolve(tmp_path)
        # The record is keyed by the precision in force (REPRO_DTYPE).
        key = tune_fingerprint(g, dtype=OperatorConfig().dtype)
        path = store.path_for(key)
        assert path.is_file()
        path.write_text("{not json")

        with pytest.warns(TuningIntegrityWarning):
            _, rep2 = preprocess(g, OperatorConfig(tune="auto"), cache=tmp_path)
        assert "autotune_seconds" in rep2.extra  # degraded to a re-tune
        assert store.load(key) is not None  # fresh record was saved

    def test_stale_cpu_count_degrades(self, tmp_path):
        store = TuneStore(tmp_path)
        record = TuningRecord(
            key="k", kernel="csr", partition_size=128, buffer_bytes=32768,
            workers=1, dtype=None, mode="auto", predicted_seconds=1.0,
            measured_seconds=1.0, candidates_considered=1, trials=1,
            cpu_count=9999,  # not this machine
        )
        store.save("k", record)
        with pytest.warns(TuningIntegrityWarning, match="CPUs"):
            assert store.load("k") is None
        assert not store.path_for("k").exists()  # discarded, not retried

    def test_wrong_schema_version_degrades(self, tmp_path):
        store = TuneStore(tmp_path)
        record = TuningRecord(
            key="k", kernel="csr", partition_size=128, buffer_bytes=32768,
            workers=1, dtype=None, mode="auto", predicted_seconds=1.0,
            measured_seconds=1.0, candidates_considered=1, trials=1, cpu_count=0,
        )
        store.save("k", record)
        doc = json.loads(store.path_for("k").read_text())
        doc["record_version"] = 99
        store.path_for("k").write_text(json.dumps(doc))
        with pytest.warns(TuningIntegrityWarning, match="version"):
            assert store.load("k") is None

    def test_key_mismatch_degrades(self, tmp_path):
        store = TuneStore(tmp_path)
        record = TuningRecord(
            key="other", kernel="csr", partition_size=128, buffer_bytes=32768,
            workers=1, dtype=None, mode="auto", predicted_seconds=1.0,
            measured_seconds=1.0, candidates_considered=1, trials=1, cpu_count=0,
        )
        store.save("k", record)
        with pytest.warns(TuningIntegrityWarning, match="mismatch"):
            assert store.load("k") is None

    @pytest.mark.parametrize("field,value", [
        ("kernel", "warp"),
        ("partition_size", 0),
        ("buffer_bytes", 1),
        ("workers", 0),
        ("predicted_seconds", "fast"),
    ])
    def test_out_of_range_records_rejected(self, field, value):
        doc = TuningRecord(
            key="k", kernel="csr", partition_size=128, buffer_bytes=32768,
            workers=1, dtype=None, mode="auto", predicted_seconds=1.0,
            measured_seconds=1.0, candidates_considered=1, trials=1, cpu_count=0,
        ).to_dict()
        doc[field] = value
        with pytest.raises(TuningRecordError):
            TuningRecord.from_dict(doc)

    def test_no_cache_tunes_unpersisted(self):
        g = ParallelBeamGeometry(24, 32)
        op, rep = preprocess(g, OperatorConfig(tune="auto"), cache=None)
        assert "autotune_seconds" in rep.extra
        assert op.config.tune is None  # resolved even without a store
