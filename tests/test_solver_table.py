"""Solver-table conformance: every row, every capability, every front door.

Parametrized over the rows of :data:`repro.solvers.SOLVER_TABLE` the
way pycsou's ``SolverT`` is over solver classes.  For each capability a
row claims, the front door delivers it:

* ``slab`` — ``reconstruct_stack`` and a coalesced service cohort give
  columns ``array_equal`` to single solves;
* ``resilient`` — a solve resumed from a checkpoint through
  ``reconstruct`` is ``array_equal`` to an uninterrupted one;
* ``ranks`` — ``num_ranks=2`` stays within the distributed-equivalence
  tolerance of the serial solve;
* ``counts`` — slightly negative measurements are clipped at 0 at every
  front door (the job completes, and equals the clipped solve);
* ``prior`` — the solve runs with a ``strength`` and is refused without.

For each capability a row lacks, the call raises ``ValueError`` and no
``preprocess`` span opens first.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from repro import obs
from repro.core import preprocess, reconstruct
from repro.geometry import ParallelBeamGeometry
from repro.phantoms import shepp_logan
from repro.pipeline import reconstruct_stack
from repro.scenarios import reconstruct_scenario, sparse_view_geometry
from repro.service import JobSpec, ReconService, ServiceConfig
from repro.solvers import SOLVER_TABLE

GEOMETRY = ParallelBeamGeometry(24, 16)
ITERATIONS = 4


@pytest.fixture(scope="module")
def scan():
    """An uncached operator and a non-negative three-slice stack."""
    operator, _ = preprocess(GEOMETRY, cache=None)
    clean = operator.project_image(shepp_logan(GEOMETRY.num_channels))
    stack = np.stack([clean * scale for scale in (1.0, 0.7, 1.3)])
    yield operator, stack
    operator.close()


@pytest.fixture(params=SOLVER_TABLE, ids=lambda row: row.name)
def row(request):
    return request.param


def _kwargs(row) -> dict:
    return {"strength": 0.05} if row.prior is not None else {}


def _single(row, operator, sinogram, **kw):
    return reconstruct(
        sinogram, GEOMETRY, solver=row.name, iterations=ITERATIONS,
        operator=operator, **_kwargs(row), **kw,
    )


def _refused_before_preprocessing(call, match: str) -> None:
    with obs.capture() as cap, pytest.raises(ValueError, match=match):
        call()
    opened = [s.name for s in cap.spans if s.name.startswith("preprocess")]
    assert opened == [], f"refusal came after {opened}"


def _service(tmp_path) -> ReconService:
    return ReconService(ServiceConfig(
        spool=str(tmp_path / "spool"), cache="off",
        coalesce_window_s=0.0,
    ))


class TestSlab:
    def test_stack_columns_equal_single_solves(self, row, scan):
        operator, stack = scan
        if not row.slab:
            _refused_before_preprocessing(
                lambda: reconstruct_stack(stack, GEOMETRY, solver=row.name, cache=None),
                "slab",
            )
            return
        volume = reconstruct_stack(
            stack, GEOMETRY, solver=row.name, iterations=ITERATIONS, operator=operator,
        ).volume
        for k, sinogram in enumerate(stack):
            assert np.array_equal(volume[k], _single(row, operator, sinogram).image)

    def test_coalesced_cohort_equals_single_solves(self, row, scan, tmp_path):
        operator, stack = scan
        spec = dict(
            num_angles=GEOMETRY.num_angles, num_channels=GEOMETRY.num_channels,
            solver=row.name, iterations=ITERATIONS,
        )
        if not row.slab:
            with pytest.raises(ValueError, match="slab"):
                JobSpec(**spec)
            return
        with _service(tmp_path) as service:
            acks = [service.submit(s, JobSpec(**spec)) for s in stack]
            service.start(recover=False)  # the queue drains as one cohort
            assert service.wait(timeout=60)
            for sinogram, ack in zip(stack, acks):
                assert service.status(ack["job_id"])["batch_size"] == len(stack)
                expected = _single(row, operator, sinogram).image
                assert np.array_equal(service.result(ack["job_id"]), expected)


class TestResilient:
    def test_resume_is_bit_exact(self, row, scan, tmp_path):
        operator, stack = scan
        checkpoint = tmp_path / "ck.npz"
        if not row.resilient:
            _refused_before_preprocessing(
                lambda: reconstruct(
                    stack[0], GEOMETRY, solver=row.name, checkpoint=checkpoint,
                    cache=None, **_kwargs(row),
                ),
                "checkpoint/resume/health",
            )
            assert not checkpoint.exists()
            return
        _single(row, operator, stack[0], checkpoint=checkpoint, checkpoint_every=2)
        resumed = reconstruct(
            stack[0], GEOMETRY, solver=row.name, iterations=2 * ITERATIONS,
            operator=operator, resume=checkpoint,
        )
        full = reconstruct(
            stack[0], GEOMETRY, solver=row.name, iterations=2 * ITERATIONS,
            operator=operator,
        )
        assert resumed.solve.iterations == full.solve.iterations == 2 * ITERATIONS
        assert np.array_equal(resumed.image, full.image)


class TestRanks:
    def test_two_ranks_match_serial(self, row, scan):
        operator, stack = scan
        if not row.ranks:
            _refused_before_preprocessing(
                lambda: reconstruct(
                    stack[0], GEOMETRY, solver=row.name, num_ranks=2, cache=None,
                    **_kwargs(row),
                ),
                "num_ranks",
            )
            return
        serial = _single(row, operator, stack[0]).image
        distributed = _single(row, operator, stack[0], num_ranks=2).image
        scale = np.abs(serial).max()
        np.testing.assert_allclose(distributed, serial, rtol=1e-3, atol=1e-3 * scale)


class TestCounts:
    def test_negative_measurements_clip_at_every_front_door(self, row, scan, tmp_path):
        operator, stack = scan
        noisy = stack[0] - 0.02 * stack[0].max()  # conditioning noise below 0
        clipped = np.maximum(noisy, 0.0)
        image = _single(row, operator, noisy).image
        if not row.counts:
            assert not np.array_equal(image, _single(row, operator, clipped).image)
            return
        assert np.array_equal(image, _single(row, operator, clipped).image)
        volume = reconstruct_stack(
            noisy[None], GEOMETRY, solver=row.name, iterations=ITERATIONS,
            operator=operator,
        ).volume
        assert np.array_equal(volume[0], image)
        with _service(tmp_path) as service:
            service.start(recover=False)
            ack = service.submit(noisy, JobSpec(
                num_angles=GEOMETRY.num_angles, num_channels=GEOMETRY.num_channels,
                solver=row.name, iterations=ITERATIONS,
            ))
            assert service.wait([ack["job_id"]], timeout=60)
            assert service.status(ack["job_id"])["state"] == "done"
            assert np.array_equal(service.result(ack["job_id"]), image)


class TestPrior:
    def test_scenario_solves_every_row_as_reconstruct_does(self, row, scan):
        """A prior row without a strength is refused; with one, and for
        every other row, the scenario and ``reconstruct`` share a dispatch."""
        _, stack = scan
        if row.prior is not None:
            _refused_before_preprocessing(
                lambda: reconstruct(stack[0], GEOMETRY, solver=row.name, cache=None),
                "strength",
            )
        scenario = reconstruct_scenario(
            GEOMETRY, stack[0], "sparse-view", keep_every=2, solver=row.name,
            strength=0.05, num_iterations=ITERATIONS, cache=None,
        )
        direct = reconstruct(
            stack[0][::2], sparse_view_geometry(GEOMETRY, 2), solver=row.name,
            iterations=ITERATIONS, cache=None, **_kwargs(row),
        )
        assert np.array_equal(scenario.image, direct.image)


class TestEveryFrontDoor:
    @pytest.mark.parametrize("call", [
        lambda s: reconstruct(s, GEOMETRY, solver="bogus", cache=None),
        lambda s: reconstruct_stack(s[None], GEOMETRY, solver="bogus", cache=None),
        lambda s: reconstruct_scenario(
            GEOMETRY, s, "sparse-view", keep_every=2, solver="bogus", cache=None,
        ),
    ], ids=["reconstruct", "reconstruct_stack", "reconstruct_scenario"])
    def test_unknown_solver_refused_before_preprocessing(self, scan, call):
        _, stack = scan
        _refused_before_preprocessing(lambda: call(stack[0]), "unknown solver")

    def test_non_finite_sinogram_refused_before_preprocessing(self, scan):
        _, stack = scan
        bad = stack[0].copy()
        bad[3, 4] = np.nan
        _refused_before_preprocessing(
            lambda: reconstruct(bad, GEOMETRY, cache=None),
            "sinogram contains non-finite values",
        )

    def test_rows_are_named_once(self):
        names = [row.name for row in SOLVER_TABLE]
        assert len(names) == len(set(names))

    def test_docs_table_matches_the_code_row_for_row(self):
        text = (Path(__file__).parents[1] / "docs" / "solvers.md").read_text()
        section = text.split("## The solver table")[1].split("\n## ")[0]
        documented = [
            [cell.strip().strip("`") for cell in line.strip("|").split("|")]
            for line in section.splitlines() if line.startswith("| `")
        ][: len(SOLVER_TABLE)]
        expected = [
            [row.name, row.entry, row.batch or "", *("yes" if flag else "" for flag in
             (row.resilient, row.ranks, row.counts)), row.prior or ""]
            for row in SOLVER_TABLE
        ]
        assert documented == expected
