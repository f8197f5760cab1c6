"""Command-line interface: ``python -m repro <command>``.

Eleven subcommands cover the beamline workflow:

* ``info``        — list datasets (Table 3) and machine models (Table 2);
* ``preprocess``  — memoize a scan geometry into an operator file
  (``--geometry cone`` selects the 3D cone-beam geometry);
* ``scenario``    — beamline workload scenarios on a synthetic phantom:
  sparse-view / limited-angle degraded scans with regularized solvers,
  the batched try-center rotation-axis sweep, and a 3D cone-beam smoke
  reconstruction (see ``docs/scenarios.md``);
* ``reconstruct`` — reconstruct a sinogram (from a .npz file or a
  synthetic demo dataset) with a chosen solver;
* ``pipeline``    — streaming multi-slice stack reconstruction:
  conditioning stages + batched multi-RHS solves + per-chunk
  checkpointing (see ``docs/pipeline.md``);
* ``scale``       — print a modeled weak/strong scaling curve
  (paper Fig. 11) for a dataset-machine pair;
* ``cache``       — list / inspect / clear / prune the persistent
  operator-plan cache (see ``docs/persistence.md``);
* ``serve``       — run the crash-safe journaled reconstruction job
  server (admission control, coalesced batching, deadlines; see
  ``docs/service.md``);
* ``submit`` / ``status`` / ``result`` — client commands against a
  running server: send a sinogram, poll a job, fetch its image.

``preprocess``, ``scenario``, ``reconstruct`` and ``pipeline`` build
their operator from one :class:`~repro.core.OperatorConfig` read off
their flags, ``--workers`` and ``--dtype float32|float64`` (compute
precision) among them.  A loaded ``reconstruct --operator`` is already
built: it takes ``--workers`` and refuses ``--dtype``.

Commands that build an operator plan (``preprocess``, ``scenario``,
``reconstruct``, ``pipeline``) consult the plan cache transparently —
``--cache auto`` is the default, ``--cache off`` disables it, ``--cache
DIR`` selects an explicit directory.  A warm cache skips all three
preprocessing stages.

Every subcommand additionally accepts the observability flags
``--trace FILE`` (write a Chrome-trace / Perfetto JSON of everything
the command executed) and ``--metrics`` (print the obs counter totals
after the command); see ``docs/observability.md``.

``reconstruct`` also exposes the resilience layer: ``--ranks N``
solves through the simulated distributed operator, ``--faults SPEC``
injects seeded communication faults into it, ``--checkpoint FILE`` /
``--checkpoint-every N`` snapshot the solver recurrence, ``--resume
FILE`` continues a killed run bit-exactly, and ``--health`` arms the
NaN/divergence monitor; see ``docs/resilience.md``.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time
from pathlib import Path

import numpy as np

from .core import DATASETS, OperatorConfig, get_dataset, preprocess, reconstruct
from .machine import MACHINES
from .parallel import parse_workers
from .solvers.table import solver_names, solver_row
from .utils import format_bytes, format_seconds, psnr, render_table

__all__ = ["main"]


def _cmd_info(args: argparse.Namespace) -> int:
    rows = []
    for name in sorted(DATASETS):
        spec = DATASETS[name]
        irr = spec.irregular_bytes()
        reg = spec.regular_bytes()
        rows.append(
            [name, f"{spec.num_projections}x{spec.num_channels}", spec.sample,
             f"{format_bytes(irr[0])}/{format_bytes(irr[1])}",
             f"{format_bytes(reg[0])}"]
        )
    print(render_table(
        ["Dataset", "Sinogram", "Sample", "Irregular fwd/adj", "Regular (each)"],
        rows, title="Datasets (paper Table 3)"))
    print()
    rows = [
        [key, m.name, m.num_nodes, m.device.name,
         f"{m.device.fast_mem_bw / 1e9:.0f} GB/s"]
        for key, m in MACHINES.items()
    ]
    print(render_table(
        ["Key", "Machine", "Nodes", "Device", "Device B/W"],
        rows, title="Machine models (paper Table 2)"))
    return 0


def _print_cache_status(report) -> None:
    """One line telling the user what the plan cache did, if consulted."""
    if report.cache_key is None:
        return
    if report.cache_hit:
        print(
            f"plan cache hit ({report.cache_key[:12]}): skipped "
            "ordering/tracing/transpose"
        )
    else:
        print(
            f"plan cache miss ({report.cache_key[:12]}): ran all stages "
            f"in {format_seconds(report.total_seconds)}, stored plan for reuse"
        )


def _build_cli_geometry(args: argparse.Namespace):
    """Build the scan geometry selected by ``--geometry``."""
    from .geometry import ConeBeamGeometry, Grid3D, ParallelBeamGeometry

    if getattr(args, "geometry", "parallel") == "cone":
        n = args.channels
        nz = args.grid_nz or args.det_rows
        source = args.source_distance or 2.0 * n
        return ConeBeamGeometry(
            num_angles=args.angles,
            det_rows=args.det_rows,
            det_cols=n,
            source_distance=source,
            grid=Grid3D(n, nz),
        )
    return ParallelBeamGeometry(args.angles, args.channels)


def _operator_config(args: argparse.Namespace) -> OperatorConfig:
    """The one :class:`OperatorConfig` a command's flags describe.

    Reads whichever of ``--partition-size``, ``--workers`` and
    ``--dtype`` the subcommand has; a flag it lacks (or leaves unset)
    keeps the field's default.
    """
    fields = {
        name: getattr(args, name, None)
        for name in ("partition_size", "workers", "dtype")
    }
    return OperatorConfig(**{k: v for k, v in fields.items() if v is not None})


def _cmd_preprocess(args: argparse.Namespace) -> int:
    from .io import save_operator

    geometry = _build_cli_geometry(args)
    t0 = time.perf_counter()
    operator, report = preprocess(
        geometry, config=_operator_config(args), ordering=args.ordering,
        cache=args.cache,
    )
    save_operator(args.output, operator)
    _print_cache_status(report)
    shape = (
        f"{args.angles}x{args.det_rows}x{args.channels} (cone)"
        if getattr(args, "geometry", "parallel") == "cone"
        else f"{args.angles}x{args.channels}"
    )
    print(
        f"preprocessed {shape} in "
        f"{format_seconds(time.perf_counter() - t0)} "
        f"(tracing {format_seconds(report.tracing_seconds)}); "
        f"nnz {operator.nnz:,}; saved to {args.output}"
    )
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    from .phantoms import ellipsoid_volume, shepp_logan
    from .scenarios import (
        nominal_center,
        reconstruct_scenario,
        shift_sinogram,
        try_center,
    )

    config = _operator_config(args)
    t0 = time.perf_counter()

    if args.kind == "cone":
        # 3D cone-beam smoke reconstruction of the ellipsoid phantom.
        from .solvers import cgls

        args.geometry = "cone"
        geometry = _build_cli_geometry(args)
        operator, report = preprocess(geometry, config=config, cache=args.cache)
        _print_cache_status(report)
        volume = ellipsoid_volume(geometry.grid.n, geometry.grid.nz)
        y = operator.forward(operator.volume_to_ordered(volume))
        result = cgls(operator, y, num_iterations=args.iterations)
        recon = operator.ordered_to_volume(result.x)
        quality = psnr(recon, volume)
        np.savez_compressed(args.output, volume=recon, reference=volume)
        print(
            f"cone reconstruction {geometry.num_angles} views x "
            f"{geometry.det_rows}x{geometry.det_cols} detector -> "
            f"{geometry.grid.shape} volume: psnr {quality:.1f} dB, "
            f"residual {result.residual_norms[-1]:.3e}, "
            f"{format_seconds(time.perf_counter() - t0)}; saved to {args.output}"
        )
        return 0

    geometry = _build_cli_geometry(args)
    phantom = shepp_logan(args.channels)
    full_op, report = preprocess(geometry, config=config, cache=args.cache)
    _print_cache_status(report)
    sinogram = full_op.project_image(phantom)

    if args.kind == "try-center":
        shifted = shift_sinogram(sinogram, -args.shift)
        nominal = nominal_center(geometry)
        centers = nominal + np.arange(
            -args.sweep, args.sweep + args.step / 2, args.step
        )
        result = try_center(
            geometry,
            shifted,
            centers,
            num_iterations=args.iterations,
            operator=full_op,
        )
        np.savez_compressed(
            args.output,
            centers=result.centers,
            scores=result.scores,
            image=result.images[result.best_index],
        )
        print(
            f"try-center swept {result.centers.size} candidates in "
            f"{format_seconds(time.perf_counter() - t0)}: best center "
            f"{result.best_center:.2f} (true {nominal + args.shift:.2f}, "
            f"nominal {nominal:.2f}); saved to {args.output}"
        )
        return 0

    result = reconstruct_scenario(
        geometry,
        sinogram,
        args.kind,
        keep_every=args.keep_every,
        fraction=args.fraction,
        solver=args.solver,
        strength=args.strength,
        num_iterations=args.iterations,
        config=config,
        cache=args.cache,
    )
    quality = psnr(result.image, phantom)
    np.savez_compressed(args.output, image=result.image, reference=phantom)
    print(
        f"{args.kind} kept {result.views_kept}/{geometry.num_angles} views, "
        f"solver {args.solver}: psnr {quality:.1f} dB, "
        f"residual {result.solve.residual_norms[-1]:.3e}, "
        f"{format_seconds(time.perf_counter() - t0)}; saved to {args.output}"
    )
    return 0


def _cmd_reconstruct(args: argparse.Namespace) -> int:
    from .io import load_operator

    resilient = args.checkpoint or args.checkpoint_every or args.resume or args.health
    try:  # refuse what the solver table refuses before anything is built
        solver_row(args.solver, ranks=args.ranks > 1, resilient=bool(resilient))
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    operator = None
    if args.operator:
        if args.dtype:
            print(
                "error: --dtype configures preprocessing; a loaded --operator "
                "is already built (rebuild it with 'preprocess')",
                file=sys.stderr,
            )
            return 2
        operator = load_operator(args.operator)
        if args.workers is not None:
            operator.set_workers(args.workers)

    config = _operator_config(args)
    if args.demo:
        spec = get_dataset(args.demo).scaled(args.scale)
        geometry = spec.geometry()
        if operator is None:
            operator, prep = preprocess(geometry, config=config, cache=args.cache)
            _print_cache_status(prep)
        sinogram, truth = spec.sinogram(operator, incident_photons=args.photons)
    else:
        if not args.sinogram:
            print("error: provide --sinogram FILE or --demo DATASET", file=sys.stderr)
            return 2
        with np.load(args.sinogram) as data:
            sinogram = data["sinogram"]
        truth = None
        geometry = None

    result = reconstruct(
        sinogram,
        geometry,
        solver=args.solver,
        iterations=args.iterations,
        config=config,
        operator=operator,
        num_ranks=args.ranks,
        topology=args.topology,
        faults=args.faults,
        checkpoint=args.checkpoint,
        checkpoint_every=args.checkpoint_every,
        resume=args.resume,
        health=args.health or None,
        cache=args.cache,
    )
    line = (
        f"{args.solver} x{result.solve.iterations} iterations in "
        f"{format_seconds(result.solve_seconds)}; final residual "
        f"{result.solve.residual_norms[-1]:.4g}"
    )
    if truth is not None:
        line += f"; PSNR {psnr(result.image, truth):.2f} dB"
    print(line)
    _print_resilience_summary(result)
    np.savez(args.output, reconstruction=result.image)
    print(f"saved reconstruction to {args.output}")
    return 0


def _print_resilience_summary(result) -> None:
    """Report what the resilience layer injected, healed, and saved."""
    hier = result.extra.get("hier_comm")
    if hier:
        print(
            f"topology {result.extra['topology']}: "
            f"{format_bytes(hier['intra_bytes'])} intra-node "
            f"({hier['intra_messages']} msgs), "
            f"{format_bytes(hier['inter_bytes'])} inter-node "
            f"({hier['inter_messages']} aggregated msgs)"
        )
    stats = result.extra.get("fault_stats")
    if stats:
        print(
            "faults: "
            f"{stats['drops']} dropped, {stats['corruptions']} corrupted, "
            f"{stats['delays']} delayed, {stats['crashes']} crashed; "
            f"{stats['retries']} retries healed {stats['recoveries']} "
            f"(+{stats['backoff_seconds']:.3g}s simulated backoff)"
        )
    for d in result.extra.get("degradations", ()):
        print(
            f"rank crash absorbed: ranks {d['dead']} died, work "
            f"redistributed {d['from_ranks']} -> {d['to_ranks']} ranks"
        )
    path = result.extra.get("checkpoint_path")
    if path:
        print(f"checkpoint written to {path}")


def _cmd_pipeline_make_demo(args: argparse.Namespace) -> int:
    """Synthesize a raw demo stack and write it to disk as pipeline input."""
    from .dataio import save_stack
    from .pipeline import demo_stack

    demo = demo_stack(
        size=args.size,
        num_slices=args.slices,
        num_angles=args.angles,
        center_shift=args.shift,
        rings=args.rings,
        poisson=not args.no_noise,
        seed=args.seed,
        cache=args.cache,
    )
    path = save_stack(
        args.output, demo.raw, demo.darks, demo.flats,
        shard_slices=args.shard_slices, compress=args.compress,
    )
    s, a, c = demo.raw.shape
    print(f"wrote demo stack ({s} slices x {a} angles x {c} channels) to {path}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    from .pipeline import reconstruct_stack

    if args.action == "make-demo":
        return _cmd_pipeline_make_demo(args)

    darks = flats = None
    geometry = operator = None
    demo = None
    if args.demo:
        from .pipeline import demo_stack

        demo = demo_stack(
            size=args.size,
            num_slices=args.slices,
            num_angles=args.angles,
            center_shift=args.shift,
            rings=args.rings,
            poisson=not args.no_noise,
            seed=args.seed,
            cache=args.cache,
        )
        raw = demo.raw
        darks, flats = demo.darks, demo.flats
        geometry, operator = demo.geometry, demo.operator
        _print_cache_status(demo.preprocess_report)
        if args.dtype:
            # The demo helper builds a default-precision operator;
            # drop it so the stack preprocess honours --dtype.
            operator = None
        elif args.workers is not None:
            operator.set_workers(args.workers)
    else:
        if not args.input:
            print("error: provide --input FILE or --demo", file=sys.stderr)
            return 2
        # open_source() resolves the format (.npz archive, shard
        # directory, HDF5/tomobank) and carries any calibration frames
        # the source stores alongside the data.
        raw = args.input

    # A non-.npz output streams slabs straight to disk (shard dir or
    # .raw) instead of accumulating the volume in memory.
    sink = None
    if Path(args.output).suffix != ".npz":
        sink = args.output

    result = reconstruct_stack(
        raw,
        geometry,
        darks=darks,
        flats=flats,
        solver=args.solver,
        iterations=args.iterations,
        tolerance=args.tolerance,
        chunk_slices=args.chunk_slices,
        memory_budget_bytes=(
            int(args.memory_budget_mb * 1e6)
            if args.memory_budget_mb is not None
            else None
        ),
        operator=operator,
        config=_operator_config(args),
        cache=args.cache,
        checkpoint=args.checkpoint,
        resume=args.resume,
        max_chunks=args.max_chunks,
        sink=sink,
        compress=args.compress,
        prefetch=args.prefetch,
        progress=args.progress,
    )
    if operator is None:
        _print_cache_status(result.preprocess_report)

    done = result.num_slices - result.extra.get("remaining_slices", 0)
    print(
        f"{args.solver} over {done}/{result.num_slices} slices in "
        f"{len(result.chunks)} chunks (batched multi-RHS); solve "
        f"{format_seconds(result.solve_seconds)}, total "
        f"{format_seconds(result.total_seconds)}"
    )
    if result.extra.get("resumed_slices"):
        print(f"resumed: {result.extra['resumed_slices']} slices from checkpoint")
    if "center_shift" in result.extra:
        line = f"rotation-center shift found: {result.extra['center_shift']:+.3f} channels"
        if demo is not None:
            line += f" (injected {demo.center_shift:+.3f})"
        print(line)
    if (
        demo is not None
        and result.volume is not None
        and not result.extra.get("stopped_early")
    ):
        truth = demo.attenuation_scale * demo.truth
        print(f"PSNR vs truth: {psnr(result.volume, truth):.2f} dB")
    if result.extra.get("stopped_early"):
        print(
            f"stopped after --max-chunks {args.max_chunks}; "
            f"{result.extra['remaining_slices']} slices remain "
            "(re-run with --resume to finish)"
        )
    path = result.extra.get("checkpoint_path")
    if path:
        print(f"checkpoint written to {path}")
    if args.metrics:
        rows = [
            [name, format_seconds(seconds)]
            for name, seconds in result.extra["stage_times"].items()
        ]
        print(render_table(["Stage", "Wall time"], rows, title="Per-stage wall time"))
    if result.volume is not None:
        np.savez(args.output, volume=result.volume)
        print(f"saved volume to {args.output}")
    elif "output_path" in result.extra:
        print(f"streamed volume finalized at {result.extra['output_path']}")
    else:
        print(
            f"streamed volume at {args.output} is incomplete "
            "(re-run with --resume to finish)"
        )
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    from .dist import find_hier_crossover, strong_scaling_series, weak_scaling_series
    from .machine import get_machine

    machine = get_machine(args.machine)
    spec = get_dataset(args.dataset)
    if args.crossover:
        result = find_hier_crossover(
            spec.num_projections, spec.num_channels, machine,
            node_counts=[args.nodes_start * (2**k) for k in range(args.steps)],
            overlap=args.overlap,
        )
        rows = [
            [
                p["nodes"],
                round(p["flat_comm_seconds"], 4),
                round(p["hier_comm_seconds"], 4),
                round(p["flat_total_seconds"], 4),
                round(p["hier_total_seconds"], 4),
                round(p["overlap_saved_seconds"], 4),
            ]
            for p in result["points"]
        ]
        overlap_note = "with" if args.overlap else "without"
        print(render_table(
            ["Nodes", "C flat (s)", "C hier (s)", "Total flat (s)",
             "Total hier (s)", "Overlap saved (s)"],
            rows,
            title=f"flat vs hierarchical on {machine.name} "
                  f"({result['ranks_per_node']} ranks/node, {overlap_note} overlap)",
        ))
        crossover = result["crossover_nodes"]
        if crossover is None:
            print("no crossover in this sweep: flat stays competitive")
        else:
            print(f"hierarchical wins from {crossover} nodes onward")
        return 0
    model_kwargs = {}
    if args.hierarchical:
        model_kwargs = {"hierarchical": True, "overlap": args.overlap}
    if args.mode == "strong":
        nodes = [args.nodes_start * (2**k) for k in range(args.steps)]
        points = strong_scaling_series(
            spec.num_projections, spec.num_channels, machine, nodes, **model_kwargs
        )
    else:
        points = weak_scaling_series(
            spec.num_projections, spec.num_channels, machine, args.steps,
            nodes_start=args.nodes_start, **model_kwargs,
        )
    rows = [p.row() for p in points]
    exchange = "hierarchical" if args.hierarchical else "flat"
    print(render_table(
        ["Nodes", "Sinogram", "Total (s)", "A_p (s)", "C (s)", "R (s)"],
        rows,
        title=f"{args.mode} scaling of {args.dataset} on {machine.name} "
              f"({exchange} exchange, 30 CG iterations, modeled)",
    ))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .cache import PlanCache

    spec = args.cache
    plan_cache = PlanCache.resolve(spec if spec != "off" else "auto")
    if plan_cache is None:
        plan_cache = PlanCache()

    if args.action == "list":
        entries = plan_cache.entries()
        if not entries:
            print(f"plan cache at {plan_cache.root} is empty")
            return 0
        rows = []
        for e in entries:
            geo = e.meta.get("geometry", {})
            cfg = e.meta.get("config", {})
            sino = (
                f"{geo.get('num_angles', '?')}x{geo.get('num_channels', '?')}"
                if geo else "?"
            )
            rows.append([
                e.key[:12],
                sino,
                (cfg.get("dtype") or "mixed") if cfg else "?",
                f"{e.meta.get('nnz', 0):,}" if e.meta else "?",
                format_bytes(e.nbytes),
                format_seconds(e.age_seconds),
            ])
        print(render_table(
            ["Key", "Sinogram", "Dtype", "nnz", "Size", "Last used"],
            rows, title=f"Plan cache at {plan_cache.root}"))
        total = plan_cache.total_bytes()
        print(
            f"{len(entries)} entries, {format_bytes(total)} "
            f"(cap {format_bytes(plan_cache.max_bytes)})"
        )
        return 0

    if args.action == "info":
        if not args.key:
            print("error: 'cache info' needs an entry KEY", file=sys.stderr)
            return 2
        entry = plan_cache.entry(args.key)
        if entry is None:
            print(f"error: no cache entry matching {args.key!r}", file=sys.stderr)
            return 1
        import json as _json

        print(f"key:  {entry.key}")
        print(f"path: {entry.path}")
        print(f"size: {format_bytes(entry.nbytes)}")
        print(_json.dumps(entry.meta, indent=2, sort_keys=True))
        return 0

    if args.action == "clear":
        removed = plan_cache.clear()
        print(f"removed {removed} entries from {plan_cache.root}")
        return 0

    # prune: run eviction, optionally against an explicit cap.
    cap = int(args.max_mb * 1e6) if args.max_mb else None
    evicted = plan_cache.evict(max_bytes=cap)
    print(
        f"evicted {len(evicted)} entries "
        f"({format_bytes(sum(e.nbytes for e in evicted))}); "
        f"{format_bytes(plan_cache.total_bytes())} in use"
    )
    return 0


def _load_sinogram_file(path: str) -> "np.ndarray":
    """A 2-D sinogram from a .npy file or a .npz archive."""
    p = Path(path)
    if p.suffix == ".npy":
        sinogram = np.load(p, allow_pickle=False)
    else:
        with np.load(p, allow_pickle=False) as data:
            if "sinogram" in data.files:
                sinogram = data["sinogram"]
            elif len(data.files) == 1:
                sinogram = data[data.files[0]]
            else:
                raise ValueError(
                    f"{path} has no 'sinogram' array (found {data.files})"
                )
    sinogram = np.asarray(sinogram, dtype=np.float64)
    if sinogram.ndim != 2:
        raise ValueError(f"sinogram must be 2-D, got shape {sinogram.shape}")
    return sinogram


def _cmd_serve(args: argparse.Namespace) -> int:
    import json as _json

    from .service import ReconService, ServiceConfig, ServiceFaultConfig, serve

    faults = None
    if args.faults:
        faults = ServiceFaultConfig.parse(args.faults)
    config = ServiceConfig(
        spool=args.spool,
        queue_limit=args.queue_limit,
        max_batch=args.max_batch,
        coalesce_window_s=args.coalesce_window,
        rate_limit=args.rate_limit,
        rate_burst=args.rate_burst,
        retry=dataclasses.replace(
            _default(ServiceConfig, "retry"),
            max_retries=args.retries, backoff_base=args.backoff,
        ),
        cache=args.cache,
        faults=faults,
        result_ttl_s=args.result_ttl,
        spool_cap_bytes=args.spool_cap,
    )
    engine = ReconService(config)

    def ready(server):
        # One machine-readable line so scripts (and the CI kill -9
        # battery) can discover an ephemeral --port 0 binding; also
        # dropped in the spool for out-of-band discovery.
        doc = {"event": "listening", "host": args.host, "port": server.port}
        print(_json.dumps(doc), flush=True)
        (Path(args.spool) / "server.json").write_text(_json.dumps(doc) + "\n")

    return serve(
        engine, args.host, args.port,
        verbose=args.verbose, ready_callback=ready,
    )


def _cmd_submit(args: argparse.Namespace) -> int:
    from .service import ServiceClient

    sinogram = _load_sinogram_file(args.sinogram)
    client = ServiceClient(args.url)
    spec = {
        "tenant": args.tenant,
        "solver": args.solver,
        "iterations": args.iterations,
        "tolerance": args.tolerance,
    }
    if args.dtype:
        spec["dtype"] = args.dtype
    if args.deadline is not None:
        spec["deadline_s"] = args.deadline
    if args.checkpoint_every:
        spec["checkpoint_every"] = args.checkpoint_every
    ack = client.submit(sinogram, spec)
    print(f"accepted job {ack['job_id']} ({ack['state']})")
    if not args.wait:
        return 0
    final = client.wait(ack["job_id"], timeout=args.timeout)
    print(f"job {ack['job_id']} {final['state']} "
          f"(attempts {final['attempts']}, batch {final['batch_size']})")
    if final["state"] != "done":
        return 1
    if args.output:
        image = client.result(ack["job_id"])
        np.savez(args.output, image=image)
        print(f"wrote {image.shape[0]}x{image.shape[1]} image to {args.output}")
    return 0


def _cmd_status(args: argparse.Namespace) -> int:
    import json as _json

    from .service import ServiceClient

    doc = ServiceClient(args.url).status(args.job_id)
    print(_json.dumps(doc, indent=2))
    return 0


def _cmd_result(args: argparse.Namespace) -> int:
    from .service import JobFailedError, ServiceClient

    try:
        image = ServiceClient(args.url).result(args.job_id)
    except JobFailedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    np.savez(args.output, image=image)
    print(f"wrote {image.shape[0]}x{image.shape[1]} image to {args.output}")
    return 0


def _default(config_class, name: str):
    """A flag's default is the default of the dataclass field it fills.

    Re-typing it lets the two drift, and then one request made through
    the CLI and through the API hashes to two plan fingerprints.
    """
    field = config_class.__dataclass_fields__[name]
    if field.default is not dataclasses.MISSING:
        return field.default
    return field.default_factory()


def _workers_spec(text: str) -> str:
    """A ``--workers`` value, refused by argparse (exit 2) when malformed."""
    try:
        parse_workers(text, env=False)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def build_parser() -> argparse.ArgumentParser:
    from .service import ServiceConfig

    parser = argparse.ArgumentParser(
        prog="repro", description="MemXCT reproduction command-line interface"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    obs_flags = argparse.ArgumentParser(add_help=False)
    obs_flags.add_argument(
        "--trace",
        metavar="FILE",
        help="write a Chrome-trace/Perfetto JSON of this command to FILE",
    )
    obs_flags.add_argument(
        "--metrics",
        action="store_true",
        help="print observability counter totals after the command",
    )

    cache_flags = argparse.ArgumentParser(add_help=False)
    cache_flags.add_argument(
        "--cache",
        default="auto",
        metavar="DIR|auto|off",
        help="operator-plan cache: 'auto' (default; REPRO_CACHE_DIR or "
        "~/.cache/repro/plans), 'off', or an explicit directory",
    )

    workers_flags = argparse.ArgumentParser(add_help=False)
    workers_flags.add_argument(
        "--workers",
        default=None,
        type=_workers_spec,
        metavar="N|MODE|MODE:N",
        help="parallel execution backend: a thread count, 'thread'/'auto' "
        "(one thread per CPU), or 'mode:count' like 'thread:4'; two or more "
        "partition SpMV and fan out tracing; default serial (or REPRO_WORKERS). "
        "Results are bit-identical across worker counts (docs/parallel.md)",
    )

    dtype_flags = argparse.ArgumentParser(add_help=False)
    dtype_flags.add_argument(
        "--dtype",
        default=None,
        choices=("float32", "float64"),
        help="compute precision: omit for the default mixed precision, "
        "'float32' for end-to-end single precision (half the vector "
        "traffic; see docs/precision.md for the error contract), "
        "'float64' for the full double-precision reference path",
    )

    sub.add_parser(
        "info", help="list datasets and machine models", parents=[obs_flags]
    )

    p = sub.add_parser(
        "preprocess",
        help="memoize a scan geometry",
        parents=[obs_flags, cache_flags, workers_flags, dtype_flags],
    )
    p.add_argument("--angles", type=int, required=True)
    p.add_argument("--channels", type=int, required=True)
    p.add_argument(
        "--geometry",
        default="parallel",
        choices=("parallel", "cone"),
        help="scan geometry: 2D parallel-beam (default) or 3D cone-beam",
    )
    p.add_argument(
        "--det-rows",
        type=int,
        default=8,
        help="cone-beam detector rows (--geometry cone)",
    )
    p.add_argument(
        "--source-distance",
        type=float,
        default=None,
        help="cone-beam source-to-axis distance (default 2x channels)",
    )
    p.add_argument(
        "--grid-nz",
        type=int,
        default=None,
        help="cone-beam volume slices (default: det-rows)",
    )
    p.add_argument("--ordering", default="pseudo-hilbert")
    p.add_argument(
        "--partition-size", type=int, default=_default(OperatorConfig, "partition_size")
    )
    p.add_argument("--output", "-o", default="operator.npz")

    p = sub.add_parser(
        "scenario",
        help="degraded-scan and alignment workload scenarios",
        parents=[obs_flags, cache_flags, workers_flags, dtype_flags],
    )
    p.add_argument(
        "kind",
        choices=("sparse-view", "limited-angle", "try-center", "cone"),
        help="scenario to run on a synthetic phantom scan",
    )
    p.add_argument("--angles", type=int, default=96, help="full-scan view count")
    p.add_argument("--channels", type=int, default=64, help="detector channels N")
    p.add_argument(
        "--det-rows", type=int, default=8, help="cone-beam detector rows"
    )
    p.add_argument(
        "--source-distance",
        type=float,
        default=None,
        help="cone-beam source-to-axis distance (default 2x channels)",
    )
    p.add_argument(
        "--grid-nz", type=int, default=None, help="cone-beam volume slices"
    )
    p.add_argument(
        "--keep-every", type=int, default=4, help="sparse-view: keep every k-th view"
    )
    p.add_argument(
        "--fraction",
        type=float,
        default=0.5,
        help="limited-angle: fraction of views kept",
    )
    p.add_argument("--solver", default="tv", choices=solver_names(), help="degraded-scan solver")
    p.add_argument(
        "--strength", type=float, default=0.05, help="regularization strength"
    )
    p.add_argument(
        "--shift",
        type=float,
        default=1.5,
        help="try-center: simulated rotation-axis offset in channels",
    )
    p.add_argument(
        "--sweep",
        type=float,
        default=3.0,
        help="try-center: half-width of the candidate sweep in channels",
    )
    p.add_argument(
        "--step", type=float, default=0.5, help="try-center: candidate spacing"
    )
    p.add_argument("--iterations", type=int, default=20)
    p.add_argument("--output", "-o", default="scenario.npz")

    p = sub.add_parser(
        "reconstruct",
        help="reconstruct a sinogram",
        parents=[obs_flags, cache_flags, workers_flags, dtype_flags],
    )
    p.add_argument("--sinogram", help=".npz file with a 'sinogram' array")
    p.add_argument("--demo", choices=sorted(DATASETS), help="synthesize a demo dataset")
    p.add_argument("--scale", type=float, default=0.125)
    p.add_argument("--photons", type=float, default=1e5)
    p.add_argument("--operator", help="operator file from 'preprocess'")
    # No --strength here: the prior rows run through 'scenario'.
    p.add_argument("--solver", default="cg", choices=solver_names(lambda r: not r.prior))
    p.add_argument("--iterations", type=int, default=30)
    p.add_argument("--output", "-o", default="reconstruction.npz")
    p.add_argument(
        "--ranks", type=int, default=1,
        help="simulated MPI ranks (>1 uses the distributed operator)",
    )
    p.add_argument(
        "--topology", metavar="SPEC", default=None,
        help="rank-to-node placement for --ranks > 1: 'nodes:N,ranks:M' "
             "runs the hierarchical two-level exchange (bit-exact with "
             "flat), 'flat' forces the flat path; default honours "
             "REPRO_TOPOLOGY",
    )
    p.add_argument(
        "--faults", metavar="SPEC",
        help="fault-injection spec for the simulated communicator, e.g. "
        "'drop=0.05,corrupt=0.02,crash=1@3,seed=42' (needs --ranks >= 2); "
        "see docs/resilience.md",
    )
    p.add_argument(
        "--checkpoint", metavar="FILE",
        help="write periodic solver checkpoints to FILE (resilient solvers)",
    )
    p.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="snapshot the solver recurrence every N iterations (default 10 "
        "when --checkpoint is given)",
    )
    p.add_argument(
        "--resume", metavar="FILE",
        help="resume the solve from a checkpoint file (bit-exact)",
    )
    p.add_argument(
        "--health", action="store_true",
        help="enable the numerical-health monitor (NaN/Inf and divergence "
        "detection with checkpoint rollback)",
    )

    p = sub.add_parser(
        "pipeline",
        help="streaming multi-slice stack reconstruction (docs/pipeline.md)",
        parents=[obs_flags, cache_flags, workers_flags, dtype_flags],
    )
    p.add_argument(
        "action", choices=("run", "make-demo"),
        help="run: reconstruct a stack; make-demo: write a synthetic raw "
        "stack to --output as pipeline input",
    )
    p.add_argument(
        "--input",
        help="raw stack to reconstruct: an .npz with 'stack' (slices, "
        "angles, channels) plus optional 'darks'/'flats', an .npz-shard "
        "directory, or an HDF5/tomobank .h5 file (needs h5py)",
    )
    p.add_argument(
        "--demo", action="store_true",
        help="synthesize a raw demo stack (Shepp-Logan volume + darks/flats)",
    )
    p.add_argument("--slices", type=int, default=8, help="demo stack height")
    p.add_argument("--size", type=int, default=64, help="demo image size N (N x N)")
    p.add_argument("--angles", type=int, default=None, help="demo projection count")
    p.add_argument(
        "--shift", type=float, default=0.0,
        help="inject a rotation-center shift of this many channels (demo)",
    )
    p.add_argument(
        "--rings", action="store_true",
        help="inject per-channel detector gain errors (demo)",
    )
    p.add_argument("--no-noise", action="store_true", help="disable Poisson noise (demo)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--solver", default="cg", choices=solver_names(lambda row: row.slab))
    p.add_argument("--iterations", type=int, default=30)
    p.add_argument(
        "--tolerance", type=float, default=0.0,
        help="per-slice early-stop tolerance (0 runs the full budget)",
    )
    p.add_argument(
        "--chunk-slices", type=int, default=None,
        help="slices per streamed chunk (default: whole stack)",
    )
    p.add_argument(
        "--memory-budget-mb", type=float, default=None,
        help="derive the chunk size from a working-set budget instead",
    )
    p.add_argument(
        "--checkpoint", metavar="FILE",
        help="checkpoint the accumulated volume after every chunk",
    )
    p.add_argument(
        "--resume", action="store_true",
        help="resume from --checkpoint, skipping completed chunks (bit-exact)",
    )
    p.add_argument(
        "--max-chunks", type=int, default=None,
        help="stop cleanly after N chunks this run (kill/resume testing)",
    )
    p.add_argument(
        "--prefetch", type=int, default=0, metavar="N",
        help="overlap I/O with the solve: read up to N chunks ahead and "
        "write slabs behind on conveyor threads (0 = synchronous)",
    )
    p.add_argument(
        "--progress", action="store_true",
        help="live progress/ETA line (with conveyor queue depths) on stderr",
    )
    p.add_argument(
        "--shard-slices", type=int, default=None, metavar="K",
        help="slices per shard when make-demo writes a directory",
    )
    p.add_argument(
        "--compress", action="store_true",
        help="deflate npz shards (make-demo input shards and run's "
        "shard-directory output); trades write CPU for disk bytes",
    )
    p.add_argument(
        "--output", "-o", default="volume.npz",
        help="volume destination: .npz accumulates in memory; a directory, "
        ".raw, or .tif path streams slabs to disk chunk-by-chunk "
        "(.tif needs the optional tifffile dependency; make-demo: "
        "where the raw stack is written)",
    )

    p = sub.add_parser(
        "scale", help="print a modeled scaling curve (Fig. 11)", parents=[obs_flags]
    )
    p.add_argument("--dataset", default="RDS1", choices=sorted(DATASETS))
    p.add_argument("--machine", default="theta", choices=sorted(MACHINES))
    p.add_argument("--mode", default="strong", choices=("strong", "weak"))
    p.add_argument("--nodes-start", type=int, default=32)
    p.add_argument("--steps", type=int, default=6)
    p.add_argument(
        "--hierarchical", action="store_true",
        help="model the two-level intra/inter-node exchange instead of flat",
    )
    p.add_argument(
        "--overlap", action="store_true",
        help="hide the inter-node exchange behind A_p compute "
             "(with --hierarchical or --crossover)",
    )
    p.add_argument(
        "--crossover", action="store_true",
        help="sweep flat vs hierarchical and report the crossover node count",
    )

    p = sub.add_parser(
        "cache",
        help="list / inspect / clear / prune the operator-plan cache",
        parents=[obs_flags, cache_flags],
    )
    p.add_argument("action", choices=("list", "info", "clear", "prune"))
    p.add_argument("key", nargs="?", help="entry fingerprint for 'info' (prefix OK)")
    p.add_argument(
        "--max-mb", type=float, default=None,
        help="size cap in MB for 'prune' (default: the cache's own cap)",
    )

    p = sub.add_parser(
        "serve",
        help="run the journaled reconstruction job server (docs/service.md)",
        parents=[cache_flags],
    )
    p.add_argument("--spool", required=True, metavar="DIR",
                   help="durable spool directory (journal + job archives)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8780,
                   help="TCP port (0 binds an ephemeral port, reported as a "
                   "JSON line and in <spool>/server.json)")
    p.add_argument("--queue-limit", type=int,
                   default=_default(ServiceConfig, "queue_limit"),
                   help="max admitted (queued + running) jobs before 429")
    p.add_argument("--max-batch", type=int,
                   default=_default(ServiceConfig, "max_batch"),
                   help="max compatible jobs coalesced into one batched solve")
    p.add_argument("--coalesce-window", type=float,
                   default=_default(ServiceConfig, "coalesce_window_s"),
                   metavar="SECONDS",
                   help="how long the scheduler waits for batchable peers")
    p.add_argument("--rate-limit", type=float,
                   default=_default(ServiceConfig, "rate_limit"), metavar="PER_S",
                   help="per-tenant sustained submissions/second (default: off)")
    p.add_argument("--rate-burst", type=float,
                   default=_default(ServiceConfig, "rate_burst"),
                   help="per-tenant burst allowance")
    retry = _default(ServiceConfig, "retry")
    p.add_argument("--retries", type=int, default=retry.max_retries,
                   help="retry budget for transiently failed jobs")
    p.add_argument("--backoff", type=float, default=retry.backoff_base,
                   metavar="SECONDS",
                   help="first-retry backoff (doubles per attempt)")
    p.add_argument("--result-ttl", type=float,
                   default=_default(ServiceConfig, "result_ttl_s"), metavar="SECONDS",
                   help="evict a finished job's spool payload this long after "
                   "it turns terminal; result then answers HTTP 410")
    p.add_argument("--spool-cap", type=int,
                   default=_default(ServiceConfig, "spool_cap_bytes"), metavar="BYTES",
                   help="cap on spool bytes held by finished jobs "
                   "(oldest results evicted first)")
    p.add_argument("--faults", metavar="SPEC",
                   help="inject seeded service faults, e.g. "
                   "'drop=0.1,crash=0.2,seed=7' (or REPRO_SERVICE_FAULTS)")
    p.add_argument("--verbose", action="store_true",
                   help="log every HTTP request to stderr")

    p = sub.add_parser(
        "submit", help="submit a sinogram to a running job server"
    )
    p.add_argument("sinogram", help=".npy file or .npz with a 'sinogram' array")
    p.add_argument("--url", default="http://127.0.0.1:8780")
    p.add_argument("--tenant", default="default")
    p.add_argument("--solver", default="cg", choices=solver_names(lambda row: row.slab))
    p.add_argument("--iterations", type=int, default=30)
    p.add_argument("--tolerance", type=float, default=0.0)
    p.add_argument("--dtype", default=None, choices=("float32", "float64"))
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS",
                   help="cancel the job if not finished this many seconds "
                   "after acceptance")
    p.add_argument("--checkpoint-every", type=int, default=0, metavar="N",
                   help="checkpoint the solve every N iterations (solo job, "
                   "bit-exact resume after a server crash)")
    p.add_argument("--wait", action="store_true",
                   help="poll until the job is terminal")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="--wait budget in seconds")
    p.add_argument("--output", "-o", default=None, metavar="FILE",
                   help="with --wait: write the finished image to FILE (.npz)")

    p = sub.add_parser("status", help="query a job's state")
    p.add_argument("job_id")
    p.add_argument("--url", default="http://127.0.0.1:8780")

    p = sub.add_parser("result", help="fetch a finished job's image")
    p.add_argument("job_id")
    p.add_argument("--url", default="http://127.0.0.1:8780")
    p.add_argument("--output", "-o", default="result.npz", metavar="FILE")

    return parser


def _print_metrics(cap) -> None:
    from . import obs

    if not cap.counters:
        print("no observability counters were incremented")
        return
    rows = [
        [c.name, c.unit, f"{c.total:,.0f}", c.events]
        for c in sorted(cap.counters.values(), key=lambda c: c.name)
    ]
    print(render_table(["Counter", "Unit", "Total", "Events"], rows,
                       title="Observability counters"))
    spans = cap.find_spans("solver.iteration")
    if spans:
        total = sum(s.duration for s in spans)
        print(f"{len(spans)} solver iterations, {format_seconds(total)} total "
              f"({format_seconds(total / len(spans))}/iteration)")


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handlers = {
        "info": _cmd_info,
        "preprocess": _cmd_preprocess,
        "scenario": _cmd_scenario,
        "reconstruct": _cmd_reconstruct,
        "pipeline": _cmd_pipeline,
        "scale": _cmd_scale,
        "cache": _cmd_cache,
        "serve": _cmd_serve,
        "submit": _cmd_submit,
        "status": _cmd_status,
        "result": _cmd_result,
    }
    handler = handlers[args.command]
    trace_file = getattr(args, "trace", None)
    want_metrics = getattr(args, "metrics", False)
    if not trace_file and not want_metrics:
        return handler(args)

    from . import obs

    with obs.capture() as cap:
        code = handler(args)
    if trace_file:
        try:
            cap.write_chrome_trace(trace_file)
        except OSError as exc:
            print(f"error: cannot write trace to {trace_file}: {exc}", file=sys.stderr)
            code = code or 1
        else:
            print(
                f"wrote Chrome trace ({len(cap.spans)} spans) to {trace_file}; "
                "open it at https://ui.perfetto.dev or chrome://tracing"
            )
    if want_metrics:
        _print_metrics(cap)
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
