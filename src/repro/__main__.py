"""Command-line experiment driver.

Regenerate any paper artifact from the shell::

    python -m repro table1      # regime interpretation
    python -m repro fig2        # value/weight distributions
    python -m repro fig6        # dynamic range vs Fmax
    python -m repro fig7        # n vs EDP
    python -m repro fig8        # n vs LUTs
    python -m repro fig9        # accuracy degradation vs EDP
    python -m repro table2     # headline accuracy table
    python -m repro all        # everything above

Number systems are addressed by registry name (``python -m repro formats``
lists them); any registered family works end to end::

    python -m repro formats                # registered families/candidates
    python -m repro formats --explain wbc:posit8_1   # fused-plan decisions
    python -m repro synth wbc posit8_1     # synthesis at a named format
    python -m repro sweep iris 8           # full width-8 sweep, one dataset
    python -m repro sweep iris float4_3    # one named config, one dataset

The parallel, resumable runner fans full sweep grids out over worker
processes, sharing trained models and per-task results through the
content-addressed artifact cache (interrupt it; rerunning resumes)::

    python -m repro run table2 --jobs 4    # Table II, 4 worker processes
    python -m repro run fig9 --jobs 4      # Fig. 9, all widths
    python -m repro run sweep --jobs 4 --datasets iris,wbc --widths 5,8
    python -m repro run ablation --jobs 4  # rounding-mode ablation grid
    python -m repro run table2 --no-cache  # bypass the artifact cache

The micro-batching inference service answers concurrent predict requests
over HTTP, coalescing them into compiled-kernel-sized batches with
responses bit-identical to direct ``predict`` (see docs/serving.md).
Service operations ride along: Prometheus ``/metrics``, adaptive
coalescing delay, model hot-swap (``/swap``) and A/B serving with a
sampled bit-identity canary::

    python -m repro serve                  # listen on 127.0.0.1:8707
    python -m repro serve --port 9000 --max-batch 64 --max-delay-ms 5
    python -m repro serve --warmup wbc:posit8_1 --warmup iris:float4_3
    python -m repro serve --no-adaptive-delay      # fixed coalescing window
    python -m repro serve --ab wbc:posit8_1:float8_4 --canary-every 4
"""

from __future__ import annotations

import sys


def _table1() -> str:
    from .posit import regime_of_run, regime_run_length

    lines = ["TABLE I: Regime Interpretation", "Binary   Regime (k)"]
    for binary in ("0001", "001", "01", "10", "110", "1110"):
        bits = int(binary, 2)
        width = len(binary)
        run = regime_run_length(bits, width)
        leading = (bits >> (width - 1)) & 1
        lines.append(f"{binary:<8} {regime_of_run(leading, run):>9}")
    return "\n".join(lines)


def _fig2() -> str:
    from .analysis import (
        in_unit_fraction,
        posit_value_histogram,
        render_histogram,
        trained_model,
        weight_histogram,
    )
    from .posit import standard_format

    fmt = standard_format(7, 0)
    value_hist = posit_value_histogram(fmt)
    weights, _ = trained_model("wbc").model.export_params()
    weight_hist = weight_histogram(weights)
    return "\n\n".join(
        [
            render_histogram("Fig. 2(a): 7-bit posit (es=0) values", value_hist),
            render_histogram("Fig. 2(b): trained WBC weights", weight_hist),
            f"mass in [-1,1]: posit {in_unit_fraction(value_hist):.3f}, "
            f"weights {in_unit_fraction(weight_hist):.3f}",
        ]
    )


def _fig6() -> str:
    from .analysis import render_series
    from .hw import figure6_series

    return render_series(
        "Fig. 6: dynamic range vs Fmax (Hz)",
        figure6_series(),
        x_label="dynamic range",
        y_label="Fmax",
    )


def _fig7() -> str:
    from .analysis import render_series
    from .hw import figure7_series

    return render_series(
        "Fig. 7: n vs EDP (J*s)", figure7_series(), x_label="n", y_label="EDP"
    )


def _fig8() -> str:
    from .analysis import render_series
    from .hw import figure8_series

    return render_series(
        "Fig. 8: n vs LUTs",
        figure8_series(),
        x_label="n",
        y_label="LUTs",
        y_format="{:.0f}",
    )


def _fig9() -> str:
    from .analysis import figure9_series, render_figure9

    return render_figure9(figure9_series())


def _table2() -> str:
    from .analysis import render_table2, table2_rows

    return render_table2(table2_rows())


def _synth(dataset: str, format_name: str = "posit8_1") -> str:
    from . import formats
    from .analysis import trained_model
    from .core import PositronNetwork
    from .hw import synthesize_network

    backend = formats.get(format_name)
    tm = trained_model(dataset)
    weights, biases = tm.model.export_params()
    net = PositronNetwork.from_float_params(backend.fmt, weights, biases)
    return f"[{dataset}, {backend.label}]\n" + synthesize_network(net).render()


def _formats() -> str:
    from . import formats

    lines = ["Registered number-system families:"]
    for family in formats.families():
        lines.append(f"  {family.name:<8} ({family.fmt_type.__name__})")
    lines.append("")
    lines.append("Sweep candidates by width (canonical registry names):")
    for n in (5, 6, 7, 8):
        names = formats.available(widths=(n,))
        lines.append(f"  n={n}: " + " ".join(names))
    lines.append("")
    lines.append("Fused-plan compile report for a served model:")
    lines.append("  python -m repro formats --explain DATASET:FORMAT")
    return "\n".join(lines)


def _formats_explain(spec: str) -> str:
    """Per-layer fused-plan compile report for a trained ``ds:fmt`` model."""
    from . import formats
    from .analysis import trained_model
    from .core import PositronNetwork

    dataset, sep, format_name = spec.partition(":")
    if not sep or not dataset or not format_name:
        raise ValueError(f"--explain wants DATASET:FORMAT, got {spec!r}")
    backend = formats.get(format_name)
    weights, biases = trained_model(dataset).model.export_params()
    net = PositronNetwork.from_float_params(backend.fmt, weights, biases)
    report = net.network_kernel().explain()
    lines = [
        f"[{dataset}, {backend.label}] fused network plan "
        f"(mode={net.rounding_mode})",
        f"{'layer':<6}{'shape':<12}{'act':<10}{'planes':<8}"
        f"{'quire':<7}{'wide':<6}{'operands':<10}tables",
    ]
    for row in report:
        shape = f"{row['in_features']}->{row['out_features']}"
        planes = f"{row['planes']}x{row['weight_planes']}"
        lines.append(
            f"{row['layer']:<6}{shape:<12}{row['activation']:<10}"
            f"{planes:<8}{row['quire_bits']:<7}"
            f"{'yes' if row['wide'] else 'no':<6}{row['wants']:<10}"
            f"{row['table_bytes'] / 1024:>7.1f}KB"
        )
    total = sum(row["table_bytes"] for row in report)
    lines.append(f"total compiled-table footprint: {total / 1024:.1f}KB")
    if backend.limb_tables() is None:
        lines.append("round tables: none (fixed point rounds arithmetically)")
        return "\n".join(lines)
    lines.append(
        f"{'round table':<13}{'breakpoints':<13}{'m':<4}{'index':<10}bisected"
    )
    tables = [("input", formats.input_table(backend))] + [
        (f"words/{mode}", formats.round_table(backend, mode))
        for mode in formats.ROUNDING_MODES
    ]
    for label, table in tables:
        row = table.describe()
        m = "-" if row["m"] is None else row["m"]
        lines.append(
            f"{label:<13}{row['breakpoints']:<13}{m:<4}"
            f"{row['index_bytes'] / 1024:>6.1f}KB  {row['bisected']}"
        )
    return "\n".join(lines)


def _sweep(dataset: str, spec: str) -> str:
    from .analysis import evaluate_named_format, sweep_width

    if spec.isdigit():
        sweep = sweep_width(dataset, int(spec))
        lines = [
            f"[{dataset}, n={spec}] float32 baseline "
            f"{sweep['float32_accuracy']:.4f}"
        ]
        for row in sweep["all"]:
            lines.append(f"  {row['label']:<16} {row['accuracy']:.4f}")
        for family, best in sweep["best"].items():
            if best is not None:
                lines.append(
                    f"best {family:<6} {best['label']:<16} {best['accuracy']:.4f}"
                )
        return "\n".join(lines)
    result = evaluate_named_format(dataset, spec)
    return (
        f"[{result['dataset']}, {result['label']}] accuracy "
        f"{result['accuracy']:.4f} (float32 {result['float32_accuracy']:.4f})"
    )


def _run(args: list[str]) -> str:
    import argparse
    import os

    from .analysis import (
        DEFAULT_DATASETS,
        DEFAULT_WIDTHS,
        GridQuarantine,
        render_ablation,
        render_figure9,
        render_table2,
        run_ablation,
        run_fig9,
        run_sweeps,
        run_table2,
    )

    parser = argparse.ArgumentParser(
        prog="python -m repro run",
        description="Parallel, resumable experiment runner.",
    )
    parser.add_argument("target", choices=("table2", "fig9", "sweep", "ablation"))
    parser.add_argument(
        "--jobs", "-j", type=int, default=1,
        help="worker processes (0 = all cores; 1 = serial, the default)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="bypass the artifact cache (implies full recompute, no resume)",
    )
    parser.add_argument(
        "--datasets", default=None,
        help=f"comma-separated subset of {','.join(DEFAULT_DATASETS)}",
    )
    parser.add_argument(
        "--widths", default=None,
        help="comma-separated bit widths (sweep/fig9/ablation; default 5-8)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=3,
        help="attempts per task before it is quarantined (crashed workers "
             "are retried with exponential backoff)",
    )
    parser.add_argument(
        "--retry-backoff", type=float, default=0.5, metavar="SECONDS",
        help="base of the exponential backoff between retry rounds",
    )
    ns = parser.parse_args(args)

    if ns.no_cache:
        os.environ["REPRO_NO_CACHE"] = "1"
    jobs = ns.jobs if ns.jobs > 0 else (os.cpu_count() or 1)
    datasets = (
        tuple(ns.datasets.split(",")) if ns.datasets else DEFAULT_DATASETS
    )
    widths = (
        tuple(int(w) for w in ns.widths.split(","))
        if ns.widths
        else DEFAULT_WIDTHS
    )

    def progress(message: str) -> None:
        print(f"run[{ns.target}] {message}", file=sys.stderr, flush=True)

    retry = {
        "max_attempts": ns.max_attempts,
        "retry_backoff_s": ns.retry_backoff,
    }
    try:
        if ns.target == "table2":
            return render_table2(
                run_table2(datasets, jobs=jobs, progress=progress, **retry)
            )
        if ns.target == "fig9":
            return render_figure9(
                run_fig9(widths, datasets, jobs=jobs, progress=progress,
                         **retry)
            )
        if ns.target == "ablation":
            results = run_ablation(
                datasets, widths, jobs=jobs, progress=progress, **retry
            )
            return render_ablation(list(results.values()))
        sweeps = run_sweeps(datasets, widths, jobs=jobs, progress=progress,
                            **retry)
    except GridQuarantine as exc:
        # The healthy part of the grid completed (and is in the store);
        # report the quarantined tasks instead of pretending all is well.
        for row in exc.report:
            progress(
                f"QUARANTINED {row['dataset']} n={row['width']} after "
                f"{row['attempts']} attempt(s): {row['error']}"
            )
        raise ValueError(str(exc)) from exc
    lines = []
    for task, sweep in sweeps.items():
        lines.append(
            f"[{task.dataset}, n={task.width}] float32 baseline "
            f"{sweep['float32_accuracy']:.4f}"
        )
        for family, best in sweep["best"].items():
            if best is not None:
                lines.append(
                    f"  best {family:<6} {best['label']:<16} "
                    f"{best['accuracy']:.4f}"
                )
    return "\n".join(lines)


def _serve(args: list[str]) -> int:
    import argparse
    import asyncio

    parser = argparse.ArgumentParser(
        prog="python -m repro serve",
        description="Micro-batching exact-MAC inference service.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8707,
                        help="listen port (0 = any free port)")
    parser.add_argument("--max-batch", type=int, default=32,
                        help="rows per coalesced kernel batch")
    parser.add_argument("--max-delay-ms", type=float, default=2.0,
                        help="longest a lone request waits for batchmates")
    parser.add_argument("--queue-limit", type=int, default=256,
                        help="bounded per-model queue (backpressure)")
    parser.add_argument("--workers", type=int, default=2,
                        help="executor threads running kernel batches")
    parser.add_argument(
        "--no-adaptive-delay", action="store_true",
        help="disable EWMA delay tuning (always wait the full max-delay-ms)",
    )
    parser.add_argument(
        "--warmup", action="append", default=[], metavar="DATASET:FORMAT",
        help="preload a model before serving (repeatable)",
    )
    parser.add_argument(
        "--ab", action="append", default=[], metavar="DATASET:FMT_A:FMT_B",
        help="serve a dataset A/B across two formats with a sampled "
             "bit-identity canary (repeatable)",
    )
    parser.add_argument(
        "--canary-every", type=int, default=8,
        help="run the A/B canary on every Nth routed request (0 = never)",
    )
    parser.add_argument(
        "--shed-threshold", type=float, default=None, metavar="FRACTION",
        help="shed load (503 + Retry-After) once a model's queue reaches "
             "this fraction of --queue-limit (default: off, submitters "
             "wait instead)",
    )
    parser.add_argument(
        "--rollback-after", type=int, default=1, metavar="N",
        help="canary divergences on an A/B arm before it is automatically "
             "rolled back to the last-known-good generation (0 = never)",
    )
    parser.add_argument(
        "--workers-procs", type=int, default=0, metavar="N",
        help="fork N serving processes sharing the port via SO_REUSEPORT "
             "(0 = single process, the default); control ops fan out to "
             "all workers and SIGHUP triggers a rolling restart",
    )
    ns = parser.parse_args(args)

    warmups = []
    for spec in ns.warmup:
        dataset, sep, format_name = spec.partition(":")
        if not sep or not dataset or not format_name:
            print(f"error: --warmup wants DATASET:FORMAT, got {spec!r}",
                  file=sys.stderr)
            return 2
        warmups.append((dataset, format_name))

    ab_experiments = []
    for spec in ns.ab:
        parts = spec.split(":")
        if len(parts) != 3 or not all(parts):
            print(f"error: --ab wants DATASET:FMT_A:FMT_B, got {spec!r}",
                  file=sys.stderr)
            return 2
        ab_experiments.append(tuple(parts))

    from .serve import run_pool_forever, serve_forever

    server_kwargs = dict(
        max_batch=ns.max_batch,
        max_delay_ms=ns.max_delay_ms,
        queue_limit=ns.queue_limit,
        executor_workers=ns.workers,
        adaptive_delay=not ns.no_adaptive_delay,
        canary_every=ns.canary_every,
        shed_threshold=ns.shed_threshold,
        rollback_after=ns.rollback_after,
    )
    try:
        if ns.workers_procs > 0:
            asyncio.run(run_pool_forever(
                host=ns.host,
                port=ns.port,
                workers=ns.workers_procs,
                warmups=tuple(warmups),
                ab_experiments=tuple(ab_experiments),
                server_kwargs=server_kwargs,
            ))
        else:
            asyncio.run(serve_forever(
                warmups=warmups,
                ab_experiments=ab_experiments,
                host=ns.host,
                port=ns.port,
                **server_kwargs,
            ))
    except KeyboardInterrupt:
        print("shutting down", file=sys.stderr)
    except (KeyError, ValueError, OSError) as exc:
        # str(KeyError) wraps the message in quotes; str(OSError) keeps
        # the human-readable bind error (args[0] would be a bare errno).
        message = exc.args[0] if isinstance(exc, KeyError) and exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    return 0


_COMMANDS = {
    "table1": _table1,
    "fig2": _fig2,
    "fig6": _fig6,
    "fig7": _fig7,
    "fig8": _fig8,
    "fig9": _fig9,
    "table2": _table2,
    "formats": _formats,
}


def _print_report(render, *args) -> int:
    """Print one command's report; a bad name or argument exits 2."""
    try:
        print(render(*args))
    except (KeyError, ValueError) as exc:
        print(f"error: {exc.args[0]}", file=sys.stderr)
        return 2
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point: dispatch to one experiment (or ``all``)."""
    args = argv if argv is not None else sys.argv[1:]
    if not args or args[0] in ("-h", "--help"):
        print(__doc__)
        return 0
    command = args[0]
    if command == "synth":
        dataset = args[1] if len(args) > 1 else "wbc"
        format_name = args[2] if len(args) > 2 else "posit8_1"
        return _print_report(_synth, dataset, format_name)
    if command == "run":
        return _print_report(_run, args[1:])
    if command == "serve":
        return _serve(args[1:])
    if command == "formats" and len(args) > 1:
        if args[1] != "--explain" or len(args) < 3:
            print("usage: python -m repro formats [--explain DATASET:FORMAT]",
                  file=sys.stderr)
            return 2
        return _print_report(_formats_explain, args[2])
    if command == "sweep":
        if len(args) < 3:
            print("usage: python -m repro sweep <dataset> <width|format-name>",
                  file=sys.stderr)
            return 2
        return _print_report(_sweep, args[1], args[2])
    if command == "all":
        for name, fn in _COMMANDS.items():
            print(f"\n{'=' * 20} {name} {'=' * 20}")
            print(fn())
        print(f"\n{'=' * 20} synth {'=' * 20}")
        print(_synth("wbc"))
        return 0
    if command not in _COMMANDS:
        print(f"unknown command '{command}'; try --help", file=sys.stderr)
        return 2
    print(_COMMANDS[command]())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
