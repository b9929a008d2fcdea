"""Command line front end.

Subcommands::

    gkptrack run        run a Monte Carlo sweep, write results.csv + manifest.json
    gkptrack threshold  locate the level-curve crossing from a results CSV
    gkptrack resources  print/write the qubit-budget table
    gkptrack plot       render one or more results CSVs as a self-contained SVG

``run`` builds one :class:`gkptrack.harness.SweepConfig` from its flags and
hands it to :func:`gkptrack.harness.sweep`.  The config is the one place a
setting is refused: an invalid value exits 2 with its message before anything
is written.  The parser refuses only what it cannot read, ``--workers``
below 1 or above :data:`gkptrack.harness.MAX_WORKERS`, or a ``--levels``
range of more than :data:`gkptrack.kernels.MAX_LEVEL` levels.  One output
directory holds one sweep: ``run`` into a directory whose manifest records
another configuration, or whose rows are not the sweep's first points,
exits 2 and changes nothing there.  ``plot`` draws several sweeps from
their files, one series per file and level.

Exit codes: 0 success, 1 usage error, 2 refused config value or runtime/IO error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys

from . import harness
from .kernels import MAX_LEVEL, get_backend

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2

#: most points a ``--sigma-total`` grid may hold
MAX_GRID_POINTS = 10**6


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped to exit code 1."""

    def error(self, message):
        raise _UsageError(message)


def _parse_sigma_grid(text: str) -> tuple[float, ...]:
    """Inclusive A:B:STEP grid; points generated by index to avoid drift."""
    try:
        a_s, b_s, step_s = text.split(":")
        a, b, step = float(a_s), float(b_s), float(step_s)
    except ValueError:
        raise _UsageError(f"--sigma-total expects A:B:STEP, got {text!r}")
    if not all(map(math.isfinite, (a, b, step))):
        raise _UsageError(f"--sigma-total A, B and STEP must be finite, got {text!r}")
    if step <= 0:
        raise _UsageError("--sigma-total STEP must be > 0")
    if b < a:
        raise _UsageError("--sigma-total requires B >= A")
    span = (b - a) / step
    if not math.isfinite(span):
        raise _UsageError(f"--sigma-total (B - A) / STEP must be finite, got {text!r}")
    count = int(span + 1e-9) + 1
    if count > MAX_GRID_POINTS:
        raise _UsageError(f"--sigma-total gives {count} points, more than {MAX_GRID_POINTS}")
    return tuple(a + i * step for i in range(count))


def _parse_levels(text: str) -> tuple[int, ...]:
    """``--levels`` as a list or an inclusive range; a range of over :data:`gkptrack.kernels.MAX_LEVEL` levels is refused unbuilt."""
    try:
        if ".." not in text:
            return tuple(int(part) for part in text.split(","))
        lo, hi = map(int, text.split(".."))
    except ValueError:
        raise _UsageError(f"--levels expects e.g. '1,2,3' or '1..5', got {text!r}")
    if hi - lo + 1 > MAX_LEVEL:
        raise _UsageError(f"--levels {text} spans {hi - lo + 1} levels, more than {MAX_LEVEL}")
    return tuple(range(lo, hi + 1))


def _parse_workers(text: str) -> int:
    """``--workers``, refused outside 1 to :data:`gkptrack.harness.MAX_WORKERS` before any thread starts."""
    try:
        workers = int(text)
    except ValueError:
        raise _UsageError(f"--workers expects an integer, got {text!r}")
    if workers < 1:
        raise _UsageError(f"--workers must be >= 1, got {workers}")
    if workers > harness.MAX_WORKERS:
        raise _UsageError(f"--workers must be <= {harness.MAX_WORKERS}, got {workers}")
    return workers


@functools.cache
def _build_parser() -> _Parser:
    """The parser of every command, built at the first :func:`main` call and reused by each after it."""
    parser = _Parser(prog="gkptrack", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a Monte Carlo sweep")
    run.add_argument("--protocol", required=True, choices=["conventional", "tracking"])
    run.add_argument("--analog", required=True, choices=["on", "off"])
    run.add_argument("--cycles", required=True, type=int)
    run.add_argument("--levels", required=True, type=_parse_levels)
    run.add_argument("--sigma-total", required=True, type=_parse_sigma_grid,
                     help="inclusive grid A:B:STEP on the summed-noise axis")
    run.add_argument("--trials", required=True, type=int)
    run.add_argument("--seed", required=True, type=int)
    run.add_argument("--out", default=None,
                     help="output directory (default: $GKPTRACK_OUT or '.')")
    run.add_argument("--quadrature", choices=["q", "p"], default="q",
                     help="the quadrature a trial simulates (default: q); p differs from q only "
                          "through ancilla noise, so it needs --protocol tracking and --sigma-ancilla > 0")
    run.add_argument("--sigma-ancilla", type=float, default=0.0,
                     help="ancilla noise of the tracking correction step (default: 0)")
    run.add_argument("--workers", type=_parse_workers, default=1,
                     help=f"threads running a point's blocks, at most {harness.MAX_WORKERS} (default: 1)")
    run.add_argument("--max-failures-stop", type=int, default=None)

    thr = sub.add_parser("threshold", help="locate the level-curve crossing")
    thr.add_argument("--in", dest="infile", required=True)
    thr.add_argument("--out", dest="outfile", required=True)

    res = sub.add_parser("resources", help="qubit-budget table")
    res.add_argument("--cycles", required=True, type=int)
    res.add_argument("--levels", required=True, type=_parse_levels)
    res.add_argument("--out", default=None, help="directory for resources.csv/.json")

    plot = sub.add_parser("plot", help="render results as SVG")
    plot.add_argument("--in", dest="infiles", nargs="+", required=True,
                      help="one or more results CSVs, drawn in one figure")
    plot.add_argument("--out", dest="outfile", required=True)
    plot.add_argument("--threshold", default=None, help="threshold report JSON to mark")
    plot.add_argument("--title", default="")

    return parser


def _cmd_run(args) -> int:
    # the config refuses every invalid setting, before anything is written
    cfg = harness.SweepConfig(
        protocol=args.protocol,
        analog=args.analog == "on",
        cycles=args.cycles,
        sigma_total_grid=args.sigma_total,
        levels=args.levels,
        trials_per_point=args.trials,
        master_seed=args.seed,
        max_failures_stop=args.max_failures_stop,
        quadrature=args.quadrature,
        sigma_ancilla=args.sigma_ancilla,
    )
    out_dir = args.out or os.environ.get("GKPTRACK_OUT", ".")
    os.makedirs(out_dir, exist_ok=True)
    backend = get_backend()
    results_path = os.path.join(out_dir, "results.csv")
    manifest_path = os.path.join(out_dir, "manifest.json")
    harness.check_resume(manifest_path, results_path, cfg)
    # manifest first: results never exist without the manifest that vouches
    # for them; a resume keeps the one that started the sweep
    if not os.path.exists(manifest_path):
        harness.write_manifest(manifest_path, cfg, backend.name, args.workers)
    sink = harness.CsvSink(results_path)

    def progress(est):
        print(
            f"  level {est.level}  sigma {est.sigma_total:g}  p_fail {est.p_fail:.6g}"
            f"  [{est.ci_low:.3g}, {est.ci_high:.3g}]  ({est.failures}/{est.trials})"
        )

    print(f"sweep: {args.protocol}/{'analog' if cfg.analog else 'digital'}"
          f" cycles={cfg.cycles} backend={backend.name}")
    harness.sweep(cfg, sink, workers=args.workers, backend=backend, progress=progress)
    print(f"results: {sink.path}")
    return EXIT_OK


def _cmd_threshold(args) -> int:
    estimates = harness.read_results(args.infile)
    report = harness.find_threshold(estimates)
    with open(args.outfile, "w") as fh:
        fh.write(report.to_json() + "\n")
    print(f"sigma_star = {report.sigma_star:.4f} +- {report.spread:.4f} (spread over "
          f"{len(report.crossing_pairs)} level pair(s))")
    return EXIT_OK


def _cmd_resources(args) -> int:
    from . import resources
    reports = resources.table(args.cycles, args.levels)
    header = f"{'n':>3} {'l':>3} {'conventional':>14} {'tracking':>10} {'saved':>10} {'rate %':>7}"
    print(header)
    for r in reports:
        print(
            f"{r.cycles:>3} {r.level:>3} {r.r_conventional:>14} {r.r_tracking:>10}"
            f" {r.saved:>10} {r.rate_percent:>7}"
        )
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        resources.write_csv(os.path.join(args.out, "resources.csv"), reports)
        resources.write_json(os.path.join(args.out, "resources.json"), reports)
        print(f"written: {args.out}/resources.csv, {args.out}/resources.json")
    return EXIT_OK


def _cmd_plot(args) -> int:
    from . import svgplot
    sweeps = {}
    for path in args.infiles:
        sweeps[path] = harness.read_results(path)
        if not sweeps[path]:
            raise RuntimeError(f"{path}: no data rows")
    threshold = None
    if args.threshold:
        with open(args.threshold) as fh:
            threshold = harness.ThresholdEstimate.from_json(fh.read())
    svgplot.render_curves(sweeps, args.outfile, threshold=threshold, title=args.title)
    print(f"plot: {args.outfile}")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    try:
        # the parser admits these commands alone
        commands = {"run": _cmd_run, "threshold": _cmd_threshold, "resources": _cmd_resources, "plot": _cmd_plot}
        return commands[args.command](args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OSError, ValueError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
