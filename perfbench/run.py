#!/usr/bin/env python3
"""End-to-end benchmark of the `webrank` command line, with a traced run.

    python3 perfbench/run.py --workload catalog_exact --seed 3 --seconds 25 --trace 0

A job is one `webrank.cli.main([...subcommand..., "--format", "json"])` call.
A run repeats whole rounds of its workload's jobs, in one process and one
thread, until `--seconds` have passed, then checks every report against
values computed in `checks.py`.  The last line of standard output is one JSON
object: `correct`, `attempted` and `failed` (jobs), and `metrics`.

With `--trace 0` the metrics are the end-to-end ones (median over rounds):
wall_s, slowest_job_s, peak_rss_mb and setup_s.  The three times are scaled
to a fixed reference speed of the processor by calibrations that run while
the jobs do (see speed.py); the raw wall times go to the result file.  With
`--trace 1` each round is run once untraced and once traced, and the metrics
are the per-layer self times and counters of the traced round plus the
tracing overhead, in raw wall time.

`--seed` only orders the jobs of each round.  The sampler seeds are part of
the job definitions (see README.md), because verdicts depend on them.
A full result, with the environment, goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

import checks
import speed
from spans import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
SETUP_PROBES = 3  # before each round and after the last one

# The 13 exp/log-free catalog families; k0_4_exp is the float workload.
EXACT_FAMILIES = [
    "k0_2_linear",
    "k0_3_quadrics",
    "k0_3_sym_sum",
    "k0_3_sym_prod",
    "k0_3_moebius_sum",
    "k0_3_moebius_prod",
    "k0_3_harmonic_sum",
    "k0_3_harmonic_inv",
    "k0_3_crossratio_affine",
    "k0_4_WB_sum",
    "k0_4_WB_quad",
    "k0_4_WB_prod",
    "k0_4_pereira_pirio_affine",
]

# Each job: (argv without --format, family).  Seed 1 of k0_3_moebius_sum,
# k0_3_moebius_prod and k0_3_crossratio_affine fails every time: the web
# condition in web._web_condition answers "false" from one sampled point.
WORKLOADS = {
    "catalog_exact": [
        (["verify-family", "--family", family, "--seed", str(seed)], family)
        for seed in (0, 1)
        for family in EXACT_FAMILIES
    ],
    "exact_corroborate": [
        (
            ["verify-family", "--family", family, "--seed", "0", "--corroborate"],
            family,
        )
        for family in ("k0_4_pereira_pirio_affine", "k0_4_WB_sum")
    ],
    "float_exp": [
        (["verify-family", "--family", "k0_4_exp", "--seed", "0"], "k0_4_exp"),
        (
            ["rank", "--family", "k0_4_exp", "--n", "3", "--precision", "32"],
            "k0_4_exp",
        ),
    ],
}


def _count_entries(counts, name, rows):
    counts[name + ".entries"] += len(rows) * (len(rows[0]) if rows else 0)


def _tally_float_rank(counts, args, result):
    _count_entries(counts, "linalg.float_rank", args[0])
    counts["linalg.float_rank.marginal"] += result[1]["marginal"]


def _tally_exact_rank(counts, args, result):
    _count_entries(counts, "linalg.exact_rank", args[0])


# Layer spans of the traced run: (module, function, work counters).
LAYERS = [
    ("linalg", "float_rank", _tally_float_rank),
    ("linalg", "exact_rank", _tally_exact_rank),
    ("linalg", "exact_det", None),
    ("tpoly", "taylor", None),
    ("abelrank", "rank_estimate", None),
    ("abelrank", "generic_point_for_web", None),
    ("jets", "jet_matrix_from_gradients", None),
    ("jets", "square_block", None),
    ("web", "web_gradients", None),
    ("web", "validate_balanced", None),
    ("web", "assemble", None),
    ("ordinary", "check_finite_criterion", None),
    ("ordinary", "check_ordinary_at", None),
    ("catalog", "get_family", None),
    ("report", "jsonable", None),
]
CALL_COUNTS = [
    "linalg.float_rank",
    "linalg.exact_rank",
    "linalg.exact_det",
    "tpoly.taylor",
    "abelrank.rank_estimate",
    "jets.jet_matrix_from_gradients",
    "web.web_gradients",
]
WORK_COUNTS = [
    "linalg.float_rank.entries",
    "linalg.float_rank.marginal",
    "linalg.exact_rank.entries",
    "ordinary.sampler.points",
]

# Prints the raw set-up time and the set-up time scaled by a speed probe
# that calibrates while it runs (see speed.py).
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import speed
probe = speed.SpeedProbe()
probe.start()
start = time.perf_counter()
sys.path.insert(0, sys.argv[2])
from webrank import catalog
for family in sys.argv[3:]:
    catalog.get_family(family)
end = time.perf_counter()
probe.stop()
print(end - start - probe.calibrated_s(start, end), probe.scaled(start, end))
"""


def import_webrank():
    """Import webrank from this checkout's src/, refusing any other copy."""
    if not (SRC / "webrank" / "__init__.py").is_file():
        sys.exit(f"perfbench: no webrank sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import webrank

    location = Path(webrank.__file__).resolve()
    if SRC.resolve() not in location.parents:
        sys.exit(f"perfbench: webrank imported from {location}, not from {SRC}")
    return webrank


def environment(webrank) -> dict:
    import mpmath

    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "webrank_backend": webrank.linalg.BACKEND,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "webrank_file": str(Path(webrank.__file__).resolve().relative_to(ROOT)),
    }


def measure_setup(families) -> list[tuple[float, float]]:
    """Import webrank and build the workload's balanced sets in fresh interpreters.

    Returns (raw, scaled) seconds per interpreter.
    """
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_PROBE, str(HERE), str(SRC), *families],
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        )
        raw, scaled = done.stdout.strip().splitlines()[-1].split()
        times.append((float(raw), float(scaled)))
    return times


@dataclass
class Outcome:
    argv: list[str]
    family: str
    code: int | None
    start: float
    end: float
    output: str


@dataclass
class Round:
    start: float
    end: float
    cpu_s: float
    outcomes: list[Outcome]
    tracer: Tracer | None
    probe: speed.SpeedProbe | None

    def raw_s(self, start: float, end: float) -> float:
        """Wall time from start to end, less the time the probe spent calibrating."""
        return end - start - (self.probe.calibrated_s(start, end) if self.probe else 0)

    @property
    def wall_s(self) -> float:
        return self.raw_s(self.start, self.end)


def run_round(
    cli, jobs, tracer: Tracer | None = None, probe: speed.SpeedProbe | None = None
) -> Round:
    """Run every job once, in order, timing each and the whole round.

    CPU time is kept beside wall time in the result file: a wall time well
    above it means the process was descheduled.
    """
    gc.collect()
    if probe is not None:
        probe.start()
    try:
        cpu_start = time.process_time()
        start = time.perf_counter()
        outcomes = _run_jobs(cli, jobs, tracer)
        end = time.perf_counter()
        cpu = time.process_time() - cpu_start
    finally:
        if probe is not None:
            probe.stop()
    if probe is not None:
        cpu -= probe.calibrated_s(start, end)
    return Round(start, end, cpu, outcomes, tracer, probe)


def _run_jobs(cli, jobs, tracer: Tracer | None) -> list[Outcome]:
    outcomes = []
    for argv, family in jobs:
        buffer = io.StringIO()
        job_start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buffer):
                if tracer is None:
                    code = cli.main([*argv, "--format", "json"])
                else:
                    with tracer.root("unspanned"):
                        code = cli.main([*argv, "--format", "json"])
        except Exception:
            traceback.print_exc()
            code = None
        job_end = time.perf_counter()
        outcomes.append(
            Outcome(argv, family, code, job_start, job_end, buffer.getvalue())
        )
    return outcomes


def check_outcome(catalog, outcome: Outcome) -> list[str]:
    _, spec = catalog.get_family(outcome.family)
    try:
        report = json.loads(outcome.output)
        if outcome.argv[0] == "rank":
            return checks.check_rank(report, spec.k0)
        return checks.check_verify_family(
            report,
            spec.k0,
            spec.expected_ordinary,
            spec.expected_max_rank,
            corroborate="--corroborate" in outcome.argv,
        )
    except (ValueError, KeyError, TypeError, IndexError) as err:
        return [f"malformed report: {err!r}"]


def install_layers(tracer: Tracer, webrank) -> None:
    for module_name, function, tally in LAYERS:
        module = getattr(webrank, module_name)
        tracer.wrap_function(module, function, f"{module_name}.{function}", tally)
    tracer.count_method(
        webrank.ordinary.GenericPointSampler, "point", "ordinary.sampler.points"
    )


def _metric(values, unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit}


def end_to_end_metrics(plain: list[Round], setup_times) -> dict:
    """Medians over rounds of times scaled to the reference speed."""
    jobs = range(len(plain[0].outcomes))
    return {
        "wall_s": _metric([r.probe.scaled(r.start, r.end) for r in plain], "s"),
        "slowest_job_s": {
            "value": max(
                statistics.median(
                    r.probe.scaled(r.outcomes[i].start, r.outcomes[i].end)
                    for r in plain
                )
                for i in jobs
            ),
            "unit": "s",
        },
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "unit": "MiB",
        },
        "setup_s": _metric([scaled for _, scaled in setup_times], "s"),
    }


def layer_metrics(plain: list[Round], traced: list[Round]) -> dict:
    """Medians over the traced rounds of each layer's self time and counters."""
    tracers = [r.tracer for r in traced]
    metrics = {}
    for module_name, function, _ in LAYERS:
        name = f"{module_name}.{function}"
        metrics[name + ".self_s"] = _metric([t.self_s[name] for t in tracers], "s")
    # Counters repeat exactly from round to round; median_low keeps them whole.
    for name in CALL_COUNTS:
        calls = statistics.median_low(t.calls[name] for t in tracers)
        metrics[name + ".calls"] = {"value": calls, "unit": "count"}
    for name in WORK_COUNTS:
        count = statistics.median_low(t.counts[name] for t in tracers)
        metrics[name] = {"value": count, "unit": "count"}
    metrics["trace.wall_s"] = _metric([r.wall_s for r in traced], "s")
    metrics["trace.unspanned_s"] = _metric(
        [t.self_s["unspanned"] for t in tracers], "s"
    )
    metrics["trace.overhead_s"] = {
        "value": statistics.median(r.wall_s for r in traced)
        - statistics.median(r.wall_s for r in plain),
        "unit": "s",
    }
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    webrank = import_webrank()
    from webrank import catalog, cli

    env = environment(webrank)
    families = sorted({family for _, family in WORKLOADS[args.workload]})
    setup_times: list[tuple[float, float]] = []
    # One probe for all plain rounds of an untraced run; none in a traced run,
    # whose layer spans would otherwise hold the calibrations.
    probe = None if args.trace else speed.SpeedProbe()

    jobs = list(WORKLOADS[args.workload])
    random.Random(args.seed).shuffle(jobs)
    plain: list[Round] = []
    traced: list[Round] = []
    deadline = time.perf_counter() + args.seconds
    while True:
        if not args.trace:
            setup_times += measure_setup(families)
        plain.append(run_round(cli, jobs, probe=probe))
        if args.trace:
            tracer = Tracer()
            install_layers(tracer, webrank)
            try:
                traced.append(run_round(cli, jobs, tracer))
            finally:
                tracer.restore()
        if time.perf_counter() >= deadline:
            break
    if not args.trace:
        setup_times += measure_setup(families)

    outcomes = [o for r in plain + traced for o in r.outcomes]
    failed_jobs = sorted({" ".join(o.argv) for o in outcomes if o.code != 0})
    problems = sorted(
        {
            f"{' '.join(o.argv)}: {problem}"
            for o in outcomes
            if o.code == 0
            for problem in check_outcome(catalog, o)
        }
    )
    for problem in problems:
        print(f"perfbench: wrong report: {problem}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(plain, traced)
    else:
        metrics = end_to_end_metrics(plain, setup_times)
    result = {
        "correct": not problems,
        "attempted": len(outcomes),
        "failed": sum(o.code != 0 for o in outcomes),
        "metrics": metrics,
    }

    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": env,
        "rounds": [
            {
                "traced": r.tracer is not None,
                "wall_s": r.wall_s,
                "cpu_s": r.cpu_s,
                "job_s": {" ".join(o.argv): r.raw_s(o.start, o.end) for o in r.outcomes},
                "scaled_s": r.probe.scaled(r.start, r.end) if r.probe else None,
                "job_scaled_s": {
                    " ".join(o.argv): r.probe.scaled(o.start, o.end)
                    for o in r.outcomes
                }
                if r.probe
                else None,
                # layer self times plus unspanned time; equals wall_s up to
                # the loop between jobs
                "spanned_s": sum(r.tracer.self_s.values()) if r.tracer else None,
            }
            for r in plain + traced
        ],
        "setup_s": [raw for raw, _ in setup_times],
        "setup_scaled_s": [scaled for _, scaled in setup_times],
        "calibrations": len(probe.seconds) if probe else 0,
        "calibration_median_s": statistics.median(probe.seconds) if probe else None,
        "failed_jobs": failed_jobs,
        "problems": problems,
        **result,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps({"environment": env}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
