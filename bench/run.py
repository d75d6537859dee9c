"""jbtrotter benchmark: bound-grid and CLI workloads, untraced and traced.

Usage, from the root of a checkout (nothing to install; ``src/`` is used
directly)::

    python3 bench/run.py --workload grid-albert --seed 1 --seconds 10 --trace 0
    python3 bench/run.py            # every workload, untraced then traced

One process, one client thread, closed loop: each operation starts when
the previous one has finished.  numpy/BLAS threading is left at its
default and recorded.  ``--trace 0`` measures the end-to-end metrics;
``--trace 1`` repeats the same work under the span tracer after an
untraced pass and reports the per-layer metrics.  Every line but the last
is a report (environment, walls, sample counts); the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every output is correct.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

from tracer import GROUPS, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Fresh interpreters that each start, import and generate the inputs; the
# median of their start-to-ready times is setup_s.  Start-up cost is mostly
# file loading, which the CPU calibration kernel does not track, so each
# probe is scaled instead by a bare interpreter importing numpy, timed just
# before and just after it, against YARDSTICK_NOMINAL_S.
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120
YARDSTICK_NOMINAL_S = 0.19


def _import_program():
    if not (SRC / "jbtrotter" / "__init__.py").is_file():
        raise SystemExit(f"error: no jbtrotter package under {SRC}")
    sys.path.insert(0, str(SRC))
    import jbtrotter

    if SRC not in Path(jbtrotter.__file__).resolve().parents:
        raise SystemExit(f"error: imported jbtrotter from {jbtrotter.__file__}, not {SRC}")
    return jbtrotter


# ---------------------------------------------------------------------------
# environment


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    # Ask the OpenBLAS that numpy loaded; None when it cannot be found.
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return fn()
    return None


def _git_commit() -> str:
    # The benchmark may run from a plain copy of the tree: no .git there.
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(jbtrotter) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
            "threads": _blas_threads(),
            "env": {k: os.environ.get(k) for k in (
                "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        },
        "jbtrotter": jbtrotter.__version__,
        "git_commit": _git_commit(),
        "load": "closed loop, 1 process, 1 client thread",
    }


# ---------------------------------------------------------------------------
# measurement


def _yardstick_seconds() -> float:
    started = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=PROBE_TIMEOUT_S)
    return perf_counter() - started


def setup_probes(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[list, list, list]:
    """Start SETUP_PROBES fresh interpreters, each under another PYTHONHASHSEED.

    Returns the scaled and the unscaled start-to-ready times and the input
    digests.
    """
    scaled, raw, digests = [], [], []
    yardsticks = [_yardstick_seconds()]
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"probe-{i}"
        probe_dir.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=str(i))
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(seed), "--seconds", repr(seconds), "--probe", str(probe_dir)]
        started = perf_counter()
        done = subprocess.run(argv, env=env, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S, cwd=ROOT)
        if done.returncode != 0:
            raise RuntimeError(f"setup probe failed ({done.returncode}): {done.stderr.strip()}")
        reply = json.loads(done.stdout.strip().splitlines()[-1])
        yardsticks.append(_yardstick_seconds())
        raw.append(reply["ready"] - started)
        scaled.append(raw[-1] * 2.0 * YARDSTICK_NOMINAL_S / (yardsticks[-2] + yardsticks[-1]))
        digests.append(reply["digest"])
        shutil.rmtree(probe_dir)
    return scaled, raw, digests


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentiles_ms(seconds: list) -> dict:
    p50, p90 = np.percentile(np.array(seconds) * 1e3, [50, 90])
    return {"p50": float(p50), "p90": float(p90), "samples": len(seconds)}


def layer_metrics(tracer: Tracer, checks: int, grid: bool, overhead_s: float) -> dict:
    out = {}
    for group in GROUPS:
        out[f"{group}.calls"] = (tracer.calls[group], "count")
        out[f"{group}.self_s"] = (tracer.self_s[group], "s")
        out[f"{group}.total_s"] = (tracer.total_s[group], "s")
    out["algebras.Element.created"] = (tracer.elements_created, "count")

    def ratio(num, den):
        return num / den if den else 0.0

    out["algebras.exp_spectral.fallback_ratio"] = (
        ratio(tracer.nested["fallbacks"], tracer.calls["algebras.exp_spectral"]), "ratio")
    out["algebras.jordan_mul.per_check"] = (
        ratio(tracer.calls["algebras.jordan_mul"], checks) if grid else 0.0, "ratio")
    out["trotter.plan_min_n.evals_per_call"] = (
        ratio(tracer.nested["plan_evals"], tracer.calls["trotter.plan_min_n"]), "ratio")
    out["trace.overhead_s"] = (overhead_s, "s")
    return out


def run_workload(name: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    import workloads as wl

    failures = []
    setups, raw_setups, digests = setup_probes(name, seed, seconds, workdir)

    started = perf_counter()
    work = wl.prepare(name, seed, seconds, str(workdir))
    prepare_s = perf_counter() - started
    if any(d != work.digest for d in digests):
        failures.append("inputs differ between processes (digests "
                        f"{sorted(set(digests + [work.digest]))})")
    run = wl.execute(work.ops, work.slice_size)
    untraced_wall = perf_counter() - started
    rss = _peak_rss_mb()

    checks, problems = wl.check_outputs(work, run.outputs)
    failures += problems
    cross_attempted, problems = wl.cross_check_exponentials(work)
    failures += problems
    attempted = len(work.ops) + cross_attempted

    grid = name != "cli"
    busy_s = sum(run.scaled_seconds)
    lat = _percentiles_ms(run.scaled_seconds)
    raw = _percentiles_ms(run.seconds)
    ops_per_s = len(work.ops) / busy_s
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "op_p50_ms": (lat["p50"], "ms"),
        "op_p90_ms": (lat["p90"], "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    report = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "rounds": work.rounds,
        "ops": len(work.ops),
        "op": "sweep() call, 9 step counts" if grid else "cli.main(argv) command",
        "percentile_samples": lat["samples"],
        "setup_probe_s": {"scaled": setups, "unscaled": raw_setups},
        "prepare_s": prepare_s,
        "untraced_wall_s": untraced_wall,
        "calibration_s": {"nominal": wl.CALIBRATION_NOMINAL_S,
                          "median": statistics.median(run.calibrations),
                          "min": min(run.calibrations), "max": max(run.calibrations),
                          "samples": len(run.calibrations)},
        "unscaled": {"ops_per_s": len(work.ops) / sum(run.seconds),
                     "op_p50_ms": raw["p50"], "op_p90_ms": raw["p90"]},
        "bound_checks": checks,
        "exp_cross_checks": cross_attempted,
        # The same quantities under per-workload names.
        "aliases": (
            {"checks_per_s": checks / busy_s, "sweep_p50_ms": lat["p50"],
             "sweep_p90_ms": lat["p90"]} if grid else
            {"cmds_per_s": ops_per_s, "cmd_p50_ms": lat["p50"], "cmd_p90_ms": lat["p90"]}
        ),
    }

    layers = None
    if trace:
        tracer = Tracer()
        started = perf_counter()
        with tracer:
            traced_work = wl.prepare(name, seed, seconds, str(workdir))
            traced_prepare_s = perf_counter() - started
            traced = wl.execute(traced_work.ops, traced_work.slice_size)
        traced_wall = perf_counter() - started
        if traced_work.digest != work.digest:
            failures.append("traced run generated other inputs")
        if not wl.same_outputs(run.outputs, traced.outputs):
            failures.append("traced outputs differ from untraced outputs")
        _, problems = wl.check_outputs(traced_work, traced.outputs)
        failures += problems
        attempted += len(traced_work.ops)
        spans_path = OUT / f"spans-{name}.npz"
        tracer.write_spans(spans_path)
        # Both passes scaled to nominal machine speed, like the e2e times.
        overhead = (traced_prepare_s + sum(traced.scaled_seconds)) - (prepare_s + busy_s)
        layers = layer_metrics(tracer, checks, grid, overhead)
        report.update(traced_wall_s=traced_wall, spans=len(tracer.names),
                      spans_file=str(spans_path.relative_to(ROOT)))

    failed = len(failures)
    report["fail_ratio"] = failed / attempted
    return {"report": report, "e2e": e2e, "layers": layers, "failures": failures,
            "attempted": attempted, "failed": failed}


def _print_metrics(title: str, metrics: dict) -> None:
    print(f"  {title}")
    for key, (value, unit) in metrics.items():
        print(f"    {key:<44} {value:>16.6g} {unit}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="grid-albert, grid-matrix, cli or all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=1)
    parser.add_argument("--probe", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    jbtrotter = _import_program()
    import workloads as wl

    if args.probe is not None:
        work = wl.prepare(args.workload, args.seed, args.seconds, args.probe)
        print(json.dumps({"ready": perf_counter(), "digest": work.digest}))
        return 0

    names = wl.WORKLOADS if args.workload == "all" else (args.workload,)
    if any(n not in wl.WORKLOADS for n in names):
        parser.error(f"--workload must be one of {', '.join(wl.WORKLOADS)} or all")

    env = environment(jbtrotter)
    print("environment " + json.dumps(env))
    workdir = OUT / f"work-{os.getpid()}"
    results = {}
    for name in names:
        workdir.mkdir(parents=True)
        try:
            results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), workdir)
        finally:
            shutil.rmtree(workdir)

    metrics = {}
    for name, res in results.items():
        print(f"workload {name}")
        print("  report " + json.dumps(res["report"]))
        _print_metrics("end-to-end (untraced)", res["e2e"])
        if res["layers"] is not None:
            _print_metrics("per-layer (traced)", res["layers"])
        for problem in res["failures"]:
            print(f"  FAILED {problem}", file=sys.stderr)
        chosen = res["layers"] if args.trace else res["e2e"]
        prefix = "" if len(names) == 1 else f"{name}/"
        metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in chosen.items()})

    failed = sum(r["failed"] for r in results.values())
    result = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
