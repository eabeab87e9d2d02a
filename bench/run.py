"""Benchmark of tomokit: four workloads, end-to-end and per-layer metrics.

    python3 bench/run.py --workload state-tomography --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --self-test

Run from the repository root; nothing needs installing (``src`` is put on
the path).  Each run starts the workload in fresh interpreters: a setup-only
probe, then one process that also runs the timed closed loop.  Lines that
start with ``#`` report raw figures and the host; the last line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import copy
import ctypes
import glob
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

WORKLOADS = {
    "cli-session": "wl_cli_session",
    "state-tomography": "wl_state_tomography",
    "oscillator-recovery": "wl_oscillator_recovery",
    "completeness-audit": "wl_completeness_audit",
}
# Fresh interpreters whose setup time is measured per run; the median is
# reported.
SETUP_SAMPLES = 2
RUN_LIMIT_S = 170
# Workload processes use one BLAS thread: with two, the eigensolves of
# completeness-audit ran up to ten times slower whenever another process
# used the second CPU.
SINGLE_BLAS_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
                      "MKL_NUM_THREADS": "1"}

TIMED_SPANS = (
    "cli.simulate", "cli.reconstruct", "cli.evolve", "cli.measure",
    "cli.simulate.main", "cli.reconstruct.main", "cli.evolve.main", "cli.measure.main",
    "io.write_slice_csv", "io.read_slice_csv", "io.read_wavefunction_csv",
    "io.write_trajectory_csv",
    "transform.tomogram", "transform.tomogram_gaussian", "transform.sample_pure_gaussian",
    "reconstruct.detect_nodes", "reconstruct.recover_phases_nodes",
    "reconstruct.recover_phases_piecewise", "reconstruct.assemble_state",
    "dynamics.solve_epsilon_delta", "dynamics.harmonic_position_history",
    "dynamics.initial_tomogram_from_oscillator",
    "completeness.gaussian_completeness", "completeness.covariance_from_tomograms",
    "completeness.holevo_chi",
    "core.sample_state",
)
COUNTS = ("io.bytes_read", "io.bytes_written", "reconstruct.segments",
          "dynamics.solve_epsilon_delta.steps")


def _setup_path():
    for path in (SRC, HERE):
        if path not in sys.path:
            sys.path.insert(0, path)


# ------------------------------------------------------------------ host


def _blas_threads():
    """Thread count the bundled OpenBLAS reports, or None."""
    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                  "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _git_sha():
    """HEAD commit read from .git without running git, or "unknown"."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if os.path.exists(os.path.join(git, ref)):
            with open(os.path.join(git, ref)) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _host():
    import numpy as np
    import scipy

    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas_threads": _blas_threads(),
            "thread_env": {k: os.environ[k] for k in sorted(os.environ)
                           if k.endswith("_NUM_THREADS") or k == "TOMOKIT_THREADS"},
            "git_sha": _git_sha()}


def _import_breakdown(samples=3):
    """Median ``-X importtime`` figures of ``import tomokit.cli``, in ms."""
    env = dict(os.environ, PYTHONPATH=SRC)
    runs = []
    for _ in range(samples):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import tomokit.cli"],
                             env=env, cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=60).stderr
        fig = {"total": 0.0, "scipy": 0.0, "numpy": 0.0, "tomokit": 0.0}
        for line in err.splitlines():
            if not line.startswith("import time:") or "imported package" in line:
                continue
            own, cumulative, name = line[len("import time:"):].split("|")
            if len(name) - len(name.lstrip()) == 1:
                fig["total"] += int(cumulative) / 1e3
            top = name.strip().split(".")[0]
            if top in fig:
                fig[top] += int(own) / 1e3
        runs.append(fig)
    return {f"import.{k}_ms": statistics.median(r[k] for r in runs) for k in runs[0]}


# ----------------------------------------------------------------- child


def child(args):
    """One fresh interpreter: import, inputs, warm-up job; then, unless a
    setup probe, the timed phase.  Prints one JSON line."""
    _setup_path()
    import numpy as np

    import harness

    wl = importlib.import_module(WORKLOADS[args.workload])
    rng = np.random.default_rng([args.seed, 0])
    shared = wl.make_shared(rng)
    try:
        failures = []
        for inp in wl.make_round(np.random.default_rng([args.seed, 1]), shared):
            _, out, failed = harness.run_job(wl, shared, inp, harness.Direct())
            failures.extend(f"warm-up: {f}" for f in failed)
            if hasattr(wl, "cleanup"):
                wl.cleanup(out)
        ready = time.perf_counter()
        result = {"ready": ready, "ref_nominal_s": harness.REF_NOMINAL_MS * 1e-3,
                  "failures": failures}
        if args.child == "probe":
            print(json.dumps(result))
            return 0
        tracer = harness.Tracer() if args.trace else None
        records, failed, wall, first = harness.timed_phase(wl, shared, rng, args.seconds, tracer)
        failures.extend(failed)
        if hasattr(wl, "final_check") and first[1] is not None:
            verdict = harness.Verdict()
            wl.final_check(shared, first[0], first[1], verdict)
            failures.extend(f"job 0 (after the timed phase): {f}" for f in verdict.failed)
            records[0]["failed"] = records[0]["failed"] or bool(verdict.failed)
        who = resource.RUSAGE_CHILDREN if getattr(wl, "RSS_OF_CHILDREN", False) else resource.RUSAGE_SELF
        untraced = [r for r in records if not r["traced"]]
        result.update(attempted=len(records), failed=sum(r["failed"] for r in records),
                      wall_s=wall, host=_host(),
                      peak_rss_mb=resource.getrusage(who).ru_maxrss / 1024.0,
                      jobs=harness.job_metrics(untraced))
        if tracer is not None:
            traced = [r for r in records if r["traced"]]
            layers = harness.layer_metrics(tracer, TIMED_SPANS, COUNTS)
            layers.update(_import_breakdown())
            plain, with_spans = harness.job_metrics(untraced), harness.job_metrics(traced)
            layers["trace.overhead_pct"] = 100.0 * (with_spans["job_p50_ms"] / plain["job_p50_ms"] - 1.0)
            result["layers"] = layers
            result["traced_jobs"] = with_spans
            os.makedirs(OUT, exist_ok=True)
            path = os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json")
            with open(path, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed, "host": result["host"],
                           "spans": [s[:5] for s in tracer.spans], "counts": tracer.counts}, fh)
            result["trace_file"] = os.path.relpath(path, ROOT)
        print(json.dumps(result))
        return 0
    finally:
        if hasattr(wl, "close"):
            wl.close(shared)


# ---------------------------------------------------------- orchestrator


def _launch(args, role, deadline):
    """Run one child; return its JSON result with the measured setup time."""
    import harness

    cmd =[sys.executable, os.path.abspath(__file__), "--child", role,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    env = dict(os.environ, **SINGLE_BLAS_THREAD)
    reference = min(harness.start_sample(env) for _ in range(2))
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except BaseException as exc:  # time limit or interrupt: end the whole process group
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        if isinstance(exc, subprocess.TimeoutExpired):
            raise RuntimeError(f"{role} run of {args.workload} passed the time limit") from None
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"{role} run of {args.workload} exited with {proc.returncode}")
    result = json.loads(stdout.strip().splitlines()[-1])
    result["setup_raw_s"] = result["ready"] - start
    result["setup_s"] = result["setup_raw_s"] * harness.START_NOMINAL_S / reference
    return result


def orchestrate(args):
    if not os.path.isfile(os.path.join(SRC, "tomokit", "__init__.py")):
        print(f"error: no tomokit package under {SRC}", file=sys.stderr)
        return 2
    _setup_path()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_LIMIT_S
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    try:
        runs = [_launch(args, "probe", deadline) for _ in range(probes)]
        main = _launch(args, "main", deadline)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    runs.append(main)
    failures = [f for r in runs for f in r["failures"]]
    correct = not failures
    nominal = main["ref_nominal_s"]
    setups = [r["setup_s"] for r in runs]
    setups_raw = [r["setup_raw_s"] for r in runs]
    jobs = main["jobs"]
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# host {json.dumps(main['host'], sort_keys=True)}")
    print(f"# setup_s samples rescaled {[round(s, 4) for s in setups]} raw {[round(s, 4) for s in setups_raw]}")
    print(f"# jobs {jobs['jobs']} in {main['wall_s']:.2f} s; job_p50_ms rescaled "
          f"{jobs['job_p50_ms']:.3f} raw {jobs['job_p50_ms_raw']:.3f}; jobs_per_s rescaled "
          f"{jobs['jobs_per_s']:.4f} raw {jobs['jobs_per_s_raw']:.4f}; reference sample "
          f"p50 {jobs['ref_p50_ms']:.3f} ms (nominal {1e3 * nominal:.3f} ms)")
    for f in failures:
        print(f"# FAILED {f}")
        print(f"FAILED {f}", file=sys.stderr)
    if args.trace:
        print(f"# trace written to {main['trace_file']}; tracing overhead "
              f"{main['layers']['trace.overhead_pct']:.2f} % on job_p50_ms "
              f"({main['traced_jobs']['jobs']} traced jobs against {jobs['jobs']} untraced)")
        metrics = {k: {"value": v, "unit": _unit(k)} for k, v in sorted(main["layers"].items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "job_p50_ms": {"value": jobs["job_p50_ms"], "unit": "ms"},
            "jobs_per_s": {"value": jobs["jobs_per_s"], "unit": "1/s"},
            "peak_rss_mb": {"value": main["peak_rss_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": correct, "attempted": main["attempted"],
                      "failed": main["failed"], "metrics": metrics}))
    return 0 if correct else 1


def _unit(name):
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_pct"):
        return "%"
    if name.endswith("repeat_share"):
        return "share"
    if name.startswith("io.bytes"):
        return "bytes"
    return "count"


# ------------------------------------------------------------- self-test


def self_test(names):
    """Feed every check a perturbed result and confirm that it rejects it."""
    _setup_path()
    import numpy as np

    import harness

    ok = True
    for name in names:
        wl = importlib.import_module(WORKLOADS[name])
        shared = wl.make_shared(np.random.default_rng([7, 0]))
        try:
            inp = wl.make_round(np.random.default_rng([7, 1]), shared)[0]
            _, out, failed = harness.run_job(wl, shared, inp, harness.Direct())
            if hasattr(wl, "final_check") and out is not None:
                verdict = harness.Verdict()
                wl.final_check(shared, inp, out, verdict)
                failed += verdict.failed
            print(f"{name}: unperturbed job {'passes' if not failed else 'FAILS'}")
            ok = ok and not failed
            for check, mutate in wl.PERTURBATIONS.items():
                bad = wl.clone(out) if hasattr(wl, "clone") else copy.deepcopy(out)
                mutate(bad)
                verdict = harness.Verdict()
                wl.check(shared, inp, bad, verdict)
                if hasattr(wl, "final_check"):
                    wl.final_check(shared, inp, bad, verdict)
                caught = check in verdict.names()
                ok = ok and caught
                print(f"{name}: check {check!r} {'rejects' if caught else 'MISSES'} its perturbation")
        finally:
            if hasattr(wl, "close"):
                wl.close(shared)
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="check that every correctness check rejects a perturbed result")
    parser.add_argument("--child", choices=("probe", "main"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.self_test:
        return self_test([args.workload] if args.workload else sorted(WORKLOADS))
    if args.workload is None:
        parser.error("--workload is required")
    if args.child:
        return child(args)
    return orchestrate(args)


if __name__ == "__main__":
    sys.exit(main())
