"""Timing, reference-kernel normalisation and span tracing.

Every call the benchmark makes into a tomokit layer goes through a caller
``L(name, fn, *args)``.  Untraced, the caller just calls ``fn``.  Traced,
it records a span (name, start, end, parent span, job id) in memory; the
spans are written out once the run has ended.

CPU speed on small shared hosts drifts by up to +-20 % within seconds, so
each job is timed next to a fixed numpy + Python reference kernel and its
time is rescaled to what it would have been at the kernel's nominal speed
(``REF_NOMINAL_MS``).  The raw wall times are kept beside the rescaled ones.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time
import traceback

import numpy as np

# Nominal duration of one reference-kernel sample.  Rescaled times read as
# milliseconds "at the speed where one sample takes this long"; the value is
# close to the typical sample on the 2-CPU host the README quotes, so that
# rescaled and raw figures are of the same size there.
REF_NOMINAL_MS = 2.0

_REF_PHASE = np.exp(-1j * np.linspace(0.0, 3.0, 4096) ** 2)
_REF_HERMITIAN = np.random.default_rng(0).standard_normal((48, 48)) * (1.0 + 1.0j)
_REF_HERMITIAN = _REF_HERMITIAN + _REF_HERMITIAN.conj().T


def _reference_kernel() -> float:
    """FFTs, a small Hermitian eigensolve, a Python loop over small arrays
    and a scalar loop: the kinds of work the jobs do."""
    a = np.exp(1j * np.linspace(0.0, 50.0, 4096))
    for _ in range(4):
        a = np.fft.ifft(np.fft.fft(a) * _REF_PHASE)
    lam = np.linalg.eigvalsh(_REF_HERMITIAN)
    y = np.array([1.0, 1.0j, 0.0], dtype=complex)
    for _ in range(200):
        y = y + 1e-3 * np.array([y[1], -y[0], -1j * y[0]], dtype=complex)
    z = 1.0 + 0.0j
    for _ in range(2000):
        z = z * (1.0 + 1e-6j) + 0.5
    return float(a[0].real) + float(lam[0]) + float(y[0].real) + z.real


def reference_sample() -> float:
    """Seconds for one reference sample: the faster of two kernel runs, so
    that a single interruption does not skew the rescaling."""
    best = float("inf")
    for _ in range(2):
        t = time.perf_counter()
        _reference_kernel()
        best = min(best, time.perf_counter() - t)
    return best


# A fresh interpreter that only imports numpy: start-up work that no tomokit
# change can alter.  CLI verbs and set-up are rescaled by it, since the
# kernel above follows fresh-interpreter work poorly.  START_NOMINAL_S is
# about one such start on the reference host.
START_COMMAND = [sys.executable, "-c", "import numpy"]
START_NOMINAL_S = 0.17


def start_sample(env) -> float:
    """Seconds for one fresh interpreter to import numpy and exit."""
    t = time.perf_counter()
    subprocess.run(START_COMMAND, env=env, check=True, timeout=60)
    return time.perf_counter() - t


class Direct:
    """Untraced caller: calls straight through."""

    def __call__(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value):
        pass


class Tracer:
    """Traced caller: records one span per call, plus named counts.  Spans
    of ``transform.tomogram`` also keep their (grid, mu, nu), from which
    ``repeat_share`` is counted."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index, job id, key]
        self.counts = []     # [job id, name, value]
        self._stack = []
        self.job = None

    def __call__(self, name, fn, *args, **kwargs):
        key = None
        if name == "transform.tomogram":
            psi, mu, nu = args[:3]
            key = (psi.grid.x_min, psi.grid.dx, psi.grid.n_points,
                   float(mu), float(nu))
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job, key])
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def count(self, name, value):
        self.counts.append([self.job, name, value])


class Verdict:
    """Collects the names of failed checks for one job."""

    def __init__(self):
        self.failed = []

    def expect(self, name, ok, detail=""):
        # written so that NaN compares as a failure
        if not bool(ok):
            self.failed.append(f"{name}: {detail}")

    def names(self):
        return [f.split(":", 1)[0] for f in self.failed]


def run_job(workload, shared, inp, caller):
    """Run and check one job.  Returns (seconds, out, failures)."""
    t = time.perf_counter()
    try:
        out = caller("job", workload.run_job, shared, inp, caller)
    except Exception:  # a program failure is a failed operation, not a crash
        return time.perf_counter() - t, None, ["raised: " + traceback.format_exc()]
    seconds = time.perf_counter() - t
    if isinstance(out, dict) and "raw_s" in out:  # a job that timed and rescaled its parts
        seconds = out["raw_s"]
    verdict = Verdict()
    try:
        workload.check(shared, inp, out, verdict)
    except Exception:  # unreadable output fails the job, it does not end the run
        verdict.failed.append("unreadable: " + traceback.format_exc())
    return seconds, out, verdict.failed


def timed_phase(workload, shared, rng, seconds, tracer=None):
    """Closed loop, one client: run whole rounds until ``seconds`` elapse.

    With a tracer, every other job is traced, so the tracing overhead is
    measured against untraced jobs interleaved with them; a traced run
    goes on until it has one of each.
    """
    nominal = REF_NOMINAL_MS * 1e-3
    records = []
    failures = []
    first = None
    refs = [reference_sample()]
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds
           or (tracer is not None and len(records) < 2)):
        for inp in workload.make_round(rng, shared):
            job_id = len(records)
            traced = tracer is not None and job_id % 2 == 1
            if traced:
                tracer.job = job_id
                dt, out, failed = run_job(workload, shared, inp, tracer)
                if hasattr(workload, "trace_extras") and out is not None:
                    workload.trace_extras(shared, inp, out, tracer)
                tracer.job = None
            else:
                dt, out, failed = run_job(workload, shared, inp, Direct())
            if first is None:
                first = (inp, out)
            if hasattr(workload, "cleanup"):
                workload.cleanup(out)
            refs.append(reference_sample())
            ref_s = 0.5 * (refs[-2] + refs[-1])
            own = isinstance(out, dict) and "rescaled_s" in out
            norm_s = out["rescaled_s"] if own else dt * nominal / ref_s
            records.append({"raw_s": dt, "norm_s": norm_s, "ref_s": ref_s,
                            "traced": traced, "failed": bool(failed)})
            failures.extend(f"job {job_id}: {f}" for f in failed)
    wall = time.perf_counter() - start
    return records, failures, wall, first


def job_metrics(records):
    """Rescaled and raw job statistics over a list of job records."""
    norm = [r["norm_s"] for r in records]
    raw = [r["raw_s"] for r in records]
    return {
        "jobs": len(records),
        "job_p50_ms": 1e3 * statistics.median(norm),
        "jobs_per_s": len(norm) / sum(norm),
        "job_p50_ms_raw": 1e3 * statistics.median(raw),
        "jobs_per_s_raw": len(raw) / sum(raw),
        "ref_p50_ms": 1e3 * statistics.median(r["ref_s"] for r in records),
    }


# ----------------------------------------------------------------- traces


def _self_times(spans):
    """Self time of each span: duration minus the union of its children."""
    children = {}
    for i, s in enumerate(spans):
        if s[3] is not None:
            children.setdefault(s[3], []).append(i)
    out = []
    for i, (_, start, end, _, _, _) in enumerate(spans):
        covered = 0.0
        lo = hi = None
        for c in sorted(children.get(i, ()), key=lambda c: spans[c][1]):
            cs, ce = spans[c][1], spans[c][2]
            if hi is None or cs > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = cs, ce
            else:
                hi = max(hi, ce)
        if hi is not None:
            covered += hi - lo
        out.append((end - start) - covered)
    return out


def _median_or_zero(values):
    values = list(values)
    return statistics.median(values) if values else 0.0


SELF_LAYERS = ("bench", "cli", "io", "transform", "reconstruct", "dynamics",
               "completeness", "core")


def layer_metrics(tracer, timed_names, count_names):
    """Per-layer figures from the spans of the traced jobs.

    ``<span>_ms`` is the median duration of that call; counts are medians
    per job; ``<layer>.self_ms`` is the median per job of the layer's self
    time inside the job span ("bench" is the job span's own self time).
    """
    spans = tracer.spans
    selfs = _self_times(spans)
    metrics = {}
    for name in timed_names:
        metrics[name + "_ms"] = 1e3 * _median_or_zero(
            s[2] - s[1] for s in spans if s[0] == name)
    jobs = sorted({s[4] for s in spans if s[0] == "job"})
    in_job = set()
    for i, s in enumerate(spans):
        p = s[3]
        while p is not None and spans[p][0] != "job":
            p = spans[p][3]
        if s[0] == "job" or p is not None:
            in_job.add(i)
    for layer in SELF_LAYERS:
        per_job = {j: 0.0 for j in jobs}
        for i in in_job:
            s = spans[i]
            owner = "bench" if s[0] == "job" else s[0].split(".", 1)[0]
            if owner == layer:
                per_job[s[4]] += selfs[i]
        metrics[layer + ".self_ms"] = 1e3 * _median_or_zero(per_job.values())
    for name in count_names:
        per_job = {j: 0 for j in jobs}
        for job, cname, value in tracer.counts:
            if cname == name and job in per_job:
                per_job[job] += value
        metrics[name] = _median_or_zero(per_job.values())
    calls = [spans[i] for i in sorted(in_job) if spans[i][0] == "transform.tomogram"]
    seen = set()
    repeats = 0
    for s in calls:
        repeats += s[5] in seen
        seen.add(s[5])
    metrics["transform.tomogram.calls"] = _median_or_zero(
        sum(1 for s in calls if s[4] == j) for j in jobs)
    metrics["transform.tomogram.repeat_base"] = len(calls)
    metrics["transform.tomogram.repeat_share"] = repeats / len(calls) if calls else 0.0
    return metrics
