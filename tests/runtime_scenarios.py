"""The runtime scenarios of the four verbs, run as a user runs them.

Every verb call is ``python -m tomokit.cli`` in a fresh interpreter under
PYTHONWARNINGS=error::RuntimeWarning, so a numpy warning in a valid session
fails it.  Each scenario works in its own temporary directory, so no two
scenarios share an output name, and every JSON file a run writes must parse
with NaN and Infinity refused.  Only the standard library, numpy and tomokit
are imported, so an install without the test extra runs it:

    python tests/runtime_scenarios.py

It takes no arguments, prints one line per scenario, and exits 1 when a
scenario fails, naming the scenario and the assertion.
"""

import glob
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from tomokit import core, io

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "README.md")
ENV = dict(os.environ, PYTHONWARNINGS="error::RuntimeWarning")
SCENARIOS = []


class Failed(Exception):
    """An assertion of a scenario does not hold."""


def expect(ok, message):
    if not ok:
        raise Failed(message)


def scenario(fn):
    SCENARIOS.append(fn)
    return fn


def _refuse_constant(word):
    raise ValueError(f"{word} is not JSON")


def _out(args):
    return next(a[len("--out="):] for a in args if a.startswith("--out="))


class Session:
    """One scenario's working directory and the verb calls made in it."""

    def __init__(self, directory):
        self.dir = directory

    def path(self, name):
        return os.path.join(self.dir, name)

    def json(self, name):
        """The JSON file ``name``, parsed with NaN and Infinity refused."""
        try:
            with open(self.path(name)) as fh:
                return json.load(fh, parse_constant=_refuse_constant)
        except (OSError, ValueError) as exc:
            raise Failed(f"{name}: {exc}") from None

    def _run(self, argv):
        return subprocess.run(argv, cwd=self.dir, env=ENV, capture_output=True, text=True)

    def _parse_out(self, args):
        """Every JSON file the run wrote into its --out parses strictly."""
        out = _out(args)
        names = sorted(glob.glob("*.json", root_dir=self.path(out)))
        expect(names, f"{out}: no JSON file")
        for name in names:
            self.json(os.path.join(out, name))

    def tomokit(self, *args):
        """Run a verb that must succeed; returns its stderr."""
        proc = self._run([sys.executable, "-m", "tomokit.cli", *args])
        expect(proc.returncode == 0,
               f"tomokit {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}")
        self._parse_out(args)
        return proc.stderr

    def refused(self, status, code, *args, writes=()):
        """Run a verb that must exit ``status`` with one ``ERROR <code>:``
        line on stderr, its --out absent or holding just ``writes``."""
        proc = self._run([sys.executable, "-m", "tomokit.cli", *args])
        command = f"tomokit {' '.join(args)}"
        lines = proc.stderr.splitlines()
        expect(proc.returncode == status, f"{command} exited {proc.returncode}, not {status}")
        expect(len(lines) == 1 and lines[0].startswith(f"ERROR {code}: "),
               f"{command} printed {lines!r}, not one 'ERROR {code}:' line")
        out = _out(args)
        if not writes:
            expect(not os.path.exists(self.path(out)), f"{command} created {out}")
            return
        expect(sorted(os.listdir(self.path(out))) == sorted(writes),
               f"{command} wrote {sorted(os.listdir(self.path(out)))}, not {sorted(writes)}")
        self._parse_out(args)

    def python(self, code):
        """Run ``code`` in a fresh interpreter, which must exit 0."""
        proc = self._run([sys.executable, "-c", code])
        expect(proc.returncode == 0, f"python exited {proc.returncode}: {proc.stderr.strip()}")


@scenario
def verbs(s):
    s.tomokit("simulate", "--state=fock:1", "--direction=1,0", "--direction=0.6,0.8",
              "--direction=-0.6,0.8", "--direction=0.3,0.95", "--out=fock")
    s.tomokit("reconstruct", "--in=fock", "--out=rec")
    # the projected solver on an imposed cut at fock:1's node
    s.tomokit("reconstruct", "--in=fock", "--method=piecewise", "--breakpoints=0",
              "--out=rec_pw")
    s.tomokit("simulate", "--state=vacuum", "--direction=1,0", "--direction=0,1",
              "--direction=0.6,0.8", "--out=sim")
    s.tomokit("measure", "--in=sim", "--assume-pure", "--out=mea")
    s.tomokit("evolve", "--omega=constant:1", "--t-max=1", "--dt=0.01",
              "--recover-at=0.5,1", "--state=vacuum", "--out=evo")
    s.tomokit("evolve", "--omega=cosine-modulated:1,0.2,1.5",
              "--force=linear-ramp:0.1,0.05", "--t-max=1", "--dt=0.01", "--out=evo2")
    # 100 000 steps: the odd-even scan of the step-matrix product recurses
    # 17 levels deep
    s.tomokit("evolve", "--omega=linear-ramp:1,0.01", "--t-max=100", "--dt=1e-3",
              "--out=evo3")
    # 10 001 steps, the last one short: an odd step count leaves the last
    # step unpaired at the top of the scan
    s.tomokit("evolve", "--omega=linear-ramp:1,0.01", "--t-max=10.0005", "--dt=1e-3",
              "--out=evo4")
    for name in ("rec/reconstruction.json", "mea/completeness.json", "evo/manifest.json"):
        s.json(name)


@scenario
def state_file(s):
    io.write_wavefunction_csv(s.path("vac.csv"), core.sample_state(
        core.GaussianPreset(), core.default_grid()))
    s.tomokit("simulate", "--state=vac.csv", "--direction=1,0", "--direction=0.6,0.8",
              "--out=file")
    s.tomokit("reconstruct", "--in=file", "--truth=vac.csv", "--out=file_rec")
    s.json("file_rec/reconstruction.json")
    # a --grid that does not describe the file is refused, writing nothing
    s.refused(2, "invalid-argument", "simulate", "--state=vac.csv", "--grid=-20,20,512",
              "--direction=1,0", "--out=mismatch")
    # an edge-cut state file warns as its preset does, and still runs; it is
    # written in a child, whose warning filters are its own
    s.python("import warnings\n"
             "from tomokit import core, io\n"
             "warnings.simplefilter('ignore', core.BoundaryLeakWarning)\n"
             "io.write_wavefunction_csv('wide.csv', core.sample_state(\n"
             "    core.GaussianPreset(sigma=1.6), core.default_grid()))\n")
    err = s.tomokit("simulate", "--state=wide.csv", "--direction=1,0",
                    "--direction=0.6,0.8", "--out=wide")
    expect("BoundaryLeakWarning" in err, f"simulate of wide.csv gave stderr {err!r}")
    # and so does the same file read as --truth
    err = s.tomokit("reconstruct", "--in=wide", "--truth=wide.csv", "--out=wide_rec")
    expect("BoundaryLeakWarning" in err, f"reconstruct against wide.csv gave stderr {err!r}")
    # its fidelity is a probability, though roundoff once lifted it past 1
    fidelity = s.json("wide_rec/reconstruction.json")["fidelity"]
    expect(fidelity <= 1.0, f"wide_rec fidelity {fidelity!r} > 1")


@scenario
def refused_requests(s):
    # --state without --recover-at is refused, writing nothing
    s.refused(2, "invalid-argument", "evolve", "--omega=constant:1", "--t-max=1",
              "--dt=0.01", "--state=vacuum", "--out=lone_state")
    # a grid whose squares overflow is under-resolved, with no numpy warning
    s.refused(4, "resolution-error", "simulate", "--state=fock:0", "--grid=-1e308,12,256",
              "--direction=0,1", "--out=overflow")
    # steps too coarse for the rate: the first step's Wronskian drift is
    # refused, writing nothing
    s.refused(4, "step-size-too-large", "evolve", "--omega=constant:40", "--t-max=60",
              "--dt=0.1", "--out=evo4")
    # a grid no array can hold: numpy refuses it at once, and the verb
    # prints one line instead of a traceback, writing nothing
    s.refused(2, "invalid-argument", "simulate", "--state=vacuum",
              "--grid=-12,12,1000000000000", "--direction=1,0", "--out=big")


@scenario
def ordered_axes_and_grid_identity(s):
    # cuts whose gap overflows still increase: refused only for want of data
    s.tomokit("simulate", "--state=vacuum", "--direction=1,0", "--out=pos_only")
    s.refused(5, "insufficient-data", "reconstruct", "--in=pos_only",
              "--breakpoints=-1e308,1e308", "--out=far_cuts", writes=["reconstruction.json"])
    # a truth file on a linspace grid scores the slices simulated from it,
    # whose grid differs from the file's in the last bit of dx
    x = np.linspace(-24.584947503338935, 34.48696803951204, 2553)
    a = np.exp(-0.5 * (x - 5.0) ** 2)
    a /= np.sqrt(np.sum(a * a) * (x[1] - x[0]))
    with open(s.path("lin.csv"), "w") as fh:
        fh.write("x,real,imag\n" + "".join(
            f"{u!r},{v!r},0.0\n" for u, v in zip(x.tolist(), a.tolist())))
    s.tomokit("simulate", "--state=lin.csv", "--direction=1,0", "--direction=0.6,0.8",
              "--out=lin")
    s.tomokit("reconstruct", "--in=lin", "--truth=lin.csv", "--out=lin_rec")
    s.json("lin_rec/reconstruction.json")


@scenario
def singular_fits(s):
    # cuts at 8 and 9 leave a singular fit: status ill-conditioned, and its
    # infinite condition estimate is written as null
    s.tomokit("simulate", "--state=vacuum", "--direction=1,0", "--direction=0.6,0.8",
              "--direction=-0.6,0.8", "--out=cuts")
    s.tomokit("reconstruct", "--in=cuts", "--breakpoints=8,9", "--out=cuts_rec")
    # cuts at -6 and 6 leave one lobe's outer segments empty, so the fit is
    # singular: those segments read phase 0, the gauge is the first populated
    # segment, and the lobe's halves, cut at -0.12, are in phase
    s.tomokit("simulate", "--state=gaussian:-0.14,0,0.5", "--direction=1,0",
              "--direction=0.6,0.8", "--direction=-0.6,0.8", "--direction=0.3,0.95",
              "--out=lobe")
    s.tomokit("reconstruct", "--in=lobe", "--breakpoints=-6,-0.12,6", "--out=lobe_rec")
    for name in ("cuts_rec", "lobe_rec"):
        report = s.json(f"{name}/reconstruction.json")
        expect(report["status"] == "ill-conditioned"
               and report["condition_estimate"] is None,
               f"{name}/reconstruction.json: {report}")
    expect(len(report["phases"]) == 4 and all(
        abs(math.remainder(p, 2 * math.pi)) <= 1e-9 for p in report["phases"]),
        f"lobe_rec/reconstruction.json: phases {report['phases']}")


@scenario
def readme_library_example(s):
    with open(README) as fh:
        s.python(re.search(r"```python\n(.*?)```", fh.read(), re.S).group(1))


def run(fn):
    """``fn``'s outcome line: ok, or FAIL with the assertion that failed."""
    start = time.perf_counter()
    try:
        with tempfile.TemporaryDirectory() as directory:
            fn(Session(directory))
    except Failed as exc:
        return False, f"FAIL {fn.__name__}: {exc}"
    except Exception as exc:  # a report without the key it checks, say
        return False, f"FAIL {fn.__name__}: {exc!r}"
    return True, f"ok   {fn.__name__} ({time.perf_counter() - start:.1f} s)"


def main():
    # what this process computes itself is held to the verbs' rule
    warnings.simplefilter("error", RuntimeWarning)
    # two at a time: the verbs run in child processes, so threads suffice
    with ThreadPoolExecutor(max_workers=2) as pool:
        outcomes = list(pool.map(run, SCENARIOS))
    for _, line in outcomes:
        print(line)
    return 0 if all(ok for ok, _ in outcomes) else 1


if __name__ == "__main__":
    sys.exit(main())
