"""pfclab benchmark: one workload per process, closed loop, one thread of work.

    python3 pfcbench/run.py --workload search --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; pfclab is imported from ./src.
With --trace 0 the run prints the end-to-end metrics, its times scaled to
a reference speed (see CALIBRATION_REF_S); with --trace 1 it
first repeats the untraced passes for half the time, then records spans
for the other half and prints the per-layer metrics plus the tracing
overhead.  The metric names and units come from BENCHMARK.json.  The last
line of standard output is the JSON result; progress and check failures
go to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# one thread of work: numpy's BLAS would otherwise spread the noise
# response's matrix products over every core the machine shares
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread limits)

from workloads import WORKLOADS, Failure  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

MIN_PASSES = 2  # a second pass shows the outputs repeat
SETUP_REPEATS = 7

# The machine's speed drifts by up to 1.6x over minutes on a shared VM, for
# all code alike.  A fixed loop in pfclab's own mix of scalar Python and
# small numpy calls is timed before every pass and after the last.  The
# reported times are scaled to a machine on which that loop takes
# CALIBRATION_REF_S; pfclab code never runs inside the loop, so a change
# to pfclab moves the scaled times exactly as it moves the raw ones.
CALIBRATION_REF_S = 0.1
_CAL_COEFFS = (0.3, 1.1, 1.6, -6.9, 0.2, 1.0, 2.0, -1.0, 0.5, 0.7, 1.0)


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_pfclab() -> None:
    if not (SRC / "pfclab" / "__init__.py").is_file():
        raise SystemExit(f"error: no pfclab sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import pfclab  # noqa: F401


def setup_probe(workload: str, seed: int) -> None:
    """Child process: import pfclab, build the inputs, report the clock."""
    import_pfclab()
    WORKLOADS[workload].build(seed)
    print(repr(time.monotonic()))


def measure_setup(workload: str, seed: int) -> list[float]:
    """Fresh-interpreter set-up times; CLOCK_MONOTONIC is shared across processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.monotonic()
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", workload, "--seed", str(seed)],
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        times.append(float(done.stdout.strip().splitlines()[-1]) - t0)
    return times


def calibrate() -> float:
    """Seconds for one fixed calibration loop (complex Horner sums, 10x10 eigvals)."""
    mats = np.random.default_rng(0).standard_normal((200, 10, 10))
    t0 = time.perf_counter()
    acc = 0.0
    for k in range(60000):
        s = complex(0.001 * k, 1.0)
        a = 0.0
        for c in reversed(_CAL_COEFFS):
            a = a * s + c
        acc += abs(a)
    for m in mats:
        np.linalg.eigvals(m)
        np.convolve(m[0], m[1])
    return time.perf_counter() - t0


def dir_bytes(d: Path) -> int:
    return sum(p.stat().st_size for p in d.rglob("*") if p.is_file())


class Passes:
    """Runs whole passes of a workload until the time budget is spent."""

    def __init__(self, workload, inputs, root: Path):
        self.w, self.inputs, self.root = workload, inputs, root
        self.first = None  # (outputs, out_dir) of the first pass, kept for the checks
        self.first_fp = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.layer: list[dict] = []

    def run(self, budget: float, tag: str, recorder=None, between=None) -> list[float]:
        walls = []
        t_begin = time.perf_counter()
        while len(walls) < MIN_PASSES or time.perf_counter() - t_begin < budget:
            if between:
                between()
            d = self.root / f"{tag}{len(walls)}"
            d.mkdir(parents=True)
            lo = recorder.mark() if recorder else 0
            t0 = time.perf_counter()
            outputs = self.w.run(self.inputs, d)
            wall = time.perf_counter() - t0
            walls.append(wall)
            for i, why in self.w.judge(self.inputs, outputs, d).items():
                outputs[i] = Failure(why)
            self.attempted += len(outputs)
            fails = [o for o in outputs if isinstance(o, Failure)]
            self.failed += len(fails)
            for f in fails[:3]:
                log(f"failed: {f.what}")
            fp = self.w.fingerprint(self.inputs, outputs, d)
            if recorder:
                m = recorder.metrics(lo, recorder.mark(), recorder.take_counts())
                m["cli.bytes_written"] = dir_bytes(d)
                self.layer.append(m)
            if self.first is None:
                self.first, self.first_fp = (outputs, d), fp
            else:
                if fp != self.first_fp:
                    self.problems.append(f"{tag} pass {len(walls) - 1}: outputs differ from the first pass")
                shutil.rmtree(d)
            log(f"{self.w.name} {tag} pass {len(walls) - 1}: {wall:.3f} s")
        return walls

    def check(self) -> list[str]:
        outputs, d = self.first
        return self.problems + self.w.check(self.inputs, outputs, d)


EXACT_LAYER = (".calls", ".steps", ".trials", ".bytes_written", ".spans", "_share")


def layer_summary(per_pass: list[dict]) -> tuple[dict, list[str]]:
    """Counts must repeat exactly across passes; times are medians."""
    out, bad = {}, []
    for key in per_pass[0]:
        vals = [m[key] for m in per_pass]
        if key.endswith(EXACT_LAYER):
            if len(set(vals)) != 1:
                bad.append(f"{key} differs between traced passes: {vals}")
            out[key] = vals[0]
        else:
            out[key] = statistics.median(vals)
    return out, bad


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    import_pfclab()
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    w = WORKLOADS[args.workload]

    cal = [] if args.trace else [calibrate()]
    setup = [] if args.trace else measure_setup(args.workload, args.seed)
    inputs = w.build(args.seed)
    root = OUT / w.name
    shutil.rmtree(root, ignore_errors=True)
    passes = Passes(w, inputs, root)

    if args.trace:
        from tracer import Recorder

        plain = passes.run(args.seconds / 2, "plain")
        rec = Recorder()
        rec.install()
        try:
            traced = passes.run(args.seconds / 2, "traced", rec)
        finally:
            rec.uninstall()
        layer, bad = layer_summary(passes.layer)
        passes.problems += bad
        layer["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
        rec.write(OUT / f"trace_{w.name}.npz", {"workload": w.name, "seed": args.seed, "metrics": layer})
        wanted = spec["per_layer"]
        values = layer
    else:
        walls = passes.run(args.seconds, "pass", between=lambda: cal.append(calibrate()))
        peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        cal.append(calibrate())
        scale = CALIBRATION_REF_S / statistics.median(cal)
        wall = statistics.median(walls) * scale
        log(f"raw median pass {statistics.median(walls):.4f} s, calibration {statistics.median(cal):.4f} s, scale {scale:.4f}")
        wanted = spec["end_to_end"]
        values = {
            "setup_s": statistics.median(setup) * scale,
            "wall_s": wall,
            "peak_rss_mib": peak_mib,
            "ops_per_s": w.work(inputs) / wall,
        }

    problems = passes.check()
    for p in problems[:20]:
        log(f"check failed: {p}")
    result = {
        "correct": not problems,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
