"""Command-line front end.

Every pipeline in the library is reachable from here: verification of the
built-in pairs, fresh synthesis runs, time/frequency response emitters, the
Monte Carlo studies, and the observer-based design walkthrough.  All but
verify and modern, which only print, write plot-ready CSV/JSON plus a small
metadata file; nothing renders images.  COMMANDS, at the end of this
module, lists the flag groups each command takes.

Exit codes: 0 all checks passed or data written, 1 an analysis reached a
negative verdict (verification failed, no stabilizing pair found, unstable
loop), 2 bad usage, unreadable input, unwritable output, or a search that
overflows (init_range too wide, mutation_scale too large).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import bode as bode_curve
from .analysis import fragility_mc, robustness_mc
from .designs import BUILTIN_PAIRS
from .modern import (
    combined_system,
    controllability_matrix,
    equivalent_Kb,
    equivalent_Kf,
    gain_design,
    observability_matrix,
    remove_factor,
    ss_to_tf,
)
from .plant import PendulumParams, angle_plant, linear_plant, position_plant
from .poly import Polynomial
from .sim import NoiseSpec, angle_step_response, noise_time_response, step_response, write_csv
from .synth import GaConfig, ObjectiveConfig, ga_search, verify_pair
from .tf import CompensatorPair, RationalTF, closed_loop, loop_denominator
from .tf import noise_channels, pip_check

OUT_ENV = "PFCLAB_OUT"

# observer demo: closed-loop poles for the state feedback, then the
# estimator's own poles, deliberately a little faster
DEMO_SYSTEM_POLES = (-1 + 1j, -1 - 1j, -2 + 1j, -2 - 1j)
DEMO_ESTIMATOR_POLES = (-1.0, -2.0, -3 + 1j, -3 - 1j)


class UsageError(Exception):
    """Bad flags, unreadable input files or unwritable output; maps to exit code 2."""


# ---------------------------------------------------------------------------
# sources and output
# ---------------------------------------------------------------------------


def _read_json(path) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as e:
        raise UsageError(f"cannot read {path}: {e}") from None
    except json.JSONDecodeError as e:
        raise UsageError(f"malformed JSON in {path}: {e}") from None
    if not isinstance(data, dict):
        raise UsageError(f"malformed JSON in {path}: expected an object")
    return data


def _load_plant(args) -> RationalTF:
    if args.plant == "pendulum-position":
        return position_plant(M=args.mass)
    if args.plant == "pendulum-angle":
        return angle_plant(args.mass)
    if args.plant.startswith("file:"):
        return RationalTF.from_json_dict(_read_json(args.plant[len("file:") :]))
    raise UsageError(
        f"unknown plant {args.plant!r}; use pendulum-position, "
        "pendulum-angle, or file:PATH"
    )


def _load_pair(args) -> CompensatorPair | None:
    if args.pair_file is not None:
        return CompensatorPair.from_json_dict(_read_json(args.pair_file))
    if args.pair == "none":
        return None
    try:
        return BUILTIN_PAIRS[args.pair]
    except KeyError:
        raise UsageError(
            f"unknown pair {args.pair!r}; builtin choices: "
            + ", ".join(sorted(BUILTIN_PAIRS))
        ) from None


def _emit(args, echo: tuple, files: dict, *lines: str, code: int = 0, **known) -> int:
    """Write files (name -> writer of that path) and the metadata into the
    output directory, print lines, report the first file.  The metadata's
    config records the values named in echo, taken from known, else from args."""
    out = Path(args.out if args.out is not None else os.environ.get(OUT_ENV, "."))
    values = {**vars(args), **known}
    meta = {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", 0),
        "config": {name: values[name] for name in echo},
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    first = next(iter(files))
    try:
        out.mkdir(parents=True, exist_ok=True)
        for name, write in files.items():
            write(out / name)
        (out / f"{Path(first).stem}_metadata.json").write_text(json.dumps(meta, indent=2) + "\n")
    except OSError as e:
        raise UsageError(f"cannot write output: {e}") from None
    print(*lines, f"wrote {out / first}", sep="\n")
    return code


def _emit_mc(args, echo: tuple, rep, pair: CompensatorPair) -> int:
    """_emit for a Monte Carlo report: JSON, pole cloud, verdict; echo gains trials, sigma."""
    return _emit(
        args,
        (*echo, "trials", "sigma"),
        {
            f"{args.command}.json": lambda p: p.write_text(rep.to_json() + "\n"),
            f"{args.command}_cloud.csv": rep.cloud_to_csv,
        },
        f"{rep.unstable_count} of {rep.trials} trials unstable "
        f"(sigma={rep.sigma:g}, seed={rep.seed})",
        pair=pair.label,
    )


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def _matrix_str(m: np.ndarray) -> str:
    return np.array2string(m, precision=6, suppress_small=True)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify(args, G: RationalTF, pair: CompensatorPair | None) -> int:
    """audit a compensator pair against a plant; writes no files"""
    verdict = pip_check(G)
    word = ("" if verdict.strongly_stabilizable else "not ") + "strongly stabilizable"
    print(f"plant {args.plant}: {word}")
    for z, count in verdict.checks:
        where = "infinity" if z == float("inf") else f"{z:g}"
        print(f"  real RHP zero at {where}: {count} real RHP pole(s) before the next zero")
    if pair is None:
        return 0
    rep = verify_pair(G, pair)
    print(f"pair {pair.label or '(from file)'}:")
    rows = (
        ("C proper", rep.c_proper, f"relative degree {rep.c_relative_degree}"),
        ("P proper", rep.p_proper, f"relative degree {rep.p_relative_degree}"),
        ("C denominator Hurwitz", rep.c_stable, f"rightmost pole {rep.c_rightmost:.6g}"),
        ("P denominator Hurwitz", rep.p_stable, f"rightmost pole {rep.p_rightmost:.6g}"),
        (
            "closed-loop denominator Hurwitz",
            rep.closed_loop_stable,
            f"rightmost pole {rep.h_rightmost:.6g}",
        ),
    )
    for name, ok, margin in rows:
        print(f"  {'PASS' if ok else 'FAIL'}  {name} ({margin})")
    print("result: PASS" if rep.passed else "result: FAIL")
    return 0 if rep.passed else 1


def cmd_synthesize(args, plant: RationalTF, _pair) -> int:
    """search for a stabilizing stable pair"""
    knobs = {f.name: getattr(args, f.name) for f in fields(GaConfig)}
    ga = GaConfig(**knobs | {"init_range": tuple(args.init_range)})
    try:
        res = ga_search(ObjectiveConfig(plant=plant), ga, args.n)
    except OverflowError as e:
        # a later blend span or a mutated gene passed the largest double
        raise UsageError(str(e)) from None
    status = "success" if res.success else "no stabilizing pair found"
    lines = [f"n={args.n} seed={args.seed}: best F = {res.best_F:.6f} ({status})"]
    if res.success:
        audited = verify_pair(plant, res.pair)
        lines.append(f"independent verification: {'PASS' if audited.passed else 'FAIL'}")
    return _emit(
        args,
        ("n", "ga"),
        {
            "synthesis.json": lambda p: p.write_text(res.to_json() + "\n"),
            "synthesis_history.csv": res.history_to_csv,
        },
        *lines,
        code=0 if res.success else 1,
        ga=ga.to_json_dict(),
    )


def cmd_step(args, G: RationalTF, pair: CompensatorPair) -> int:
    """closed-loop unit step response to CSV"""
    H = closed_loop(G, pair.C, pair.P)
    ts = step_response(H, t_end=args.t_end, dt=args.dt)
    line = f"final value {ts.y[-1]:.6f} (DC gain {H(0.0):.6f})"
    echo = ("plant", "pair", "t_end", "dt")
    return _emit(args, echo, {"step.csv": ts.to_csv}, line, pair=pair.label)


def cmd_angle(args, G: RationalTF, pair: CompensatorPair) -> int:
    """pendulum angle response to CSV"""
    F = angle_plant(args.mass)
    ts = angle_step_response(F, G, pair.C, pair.P, t_end=args.t_end, dt=args.dt)
    tail = ts.y[ts.t > 0.8 * ts.t[-1]]
    line = f"peak |angle| {np.abs(ts.y).max():.6g}, tail max {np.abs(tail).max():.3e}"
    echo = ("pair", "mass", "t_end", "dt")
    return _emit(args, echo, {"angle.csv": ts.to_csv}, line, pair=pair.label)


def cmd_bode(args, G: RationalTF, pair: CompensatorPair | None) -> int:
    """magnitude samples to CSV"""
    if args.channel == "plant":
        tf = G
    elif args.channel == "h":
        tf = closed_loop(G, pair.C, pair.P)
    else:
        tf = noise_channels(G, pair.C, pair.P).channels[int(args.channel[1:]) - 1]
    curve = bode_curve(tf, args.w_min, args.w_max, args.points)
    k = int(np.argmax(curve.mag_db))
    lines = [f"grid peak {curve.mag_db[k]:.4f} dB at omega = {curve.omega[k]:.6g}"]
    if curve.near_axis_pole:
        lines.append("note: pole near the evaluated imaginary axis, magnitudes spike")
    echo = ("plant", "channel", "w_min", "w_max", "points")
    return _emit(args, echo, {"bode.csv": curve.to_csv}, *lines)


def cmd_noise(args, G: RationalTF, pair: CompensatorPair) -> int:
    """multi-sine noise response of all channels"""
    if args.dt >= args.t_end:
        raise UsageError("dt must be smaller than t_end")
    chans = noise_channels(G, pair.C, pair.P)
    interval = (args.freq_lo, args.freq_hi)
    spec = NoiseSpec(N=args.sines, amp_norm=args.amp, freq_interval=interval, seed=args.seed)
    t = np.arange(0.0, args.t_end, args.dt)
    series = noise_time_response(chans, spec, t)
    table = np.column_stack([t] + [s.y for s in series])
    fmt = ",".join(["%.17g"] * table.shape[1])
    peaks = ", ".join(f"e{k}={np.abs(s.y).max():.4g}" for k, s in enumerate(series, 1))
    return _emit(
        args,
        ("plant", "pair", "sines", "amp", "freq_interval", "t_end", "dt"),
        {
            "noise.csv": lambda p: write_csv(p, "t,e1,e2,e3,e4,e5,e6", fmt, table)
        },
        f"per-channel peak |y|: {peaks}",
        pair=pair.label,
        freq_interval=list(interval),
    )


def cmd_robustness(args, _G, pair: CompensatorPair) -> int:
    """plant-perturbation Monte Carlo"""
    rep = robustness_mc(
        pair.C, pair.P, M=args.mass, trials=args.trials, sigma=args.sigma, seed=args.seed
    )
    return _emit_mc(args, ("pair", "mass"), rep, pair)


def cmd_fragility(args, G: RationalTF, pair: CompensatorPair) -> int:
    """compensator-perturbation Monte Carlo"""
    rep = fragility_mc(
        G, pair.C, pair.P, trials=args.trials, sigma=args.sigma, seed=args.seed
    )
    return _emit_mc(args, ("plant", "pair"), rep, pair)


def cmd_modern(args, G: RationalTF, _pair) -> int:
    """observer-based design walkthrough with verdicts; writes no files"""
    ss = linear_plant(PendulumParams(M=args.mass))
    ctrl = controllability_matrix(ss)
    obs = observability_matrix(ss)
    print(f"controllability matrix (rank {ctrl.rank}):")
    print(_matrix_str(ctrl.matrix))
    print(f"observability matrix (rank {obs.rank}):")
    print(_matrix_str(obs.matrix))
    gains = gain_design(ss, DEMO_SYSTEM_POLES, DEMO_ESTIMATOR_POLES)
    print(f"state feedback gain K = {_matrix_str(gains.K)}")
    print(f"estimator gain G = {_matrix_str(gains.Gobs.T)}^T")
    comb = combined_system(ss, gains)
    raw = ss_to_tf(comb.A, comb.B, comb.C)
    est_factor = Polynomial.from_roots(DEMO_ESTIMATOR_POLES)
    Q = remove_factor(raw, est_factor)
    print(f"closed loop with estimator dynamics removed: Q = {Q}")
    for name, eq in (("K_b", equivalent_Kb(Q, G)), ("K_f", equivalent_Kf(Q, G))):
        print(f"equivalent single-loop compensator {name}:")
        print(f"  reduced: {eq.reduced}")
        flags = ["proper" if eq.proper else "improper", "stable" if eq.stable else "unstable"]
        if eq.plant_cancellations:
            flags.append(
                "cancels plant factors at "
                + ", ".join(f"{z:.4g}" for z in eq.plant_cancellations)
            )
        if eq.rhp_cancellation:
            flags.append("right-half-plane cancellation")
        print(f"  verdict: {'; '.join(flags)}")
    return 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _number(kind, ok, need: str):
    """argparse type: text read as kind (int or float), rejected unless ok(value)."""
    noun = "an integer" if kind is int else "a number"

    def parse(text: str):
        try:
            v = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"{text!r} is not {noun}") from None
        if not ok(v):
            raise argparse.ArgumentTypeError(f"must be {need}")
        return v

    return parse


_positive_int = _number(int, lambda v: v >= 1, "a positive integer")
_unsigned_int = _number(int, lambda v: v >= 0, "a nonnegative integer")
_positive_float = _number(float, lambda v: 0.0 < v < float("inf"), "positive and finite")


def _flags(*specs: tuple[str, dict]) -> argparse.ArgumentParser:
    """Parent parser for one group of flags, each (flag, add_argument keywords)."""
    group = argparse.ArgumentParser(add_help=False)
    for flag, kw in specs:
        group.add_argument(flag, **kw)
    return group


def _time(t_end: float, dt: float) -> argparse.ArgumentParser:
    return _flags(
        ("--t-end", dict(type=_positive_float, default=t_end)),
        ("--dt", dict(type=_positive_float, default=dt)),
    )


def _output(out_help: str) -> argparse.ArgumentParser:
    return _flags(
        ("--out", dict(default=None, help=out_help)),
        ("--mass", dict(type=_positive_float, default=0.3, help="cart mass")),
    )


PLANT_HELP = "pendulum-position, pendulum-angle, or file:PATH (JSON with num/den)"
PLANT = _flags(("--plant", dict(default="pendulum-position", help=PLANT_HELP)))
# angle and modern take no --plant: they work on the pendulum at --mass
PENDULUM = argparse.ArgumentParser(add_help=False)
PENDULUM.set_defaults(plant="pendulum-position")
PAIR = _flags(
    ("--pair", dict(default="a", help="builtin pair label (a, b) or 'none'")),
    (
        "--pair-file",
        dict(default=None, help="JSON file with a compensator pair (overrides --pair)"),
    ),
)
SEED = _flags(("--seed", dict(type=_unsigned_int, default=0)))
WRITES = _output(f"output directory (default: ${OUT_ENV} or current directory)")
PRINTS = _output("accepted so one command line serves every command; this command writes no files")
ORDER = _flags(("--n", dict(type=_positive_int, required=True, help="compensator order")))
GA = _flags(
    ("--population", dict(type=_positive_int, default=200)),
    ("--generations", dict(type=_unsigned_int, default=500)),
    ("--crossover-rate", dict(type=float, default=0.9)),
    ("--mutation-rate", dict(type=float, default=0.1)),
    ("--mutation-scale", dict(type=float, default=0.2)),
    ("--elitism", dict(type=_unsigned_int, default=2)),
    ("--init-range", dict(type=float, nargs=2, default=(-12.0, 12.0))),
)
CHANNELS = ["h", "plant", "e1", "e2", "e3", "e4", "e5", "e6"]
BODE = _flags(
    (
        "--channel",
        dict(choices=CHANNELS, default="h", help="closed loop, bare plant, or one noise channel"),
    ),
    ("--w-min", dict(type=_positive_float, default=1e-2)),
    ("--w-max", dict(type=_positive_float, default=1e2)),
    ("--points", dict(type=_positive_int, default=1000)),
)
NOISE = _flags(
    ("--sines", dict(type=_positive_int, default=4000)),
    ("--amp", dict(type=float, default=0.01, help="amplitude vector norm")),
    ("--freq-lo", dict(type=float, default=0.5)),
    ("--freq-hi", dict(type=float, default=1.5)),
)
MC = _flags(
    ("--trials", dict(type=_positive_int, default=1000)),
    ("--sigma", dict(type=float, default=0.02)),
)

# name: (handler, whose docstring is the help line; flag groups; pair use).
# A pair use of "optional" loads --pair or --pair-file when given, "needed"
# requires one, and "loop" also has main exit 1, before the handler writes
# anything, when the pair's loop with the plant is unstable.
COMMANDS = {
    "verify": (cmd_verify, [PLANT, PAIR, PRINTS], "optional"),
    "synthesize": (cmd_synthesize, [ORDER, SEED, GA, PLANT, WRITES], None),
    "step": (cmd_step, [_time(60.0, 1e-3), PLANT, PAIR, WRITES], "loop"),
    "angle": (cmd_angle, [_time(60.0, 1e-3), PAIR, WRITES, PENDULUM], "loop"),
    "bode": (cmd_bode, [BODE, PLANT, PAIR, WRITES], "loop"),
    "noise": (cmd_noise, [NOISE, _time(200.0, 0.05), SEED, PLANT, PAIR, WRITES], "loop"),
    "robustness": (cmd_robustness, [MC, SEED, PAIR, WRITES], "needed"),
    "fragility": (cmd_fragility, [MC, SEED, PLANT, PAIR, WRITES], "needed"),
    "modern": (cmd_modern, [PRINTS, PENDULUM], None),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pfclab",
        description="stable stabilization toolbox: verify, synthesize, simulate",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (run, groups, pair_use) in COMMANDS.items():
        p = sub.add_parser(name, help=run.__doc__, parents=groups)
        p.set_defaults(run=run, pair_use=pair_use)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a Bode plot of the bare plant takes no pair
        use = None if getattr(args, "channel", None) == "plant" else args.pair_use
        pair = _load_pair(args) if use else None
        if use in ("needed", "loop") and pair is None:
            raise UsageError(f"{args.command} needs --pair or --pair-file")
        G = _load_plant(args) if "plant" in args else None
        if use == "loop" and not loop_denominator(G, pair.C, pair.P).is_hurwitz():
            print("error: the closed loop is unstable", file=sys.stderr)
            return 1
        return args.run(args, G, pair)
    except (UsageError, ValueError) as e:
        # bad flags, unreadable input, or a library-level rejection of them
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
