"""Command-line front end.

Every pipeline in the library is reachable from here: verification of the
built-in pairs, fresh synthesis runs, time/frequency response emitters, the
Monte Carlo studies, and the observer-based design walkthrough.  All but
verify and modern, which only print, write plot-ready CSV/JSON plus a small
metadata file; nothing renders images.  Every command takes --out and
--mass (verify and modern accept --out and write nothing, so one command
line can pass it to every command); --plant is taken by all but angle,
robustness and modern, --pair and --pair-file by all but synthesize and
modern, --seed by synthesize, noise, robustness and fragility.

Exit codes: 0 all checks passed or data written, 1 an analysis reached a
negative verdict (verification failed, no stabilizing pair found, unstable
loop), 2 bad usage or unreadable input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import bode as bode_curve
from .analysis import fragility_mc, robustness_mc
from .designs import BUILTIN_PAIRS, get_pair
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
from .sim import NoiseSpec, angle_step_response, noise_time_response, step_response
from .synth import GaConfig, ObjectiveConfig, ga_search, verify_pair
from .tf import CompensatorPair, RationalTF, closed_loop, loop_denominator
from .tf import noise_channels, pip_check

OUT_ENV = "PFCLAB_OUT"

# observer demo: closed-loop poles for the state feedback, then the
# estimator's own poles, deliberately a little faster
DEMO_SYSTEM_POLES = (-1 + 1j, -1 - 1j, -2 + 1j, -2 - 1j)
DEMO_ESTIMATOR_POLES = (-1.0, -2.0, -3 + 1j, -3 - 1j)


class UsageError(Exception):
    """Bad flags or unreadable input files; maps to exit code 2."""


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
    if args.pair is None or args.pair == "none":
        return None
    try:
        return get_pair(args.pair)
    except KeyError:
        raise UsageError(
            f"unknown pair {args.pair!r}; builtin choices: "
            + ", ".join(sorted(BUILTIN_PAIRS))
        ) from None


def _require_pair(args) -> CompensatorPair:
    pair = _load_pair(args)
    if pair is None:
        raise UsageError(f"{args.command} needs --pair or --pair-file")
    return pair


def _emit(args, echo: dict, files: dict, *lines: str, code: int = 0) -> int:
    """Write files (name -> writer of that path) and the metadata recording
    echo into the output directory, print lines, report the first file."""
    out = Path(args.out if args.out is not None else os.environ.get(OUT_ENV, "."))
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise UsageError(f"cannot create output directory: {e}") from None
    for name, write in files.items():
        write(out / name)
    first = next(iter(files))
    meta = {
        "command": args.command,
        "version": __version__,
        "seed": getattr(args, "seed", 0),
        "config": echo,
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    (out / f"{Path(first).stem}_metadata.json").write_text(json.dumps(meta, indent=2) + "\n")
    print(*lines, f"wrote {out / first}", sep="\n")
    return code


def _emit_mc(args, rep, echo: dict) -> int:
    """_emit for a Monte Carlo report: JSON, pole cloud, verdict; echo gains trials, sigma."""
    return _emit(
        args,
        {**echo, "trials": args.trials, "sigma": args.sigma},
        {
            f"{args.command}.json": lambda p: p.write_text(rep.to_json() + "\n"),
            f"{args.command}_cloud.csv": rep.cloud_to_csv,
        },
        f"{rep.unstable_count} of {rep.trials} trials unstable "
        f"(sigma={rep.sigma:g}, seed={rep.seed})",
    )


# ---------------------------------------------------------------------------
# formatting
# ---------------------------------------------------------------------------


def _poly_str(p: Polynomial) -> str:
    if p.degree == 0:
        return f"{p.coeffs[0]:g}"
    parts = []
    for k in range(p.degree, -1, -1):
        c = p.coeffs[k]
        if c == 0.0:
            continue
        mag = f"{abs(c):g}"
        if k == 0:
            term = mag
        else:
            base = "s" if k == 1 else f"s^{k}"
            term = base if mag == "1" else f"{mag}{base}"
        parts.append(("-" if c < 0 else "+", term))
    sign0, term0 = parts[0]
    out = ("-" if sign0 == "-" else "") + term0
    for sign, term in parts[1:]:
        out += f" {sign} {term}"
    return out


def _tf_str(tf: RationalTF) -> str:
    return f"({_poly_str(tf.num)}) / ({_poly_str(tf.den)})"


def _matrix_str(m: np.ndarray) -> str:
    return np.array2string(m, precision=6, suppress_small=True)


def _unstable_loop(G: RationalTF, pair: CompensatorPair) -> bool:
    """True, after reporting it on stderr, when the loop of G under pair is unstable."""
    if loop_denominator(G, pair.C, pair.P).is_hurwitz():
        return False
    print("error: the closed loop is unstable", file=sys.stderr)
    return True


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify(args) -> int:
    G = _load_plant(args)
    verdict = pip_check(G)
    word = (
        "strongly stabilizable"
        if verdict.strongly_stabilizable
        else "not strongly stabilizable"
    )
    print(f"plant {args.plant}: {word}")
    for z, count in verdict.checks:
        where = "infinity" if z == float("inf") else f"{z:g}"
        print(f"  real RHP zero at {where}: {count} real RHP pole(s) before the next zero")
    pair = _load_pair(args)
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


def cmd_synthesize(args) -> int:
    plant = _load_plant(args)
    ga = GaConfig(
        population=args.population,
        generations=args.generations,
        crossover_rate=args.crossover_rate,
        mutation_rate=args.mutation_rate,
        mutation_scale=args.mutation_scale,
        elitism=args.elitism,
        init_range=tuple(args.init_range),
        seed=args.seed,
    )
    res = ga_search(ObjectiveConfig(plant=plant), ga, args.n)
    status = "success" if res.success else "no stabilizing pair found"
    lines = [f"n={args.n} seed={args.seed}: best F = {res.best_F:.6f} ({status})"]
    if res.success:
        audited = verify_pair(plant, res.pair)
        lines.append(f"independent verification: {'PASS' if audited.passed else 'FAIL'}")
    return _emit(
        args,
        {"n": args.n, "ga": ga.to_json_dict()},
        {
            "synthesis.json": lambda p: p.write_text(res.to_json() + "\n"),
            "synthesis_history.csv": res.history_to_csv,
        },
        *lines,
        code=0 if res.success else 1,
    )


def cmd_step(args) -> int:
    pair = _require_pair(args)
    G = _load_plant(args)
    if _unstable_loop(G, pair):
        return 1
    H = closed_loop(G, pair.C, pair.P)
    ts = step_response(H, t_end=args.t_end, dt=args.dt)
    echo = {"plant": args.plant, "pair": pair.label, "t_end": args.t_end, "dt": args.dt}
    line = f"final value {ts.y[-1]:.6f} (DC gain {H(0.0):.6f})"
    return _emit(args, echo, {"step.csv": ts.to_csv}, line)


def cmd_angle(args) -> int:
    pair = _require_pair(args)
    F = angle_plant(args.mass)
    G = position_plant(M=args.mass)
    if _unstable_loop(G, pair):
        return 1
    ts = angle_step_response(F, G, pair.C, pair.P, t_end=args.t_end, dt=args.dt)
    tail = ts.y[ts.t > 0.8 * ts.t[-1]]
    echo = {"pair": pair.label, "mass": args.mass, "t_end": args.t_end, "dt": args.dt}
    line = f"peak |angle| {np.abs(ts.y).max():.6g}, tail max {np.abs(tail).max():.3e}"
    return _emit(args, echo, {"angle.csv": ts.to_csv}, line)


def cmd_bode(args) -> int:
    G = _load_plant(args)
    source = args.channel
    if source == "plant":
        tf = G
    else:
        pair = _require_pair(args)
        if _unstable_loop(G, pair):
            return 1
        if source == "h":
            tf = closed_loop(G, pair.C, pair.P)
        else:
            tf = noise_channels(G, pair.C, pair.P).channels[int(source[1:]) - 1]
    curve = bode_curve(tf, args.w_min, args.w_max, args.points)
    k = int(np.argmax(curve.mag_db))
    lines = [f"grid peak {curve.mag_db[k]:.4f} dB at omega = {curve.omega[k]:.6g}"]
    if curve.near_axis_pole:
        lines.append("note: pole near the evaluated imaginary axis, magnitudes spike")
    return _emit(
        args,
        {
            "plant": args.plant,
            "channel": source,
            "w_min": args.w_min,
            "w_max": args.w_max,
            "points": args.points,
        },
        {"bode.csv": curve.to_csv},
        *lines,
    )


def cmd_noise(args) -> int:
    if args.dt >= args.t_end:
        raise UsageError("dt must be smaller than t_end")
    pair = _require_pair(args)
    G = _load_plant(args)
    chans = noise_channels(G, pair.C, pair.P)
    interval = (args.freq_lo, args.freq_hi)
    spec = NoiseSpec(N=args.sines, amp_norm=args.amp, freq_interval=interval, seed=args.seed)
    if _unstable_loop(G, pair):
        return 1
    t = np.arange(0.0, args.t_end, args.dt)
    series = noise_time_response(chans, spec, t)
    table = np.column_stack([t] + [s.y for s in series])
    peaks = ", ".join(f"e{k}={np.abs(s.y).max():.4g}" for k, s in enumerate(series, 1))
    return _emit(
        args,
        {
            "plant": args.plant,
            "pair": pair.label,
            "sines": args.sines,
            "amp": args.amp,
            "freq_interval": list(interval),
            "t_end": args.t_end,
            "dt": args.dt,
        },
        {
            "noise.csv": lambda p: np.savetxt(
                p, table, fmt="%.17g", delimiter=",", header="t,e1,e2,e3,e4,e5,e6", comments=""
            )
        },
        f"per-channel peak |y|: {peaks}",
    )


def cmd_robustness(args) -> int:
    pair = _require_pair(args)
    rep = robustness_mc(
        pair.C, pair.P, M=args.mass, trials=args.trials, sigma=args.sigma, seed=args.seed
    )
    return _emit_mc(args, rep, {"pair": pair.label, "mass": args.mass})


def cmd_fragility(args) -> int:
    pair = _require_pair(args)
    G = _load_plant(args)
    rep = fragility_mc(
        G, pair.C, pair.P, trials=args.trials, sigma=args.sigma, seed=args.seed
    )
    return _emit_mc(args, rep, {"plant": args.plant, "pair": pair.label})


def cmd_modern(args) -> int:
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
    print(f"closed loop with estimator dynamics removed: Q = {_tf_str(Q)}")
    G = position_plant(M=args.mass)
    for name, eq in (("K_b", equivalent_Kb(Q, G)), ("K_f", equivalent_Kf(Q, G))):
        print(f"equivalent single-loop compensator {name}:")
        print(f"  reduced: {_tf_str(eq.reduced)}")
        flags = [
            "proper" if eq.proper else "improper",
            "stable" if eq.stable else "unstable",
        ]
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


def _positive_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if v < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return v


def _unsigned_int(text: str) -> int:
    try:
        v = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if v < 0:
        raise argparse.ArgumentTypeError("must be a nonnegative integer")
    return v


def _positive_float(text: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a number") from None
    if not 0.0 < v < float("inf"):
        raise argparse.ArgumentTypeError("must be positive and finite")
    return v


def _add_plant(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--plant",
        default="pendulum-position",
        help="pendulum-position, pendulum-angle, or file:PATH (JSON with num/den)",
    )


def _add_pair(p: argparse.ArgumentParser, default: str | None = "a") -> None:
    p.add_argument(
        "--pair",
        default=default,
        help="builtin pair label (a, b) or 'none'",
    )
    p.add_argument(
        "--pair-file",
        default=None,
        help="JSON file with a compensator pair (overrides --pair)",
    )


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--out",
        default=None,
        help=f"output directory (default: ${OUT_ENV} or current directory)",
    )
    p.add_argument("--mass", type=_positive_float, default=0.3, help="cart mass")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="pfclab",
        description="stable stabilization toolbox: verify, synthesize, simulate",
    )
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="audit a compensator pair against a plant")
    _add_plant(p)
    _add_pair(p)
    _add_common(p)

    p = sub.add_parser("synthesize", help="search for a stabilizing stable pair")
    p.add_argument("--n", type=_positive_int, required=True, help="compensator order")
    p.add_argument("--seed", type=_unsigned_int, default=0)
    p.add_argument("--population", type=_positive_int, default=200)
    p.add_argument("--generations", type=_unsigned_int, default=500)
    p.add_argument("--crossover-rate", type=float, default=0.9)
    p.add_argument("--mutation-rate", type=float, default=0.1)
    p.add_argument("--mutation-scale", type=float, default=0.2)
    p.add_argument("--elitism", type=_unsigned_int, default=2)
    p.add_argument("--init-range", type=float, nargs=2, default=(-12.0, 12.0))
    _add_plant(p)
    _add_common(p)

    p = sub.add_parser("step", help="closed-loop unit step response to CSV")
    p.add_argument("--t-end", type=_positive_float, default=60.0)
    p.add_argument("--dt", type=_positive_float, default=1e-3)
    _add_plant(p)
    _add_pair(p)
    _add_common(p)

    p = sub.add_parser("angle", help="pendulum angle response to CSV")
    p.add_argument("--t-end", type=_positive_float, default=60.0)
    p.add_argument("--dt", type=_positive_float, default=1e-3)
    _add_pair(p)
    _add_common(p)

    p = sub.add_parser("bode", help="magnitude/phase samples to CSV")
    p.add_argument(
        "--channel",
        choices=["h", "plant", "e1", "e2", "e3", "e4", "e5", "e6"],
        default="h",
        help="closed loop, bare plant, or one noise channel",
    )
    p.add_argument("--w-min", type=_positive_float, default=1e-2)
    p.add_argument("--w-max", type=_positive_float, default=1e2)
    p.add_argument("--points", type=_positive_int, default=1000)
    _add_plant(p)
    _add_pair(p)
    _add_common(p)

    p = sub.add_parser("noise", help="multi-sine noise response of all channels")
    p.add_argument("--sines", type=_positive_int, default=4000)
    p.add_argument("--amp", type=float, default=0.01, help="amplitude vector norm")
    p.add_argument("--freq-lo", type=float, default=0.5)
    p.add_argument("--freq-hi", type=float, default=1.5)
    p.add_argument("--t-end", type=_positive_float, default=200.0)
    p.add_argument("--dt", type=_positive_float, default=0.05)
    p.add_argument("--seed", type=_unsigned_int, default=0)
    _add_plant(p)
    _add_pair(p)
    _add_common(p)

    p = sub.add_parser("robustness", help="plant-perturbation Monte Carlo")
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--sigma", type=float, default=0.02)
    p.add_argument("--seed", type=_unsigned_int, default=0)
    _add_pair(p)
    _add_common(p)

    p = sub.add_parser("fragility", help="compensator-perturbation Monte Carlo")
    p.add_argument("--trials", type=_positive_int, default=1000)
    p.add_argument("--sigma", type=float, default=0.02)
    p.add_argument("--seed", type=_unsigned_int, default=0)
    _add_plant(p)
    _add_pair(p)
    _add_common(p)

    p = sub.add_parser(
        "modern", help="observer-based design walkthrough with verdicts"
    )
    _add_common(p)

    return ap


_HANDLERS = {
    "verify": cmd_verify,
    "synthesize": cmd_synthesize,
    "step": cmd_step,
    "angle": cmd_angle,
    "bode": cmd_bode,
    "noise": cmd_noise,
    "robustness": cmd_robustness,
    "fragility": cmd_fragility,
    "modern": cmd_modern,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (UsageError, ValueError) as e:
        # bad flags, unreadable input, or a library-level rejection of them
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
