"""Command-line front end.

Every pipeline in the library is reachable from here: verification of the
built-in pairs, fresh synthesis runs, time/frequency response emitters, the
Monte Carlo studies, and the observer-based design walkthrough.  Commands
write plot-ready CSV/JSON plus a small metadata file; nothing renders
images, any plotting tool can consume the output.

Exit codes: 0 all checks passed or data written, 1 an analysis reached a
negative verdict (verification failed, no stabilizing pair found, unstable
loop), 2 bad usage or unreadable input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
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
from .plant import angle_plant, position_plant, state_space
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
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """One resolved invocation: sources, seed, destination, extras."""

    command: str
    out_dir: Path
    plant: str = "pendulum-position"
    pair: str | None = None
    pair_file: str | None = None
    mass: float = 0.3
    seed: int = 0
    options: dict = field(default_factory=dict)

    # -- source loading ---------------------------------------------------

    def load_plant(self) -> RationalTF:
        if self.plant == "pendulum-position":
            return position_plant(M=self.mass)
        if self.plant == "pendulum-angle":
            return angle_plant(self.mass)
        if self.plant.startswith("file:"):
            return RationalTF.from_json_dict(
                _read_json(self.plant[len("file:") :])
            )
        raise UsageError(
            f"unknown plant {self.plant!r}; use pendulum-position, "
            "pendulum-angle, or file:PATH"
        )

    def load_pair(self) -> CompensatorPair | None:
        if self.pair_file is not None:
            return CompensatorPair.from_json_dict(_read_json(self.pair_file))
        if self.pair is None or self.pair == "none":
            return None
        try:
            return get_pair(self.pair)
        except KeyError:
            raise UsageError(
                f"unknown pair {self.pair!r}; builtin choices: "
                + ", ".join(sorted(BUILTIN_PAIRS))
            ) from None

    def require_pair(self) -> CompensatorPair:
        pair = self.load_pair()
        if pair is None:
            raise UsageError(f"{self.command} needs --pair or --pair-file")
        return pair

    # -- output -----------------------------------------------------------

    def ensure_out(self) -> Path:
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise UsageError(f"cannot create output directory: {e}") from None
        return self.out_dir

    def write_metadata(self, name: str, echo: dict) -> None:
        meta = {
            "command": self.command,
            "version": __version__,
            "seed": self.seed,
            "config": echo,
            "timestamp": datetime.now(timezone.utc).isoformat(),
        }
        path = self.out_dir / f"{name}_metadata.json"
        path.write_text(json.dumps(meta, indent=2) + "\n")


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


def cmd_verify(cfg: RunConfig) -> int:
    G = cfg.load_plant()
    verdict = pip_check(G)
    word = (
        "strongly stabilizable"
        if verdict.strongly_stabilizable
        else "not strongly stabilizable"
    )
    print(f"plant {cfg.plant}: {word}")
    for z, count in verdict.checks:
        where = "infinity" if z == float("inf") else f"{z:g}"
        print(f"  real RHP zero at {where}: {count} real RHP pole(s) before the next zero")
    pair = cfg.load_pair()
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


def cmd_synthesize(cfg: RunConfig) -> int:
    plant = cfg.load_plant()
    o = cfg.options
    try:
        ga = GaConfig(
            population=o["population"],
            generations=o["generations"],
            crossover_rate=o["crossover_rate"],
            mutation_rate=o["mutation_rate"],
            mutation_scale=o["mutation_scale"],
            elitism=o["elitism"],
            init_range=tuple(o["init_range"]),
            seed=cfg.seed,
        )
        obj = ObjectiveConfig(plant=plant)
    except ValueError as e:
        raise UsageError(str(e)) from None
    res = ga_search(obj, ga, o["n"])
    out = cfg.ensure_out()
    (out / "synthesis.json").write_text(res.to_json() + "\n")
    res.history_to_csv(out / "synthesis_history.csv")
    cfg.write_metadata("synthesis", {"n": o["n"], "ga": ga.to_json_dict()})
    status = "success" if res.success else "no stabilizing pair found"
    print(f"n={o['n']} seed={cfg.seed}: best F = {res.best_F:.6f} ({status})")
    if res.success:
        audited = verify_pair(plant, res.pair)
        print(f"independent verification: {'PASS' if audited.passed else 'FAIL'}")
    print(f"wrote {out / 'synthesis.json'}")
    return 0 if res.success else 1


def cmd_step(cfg: RunConfig) -> int:
    pair = cfg.require_pair()
    G = cfg.load_plant()
    if _unstable_loop(G, pair):
        return 1
    H = closed_loop(G, pair.C, pair.P)
    ts = step_response(H, t_end=cfg.options["t_end"], dt=cfg.options["dt"])
    out = cfg.ensure_out()
    ts.to_csv(out / "step.csv")
    cfg.write_metadata(
        "step",
        {
            "plant": cfg.plant,
            "pair": pair.label,
            "t_end": cfg.options["t_end"],
            "dt": cfg.options["dt"],
        },
    )
    print(f"final value {ts.y[-1]:.6f} (DC gain {H(0.0):.6f})")
    print(f"wrote {out / 'step.csv'}")
    return 0


def cmd_angle(cfg: RunConfig) -> int:
    pair = cfg.require_pair()
    F = angle_plant(cfg.mass)
    G = position_plant(M=cfg.mass)
    if _unstable_loop(G, pair):
        return 1
    ts = angle_step_response(
        F, G, pair.C, pair.P, t_end=cfg.options["t_end"], dt=cfg.options["dt"]
    )
    out = cfg.ensure_out()
    ts.to_csv(out / "angle.csv")
    cfg.write_metadata(
        "angle",
        {
            "pair": pair.label,
            "mass": cfg.mass,
            "t_end": cfg.options["t_end"],
            "dt": cfg.options["dt"],
        },
    )
    tail = ts.y[ts.t > 0.8 * ts.t[-1]]
    print(f"peak |angle| {np.abs(ts.y).max():.6g}, tail max {np.abs(tail).max():.3e}")
    print(f"wrote {out / 'angle.csv'}")
    return 0


def cmd_bode(cfg: RunConfig) -> int:
    o = cfg.options
    G = cfg.load_plant()
    source = o["channel"]
    if source == "plant":
        tf = G
    else:
        pair = cfg.require_pair()
        if _unstable_loop(G, pair):
            return 1
        if source == "h":
            tf = closed_loop(G, pair.C, pair.P)
        else:
            idx = int(source[1:]) - 1
            tf = noise_channels(G, pair.C, pair.P).channels[idx]
    curve = bode_curve(tf, o["w_min"], o["w_max"], o["points"])
    out = cfg.ensure_out()
    curve.to_csv(out / "bode.csv")
    cfg.write_metadata(
        "bode",
        {
            "plant": cfg.plant,
            "channel": source,
            "w_min": o["w_min"],
            "w_max": o["w_max"],
            "points": o["points"],
        },
    )
    k = int(np.argmax(curve.mag_db))
    print(
        f"grid peak {curve.mag_db[k]:.4f} dB at omega = {curve.omega[k]:.6g}"
    )
    if curve.near_axis_pole:
        print("note: pole near the evaluated imaginary axis, magnitudes spike")
    print(f"wrote {out / 'bode.csv'}")
    return 0


def cmd_noise(cfg: RunConfig) -> int:
    pair = cfg.require_pair()
    G = cfg.load_plant()
    o = cfg.options
    chans = noise_channels(G, pair.C, pair.P)
    spec = NoiseSpec(
        N=o["sines"],
        amp_norm=o["amp"],
        freq_interval=(o["freq_lo"], o["freq_hi"]),
        seed=cfg.seed,
    )
    if _unstable_loop(G, pair):
        return 1
    t = np.arange(0.0, o["t_end"], o["dt"])
    series = noise_time_response(chans, spec, t)
    out = cfg.ensure_out()
    path = out / "noise.csv"
    with open(path, "w") as fh:
        fh.write("t," + ",".join(f"e{k}" for k in range(1, 7)) + "\n")
        cols = [s.y for s in series]
        for i, ti in enumerate(t):
            fh.write(
                f"{ti:.17g},"
                + ",".join(f"{col[i]:.17g}" for col in cols)
                + "\n"
            )
    cfg.write_metadata(
        "noise",
        {
            "plant": cfg.plant,
            "pair": pair.label,
            "sines": o["sines"],
            "amp": o["amp"],
            "freq_interval": [o["freq_lo"], o["freq_hi"]],
            "t_end": o["t_end"],
            "dt": o["dt"],
        },
    )
    peaks = ", ".join(
        f"e{k}={np.abs(s.y).max():.4g}" for k, s in enumerate(series, 1)
    )
    print(f"per-channel peak |y|: {peaks}")
    print(f"wrote {path}")
    return 0


def cmd_robustness(cfg: RunConfig) -> int:
    pair = cfg.require_pair()
    o = cfg.options
    rep = robustness_mc(
        pair.C,
        pair.P,
        M=cfg.mass,
        trials=o["trials"],
        sigma=o["sigma"],
        seed=cfg.seed,
    )
    out = cfg.ensure_out()
    (out / "robustness.json").write_text(rep.to_json() + "\n")
    rep.cloud_to_csv(out / "robustness_cloud.csv")
    cfg.write_metadata(
        "robustness",
        {"pair": pair.label, "mass": cfg.mass, "trials": o["trials"], "sigma": o["sigma"]},
    )
    print(
        f"{rep.unstable_count} of {rep.trials} trials unstable "
        f"(sigma={rep.sigma:g}, seed={rep.seed})"
    )
    print(f"wrote {out / 'robustness.json'}")
    return 0


def cmd_fragility(cfg: RunConfig) -> int:
    pair = cfg.require_pair()
    G = cfg.load_plant()
    o = cfg.options
    try:
        rep = fragility_mc(
            G,
            pair.C,
            pair.P,
            trials=o["trials"],
            sigma=o["sigma"],
            seed=cfg.seed,
        )
    except ValueError as e:
        raise UsageError(str(e)) from None
    out = cfg.ensure_out()
    (out / "fragility.json").write_text(rep.to_json() + "\n")
    rep.cloud_to_csv(out / "fragility_cloud.csv")
    cfg.write_metadata(
        "fragility",
        {"plant": cfg.plant, "pair": pair.label, "trials": o["trials"], "sigma": o["sigma"]},
    )
    print(
        f"{rep.unstable_count} of {rep.trials} trials unstable "
        f"(sigma={rep.sigma:g}, seed={rep.seed})"
    )
    print(f"wrote {out / 'fragility.json'}")
    return 0


def cmd_modern(cfg: RunConfig) -> int:
    ss = state_space(cfg.mass)
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
    raw = ss_to_tf(comb.Atil, comb.Btil, comb.Ctil)
    est_factor = Polynomial.from_roots(DEMO_ESTIMATOR_POLES)
    Q = remove_factor(raw, est_factor)
    print(f"closed loop with estimator dynamics removed: Q = {_tf_str(Q)}")
    G = position_plant(M=cfg.mass)
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
    if not v > 0.0:
        raise argparse.ArgumentTypeError("must be positive")
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


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    consumed = {"command", "out", "plant", "pair", "pair_file", "mass", "seed"}
    options = {k: v for k, v in vars(args).items() if k not in consumed}
    out = args.out if args.out is not None else os.environ.get(OUT_ENV, ".")
    return RunConfig(
        command=args.command,
        out_dir=Path(out),
        plant=getattr(args, "plant", "pendulum-position"),
        pair=getattr(args, "pair", None),
        pair_file=getattr(args, "pair_file", None),
        mass=args.mass,
        seed=getattr(args, "seed", 0),
        options=options,
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    cfg = _config_from_args(args)
    try:
        return _HANDLERS[cfg.command](cfg)
    except UsageError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except ValueError as e:
        # library-level rejection of the inputs this invocation assembled
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
