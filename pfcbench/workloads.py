"""The four benchmark workloads and the checks on their outputs.

Each workload builds its inputs from the benchmark seed, runs one pass of
pfclab calls (the timed part), and checks a pass's outputs against
:mod:`oracle`.  A pass is a fixed list of operations, so every run attempts
whole rounds of the same work.  Checks never compare against stored output
from an earlier run: they recompute what the answer must be.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

import oracle as O


class Workload:
    """A fixed list of pfclab operations per pass, plus the checks on them.

    Subclasses provide ``build(seed)`` (the inputs), ``work(inputs)`` (units
    of work per pass), ``run(inputs, out_dir)`` (one pass, one output per
    operation), ``fingerprint(...)`` (what must repeat between passes) and
    ``check(inputs, outputs, out_dir)`` (oracle checks, as messages).
    """

    name = ""

    def judge(self, inputs, outputs, out_dir: Path) -> dict[int, str]:
        """Operations whose output is wrong, by index; the runner counts them as failed."""
        return {}


class Failure:
    """An operation that raised, exited nonzero, or wrote output found wrong."""

    def __init__(self, what: str):
        self.what = what

    def __repr__(self) -> str:
        return f"Failure({self.what})"


def attempt(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except Exception as e:  # counted as a failed operation, reported by the runner
        return Failure(f"{getattr(fn, '__name__', fn)}: {type(e).__name__}: {e}")


def tf_coeffs(t) -> tuple[list[float], list[float]]:
    return list(t.num.coeffs), list(t.den.coeffs)


def exact_tf(t) -> tuple[list[int], list[int]]:
    return O.integer_tf(*tf_coeffs(t))


def dt4_tolerance(t: np.ndarray, reference: np.ndarray) -> float:
    """Allowed RK4 deviation from the exact response: 100 dt^4 max|y|."""
    dt = float(t[1] - t[0])
    return 100.0 * dt**4 * max(1.0, float(np.max(np.abs(reference))))


# ---------------------------------------------------------------------------
# search
# ---------------------------------------------------------------------------


class Search(Workload):
    """ga_search at the default population, n=3 and n=2, then verify_pair.

    The n=3 search uses GA seed 1, which first reaches F < 0 at generation
    51, so every pass certifies one pair within its 52 generations.  The
    n=2 search takes its GA seed from the benchmark seed.
    """

    name = "search"

    def build(self, seed: int):
        from pfclab.plant import position_plant
        from pfclab.synth import GaConfig, ObjectiveConfig

        configs = [(3, GaConfig(seed=1, generations=52)), (2, GaConfig(seed=seed, generations=30))]
        return {"obj": ObjectiveConfig(plant=position_plant()), "configs": configs}

    def work(self, inputs) -> float:
        return float(sum(g.population * (g.generations + 1) for _, g in inputs["configs"]))

    def run(self, inputs, out_dir: Path) -> list:
        from pfclab import synth

        obj = inputs["obj"]
        out = []
        for n, ga in inputs["configs"]:
            res = attempt(synth.ga_search, obj, ga, n)
            out.append(res)
            if isinstance(res, Failure):
                out.append(Failure("verify_pair: no search result to verify"))
            else:
                out.append(attempt(synth.verify_pair, obj.plant, res.pair))
        return out

    def fingerprint(self, inputs, outputs, out_dir: Path):
        return [
            (o.best_F, o.best_q.q, o.history) if hasattr(o, "best_F") else repr(o)
            for o in outputs
        ]

    def check(self, inputs, outputs, out_dir: Path) -> list[str]:
        from pfclab import synth

        bad = []
        obj = inputs["obj"]
        G = exact_tf(obj.plant)
        results = outputs[0::2]
        reports = outputs[1::2]
        for (n, ga), res, rep in zip(inputs["configs"], results, reports):
            tag = f"n={n} seed={ga.seed}"
            if isinstance(res, Failure) or isinstance(rep, Failure):
                continue
            if res.best_F != synth.objective(res.best_q, obj):
                bad.append(f"{tag}: best_F is not objective(best_q)")
            h = res.history
            if len(h) != ga.generations + 1:
                bad.append(f"{tag}: history has {len(h)} entries")
            if any(b > a for a, b in zip(h, h[1:])) or h[-1] != res.best_F:
                bad.append(f"{tag}: history not non-increasing to best_F")
            C, P = exact_tf(res.pair.C), exact_tf(res.pair.P)
            exact_ok = (
                len(O.trim(C[0])) <= len(O.trim(C[1]))
                and len(O.trim(P[0])) <= len(O.trim(P[1]))
                and O.routh_stable(C[1])
                and O.routh_stable(P[1])
                and O.routh_stable(O.closed_loop_den(G, C, P))
            )
            if res.success and not exact_ok:
                bad.append(f"{tag}: claimed success fails the exact Routh test")
            if rep.passed != exact_ok:
                bad.append(f"{tag}: verify_pair says {rep.passed}, exact test {exact_ok}")
            if n == 3 and not res.success:
                bad.append(f"{tag}: the certifying search found no pair")
        return bad


# ---------------------------------------------------------------------------
# montecarlo
# ---------------------------------------------------------------------------


class MonteCarlo(Workload):
    """robustness_mc and fragility_mc for pairs a and b: 1000 trials, sigma 0.02."""

    name = "montecarlo"
    trials = 1000
    sigma = 0.02
    mass = 0.3

    def build(self, seed: int):
        from pfclab.designs import PAIR_A, PAIR_B
        from pfclab.plant import position_plant

        return {"G": position_plant(M=self.mass), "pairs": (PAIR_A, PAIR_B), "seed": seed}

    def work(self, inputs) -> float:
        return 4.0 * self.trials

    def run(self, inputs, out_dir: Path) -> list:
        from pfclab import analysis

        seed, G = inputs["seed"], inputs["G"]
        out = []
        for pair in inputs["pairs"]:
            out.append(
                attempt(
                    analysis.robustness_mc,
                    pair.C,
                    pair.P,
                    M=self.mass,
                    trials=self.trials,
                    sigma=self.sigma,
                    seed=seed,
                )
            )
            out.append(
                attempt(
                    analysis.fragility_mc,
                    G,
                    pair.C,
                    pair.P,
                    trials=self.trials,
                    sigma=self.sigma,
                    seed=seed,
                )
            )
        return out

    def fingerprint(self, inputs, outputs, out_dir: Path):
        return [
            (o.unstable_count, o.pole_cloud) if hasattr(o, "pole_cloud") else repr(o)
            for o in outputs
        ]

    def trial_loops(self, kind: str, pair, seed: int):
        """Per-trial exact closed loops rebuilt from default_rng([seed, trial])."""
        M, sigma = self.mass, self.sigma
        if kind == "robustness":
            C, P = exact_tf(pair.C), exact_tf(pair.P)
            for trial in range(self.trials):
                a0, a1, a2, a3 = 1.0 + np.random.default_rng([seed, trial]).normal(0.0, sigma, 4)
                # (A0 s^2 - A1) / (s^2 (M A2 s^2 - (1+M) A3))
                G = O.integer_tf([-a1, 0.0, a0], [0.0, 0.0, -(1.0 + M) * a3, 0.0, M * a2])
                yield O.closed_loop_den(G, C, P)
        else:
            G = O.integer_tf([-1.0, 0.0, 1.0], [0.0, 0.0, -(1.0 + M), 0.0, M])
            nC, dC = tf_coeffs(pair.C)
            nP, dP = tf_coeffs(pair.P)
            n = len(dC) - 1
            q = np.array(nC + dC[1:] + nP + dP[1:])
            for trial in range(self.trials):
                s = np.random.default_rng([seed, trial]).normal(0.0, sigma, q.size)
                qq = list(q * (1.0 + s))
                C = O.integer_tf(qq[: n + 1], [1.0] + qq[n + 1 : 2 * n + 1])
                b = qq[2 * n + 1 :]
                P = O.integer_tf(b[: n + 1], [1.0] + b[n + 1 :])
                yield O.closed_loop_den(G, C, P)

    def check(self, inputs, outputs, out_dir: Path) -> list[str]:
        bad = []
        seed = inputs["seed"]
        kinds = [(k, pair) for pair in inputs["pairs"] for k in ("robustness", "fragility")]
        for (kind, pair), rep in zip(kinds, outputs):
            if isinstance(rep, Failure):
                continue
            tag = f"{kind} pair {pair.label}"
            if rep.trials != self.trials:
                bad.append(f"{tag}: {rep.trials} trials")
            by_trial: dict[int, list[complex]] = {}
            for t, z in rep.pole_cloud:
                by_trial.setdefault(t, []).append(z)
            unstable_in_cloud = sum(
                1 for poles in by_trial.values() if any(z.real > 0.0 for z in poles)
            )
            if rep.unstable_count != unstable_in_cloud:
                bad.append(f"{tag}: count {rep.unstable_count} but cloud has {unstable_in_cloud}")
            for trial, den in enumerate(self.trial_loops(kind, pair, seed)):
                poles = by_trial.get(trial, [])
                if len(poles) != len(den) - 1:
                    bad.append(f"{tag} trial {trial}: {len(poles)} poles, degree {len(den) - 1}")
                    continue
                if sorted((z.real, z.imag) for z in poles) != sorted(
                    (z.real, -z.imag) for z in poles
                ):
                    bad.append(f"{tag} trial {trial}: poles not closed under conjugation")
                if any(z.real > 0.0 for z in poles) == O.routh_stable(den):
                    bad.append(f"{tag} trial {trial}: verdict disagrees with the Routh test")
            if len(bad) > 20:
                break
        return bad


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


class Simulate(Workload):
    """Nonlinear cart and its linear twin for pair b, plus CLI-default step responses.

    The benchmark seed picks the sign of the 0.01 rad initial angle; the
    dynamics are odd in (x, theta), so both signs cost the same.
    """

    name = "simulate"
    horizon = 10.0  # longer than the 5 s of the paper's nonlinear check
    step_t_end = 60.0
    step_dt = 1e-3

    def build(self, seed: int):
        from pfclab.designs import PAIR_A, PAIR_B
        from pfclab.plant import PendulumParams, angle_plant, position_plant

        theta0 = 0.01 if seed % 2 == 0 else -0.01
        return {
            "params": PendulumParams(),
            "G": position_plant(),
            "F": angle_plant(),
            "pairs": (PAIR_A, PAIR_B),
            "theta0": theta0,
        }

    def work(self, inputs) -> float:
        return 3 * self.horizon + 4 * self.step_t_end

    def run(self, inputs, out_dir: Path) -> list:
        from pfclab import sim, tf

        p, b = inputs["params"], inputs["pairs"][1]
        G, F = inputs["G"], inputs["F"]
        T, th0 = self.horizon, inputs["theta0"]
        out = [
            attempt(sim.nonlinear_closed_loop, p, b.C, b.P, 0.0, th0, t_end=T),
            attempt(sim.linear_closed_loop, p, b.C, b.P, 0.0, th0, t_end=T),
            attempt(sim.nonlinear_closed_loop, p, b.C, b.P, 0.0, 0.0, t_end=T),
        ]
        for pair in inputs["pairs"]:
            H = tf.closed_loop(G, pair.C, pair.P)
            out.append(attempt(sim.step_response, H, t_end=self.step_t_end, dt=self.step_dt))
            out.append(
                attempt(
                    sim.angle_step_response,
                    F,
                    G,
                    pair.C,
                    pair.P,
                    t_end=self.step_t_end,
                    dt=self.step_dt,
                )
            )
        return out

    def fingerprint(self, inputs, outputs, out_dir: Path):
        def fp(o):
            if isinstance(o, Failure):
                return repr(o)
            series = o if isinstance(o, tuple) else (o,)
            return tuple(hashlib.sha256(s.y.tobytes()).hexdigest() for s in series)

        return [fp(o) for o in outputs]

    def check(self, inputs, outputs, out_dir: Path) -> list[str]:
        bad = []
        nl, lin, rest = outputs[:3]
        b = inputs["pairs"][1]
        G, F = tf_coeffs(inputs["G"]), tf_coeffs(inputs["F"])
        pr = inputs["params"]
        if not any(isinstance(o, Failure) for o in (nl, lin)):
            A, B = O.loop_state_space(*O.pendulum_linear(pr.M, pr.L, pr.m, pr.g), tf_coeffs(b.C), tf_coeffs(b.P))
            z0 = np.zeros(len(B))
            z0[1] = inputs["theta0"]
            for k, name in ((0, "cart"), (1, "angle")):
                out = np.zeros(len(B))
                out[k] = 1.0
                t = lin[k].t
                exact = O.lti_response(A, B, out, 0.0, z0, 0.0, t)
                err = float(np.max(np.abs(lin[k].y - exact)))
                if err > dt4_tolerance(t, exact):
                    bad.append(f"linear {name}: {err:.3e} from the exact response")
                scale = float(np.max(np.abs(lin[k].y)))
                dev = float(np.max(np.abs(nl[k].y - lin[k].y)))
                if not dev <= 0.02 * scale:
                    bad.append(f"nonlinear {name}: {dev:.3e} from the linear twin (scale {scale:.3e})")
        if not isinstance(rest, Failure):
            if not all(np.all(s.y == 0.0) for s in rest):
                bad.append("nonlinear loop drifts from the upright state at rest")
        for i, pair in enumerate(inputs["pairs"]):
            step, angle = outputs[3 + 2 * i], outputs[4 + 2 * i]
            C, P = tf_coeffs(pair.C), tf_coeffs(pair.P)
            den = O.closed_loop_den(G, C, P)
            # angle loop: theta/r = F v/r, and d_G = -s^2 d_F makes it -s^2 n_F d_C d_P / den
            angle_num = O.trim([-x for x in O.mul(O.mul(O.mul(F[0], C[1]), P[1]), [0.0, 0.0, 1.0])])
            for ts, num, name in ((step, O.closed_loop_num(G, C, P), "step"), (angle, angle_num, "angle")):
                if isinstance(ts, Failure):
                    continue
                A_, B_, C_, D_ = O.observable_form(num, den)
                exact = O.lti_response(A_, B_, C_, D_, np.zeros(len(B_)), 1.0, ts.t)
                err = float(np.max(np.abs(ts.y - exact)))
                if err > dt4_tolerance(ts.t, exact):
                    bad.append(f"{name} pair {pair.label}: {err:.3e} from the exact response")
                dc = float(O.dc_gain(num, den))
                final = float(ts.y[-1])
                scale = abs(dc) if dc != 0.0 else float(np.max(np.abs(ts.y)))
                if not abs(final - dc) <= 0.01 * scale:
                    bad.append(f"{name} pair {pair.label}: final {final:.6g}, DC gain {dc:.6g}")
        return bad


# ---------------------------------------------------------------------------
# reproduce
# ---------------------------------------------------------------------------


# the artifact command list of scripts/reproduce_all.py --skip-search.  The
# Monte Carlo commands take the benchmark seed.  noise keeps its default
# seed: its output is wrong on every seed (see Reproduce.judge), and an
# operation that fails must fail on inputs that do not depend on the seed.
COMMANDS = (
    ("verify_a", ["verify", "--pair", "a"]),
    ("verify_b", ["verify", "--pair", "b"]),
    ("step_a", ["step", "--pair", "a"]),
    ("step_b", ["step", "--pair", "b"]),
    ("angle_b", ["angle", "--pair", "b"]),
    ("bode_h_b", ["bode", "--pair", "b", "--channel", "h"]),
    ("bode_e2_b", ["bode", "--pair", "b", "--channel", "e2"]),
    ("noise_b", ["noise", "--pair", "b"]),
    ("robustness_a", ["robustness", "--pair", "a", "--seed", "{seed}"]),
    ("robustness_b", ["robustness", "--pair", "b", "--seed", "{seed}"]),
    ("fragility_a", ["fragility", "--pair", "a", "--seed", "{seed}"]),
    ("fragility_b", ["fragility", "--pair", "b", "--seed", "{seed}"]),
    ("modern", ["modern"]),
)

ARTIFACTS = {
    "step_a": ("step.csv", "step_metadata.json"),
    "step_b": ("step.csv", "step_metadata.json"),
    "angle_b": ("angle.csv", "angle_metadata.json"),
    "bode_h_b": ("bode.csv", "bode_metadata.json"),
    "bode_e2_b": ("bode.csv", "bode_metadata.json"),
    "noise_b": ("noise.csv", "noise_metadata.json"),
    "robustness_a": ("robustness.json", "robustness_cloud.csv", "robustness_metadata.json"),
    "robustness_b": ("robustness.json", "robustness_cloud.csv", "robustness_metadata.json"),
    "fragility_a": ("fragility.json", "fragility_cloud.csv", "fragility_metadata.json"),
    "fragility_b": ("fragility.json", "fragility_cloud.csv", "fragility_metadata.json"),
}

HEADERS = {
    "step.csv": ["t", "y"],
    "angle.csv": ["t", "y"],
    "bode.csv": ["omega", "mag_db"],
    "noise.csv": ["t"] + [f"e{k}" for k in range(1, 7)],
    "robustness_cloud.csv": ["trial", "re", "im"],
    "fragility_cloud.csv": ["trial", "re", "im"],
}

# CLI defaults of the noise command
NOISE_SINES, NOISE_AMP, NOISE_BAND, NOISE_DT = 4000, 0.01, (0.5, 1.5), 0.05


def read_csv(path: Path, header: list[str]) -> np.ndarray:
    with open(path) as fh:
        first = fh.readline().strip().split(",")
    if first != header:
        raise ValueError(f"{path.name}: header {first}, expected {header}")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    if data.shape[1] != len(header) or not np.all(np.isfinite(data)):
        raise ValueError(f"{path.name}: not {len(header)} columns of finite numbers")
    return data


class Reproduce(Workload):
    """The reproduce_all.py --skip-search command list through pfclab.cli.main."""

    name = "reproduce"

    def build(self, seed: int):
        from pfclab.designs import BUILTIN_PAIRS
        from pfclab.plant import position_plant

        argvs = [
            (name, [a.format(seed=seed) for a in argv]) for name, argv in COMMANDS
        ]
        return {"argvs": argvs, "seed": seed, "G": position_plant(), "pairs": BUILTIN_PAIRS}

    def work(self, inputs) -> float:
        return float(len(inputs["argvs"]))

    def run(self, inputs, out_dir: Path) -> list:
        from pfclab import cli

        out = []
        for name, argv in inputs["argvs"]:
            text = io.StringIO()
            with contextlib.redirect_stdout(text):
                rc = attempt(cli.main, argv + ["--out", str(out_dir / name)])
            if isinstance(rc, Failure) or rc != 0:
                out.append(rc if isinstance(rc, Failure) else Failure(f"{name}: exit {rc}"))
            else:
                out.append(text.getvalue())
        return out

    def fingerprint(self, inputs, outputs, out_dir: Path):
        """File digests; metadata compared without its timestamp field."""
        fp = {}
        for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
            rel = str(path.relative_to(out_dir))
            if path.name.endswith("_metadata.json"):
                meta = json.loads(path.read_text())
                meta.pop("timestamp", None)
                fp[rel] = meta
            else:
                h = hashlib.sha256()
                with open(path, "rb") as fh:
                    for chunk in iter(lambda: fh.read(1 << 20), b""):
                        h.update(chunk)
                fp[rel] = h.hexdigest()
        return [repr(o) if isinstance(o, Failure) else None for o in outputs], fp

    def judge(self, inputs, outputs, out_dir: Path) -> dict[int, str]:
        """Operations whose artifact is wrong, by index: counted as failed.

        noise.csv is rebuilt from the block-diagram gains.  It does not match
        because sim.noise_time_response divides each channel, already a full
        transfer function, by the common denominator a second time.
        """
        i = [n for n, _ in inputs["argvs"]].index("noise_b")
        if isinstance(outputs[i], Failure):
            return {}
        G = tf_coeffs(inputs["G"])
        C, P = tf_coeffs(inputs["pairs"]["b"].C), tf_coeffs(inputs["pairs"]["b"].P)
        try:
            table = read_csv(out_dir / "noise_b" / "noise.csv", HEADERS["noise.csv"])
        except (OSError, ValueError) as e:
            return {i: f"noise_b: {e}"}
        bad = self.check_noise(table, 0, G, C, P)
        return {i: "; ".join(bad)} if bad else {}

    def check(self, inputs, outputs, out_dir: Path) -> list[str]:
        bad = []
        names = [n for n, _ in inputs["argvs"]]
        present = sorted(str(p.relative_to(out_dir)) for p in out_dir.rglob("*") if p.is_file())
        expected = sorted(f"{d}/{f}" for d, files in ARTIFACTS.items() for f in files)
        if present != expected:
            bad.append(f"artifacts: {len(present)} files, expected {len(expected)}")
        G = tf_coeffs(inputs["G"])
        pairs = {k: (tf_coeffs(p.C), tf_coeffs(p.P)) for k, p in inputs["pairs"].items()}
        data = {}
        for d, files in ARTIFACTS.items():
            for f in files:
                if f in HEADERS and (out_dir / d / f).is_file():
                    try:
                        data[d, f] = read_csv(out_dir / d / f, HEADERS[f])
                    except ValueError as e:
                        bad.append(f"{d}: {e}")
        for name, text in zip(names, outputs):
            if name.startswith("verify_") and isinstance(text, str):
                C, P = pairs[name[-1]]
                Gi, Ci, Pi = O.integer_tf(*G), O.integer_tf(*C), O.integer_tf(*P)
                ok = all(O.routh_stable(d) for d in (Ci[1], Pi[1], O.closed_loop_den(Gi, Ci, Pi)))
                if ("result: PASS" in text) != ok:
                    bad.append(f"{name}: printed verdict disagrees with the exact Routh test")
        for name in ("step_a", "step_b"):
            if (name, "step.csv") in data:
                C, P = pairs[name[-1]]
                num, den = O.closed_loop_num(G, C, P), O.closed_loop_den(G, C, P)
                dc = float(O.dc_gain(num, den))
                final = data[name, "step.csv"][-1, 1]
                if not abs(final - dc) <= 0.01 * abs(dc):
                    bad.append(f"{name}: final value {final:.6g}, DC gain {dc:.6g}")
        if ("angle_b", "angle.csv") in data:
            y = data["angle_b", "angle.csv"][:, 1]
            if not abs(y[-1]) <= 0.01 * np.max(np.abs(y)):
                bad.append("angle_b: angle does not settle to its zero DC gain")
        C, P = pairs["b"]
        for name, ch in (("bode_h_b", 0), ("bode_e2_b", 1)):
            if (name, "bode.csv") in data:
                w, mag = data[name, "bode.csv"].T
                pick = np.linspace(0, len(w) - 1, 50).astype(int)
                want = 20.0 * np.log10(np.abs(O.noise_gains(G, C, P, 1j * w[pick])[ch]))
                if not np.allclose(mag[pick], want, rtol=0.0, atol=1e-9):
                    bad.append(f"{name}: magnitudes differ from the block-diagram gains")
        for d in ("robustness_a", "robustness_b", "fragility_a", "fragility_b"):
            kind = d.split("_")[0]
            js = out_dir / d / f"{kind}.json"
            if (d, f"{kind}_cloud.csv") not in data or not js.is_file():
                continue
            cloud = data[d, f"{kind}_cloud.csv"]
            rep = json.loads(js.read_text())
            unstable = len(set(cloud[cloud[:, 1] > 0.0, 0].astype(int).tolist()))
            if rep["unstable_count"] != unstable or rep["trials"] != 1000:
                bad.append(f"{d}: JSON count {rep['unstable_count']}, cloud CSV {unstable}")
            if not np.array_equal(np.asarray(rep["pole_cloud"], dtype=float), cloud):
                bad.append(f"{d}: JSON pole cloud differs from the CSV")
        return bad

    @staticmethod
    def check_noise(table: np.ndarray, seed: int, G, C, P) -> list[str]:
        """noise.csv against the multisine rebuilt from the documented draws.

        Draw order: frequencies uniform on the band, amplitudes as folded
        normals scaled to the amplitude norm, phases uniform on [0, 2 pi).
        """
        rng = np.random.default_rng(seed)
        omega = rng.uniform(*NOISE_BAND, size=NOISE_SINES)
        amp = np.abs(rng.standard_normal(NOISE_SINES))
        amp *= NOISE_AMP / np.linalg.norm(amp)
        phase = rng.uniform(0.0, 2.0 * np.pi, size=NOISE_SINES)
        gains = O.noise_gains(G, C, P, 1j * omega)
        rows = np.linspace(0, len(table) - 1, 40).astype(int)
        t = table[rows, 0]
        bad = []
        if not np.allclose(table[:, 0], np.arange(len(table)) * NOISE_DT, rtol=1e-12, atol=1e-12):
            bad.append("noise_b: time column is not the documented grid")
        off = []
        for k in range(6):
            want = O.multisine(gains[k], amp, omega, phase, t)
            got = table[rows, k + 1]
            tol = 1e-9 * NOISE_AMP * math.sqrt(NOISE_SINES) * float(np.max(np.abs(gains[k])))
            if not np.all(np.abs(got - want) <= tol):
                off.append(f"e{k + 1} off by {float(np.max(np.abs(got - want))):.3g}")
        if off:
            bad.append("noise_b: noise.csv differs from the block-diagram multisine: " + ", ".join(off))
        return bad


WORKLOADS = {w.name: w for w in (Search(), MonteCarlo(), Simulate(), Reproduce())}
