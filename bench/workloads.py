"""The benchmark's workloads: seeded inputs, one item's work, its checks.

Every workload is a list of ITEM_COUNT items of similar cost drawn from
a seed (a run that outlasts it starts over). Item i is drawn from its own
generator seeded by (seed, i) and from stratum i % strata, so every run
sees the same mix of families and parameter bands whatever its seed. An
item is drawn when it is first needed, outside its timed work.
`run` is the timed work and calls stillwave only through its public
entry points (`stillwave.cli.run` and the package's functions, looked up
at call time so a tracer can wrap them). `check` compares the output
against closed forms from oracles.py and returns the list of
discrepancies.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import oracles

# more items than a 60 s run reaches
ITEM_COUNT = 64
STILL_FAMILIES = ("constant", "linear", "quadratic_truncated")
STILL_B_BANDS = {"constant": ((1.1, 2.0), (2.0, 3.0)),
                 "linear": ((0.5, 1.5), (1.5, 3.0)),
                 "quadratic_truncated": ((0.5, 1.5), (1.5, 3.0))}
SWEEP_WAVELENGTHS = (1.5, 2.0, 3.0, 4.0, 6.0, 8.0)
# amplitude bands as fractions of the depth; one amplitude per band keeps
# the Newton iteration count of every sweep item close to 3 + 3 + 4
SWEEP_AMPLITUDE_BANDS = ((0.003, 0.01), (0.01, 0.03), (0.03, 0.08))
# within these bands every 256 x 128 solve takes 3 Newton iterations
FINE_AMPLITUDE_BAND = (0.005, 0.007)
FINE_PERIOD_BAND = (2.0, 8.0)
FINE_GRID = (256, 128)
BRANCH_GRID = (128, 64)
DISPERSION_SAMPLES = 21
# (b bands, s band) of the branch flows. Outside them the pinned
# continuation can land on the raised flat state eta = h + a instead of a
# wave (linear b > -0.9 with s <= 0.25, constant b >= -0.6 at s = 0)
BRANCH_FLOWS = {"constant": (((-1.6, -1.25), (-1.25, -0.9)), (0.1, 0.35)),
                "linear": (((-1.6, -1.1), (-1.1, -0.6)), (0.45, 0.6))}
VERDICT_CONSISTENT = "consistent with nonexistence prediction"


def _still_family(rng, stratum: int) -> dict:
    """A still flow that satisfies the spectral hypotheses: family by
    stratum % 3, b in the family's lower or upper band by stratum // 3 % 2,
    and 1 < R < 1.67 for the quadratic (its margin vanishes at R ~ 1.673).

    b is rounded to three decimals. Constant b is kept at 1.1 or above:
    below that, least_still_depth fails on some values (see CHANGES.md).
    Every three-decimal b in the bands was checked to solve (the
    quadratic below 1.1 with four random R each).
    """
    family = STILL_FAMILIES[stratum % 3]
    lo, hi = STILL_B_BANDS[family][stratum // 3 % 2]
    spec = {"family": family, "b": round(float(rng.uniform(lo, hi)), 3)}
    if family == "quadratic_truncated":
        spec["R"] = float(rng.uniform(1.05, 1.6))
    return spec


def _run_cli(argv) -> tuple[int, str]:
    """stillwave.cli.run with its report echo captured; exit code 1 (a
    config or solver error, no report written) raises."""
    from stillwave import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    if code == 1:
        raise RuntimeError(f"stillwave {argv[0]} exited with 1")
    return code, buf.getvalue()


class Workload:
    strata = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.items = {}

    def item(self, index: int):
        """Item index % ITEM_COUNT, drawn the first time it is asked for."""
        i = index % ITEM_COUNT
        if i not in self.items:
            self.items[i] = self.draw(np.random.default_rng([self.seed, i]),
                                      i % self.strata)
        return self.items[i]

    def _cli(self, subcommand: str, cfg: dict) -> dict:
        """Write cfg, run `stillwave <subcommand>` on it, read the report."""
        config, report, manifest = (
            os.path.join(self.workdir, f"{subcommand}_{kind}.json")
            for kind in ("config", "report", "manifest"))
        with open(config, "w", encoding="utf-8") as fh:
            json.dump(cfg, fh)
        code, echo = _run_cli([subcommand, "--config", config,
                               "--out", report, "--manifest", manifest])
        with open(report, "rb") as fh:
            return {"code": code, "echo": echo, "report": fh.read()}


class Sweep(Workload):
    """`stillwave sweep` on a still flow, 3 amplitudes x 3 wavelengths."""

    strata = 6

    def draw(self, rng, stratum):
        vort = _still_family(rng, stratum)
        h = oracles.least_still_depth(vort["family"], vort["b"])
        waves = sorted(float(L) for L in rng.choice(SWEEP_WAVELENGTHS, 3,
                                                    replace=False))
        amps = [float(rng.uniform(lo, hi)) * h
                for lo, hi in SWEEP_AMPLITUDE_BANDS]
        return {"vorticity": vort, "member": 0, "amplitudes": amps,
                "wavelengths": waves, "slope_cap": 1.0, "nx": 64, "ny": 32,
                "threads": 1}

    def run(self, cfg):
        return self._cli("sweep", cfg)

    def fingerprint(self, out) -> bytes:
        return out["report"]

    def check(self, cfg, out) -> list:
        bad = []
        if out["code"] != 0:
            bad.append(f"exit code {out['code']}")
        if out["echo"].encode("utf-8") != out["report"]:
            bad.append("printed report differs from the report file")
        rep = json.loads(out["report"])
        vort = cfg["vorticity"]
        h = oracles.least_still_depth(vort["family"], vort["b"])
        margin = oracles.spectral_margin(vort["family"], vort["b"], h,
                                         vort.get("R"))
        hyp = rep["hypothesis"]
        if abs(hyp["depth"] - h) > 1e-8:
            bad.append(f"depth {hyp['depth']!r} vs closed form {h!r}")
        if abs(hyp["margin"] - margin) > 1e-8:
            bad.append(f"margin {hyp['margin']!r} vs closed form {margin!r}")
        if not (hyp["applicable"] and hyp["still_flow"]):
            bad.append("hypotheses reported not applicable")
        if rep["verdict"] != VERDICT_CONSISTENT:
            bad.append(f"verdict {rep['verdict']!r}")
        expected = [(a, L) for a in cfg["amplitudes"]
                    for L in cfg["wavelengths"]]
        if [(c["amplitude"], c["wavelength"]) for c in rep["cases"]] != expected:
            bad.append("cases do not cover amplitudes x wavelengths in order")
        for c in rep["cases"]:
            if (c["error"] is not None or not c["converged_to_flat"]
                    or not c["final_max_zeta"] < 1e-8):
                bad.append(f"case a={c['amplitude']}, L={c['wavelength']} "
                           f"did not fall back to flat: {c}")
        return bad


class Fine(Workload):
    """One near-flat 256 x 128 Newton solve, then its diagnostics."""

    strata = 6

    def draw(self, rng, stratum):
        vort = _still_family(rng, stratum)
        h = oracles.least_still_depth(vort["family"], vort["b"])
        return {"vorticity": vort,
                "period_L": float(rng.uniform(*FINE_PERIOD_BAND)),
                "amplitude": float(rng.uniform(*FINE_AMPLITUDE_BAND)) * h}

    def run(self, item):
        import stillwave as sw
        dist = sw.make_distribution(item["vorticity"])
        sol = sw.still_depth_family(dist)[0]
        state = sw.perturbed_state(sol, dist, item["period_L"], *FINE_GRID,
                                   item["amplitude"])
        res = sw.newton_solve(state, dist)
        return {"state": res.state, "depth": sol.depth,
                "diagnostics": sw.diagnostics_report(res.state, sol, dist)}

    def fingerprint(self, out) -> bytes:
        return out["state"].psi.tobytes() + out["state"].eta.tobytes()

    def check(self, item, out) -> list:
        bad = []
        vort = item["vorticity"]
        family, b = vort["family"], vort["b"]
        h = oracles.least_still_depth(family, b)
        state = out["state"]
        eta, psi = state.eta, state.psi
        dq = 1.0 / state.ny
        if np.max(np.abs(eta - h)) > 1e-9:
            bad.append(f"eta off the closed-form depth by "
                       f"{np.max(np.abs(eta - h)):.3g}")
        if np.any(psi[:, 0] != 0.0) or np.any(psi[:, -1] != 1.0):
            bad.append("psi boundary rows are not exactly 0 and 1")
        omega = oracles.omega(family, b, vort.get("R"))
        col_res = np.max(np.abs(oracles.column_residual(psi, eta[:, None],
                                                        omega)))
        if col_res > 1e-8:
            bad.append(f"discrete vertical equation residual {col_res:.3g}")
        U = oracles.still_profile(family, b, state.q[None, :] * eta[:, None])
        if U is not None and np.max(np.abs(psi - U)) > dq ** 2:
            bad.append(f"psi off the closed-form U by "
                       f"{np.max(np.abs(psi - U)):.3g} > dq^2")
        diag = out["diagnostics"]
        # the diagnostics measure psi against the continuous U: exact for
        # constant vorticity, whose U is quadratic, and a truncation gap of
        # order dq^2 in psi (dq^4 in the energy) for the other families
        exact = family == "constant"
        if diag.windowed_zeta > 1e-9:
            bad.append(f"windowed_zeta {diag.windowed_zeta:.3g}")
        if diag.energy > (1e-20 if exact else dq ** 4):
            bad.append(f"energy {diag.energy:.3g}")
        # the defect's left side is sqrt(max(zeta, 0)), zeta = depth - eta,
        # so a zeta at roundoff (1e-16) alone reads 1e-8
        sqrt_zeta = math.sqrt(max(float(np.max(out["depth"] - eta)), 0.0))
        if diag.bernoulli_defect > sqrt_zeta + (1e-9 if exact else dq ** 2):
            bad.append(f"bernoulli_defect {diag.bernoulli_defect:.3g} with "
                       f"sqrt(max zeta) {sqrt_zeta:.3g}")
        return bad


class Branch(Workload):
    """`stillwave dispersion` on a shear flow with one bifurcation root in
    [0, 5], then continuation off that root at 128 x 64, for one constant-
    and one linear-vorticity flow per item: the linear flows cost about a
    third more, and pairing them keeps every item the same mix."""

    strata = 2

    def draw(self, rng, stratum):
        return [self._flow(rng, family, b_bands[stratum], s_band)
                for family, (b_bands, s_band) in BRANCH_FLOWS.items()]

    @staticmethod
    def _flow(rng, family, b_band, s_band):
        while True:
            b = float(rng.uniform(*b_band))
            s = float(rng.uniform(*s_band))
            roots = oracles.dispersion_roots(family, b, s)
            if len(roots) == 1 and 0.25 < roots[0] < 4.75:
                break
        return {"config": {"vorticity": {"family": family, "b": b}, "s": s,
                           "k_min": 0.0, "k_max_scan": 5.0,
                           "scan_points": 201,
                           "samples": DISPERSION_SAMPLES},
                "root": roots[0],
                "amplitude": float(rng.uniform(0.008, 0.015))}

    def run(self, item):
        return [self._run_flow(flow) for flow in item]

    def _run_flow(self, flow):
        import stillwave as sw
        cfg = flow["config"]
        out = self._cli("dispersion", cfg)
        roots = json.loads(out["report"])["roots"]
        if len(roots) != 1:
            raise RuntimeError(f"dispersion found {len(roots)} roots, not 1")
        dist = sw.make_distribution(cfg["vorticity"])
        sol = sw.shear_solution(dist, cfg["s"])
        out["branch"] = sw.bifurcation_branch(
            sol, dist, roots[0], amplitude=flow["amplitude"],
            nx=BRANCH_GRID[0], ny=BRANCH_GRID[1])
        return out

    def fingerprint(self, out) -> bytes:
        return b"".join(o["report"] + o["branch"].state.eta.tobytes()
                        for o in out)

    def check(self, item, out) -> list:
        return [msg for flow, o in zip(item, out)
                for msg in self._check_flow(flow, o)]

    @staticmethod
    def _check_flow(flow, out) -> list:
        bad = []
        cfg = flow["config"]
        family, b = cfg["vorticity"]["family"], cfg["vorticity"]["b"]
        s, a = cfg["s"], flow["amplitude"]
        h, _ = oracles.shear_flow(family, b, s)
        if out["code"] != 0:
            bad.append(f"exit code {out['code']}")
        if out["echo"].encode("utf-8") != out["report"]:
            bad.append("printed report differs from the report file")
        rep = json.loads(out["report"])
        if abs(rep["h"] - h) > 1e-8:
            bad.append(f"depth {rep['h']!r} vs closed form {h!r}")
        ks = np.linspace(0.0, 5.0, DISPERSION_SAMPLES)
        got_k = np.array([p["k"] for p in rep["sigma"]])
        got = np.array([p["sigma"] for p in rep["sigma"]])
        if got_k.shape != ks.shape or np.max(np.abs(got_k - ks)) > 1e-15:
            bad.append("sigma samples are not at the configured k")
        else:
            want = oracles.dispersion_sigma(family, b, s, ks)
            # sigma grows like e^(5h); its IVP is good to ~1e-10 relative
            err = np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)))
            if err > 1e-8:
                bad.append(f"sigma off the closed form by {err:.3g} relative")
        want = flow["root"]
        if len(rep["roots"]) != 1 or abs(rep["roots"][0] - want) > 1e-8:
            bad.append(f"roots {rep['roots']} vs bisected {want!r}")
        res = out["branch"]
        eta = res.state.eta
        if not res.norms.max() < 1e-9:
            bad.append(f"branch residual {res.norms.max():.3g}")
        if abs(eta[0] - (h + a)) > 1e-9:
            bad.append(f"crest {eta[0]!r} vs h + a = {h + a!r}")
        if not np.max(np.abs(eta - h)) > a / 2:
            bad.append("branch is not wavy: max |eta - h| <= a/2")
        # the pinned crest alone also admits the raised flat state h + a
        if not eta[res.state.nx // 2] < h - a / 2:
            bad.append(f"trough {eta[res.state.nx // 2]!r} not below h - a/2")
        return bad


WORKLOADS = {"sweep": Sweep, "fine": Fine, "branch": Branch}
