"""Command-line interface: every computation as a subcommand.

All subcommands read a JSON config whose "vorticity" key is a family
descriptor for make_distribution, write a JSON report (sorted keys, so
identical configs byte-reproduce identical reports), and write a run
manifest carrying the config digest and output list. Timestamps appear
only in the manifest, never in reports.

Exit codes: 0 success; 2 when a hypothesis check or sweep concludes "not
applicable"; 1 on configuration or solver errors.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import hashlib
import json
import math
import sys
from datetime import datetime, timezone

import numpy as np

from . import __version__
from . import diagnostics as dg
from . import stream as st
from . import wavesolver as ws
from .errors import ConfigError, StillwaveError
from .vorticity import _is_number, make_distribution

__all__ = ["run", "main"]


def _load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path} must hold a JSON object")
    if "vorticity" not in cfg:
        raise ConfigError(f"config {path} lacks the 'vorticity' key")
    return cfg


def _canonical_digest(cfg: dict) -> str:
    blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def _sanitize(obj):
    """Make an object JSON-safe: dataclass instances to dicts of their
    fields, numpy scalars to python, non-finite floats to null (JSON has
    no Infinity)."""
    if dataclasses.is_dataclass(obj):
        return _sanitize(dataclasses.asdict(obj))
    if isinstance(obj, dict):
        return {str(k): _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _render(obj) -> str:
    """The JSON text of a report: sorted keys, so equal reports render
    to equal bytes."""
    return json.dumps(_sanitize(obj), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"


def _write_json(path: str, obj) -> str:
    """Write obj rendered to path and return the text written."""
    text = _render(obj)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
    return text


def _write_manifest(path: str, subcommand: str, cfg: dict,
                    outputs: list) -> None:
    manifest = {
        "subcommand": subcommand,
        "config_digest": _canonical_digest(cfg),
        "tool_version": __version__,
        "outputs": sorted(outputs),
        "created_utc": datetime.now(timezone.utc).isoformat(),
    }
    _write_json(path, manifest)


def _number(cfg: dict, key: str, default: float) -> float:
    v = cfg.get(key, default)
    if not _is_number(v):
        raise ConfigError(f"config '{key}' must be a finite number, got {v!r}")
    return float(v)


def _integer(cfg: dict, key: str, default: int) -> int:
    v = _number(cfg, key, default)
    if not v.is_integer():
        raise ConfigError(f"config '{key}' must be an integer, got {v!r}")
    return int(v)


def _count(cfg: dict, key: str, default: int, least: int) -> int:
    n = _integer(cfg, key, default)
    if n < least:
        raise ConfigError(f"config '{key}' must be at least {least}, got {n}")
    return n


def _number_list(cfg: dict, key: str, subcommand: str) -> list:
    vals = cfg.get(key)
    if not (isinstance(vals, list) and vals and all(map(_is_number, vals))):
        raise ConfigError(f"{subcommand} config needs '{key}' as a non-empty "
                          f"list of numbers")
    return vals


def _family_summary(dist, k_max: int):
    """The depths report of a distribution, and the still-depth family
    members it lists (empty when the family could not be enumerated)."""
    crit = st.critical_surface_speed(dist)
    summary = {"s0": crit.speed, "tau0": crit.maximiser,
               "degenerate": crit.degenerate, "h0": None, "family": [],
               "notes": []}
    try:
        summary["h0"] = st.least_still_depth(dist)
    except (st.NotStill, st.DivergentDepth) as exc:
        summary["notes"].append(f"{type(exc).__name__}: {exc}")
        return summary, []
    try:
        members = st.still_depth_family(dist, k_max)
    except StillwaveError as exc:
        summary["notes"].append(f"{type(exc).__name__}: {exc}")
        return summary, []
    for m in members:
        sign, k = m.branch
        summary["family"].append({"sign": sign, "k": k, "h": m.depth,
                                  "surface_speed": m.surface_speed,
                                  "still": m.still})
    return summary, members


def _resolve_solution(cfg: dict, dist) -> st.StreamSolution:
    """Pick the stream solution a config refers to.

    "s" selects the shear flow with that bed slope (still or not);
    otherwise "member" indexes the still-depth family sorted by depth
    (default 0, the least depth), with "k_max" bounding the enumeration.
    """
    if "s" in cfg:
        return st.shear_solution(dist, _number(cfg, "s", 0.0))
    member = _count(cfg, "member", 0, least=0)
    k_max = _count(cfg, "k_max", member, least=0)
    family = st.still_depth_family(dist, k_max)
    if member >= len(family):
        raise ConfigError(
            f"member {member} out of range; family has {len(family)} entries "
            f"for k_max={k_max}")
    return family[member]


def _write_csv(path: str, header: list, *columns) -> None:
    """Write the columns under a header row, each number as its repr."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows([repr(float(v)) for v in row] for row in zip(*columns))


def _profile_csv(path: str, sol: st.StreamSolution) -> None:
    ys = np.linspace(0.0, sol.depth, 257)
    _write_csv(path, ["y", "U", "Uy"], ys, sol.U(ys), sol.Uy(ys))


def _cmd_stream(cfg, dist, args, outputs):
    report, members = _family_summary(dist, _count(cfg, "k_max", 0, least=0))
    if "s" in cfg:
        s = _number(cfg, "s", 0.0)
        sol = st.shear_solution(dist, s)
        report["shear"] = {"s": s, "h": sol.depth,
                           "surface_speed": sol.surface_speed,
                           "still": sol.still}
        if args.csv:
            _profile_csv(args.csv, sol)
            outputs.append(args.csv)
    elif args.csv:
        if not members:
            raise ConfigError("no family member to dump; config has no 's' "
                              "and the family is empty")
        _profile_csv(args.csv, members[0])
        outputs.append(args.csv)
    return report, 0


def _cmd_depths(cfg, dist, args, outputs):
    return _family_summary(dist, _count(cfg, "k_max", 0, least=0))[0], 0


def _cmd_check(cfg, dist, args, outputs):
    from .hypotheses import check_hypotheses
    sol = _resolve_solution(cfg, dist)
    report = check_hypotheses(dist, sol, _number(cfg, "slope_bound", 1.0))
    return report, 0 if report.applicable else 2


def _cmd_solve(cfg, dist, args, outputs):
    sol = _resolve_solution(cfg, dist)
    period_L = _number(cfg, "period_L", 2.0)
    nx = _count(cfg, "nx", 64, least=4)
    ny = _count(cfg, "ny", 32, least=4)
    state0 = ws.perturbed_state(sol, dist, period_L, nx, ny,
                                _number(cfg, "amplitude", 0.0),
                                mode=_integer(cfg, "mode", 1))
    res = ws.newton_solve(
        state0, dist, tol=_number(cfg, "tol", ws.NEWTON_TOL),
        max_iter=_count(cfg, "max_iter", ws.MAX_NEWTON_ITER, least=0))
    report = {
        "converged": True,
        "iterations": res.iterations,
        "residual_norms": res.norms._asdict(),
        "max_zeta": float(np.max(np.abs(sol.depth - res.state.eta))),
        "r": res.state.r,
    }
    if args.state_out:
        _write_json(args.state_out, res.state)
        outputs.append(args.state_out)
        report["state_file"] = args.state_out
    if args.csv:
        _write_csv(args.csv, ["x", "eta"], res.state.x, res.state.eta)
        outputs.append(args.csv)
    return report, 0


def _cmd_sweep(cfg, dist, args, outputs):
    sol = _resolve_solution(cfg, dist)
    for key in ("amplitudes", "wavelengths"):
        _number_list(cfg, key, "sweep")
    rep = ws.nonexistence_sweep(
        sol, dist, cfg["amplitudes"], cfg["wavelengths"],
        slope_cap=_number(cfg, "slope_cap", 1.0),
        nx=_count(cfg, "nx", 64, least=4), ny=_count(cfg, "ny", 32, least=4),
        amplitude_cap=(_number(cfg, "amplitude_cap", 0.0)
                       if "amplitude_cap" in cfg else None),
        flat_tol=_number(cfg, "flat_tol", ws.FLAT_TOL))
    code = 2 if rep.verdict == ws.VERDICT_NOT_APPLICABLE else 0
    return rep, code


def _cmd_dispersion(cfg, dist, args, outputs):
    k_lo = _number(cfg, "k_min", 0.0)
    k_hi = _number(cfg, "k_max_scan", 5.0)
    if not k_lo < k_hi:
        raise ConfigError(
            f"dispersion config needs k_min < k_max_scan, got {k_lo!r} "
            f"and {k_hi!r}")
    scan_points = _count(cfg, "scan_points", 201, least=2)
    if "k_values" in cfg:
        ks = _number_list(cfg, "k_values", "dispersion")
    else:
        ks = np.linspace(k_lo, k_hi, _count(cfg, "samples", 21, least=1))
    scan = np.linspace(k_lo, k_hi, scan_points)
    sol = _resolve_solution(cfg, dist)
    # one integration serves the samples and the root scan
    sig, scan_sig = np.split(
        ws.dispersion_sigma(sol, dist, np.concatenate((ks, scan))), [len(ks)])
    sigma = [{"k": float(k), "sigma": float(v)} for k, v in zip(ks, sig)]
    roots = ws._polished_roots(sol, dist, scan, scan_sig)
    return {"h": sol.depth, "surface_speed": sol.surface_speed,
            "still": sol.still, "sigma": sigma,
            "roots": [float(r) for r in roots]}, 0


def _cmd_diagnose(cfg, dist, args, outputs):
    sol = _resolve_solution(cfg, dist)
    state_file = args.state or cfg.get("state_file")
    if not (state_file and isinstance(state_file, str)):
        raise ConfigError("diagnose needs a state: config 'state_file' or --state")
    try:
        with open(state_file, "r", encoding="utf-8") as fh:
            state = ws.WaveState.from_dict(json.load(fh))
    except OSError as exc:
        raise ConfigError(f"cannot read state {state_file}: {exc}") from exc
    except (json.JSONDecodeError, ValueError) as exc:
        raise ConfigError(f"bad state file {state_file}: {exc}") from exc
    delta = None if cfg.get("delta") is None else _number(cfg, "delta", 0.0)
    report = dg.diagnostics_report(state, sol, dist, t=_number(cfg, "t", 0.0),
                                   delta=delta)
    return report, 0


_HANDLERS = {
    "stream": _cmd_stream,
    "depths": _cmd_depths,
    "check": _cmd_check,
    "solve": _cmd_solve,
    "sweep": _cmd_sweep,
    "dispersion": _cmd_dispersion,
    "diagnose": _cmd_diagnose,
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parsing keeps no state
    in it, and building it costs about a millisecond."""
    parser = argparse.ArgumentParser(
        prog="stillwave",
        description="Steady water waves with vorticity: stream solutions, "
                    "hypothesis checks, free-boundary solves, diagnostics.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name in _HANDLERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="JSON config path")
        p.add_argument("--out", default=None, help="report JSON path")
        p.add_argument("--manifest", default=None, help="manifest JSON path")
        if name in ("stream", "solve"):
            p.add_argument("--csv", default=None, help="CSV dump path")
        if name == "solve":
            p.add_argument("--state-out", dest="state_out", default=None,
                           help="write the solved WaveState as JSON")
        if name == "diagnose":
            p.add_argument("--state", default=None,
                           help="WaveState JSON (overrides config state_file)")
    return parser


def run(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    out = args.out or f"{args.subcommand}_report.json"
    manifest = args.manifest or f"{args.subcommand}_manifest.json"
    try:
        cfg = _load_config(args.config)
        outputs = [out]
        report, code = _HANDLERS[args.subcommand](
            cfg, make_distribution(cfg["vorticity"]), args, outputs)
        text = _write_json(out, report)
        _write_manifest(manifest, args.subcommand, cfg, outputs)
        sys.stdout.write(text)
        return code
    except (StillwaveError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
