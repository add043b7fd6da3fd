"""End-to-end CLI tests through cli.run with temporary files."""

import csv
import hashlib
import json
import math
import warnings
from pathlib import Path

import numpy as np
import pytest

from stillwave import cli, stream, wavesolver
from stillwave.vorticity import make_distribution

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def _write(tmp_path, name, cfg):
    p = tmp_path / name
    p.write_text(json.dumps(cfg), encoding="utf-8")
    return str(p)


def _run(tmp_path, sub, cfg, extra=(), name="cfg.json"):
    cfg_path = _write(tmp_path, name, cfg)
    out = str(tmp_path / f"{sub}_report.json")
    man = str(tmp_path / f"{sub}_manifest.json")
    code = cli.run([sub, "--config", cfg_path, "--out", out,
                    "--manifest", man, *extra])
    report = None
    if Path(out).exists():
        report = json.loads(Path(out).read_text(encoding="utf-8"))
    return code, report, out, man


LINEAR = {"vorticity": {"family": "linear", "b": 1.0}}
B2 = {"vorticity": {"family": "constant", "b": 2.0}}
BM1 = {"vorticity": {"family": "constant", "b": -1.0}}


class TestDepthsAndStream:
    def test_depths_linear(self, tmp_path):
        cfg = dict(LINEAR, k_max=1)
        code, report, _, _ = _run(tmp_path, "depths", cfg)
        assert code == 0
        assert report["h0"] == pytest.approx(math.pi / 2.0, abs=1e-8)
        assert len(report["family"]) == 4
        assert report["s0"] == pytest.approx(1.0, abs=1e-10)

    def test_stream_with_shear_csv(self, tmp_path):
        cfg = dict(BM1, s=0.0)
        csv_path = str(tmp_path / "profile.csv")
        code, report, _, _ = _run(tmp_path, "stream", cfg,
                                  extra=["--csv", csv_path])
        assert code == 0
        assert report["shear"]["h"] == pytest.approx(math.sqrt(2.0), abs=1e-7)
        assert report["shear"]["still"] is False
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["y", "U", "Uy"]
        assert len(rows) == 258
        assert float(rows[-1][1]) == pytest.approx(1.0, abs=1e-7)

    def test_depths_reports_failure_note(self, tmp_path):
        cfg = {"vorticity": {"family": "linear", "b": -1.0}}
        code, report, _, _ = _run(tmp_path, "depths", cfg)
        assert code == 0
        assert report["h0"] is None
        assert report["notes"]


class TestCheck:
    def test_first_member_applicable(self, tmp_path):
        code, report, _, _ = _run(tmp_path, "check", dict(B2))
        assert code == 0
        assert report["applicable"] is True

    def test_reflection_not_applicable(self, tmp_path):
        cfg = dict(LINEAR, member=1, k_max=1)
        code, report, _, _ = _run(tmp_path, "check", cfg)
        assert code == 2
        assert report["applicable"] is False


class TestSolveAndDiagnose:
    def test_solve_then_diagnose(self, tmp_path):
        state_path = str(tmp_path / "state.json")
        cfg = dict(B2, nx=32, ny=16, amplitude=0.01)
        code, report, _, _ = _run(tmp_path, "solve", cfg,
                                  extra=["--state-out", state_path])
        assert code == 0
        assert report["max_zeta"] < 1e-8
        assert report["residual_norms"]["bernoulli"] < 1e-10

        code2, rep2, _, _ = _run(tmp_path, "diagnose", dict(B2),
                                 extra=["--state", state_path],
                                 name="diag.json")
        assert code2 == 0
        assert rep2["amp_sup"] < 1e-8
        assert rep2["bernoulli_defect"] < 1e-6

    def test_state_flag_overrides_config_state_file(self, tmp_path):
        state_path = str(tmp_path / "state.json")
        code, _, _, _ = _run(tmp_path, "solve", dict(B2, nx=16, ny=8),
                             extra=["--state-out", state_path])
        assert code == 0
        cfg = dict(B2, state_file=str(tmp_path / "missing.json"))
        code, report, _, _ = _run(tmp_path, "diagnose", cfg,
                                  extra=["--state", state_path],
                                  name="diag.json")
        assert code == 0
        assert report["amp_sup"] < 1e-8

    def test_diagnose_at_a_tiny_decay_rate(self, tmp_path):
        # the periodic copy weight is summed in closed form, so a decay
        # rate of 1e-9 neither exhausts memory nor overflows
        state_path = str(tmp_path / "state.json")
        code, _, _, _ = _run(tmp_path, "solve", dict(B2, nx=64, ny=16),
                             extra=["--state-out", state_path])
        assert code == 0
        code, report, _, _ = _run(tmp_path, "diagnose", dict(B2, delta=1e-9),
                                  extra=["--state", state_path],
                                  name="diag.json")
        assert code == 0
        assert report["delta"] == 1e-9 and math.isfinite(report["energy"])

    def test_unreachable_tolerance_fails_first(self, tmp_path, capsys):
        code, report, _, _ = _run(tmp_path, "solve",
                                  dict(B2, nx=16, ny=12, amplitude=0.01,
                                       tol=0))
        assert code == 1 and report is None
        assert capsys.readouterr().err.startswith(
            "error: tol must be positive and finite, got 0.0")

    def test_diagnose_without_state_fails(self, tmp_path):
        code, report, _, _ = _run(tmp_path, "diagnose", dict(B2))
        assert code == 1
        assert report is None

    @pytest.mark.parametrize("state", [
        [1, 2],
        {"period_L": 2.0, "nx": None, "ny": 4, "r": 0.5, "eta": [1.0],
         "psi": [[0.0]]},
    ])
    def test_diagnose_malformed_state_fails(self, tmp_path, capsys, state):
        state_path = _write(tmp_path, "state.json", state)
        code, report, _, _ = _run(tmp_path, "diagnose", dict(B2),
                                  extra=["--state", state_path])
        assert code == 1
        assert report is None
        assert "error: bad state file" in capsys.readouterr().err

    def test_surface_csv(self, tmp_path):
        cfg = dict(B2, nx=16, ny=12)
        csv_path = str(tmp_path / "surface.csv")
        code, _, _, _ = _run(tmp_path, "solve", cfg, extra=["--csv", csv_path])
        assert code == 0
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "eta"]
        assert len(rows) == 17


class TestSweep:
    def test_consistent_exit_zero(self, tmp_path):
        cfg = dict(B2, amplitudes=[0.01], wavelengths=[2.0], nx=32, ny=16)
        code, report, _, _ = _run(tmp_path, "sweep", cfg)
        assert code == 0
        assert report["verdict"].startswith("consistent")

    def test_not_applicable_exit_two(self, tmp_path):
        cfg = dict(BM1, s=0.0, amplitudes=[0.01], wavelengths=[2.0],
                   nx=32, ny=16)
        code, report, _, _ = _run(tmp_path, "sweep", cfg)
        assert code == 2
        assert report["hypothesis"]["applicable"] is False

    def test_reports_reproduce_bytewise(self, tmp_path):
        cfg = dict(B2, amplitudes=[0.01, 0.02], wavelengths=[2.0],
                   nx=32, ny=16)
        cfg_path = _write(tmp_path, "cfg.json", cfg)
        blobs = []
        digests = []
        for tag in ("one", "two"):
            out = str(tmp_path / f"rep_{tag}.json")
            man = str(tmp_path / f"man_{tag}.json")
            assert cli.run(["sweep", "--config", cfg_path, "--out", out,
                            "--manifest", man]) == 0
            blobs.append(Path(out).read_bytes())
            digests.append(json.loads(Path(man).read_text())["config_digest"])
        assert blobs[0] == blobs[1]
        assert digests[0] == digests[1]

    def test_thread_settings_are_ignored(self, tmp_path, monkeypatch):
        """The sweep has no thread settings: a 'threads' key and the
        STILLWAVE_THREADS variable are ignored like any unknown key."""
        cfg = dict(B2, amplitudes=[0.01, 0.02], wavelengths=[2.0, 4.0],
                   nx=16, ny=8)
        code, _, out, _ = _run(tmp_path, "sweep", cfg)
        assert code == 0
        plain = Path(out).read_bytes()
        monkeypatch.setenv("STILLWAVE_THREADS", "x")
        code, _, out, _ = _run(tmp_path, "sweep", dict(cfg, threads=3),
                               name="threads.json")
        assert code == 0
        assert Path(out).read_bytes() == plain

    def test_shipped_config_takes_the_exact_newton_path(self, tmp_path,
                                                         monkeypatch):
        # with no chord step accepted short of the tolerance every case
        # falls back to exact Newton, so the shipped sweep runs the SuperLU
        # factor end to end whatever the chord rule accepts
        count = []

        def counted(*args, **kwargs):
            count.append(args)
            return splu(*args, **kwargs)
        splu = wavesolver.splu
        monkeypatch.setattr(wavesolver, "splu", counted)
        monkeypatch.setattr(wavesolver, "CHORD_CONTRACTION", 0.0)
        out = str(tmp_path / "report.json")
        assert cli.run(["sweep", "--config",
                        str(CONFIG_DIR / "quadratic_b0948_sweep.json"),
                        "--out", out, "--manifest",
                        str(tmp_path / "manifest.json")]) == 0
        report = json.loads(Path(out).read_text(encoding="utf-8"))
        assert report["verdict"].startswith("consistent")
        assert len(count) >= len(report["cases"])

    def test_missing_grid_keys_fail(self, tmp_path):
        code, report, _, _ = _run(tmp_path, "sweep", dict(B2))
        assert code == 1

    @pytest.mark.parametrize("amplitudes, wavelengths", [
        (0.01, [2.0]), ([0.01], 2.0), (["0.01"], [2.0]), ([], [2.0]),
    ])
    def test_malformed_grid_fails(self, tmp_path, capsys, amplitudes,
                                  wavelengths):
        cfg = dict(B2, amplitudes=amplitudes, wavelengths=wavelengths,
                   nx=32, ny=16)
        code, report, _, _ = _run(tmp_path, "sweep", cfg)
        assert code == 1
        assert report is None
        assert "as a non-empty list of numbers" in capsys.readouterr().err


class TestDispersion:
    def test_root_reported(self, tmp_path):
        cfg = dict(BM1, s=0.0, k_values=[0.5, 1.5], k_max_scan=2.0,
                   scan_points=41)
        code, report, _, _ = _run(tmp_path, "dispersion", cfg)
        assert code == 0
        assert len(report["roots"]) == 1
        assert report["roots"][0] == pytest.approx(1.1057421457577874,
                                                   abs=1e-8)
        signs = [s["sigma"] for s in report["sigma"]]
        assert signs[0] < 0 < signs[1]

    def test_samples_come_from_one_sigma_call(self, tmp_path):
        # the report's samples are those of one array call on the samples
        # followed by the scan nodes, bit for bit
        cfg = dict(BM1, s=0.0, samples=7, k_max_scan=3.0, scan_points=11)
        code, report, _, _ = _run(tmp_path, "dispersion", cfg)
        assert code == 0
        dist = make_distribution(BM1["vorticity"])
        ks = np.linspace(0.0, 3.0, 7)
        want = wavesolver.dispersion_sigma(
            stream.shear_solution(dist, 0.0), dist,
            np.concatenate((ks, np.linspace(0.0, 3.0, 11))))[:7]
        assert [s["k"] for s in report["sigma"]] == ks.tolist()
        assert [s["sigma"] for s in report["sigma"]] == want.tolist()

    def test_non_finite_sigma_fails(self, tmp_path, capsys):
        # the modes of k = 700 overflow on h = 1 while the integration
        # reports success
        code, report, _, _ = _run(tmp_path, "dispersion",
                                  dict(B2, k_values=[1.0, 700.0]))
        assert code == 1
        assert report is None
        assert "not finite at k = [700.0]" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [
        {"k_values": 3}, {"k_values": []}, {"k_values": [0.5, "1.5"]},
        {"k_values": [0.5, None]}, {"scan_points": 1},
        {"k_min": 2.0, "k_max_scan": 2.0}, {"k_min": 3.0, "k_max_scan": 1.0},
        {"k_min": None}, {"k_max_scan": "5"}, {"samples": None},
        {"samples": 0}, {"s": None},
    ])
    def test_malformed_config_fails(self, tmp_path, capsys, bad):
        code, report, _, _ = _run(tmp_path, "dispersion",
                                  {**BM1, "s": 0.0, **bad})
        assert code == 1
        assert report is None
        assert capsys.readouterr().err.startswith("error: ")


class TestPlumbing:
    @pytest.mark.parametrize("sub, cfg", [
        # k h beyond about 709 overflows the unnormalised modes
        ("dispersion", dict(B2, k_max_scan=800.0)),
        ("stream", {"vorticity": {"family": "constant", "b": -1e200},
                    "s": 0.5}),
    ], ids=["dispersion", "stream"])
    def test_integrator_failure_prints_only_the_error(self, tmp_path, capsys,
                                                      sub, cfg):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, report, _, _ = _run(tmp_path, sub, cfg)
        assert code == 1 and report is None
        assert caught == []
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "integrat" in err
        assert err.count("\n") == 1 and err.endswith("\n")

    def test_one_parser_serves_every_run(self, tmp_path):
        # two subcommands in one process parse with one parser and write
        # the reports that each writes from a freshly built parser
        cfg = dict(LINEAR, k_max=1)
        cli._build_parser.cache_clear()
        shared = [_run(tmp_path, sub, cfg)[1] for sub in ("depths", "check")]
        assert cli._build_parser.cache_info()[:2] == (1, 1)  # hits, misses
        for sub, report in zip(("depths", "check"), shared):
            cli._build_parser.cache_clear()
            assert _run(tmp_path, sub, cfg)[1] == report

    def test_manifest_digest_matches_canonical_hash(self, tmp_path):
        cfg = dict(LINEAR, k_max=0)
        code, _, out, man = _run(tmp_path, "depths", cfg)
        assert code == 0
        manifest = json.loads(Path(man).read_text(encoding="utf-8"))
        blob = json.dumps(cfg, sort_keys=True, separators=(",", ":"))
        assert manifest["config_digest"] == hashlib.sha256(
            blob.encode()).hexdigest()
        assert out in manifest["outputs"]
        assert manifest["tool_version"]
        assert "created_utc" in manifest

    def test_sanitize_rules(self):
        out = cli._sanitize({"a": np.float64(2.5), "b": math.inf,
                             "c": np.arange(3), "d": np.bool_(True),
                             "e": (1, 2)})
        assert out == {"a": 2.5, "b": None, "c": [0, 1, 2], "d": True,
                       "e": [1, 2]}

    def test_config_errors_exit_one(self, tmp_path):
        assert cli.run(["depths", "--config", str(tmp_path / "nope.json"),
                        "--out", str(tmp_path / "o.json"),
                        "--manifest", str(tmp_path / "m.json")]) == 1
        code, _, _, _ = _run(tmp_path, "depths", {"nothing": 1})
        assert code == 1
        code, _, _, _ = _run(tmp_path, "depths",
                             {"vorticity": {"family": "styrofoam"}})
        assert code == 1
        code, _, _, _ = _run(tmp_path, "check", dict(B2, member=7))
        assert code == 1

    @pytest.mark.parametrize("sub, bad", [
        ("solve", {"nx": None}), ("solve", {"period_L": "2"}),
        ("solve", {"max_iter": [3]}), ("check", {"member": [1]}),
        ("check", {"slope_bound": None}), ("stream", {"s": None}),
        ("depths", {"k_max": None}), ("sweep", {"amplitude_cap": "x"}),
        ("sweep", {"flat_tol": 0}), ("diagnose", {"t": None}),
        ("diagnose", {"delta": "x"}), ("solve", {"nx": 64.7}),
        ("solve", {"max_iter": 0.5}), ("solve", {"amplitude": 0.01, "mode": 1.5}),
        ("sweep", {"flat_tol": -1.0}), ("depths", {"k_max": 0.5}),
        ("depths", {"vorticity": {"family": "constant", "b": None}}),
    ])
    def test_malformed_numeric_field_fails(self, tmp_path, capsys, sub, bad):
        extra = []
        if sub == "diagnose":
            from stillwave.stream import still_depth_family
            from stillwave.vorticity import ConstantVorticity
            from stillwave.wavesolver import flat_state
            dist = ConstantVorticity(b=2.0)
            state = flat_state(still_depth_family(dist)[0], dist, 2.0, 8, 6)
            state_path = tmp_path / "state.json"
            state_path.write_text(cli._render(state), encoding="utf-8")
            extra = ["--state", str(state_path)]
        cfg = {**B2, "amplitudes": [0.01], "wavelengths": [2.0], "nx": 16,
               "ny": 8, **bad}
        code, report, _, _ = _run(tmp_path, sub, cfg, extra=extra)
        assert code == 1
        assert report is None
        assert capsys.readouterr().err.startswith("error: ")

    def test_version_flag(self):
        with pytest.raises(SystemExit) as exc:
            cli.run(["--version"])
        assert exc.value.code == 0

    @pytest.mark.parametrize("config", sorted(
        p.name for p in CONFIG_DIR.glob("*.json")))
    def test_echo_equals_report_file(self, tmp_path, capsys, config):
        # _HANDLERS lists solve before diagnose, which reads solve's state
        state = str(tmp_path / "state.json")
        extra = {"solve": ["--state-out", state],
                 "diagnose": ["--state", state]}
        for sub in cli._HANDLERS:
            out = tmp_path / f"{sub}_report.json"
            code = cli.run([sub, "--config", str(CONFIG_DIR / config),
                            "--out", str(out),
                            "--manifest", str(tmp_path / "manifest.json"),
                            *extra.get(sub, [])])
            echo = capsys.readouterr().out
            if code == 1:
                assert echo == "" and not out.exists()
            else:
                assert echo.encode("utf-8") == out.read_bytes()

    def test_shipped_configs_parse(self, tmp_path):
        from stillwave.vorticity import make_distribution
        paths = sorted(CONFIG_DIR.glob("*.json"))
        assert paths
        for p in paths:
            cfg = json.loads(p.read_text(encoding="utf-8"))
            assert "vorticity" in cfg
            make_distribution(cfg["vorticity"])
