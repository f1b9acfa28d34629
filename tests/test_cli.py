import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from polybloch import oracle
from polybloch.cli import main
from polybloch.config import _SCHEMA, ExperimentConfig
from polybloch.series import known_part_sequence
from reference_path_sums import reference_coefficient

REPO = Path(__file__).resolve().parents[1]

TWO_PI = 2 * np.pi

BASE_CONFIG = f"""\
lattice:
  basis: [[{TWO_PI}, 0.0], [0.0, {TWO_PI}]]
operator:
  degree: 1
  smoothness: 45.0
potential:
  coefficients:
    - {{n: [1, 0], re: 0.1, im: 0.0}}
    - {{n: [-1, 0], re: 0.1, im: 0.0}}
cascade:
  mode: scaled
  rho: [10.0]
  v_thresholds: [2.0, 4.0, 8.0]
  pool_radius: 1.2
  known_order: 2
experiment:
  seed: 7
  output_dir: out
"""


def write_config(tmp_path, extra="", base=BASE_CONFIG):
    path = tmp_path / "exp.yaml"
    path.write_text(base + extra)
    return path


class TestParams:
    def test_theory_values_printed(self, tmp_path, capsys):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(f"""\
lattice:
  basis: [[{TWO_PI}, 0.0], [0.0, {TWO_PI}]]
operator:
  degree: 1
  smoothness: 45.0
potential:
  coefficients: []
cascade:
  mode: theory
  rho: [20.0]
experiment:
  seed: 0
  output_dir: out
""")
        assert main(["params", "-c", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "m = 13" in out
        assert "k1 = 10" in out
        assert "p1 = 15" in out
        assert out.count("[PASS]") == 7
        assert "[FAIL]" not in out
        payload = json.loads((tmp_path / "out" / "params.json").read_text())
        assert payload["result"][0]["m"] == 13

    def test_violation_is_named(self, tmp_path, capsys):
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(f"""\
lattice:
  basis: [[{TWO_PI}, 0.0], [0.0, {TWO_PI}]]
operator:
  degree: 1
  smoothness: 30.0
potential:
  coefficients: []
cascade:
  mode: theory
  rho: [20.0]
""")
        assert main(["params", "-c", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert "k1" in err


class TestClassifyCommand:
    def test_json_verdicts(self, tmp_path):
        cfg = write_config(tmp_path, "classify:\n  points: [[10.0, 0.01], [6.1, 4.8]]\n")
        assert main(["classify", "-c", str(cfg)]) == 0
        payload = json.loads((tmp_path / "out" / "classify.json").read_text())
        verdicts = payload["result"]["verdicts"]
        assert verdicts[0]["level"] == 1
        assert verdicts[1]["level"] == 0
        assert "margins" in verdicts[0]


def test_json_artifacts_report_the_potential_one_norm(tmp_path):
    # ||q||_1 of the shipped cosine pair (0.1 at +-(1, 0)) sits next to the config
    # hash; a config without [potential] reports none
    shipped = REPO / "configs" / "cosine_sweep.yaml"
    assert main(["params", "-c", str(shipped), "-o", str(tmp_path / "shipped")]) == 0
    assert json.loads((tmp_path / "shipped" / "params.json").read_text())["potential_one_norm"] == 0.2
    base = BASE_CONFIG[:BASE_CONFIG.index("potential:")] + BASE_CONFIG[BASE_CONFIG.index("cascade:"):]
    assert main(["params", "-c", str(write_config(tmp_path, base=base))]) == 0
    assert "potential_one_norm" not in json.loads((tmp_path / "out" / "params.json").read_text())


class TestVerifyCommand:
    def test_zero_potential_zero_errors(self, tmp_path):
        base = BASE_CONFIG.replace(
            """potential:
  coefficients:
    - {n: [1, 0], re: 0.1, im: 0.0}
    - {n: [-1, 0], re: 0.1, im: 0.0}""",
            "potential:\n  coefficients: []",
        ).replace("smoothness: 45.0", "smoothness: 9.0")
        cfg = write_config(tmp_path, "verify:\n  direction: [0.78, 0.6258]\n  orders: [1, 2]\n", base=base)
        assert main(["verify", "-c", str(cfg)]) == 0
        lines = (tmp_path / "out" / "verify.csv").read_text().splitlines()
        assert lines[0].startswith("# config_sha256=")
        assert lines[1].startswith("rho,k,")
        for line in lines[2:]:
            error = float(line.split(",")[4])
            assert error < 1e-12

    def test_byte_identical_rerun(self, tmp_path):
        base = BASE_CONFIG.replace("smoothness: 45.0", "smoothness: 9.0")
        cfg = write_config(tmp_path, "verify:\n  direction: [0.78, 0.6258]\n  orders: [1, 2]\n", base=base)
        assert main(["verify", "-c", str(cfg)]) == 0
        first = (tmp_path / "out" / "verify.csv").read_bytes()
        first_json = (tmp_path / "out" / "verify.json").read_bytes()
        assert main(["verify", "-c", str(cfg)]) == 0
        assert (tmp_path / "out" / "verify.csv").read_bytes() == first
        assert (tmp_path / "out" / "verify.json").read_bytes() == first_json

    def test_verify_diagnostics(self, tmp_path):
        cfg = write_config(tmp_path, "verify:\n  direction: [0.78, 0.6258]\n  orders: [1, 2]\n")
        assert main(["verify", "-c", str(cfg)]) == 0
        (diag,) = json.loads((tmp_path / "out" / "verify.json").read_text())["result"]["diagnostics"]
        assert diag["rho"] == 10.0
        assert 0 < 10 * diag["pairs_solved"] < diag["basis_size"] < diag["refined_basis_size"]
        # one tracked pair per window, and no dense fallback
        assert diag["eigensolver"] == "tracked" and diag["pairs_solved"] == 2
        assert diag["tracking_refused"] is None
        assert diag["real_symmetric"] is True  # the cosine pair is its own even translate
        # Davidson steps per window: the refined window starts from the inner window's pair
        assert len(diag["track_steps"]) == 2 and 1 <= diag["track_steps"][1] <= 2 <= diag["track_steps"][0]
        assert 0 <= diag["certificate_move"] < 1e-9
        assert 0 < diag["worst_residual"] < 1e-8

    def test_verify_diagnostics_of_the_dense_fallback(self, tmp_path, monkeypatch):
        # with no Davidson step allowed, tracking is refused and both windows
        # (81 and 177 waves at smoothness 9) are solved in full by dense eigh
        monkeypatch.setattr(oracle, "_TRACK_STEPS", 0)
        base = BASE_CONFIG.replace("smoothness: 45.0", "smoothness: 9.0")
        cfg = write_config(tmp_path, "verify:\n  direction: [0.78, 0.6258]\n  orders: [1, 2]\n", base=base)
        assert main(["verify", "-c", str(cfg)]) == 0
        (diag,) = json.loads((tmp_path / "out" / "verify.json").read_text())["result"]["diagnostics"]
        assert (diag["eigensolver"], diag["tracking_refused"], diag["track_steps"]) == ("dense", "convergence", [0])
        assert diag["real_symmetric"] is True
        assert diag["basis_size"] == 81 and diag["refined_basis_size"] == 177
        assert diag["pairs_solved"] == diag["basis_size"] + diag["refined_basis_size"]
        assert "inertia_count" not in diag and "dense_fallback_reason" not in diag
        assert 0 <= diag["certificate_move"] < 1e-9
        assert 0 < diag["worst_residual"] < 1e-8


class TestOtherCommands:
    def test_predict(self, tmp_path):
        cfg = write_config(tmp_path, "predict:\n  centers: [[5.3, 4.2]]\n  order: 2\n")
        assert main(["predict", "-c", str(cfg)]) == 0
        payload = json.loads((tmp_path / "out" / "predict.json").read_text())
        row = payload["result"][0]
        assert row["f_values"][1] == pytest.approx(0.1**2 * (1 / 9.6 - 1 / 11.6), rel=1e-9)

    def test_resonant_check(self, tmp_path):
        cfg = write_config(
            tmp_path,
            "resonant_check:\n  points: [[0.5, 10.0]]\n  window_radius: 8.0\n",
            base=BASE_CONFIG.replace("re: 0.1", "re: 0.2").replace("known_order: 2\n", "known_order: 2\n  a_radius: 1.2\n"),
        )
        assert main(["resonant-check", "-c", str(cfg)]) == 0
        payload = json.loads((tmp_path / "out" / "resonant_check.json").read_text())
        row = payload["result"][0]
        assert row["k"] == 1
        assert row["deviation"] < 0.02
        assert row["deviation"] <= row["diagnostics"]["tail_coupling_bound"]
        csv_text = (tmp_path / "out" / "resonant_check.csv").read_text()
        assert "v,k,directions,b_k,j,lambda_j,Lambda_N,deviation" in csv_text

    def test_simple_check(self, tmp_path):
        cfg = write_config(tmp_path, "simple_check:\n  points: [[7.96, 6.05]]\n")
        assert main(["simple-check", "-c", str(cfg)]) == 0
        payload = json.loads((tmp_path / "out" / "simple_check.json").read_text())
        assert isinstance(payload["result"][0]["member"], bool)

    def test_simple_check_byte_identical_rerun(self, tmp_path):
        # the shipped config's two points have four resonant (block) competitors
        args = ["simple-check", "-c", str(REPO / "configs" / "cosine_sweep.yaml"), "-o", str(tmp_path)]
        assert main(args) == 0
        first = (tmp_path / "simple_check.json").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "simple_check.json").read_bytes() == first
        margins = [m for row in json.loads(first)["result"] for m in row["margins"]]
        blocks = [m["diagnostics"] for m in margins if m["kind"] == "block"]
        assert len(blocks) == 4
        assert all(d == {"eigensolver": "sparse", "dense_fallback_reason": None, "inertia_count": 0,
                         "block_size": 5, "real_symmetric": True, "track_steps": 3} for d in blocks)
        assert all(m["diagnostics"] is None for m in margins if m["kind"] == "known-part")

    def test_bloch(self, tmp_path):
        cfg = write_config(tmp_path, "bloch:\n  centers: [[5.3, 4.2]]\n  order: 2\n  window_radius: 8.0\n")
        assert main(["bloch", "-c", str(cfg)]) == 0
        payload = json.loads((tmp_path / "out" / "bloch.json").read_text())
        assert payload["result"][0]["weight"] > 0.99

    def test_bloch_walks_the_higher_orders_against_the_known_part(self, tmp_path):
        # order 3 reads A_2, walked against |v|^{2l} + F_K (K = known_order 2): each row's
        # predicted total is the chains' A_1 + A_2 at known_rel = F_K, bit for bit
        records = "".join(f"    - {{n: [{a}, {b}], re: 0.1, im: 0.0}}\n"
                          for a, b in ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1)))
        base = BASE_CONFIG.replace("    - {n: [1, 0], re: 0.1, im: 0.0}\n    - {n: [-1, 0], re: 0.1, im: 0.0}\n",
                                   records)
        cfg = write_config(tmp_path, "bloch:\n  centers: [[15.6, 12.5]]\n  order: 3\n  window_radius: 8.0\n",
                           base=base)
        assert main(["bloch", "-c", str(cfg)]) == 0
        (row,) = json.loads((tmp_path / "out" / "bloch.json").read_text())["result"]
        config = ExperimentConfig.load(cfg)
        q, v = config.potential(), np.array([15.6, 12.5])
        assert len(q.support) == 6
        cas = config.cascade(float(np.linalg.norm(v)))
        f_rel = known_part_sequence(v, 1, q, cas, k_max=cas.known_order).known_part_rel()
        assert f_rel != 0.0
        gamma0, t = config.lattice.split(v)
        x = config.lattice.embed(gamma0.coords) + t
        for entry in row["coefficients"]:
            total = sum(reference_coefficient(x, 1, q, entry["offset"], k, f_rel)[0] for k in (1, 2))
            assert entry["predicted_total"] == [total.real, total.imag]

    def test_bloch_tracks_the_dominant_pair_without_a_dense_window_solve(self, tmp_path, monkeypatch):
        # the pair comes from track_dominant: the only eigh calls are Davidson's
        # Rayleigh-Ritz solves, of at most _TRACK_STEPS rows, and no dense window eigh
        sizes = []
        eigh = np.linalg.eigh
        monkeypatch.setattr(np.linalg, "eigh", lambda a, *args, **kw: (sizes.append(len(a)), eigh(a, *args, **kw))[1])
        args = ["bloch", "-c", str(REPO / "configs" / "cosine_sweep.yaml"), "-o", str(tmp_path)]
        assert main(args) == 0
        assert sizes and max(sizes) <= oracle._TRACK_STEPS
        (row,) = json.loads((tmp_path / "bloch.json").read_text())["result"]
        diag = row["diagnostics"]
        assert diag["eigensolver"] == "tracked" and diag["tracking_refused"] is None
        assert diag["real_symmetric"] is True
        assert diag["pairs_solved"] == 2 and len(diag["track_steps"]) == 2
        assert 0 <= diag["certificate_move"] < 1e-9 and 0 < diag["worst_residual"] < 1e-8
        assert row["weight"] > 0.99

    def test_bands_and_gaps(self, tmp_path):
        extra = (
            "bands:\n  grid: [8, 8]\n  n_bands: 12\n  basis_radius: 5.0\n"
            "gaps:\n  grid: [8, 8]\n  n_bands: 30\n  e_min: 0.0\n  basis_radius: 6.5\n"
        )
        cfg = write_config(tmp_path, extra)
        assert main(["bands", "-c", str(cfg)]) == 0
        assert main(["gaps", "-c", str(cfg)]) == 0
        bands = json.loads((tmp_path / "out" / "bands.json").read_text())
        assert len(bands["result"]["band_min"]) == 12
        assert set(bands["result"]["diagnostics"]) == {"solved_points", "symmetry_order", "real_symmetric",
                                                       "probe_move", "corner_move", "continuity_report"}
        assert bands["result"]["diagnostics"]["real_symmetric"] is True  # the cosine pair is its own even translate
        gaps = json.loads((tmp_path / "out" / "gaps.json").read_text())
        assert gaps["result"]["stable"] in (True, False)

    def test_gaps_byte_identical_rerun(self, tmp_path):
        extra = "gaps:\n  grid: [8, 8]\n  n_bands: 30\n  e_min: 0.0\n  basis_radius: 6.5\n"
        cfg = write_config(tmp_path, extra)
        assert main(["gaps", "-c", str(cfg)]) == 0
        first = (tmp_path / "out" / "gaps.json").read_bytes()
        assert main(["gaps", "-c", str(cfg)]) == 0
        assert (tmp_path / "out" / "gaps.json").read_bytes() == first
        diagnostics = json.loads(first)["result"]["diagnostics"]
        # cosine_pair along (1, 0): the four reflections x -> +-x, y -> +-y
        assert diagnostics["symmetry_order"] == 4
        assert 0 < diagnostics["solved_points"] < 16 * 16
        assert diagnostics["continuity_report"] > 0

    def test_isoenergetic(self, tmp_path):
        cfg = write_config(tmp_path, "isoenergetic:\n  rays: [[0.78, 0.6258]]\n")
        assert main(["isoenergetic", "-c", str(cfg)]) == 0
        payload = json.loads((tmp_path / "out" / "isoenergetic.json").read_text())
        root = payload["result"][0]["roots"][0]
        assert root["skipped"] is None
        assert root["radius"] == pytest.approx(10.0, abs=0.01)

    def test_measure(self, tmp_path):
        cfg = write_config(tmp_path, "measure:\n  n_samples: 1000\n")
        assert main(["measure", "-c", str(cfg)]) == 0
        payload = json.loads((tmp_path / "out" / "measure.json").read_text())
        fr = payload["result"][0]["fractions"]
        assert sum(fr.values()) == pytest.approx(1.0)


def cosine_records(*rows):
    """[potential].coefficients records, one (n, re) per row."""
    return [{"n": n, "re": re, "im": 0.0} for n, re in rows]


# [potential].coefficients that a Z^2 config must reject: a Z^3 index, which the loader
# once re-embedded as Z^2 rows; a fraction and a bool, once read as the integer 1; and a
# repeated n, whose later value once replaced the earlier one
MALFORMED_RECORDS = [
    cosine_records(([1, 0, 0], 0.1), ([-1, 0, 0], 0.1)),
    cosine_records(([1.5, 0], 0.1), ([-1.5, 0], 0.1)),
    cosine_records(([True, 0], 0.1), ([-1, 0], 0.1)),
    cosine_records(([1, 0], 0.1), ([-1, 0], 0.2), ([1, 0], 0.2)),
]


class TestErrors:
    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["params", "-c", str(tmp_path / "nope.yaml")]) == 2

    def test_missing_section(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert main(["classify", "-c", str(cfg)]) == 2
        assert "classify" in capsys.readouterr().err

    def test_bad_potential(self, tmp_path, capsys):
        bad = BASE_CONFIG.replace("re: 0.1, im: 0.0}\n    - {n: [-1, 0], re: 0.1", "re: 0.1, im: 0.0}\n    - {n: [-1, 0], re: 0.7")
        cfg = write_config(tmp_path, base=bad)
        assert main(["predict", "-c", str(cfg)]) == 2

    def test_nonresonant_point_numerical_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "resonant_check:\n  points: [[6.1, 4.8]]\n  window_radius: 6.0\n")
        assert main(["resonant-check", "-c", str(cfg)]) == 3

    def test_window_without_coupled_waves_is_numerical_failure(self, tmp_path, capsys):
        # a 0.01 window holds the center's wave alone, so its refinement certifies nothing
        cfg = write_config(tmp_path, "bloch:\n  centers: [[15.6, 12.5]]\n  window_radius: 0.01\n")
        assert main(["bloch", "-c", str(cfg)]) == 3
        assert "coupled" in capsys.readouterr().err

    def test_band_count_beyond_the_dense_bound_is_numerical_failure(self, tmp_path, capsys):
        # 100,000 bands would need a dense solve of about 200,000 plane waves (617 GiB)
        cfg = write_config(tmp_path, "bands:\n  grid: [16, 16]\n  n_bands: 100000\n")
        assert main(["bands", "-c", str(cfg)]) == 3
        assert "a dense band solve takes at most" in capsys.readouterr().err

    def test_window_beyond_the_dense_bound_is_numerical_failure(self, tmp_path, monkeypatch, capsys):
        # the shipped config's resonant point is solved densely on windows of 197 and
        # 441 waves; under a bound of 300 the 1.5x window is refused before it is allocated
        monkeypatch.setattr(oracle, "MAX_DENSE_BASIS", 300)
        args = ["resonant-check", "-c", str(REPO / "configs" / "cosine_sweep.yaml"), "-o", str(tmp_path)]
        assert main(args) == 3
        assert "a dense matrix of 441 plane waves: a dense solve takes at most 300" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, key", [
        ("bands", "bands", "basis_radius"),
        ("gaps", "gaps", "basis_radius"),
        ("bloch", "bloch", "window_radius"),
        ("verify", "verify", "window_radius"),
        ("resonant-check", "resonant_check", "window_radius"),
    ])
    def test_radius_beyond_the_enumeration_bound_is_numerical_failure(self, tmp_path, command, section, key):
        # a radius of 1e6 would enumerate a box of about 4e12 lattice points
        raw = yaml.safe_load((REPO / "configs" / "cosine_sweep.yaml").read_text())
        raw[section][key] = 1e6
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-m", "polybloch.cli", command, "-c", str(cfg), "-o", str(tmp_path)],
                             capture_output=True, text=True, env=env, timeout=60)
        assert run.returncode == 3, run.stderr
        assert "Traceback" not in run.stderr
        assert "one enumeration takes at most" in run.stderr

    def test_order_without_a_dominant_pair_is_numerical_failure(self, tmp_path, capsys):
        # at rho = 2 the first order's window holds only pairs that weigh about 1e-31 on
        # gamma0: that weight is rounding noise, so nothing is matched
        base = BASE_CONFIG.replace("re: 0.1", "re: 0.5").replace("rho: [10.0]", "rho: [2.0]")
        angle = 1.3612820512820514
        cfg = write_config(tmp_path, f"verify:\n  direction: [{float(np.cos(angle))!r}, {float(np.sin(angle))!r}]\n"
                                     "  orders: [1, 2]\n", base=base)
        assert main(["verify", "-c", str(cfg)]) == 3
        assert "weighs more than 1/2" in capsys.readouterr().err

    def test_simple_check_precondition_is_numerical_failure(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "simple_check:\n  points: [[0.5, 10.0]]\n")
        assert main(["simple-check", "-c", str(cfg)]) == 3
        assert "non-resonant" in capsys.readouterr().err

    @pytest.mark.parametrize("command, section, key, value", [
        ("verify", "verify", "orders", [0]),
        ("verify", "verify", "direction", [0, 0]),
        ("measure", "measure", "n_samples", 10),
        ("verify", "verify", "window_radius", "wide"),
        ("bloch", "bloch", "window_radius", -1.0),
        ("bloch", "bloch", "window_radius", float("nan")),
        ("resonant-check", "resonant_check", "window_radius", 0.0),
        ("bands", "bands", "n_bands", 0),
        ("bands", "bands", "basis_radius", -1.0),
        ("gaps", "gaps", "grid", [0, 0]),
        ("simple-check", "simple_check", "rho", "x"),
        ("isoenergetic", "isoenergetic", "rays", [[0, 0]]),
        ("gaps", "gaps", "e_min", "x"),
        ("gaps", "gaps", "e_max", "x"),
        ("predict", "predict", "order", "x"),
        ("bloch", "bloch", "order", "x"),
        ("measure", "measure", "n_samples", "x"),
        ("bloch", "bloch", "centers", [["a", "b"]]),
        ("predict", "predict", "centers", [[1]]),
        ("simple-check", "simple_check", "points", [["a", "b"]]),
        ("classify", "classify", "points", [[0, 0, 0]]),
        ("simple-check", "simple_check", "points", [[12.48, -15.628, 1.0]]),
        ("predict", "predict", "order", 99),
        ("isoenergetic", "cascade", "known_order", 9),
        ("isoenergetic", "cascade", "known_order", "x"),
        ("simple-check", "cascade", "known_order", 9),
        ("simple-check", "cascade", "known_order", "x"),
        ("bands", "operator", "degree", "x"),
        ("predict", "operator", "degree", 1.5),
        ("params", "cascade", "rho", "x"),
        ("classify", "cascade", "rho", "x"),
        ("params", "cascade", "rho", []),
        ("params", "experiment", "seed", "x"),
        ("measure", "experiment", "seed", "x"),
        ("classify", "cascade", "pool_radius", "x"),
        ("predict", "cascade", "series_pool_radius", "x"),
        ("simple-check", "cascade", "a_radius", "x"),
        ("params", "verify", "window_raduis", 8.0),
        ("params", "cascade", "constants", {1: 2.0}),
        ("bloch", "bloch", "order", 50),
        *(("predict", "potential", "coefficients", records) for records in MALFORMED_RECORDS),
        ("verify", "potential", "coefficients", MALFORMED_RECORDS[0]),
        ("bands", "potential", "coefficients", MALFORMED_RECORDS[0]),
    ])
    def test_bad_values_are_config_errors(self, tmp_path, command, section, key, value):
        raw = yaml.safe_load((REPO / "configs" / "cosine_sweep.yaml").read_text())
        raw[section][key] = value
        cfg = tmp_path / "exp.yaml"
        cfg.write_text(yaml.safe_dump(raw))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(REPO / "src"), os.environ.get("PYTHONPATH", "")]))
        run = subprocess.run([sys.executable, "-m", "polybloch.cli", command, "-c", str(cfg)],
                             capture_output=True, text=True, env=env, timeout=120)
        assert run.returncode == 2, run.stderr
        assert "Traceback" not in run.stderr
        assert f"[{section}]" in run.stderr


# every (section, key) of the schema, plus one misspelt key
FUZZ_KEYS = [(section, key) for section, keys in _SCHEMA.items() for key in keys] + [("verify", "window_raduis")]
FUZZ_VALUES = ["x", None, [], 0, -1, 1.5, float("nan"), float("inf"), True, [[1, "a"]], [0, 0], {},
               *MALFORMED_RECORDS]


def exit_contract(tmp_path_factory, key, value, command):
    """One mutated value of the shipped config: exit 0, 2 or 3, and an exit 2 names the section."""
    section, name = key
    raw = yaml.safe_load((REPO / "configs" / "cosine_sweep.yaml").read_text())
    raw[section][name] = value
    out = tmp_path_factory.mktemp("fuzz")
    (out / "exp.yaml").write_text(yaml.safe_dump(raw))
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main([command, "-c", str(out / "exp.yaml"), "-o", str(out)])
    assert code in (0, 2, 3)
    if code == 2:
        assert f"[{section}]" in err.getvalue()


@given(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES), st.sampled_from(["params", "classify", "predict"]))
@settings(max_examples=150, deadline=None)
def test_mutated_config_keeps_the_exit_contract(tmp_path_factory, key, value, command):
    exit_contract(tmp_path_factory, key, value, command)


@given(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES), st.sampled_from(["verify", "bloch"]))
@settings(max_examples=25, deadline=None)
def test_mutated_config_keeps_the_exit_contract_of_the_solves(tmp_path_factory, key, value, command):
    exit_contract(tmp_path_factory, key, value, command)


@given(st.sampled_from(FUZZ_KEYS), st.sampled_from(FUZZ_VALUES), st.just("bands"))
@settings(max_examples=30, deadline=None)
def test_mutated_config_keeps_the_exit_contract_of_the_band_scan(tmp_path_factory, key, value, command):
    exit_contract(tmp_path_factory, key, value, command)


@pytest.mark.parametrize("command", ["simple-check", "isoenergetic"])
@given(key=st.sampled_from(FUZZ_KEYS), value=st.sampled_from(FUZZ_VALUES))
@settings(max_examples=25, deadline=None)
def test_mutated_config_keeps_the_exit_contract_of_the_series_commands(tmp_path_factory, command, key, value):
    exit_contract(tmp_path_factory, key, value, command)


@pytest.mark.parametrize("command", ["gaps", "measure"])
@given(key=st.sampled_from(FUZZ_KEYS), value=st.sampled_from(FUZZ_VALUES))
@settings(max_examples=20, deadline=None)
def test_mutated_config_keeps_the_exit_contract_of_gaps_and_measure(tmp_path_factory, command, key, value):
    exit_contract(tmp_path_factory, key, value, command)


# window_radius keeps the shipped 8.0: left out, resonant-check solves dense windows for seconds
RESONANT_KEYS = [("resonant_check", "points"), ("resonant_check", "rho"), ("cascade", "rho"),
                 ("cascade", "a_radius"), ("cascade", "v_thresholds"), ("cascade", "mode"), ("operator", "degree"),
                 ("potential", "coefficients")]


@given(key=st.sampled_from(RESONANT_KEYS), value=st.sampled_from(FUZZ_VALUES))
@settings(max_examples=20, deadline=None)
def test_mutated_config_keeps_the_exit_contract_of_the_resonant_check(tmp_path_factory, key, value):
    exit_contract(tmp_path_factory, key, value, "resonant-check")
