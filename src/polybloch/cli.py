"""Command-line driver: reproducible experiment runs from a single config file.

Flags choose the subcommand, verbosity, and output locations; every
physics parameter comes from the config, checked at load.  A value the
config leaves unset (None) is derived here; `value or derived` is safe
because each such value is positive when set.  Exit codes: 0 success,
2 config error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from . import block as block_mod
from . import scanner, series, simple
from .config import ExperimentConfig, csv_header_line, write_json
from .errors import ConfigError, SpectralError
from .geometry import classify, inequality_report
from .oracle import bloch_solve


def _log(args, *message):
    if args.verbose:
        print(*message, file=sys.stderr)


def cmd_params(cfg: ExperimentConfig, args) -> int:
    rows = []
    for rho in cfg.rho_list():
        cas = cfg.cascade(rho)
        checks = [
            {"name": name, "lhs": lhs, "rhs": rhs, "holds": ok}
            for name, lhs, rhs, ok in inequality_report(cas)
        ]
        rows.append({
            "rho": rho, "mode": cas.mode, "d": cas.d, "l": cas.l, "s": cas.s,
            "m": cas.m, "alpha": cas.alpha, "alpha_k": list(cas.alpha_k),
            "k1": cas.k1, "p": cas.p, "p1": cas.p1, "eps1": cas.eps1,
            "checks": checks,
        })
        print(f"rho = {rho}: m = {cas.m}, alpha = 1/{cas.m}, alpha_1 = {cas.alpha_k[0]!r}, "
              f"k1 = {cas.k1}, p = {cas.p!r}, p1 = {cas.p1}, eps1 = {cas.eps1!r}")
        for check in checks:
            status = "PASS" if check["holds"] else "FAIL"
            print(f"  [{status}] {check['name']}: lhs = {check['lhs']!r}, rhs = {check['rhs']!r}")
    out = cfg.output_dir(args.output_dir) / "params.json"
    write_json(out, cfg, rows)
    _log(args, f"wrote {out}")
    return 0


def cmd_classify(cfg: ExperimentConfig, args) -> int:
    sec = cfg.section("classify")
    rho = sec["rho"] or cfg.rho_list()[0]
    cas = cfg.cascade(rho)
    results = []
    for x in sec["points"]:
        verdict = classify(cfg.lattice, x, cas)
        results.append({
            "point": [float(c) for c in x],
            "level": verdict.level,
            "directions": [list(g.coords) for g in verdict.directions],
            "margins": list(verdict.margins),
            "min_pool_margin": verdict.min_pool_margin,
        })
    out = cfg.output_dir(args.output_dir) / "classify.json"
    write_json(out, cfg, {"rho": rho, "verdicts": results})
    print(f"classified {len(results)} points -> {out}")
    return 0


def cmd_predict(cfg: ExperimentConfig, args) -> int:
    q = cfg.potential()
    sec = cfg.section("predict")
    cas = cfg.cascade(sec["rho"] or cfg.rho_list()[0])
    k_max = sec["order"] or cas.known_order
    results = []
    for v in sec["centers"]:
        exp = series.known_part_sequence(v, cfg.degree, q, cas, k_max=k_max)
        results.append({
            "center": [float(c) for c in v],
            "f_values": list(exp.f_values),
            "predictions": {str(k): exp.prediction(k) for k in range(1, k_max + 1)},
            "known_part": exp.known_part(),
        })
    out = cfg.output_dir(args.output_dir) / "predict.json"
    write_json(out, cfg, results)
    print(f"predicted {len(results)} centers -> {out}")
    return 0


def cmd_verify(cfg: ExperimentConfig, args) -> int:
    q = cfg.potential()
    sec = cfg.section("verify")
    rhos = cfg.rho_list()
    cas = cfg.cascade(rhos[0])
    u = sec["direction"] / float(np.linalg.norm(sec["direction"]))
    window = sec["window_radius"] or series.required_window_radius(q, cas)
    table = series.order_sweep(cfg.lattice, cfg.degree, q, [rho * u for rho in rhos], sec["orders"], cas,
                               window_radius=window)
    out_dir = cfg.output_dir(args.output_dir)
    csv_path = out_dir / "verify.csv"
    with open(csv_path, "w") as fh:
        fh.write(csv_header_line(cfg))
        table.write_csv(fh)
    slopes = {str(k): table.slopes[k] for k in sec["orders"]}
    write_json(out_dir / "verify.json", cfg, {
        "direction": [float(c) for c in u], "slopes": slopes,
        "diagnostics": [{"rho": rho, **diag} for rho, diag in zip(rhos, table.diagnostics)],
    })
    for row in table.rows:
        print(f"rho = {row.rho!r} k = {row.k}: |Lambda - P_k| = {row.error!r} (weight {row.weight!r})")
    print(f"slopes: {slopes} -> {csv_path}")
    return 0


def cmd_resonant_check(cfg: ExperimentConfig, args) -> int:
    lat, q, l = cfg.lattice, cfg.potential(), cfg.degree
    sec = cfg.section("resonant_check")
    window = sec["window_radius"] or series.required_window_radius(q, cfg.cascade(cfg.rho_list()[0]))
    out_dir = cfg.output_dir(args.output_dir)
    rows = []
    for v in sec["points"]:
        cas = cfg.cascade(sec["rho"] or float(np.linalg.norm(v)))
        verdict = classify(lat, v, cas)
        if not verdict.is_resonant:
            raise SpectralError(f"point {v.tolist()} is non-resonant; resonant-check needs a resonant point")
        iset = block_mod.build_index_set(lat, v, verdict.directions, cas)
        blk = block_mod.assemble_block(iset, l, q)
        spectrum = bloch_solve(lat, l, q, v, window, refine=True)
        match = block_mod.match_resonant(spectrum, blk)
        rows.append({
            "v": [float(c) for c in v],
            "k": verdict.level,
            "directions": [list(g.coords) for g in verdict.directions],
            "b_k": iset.size,
            "j": match.block_index,
            "lambda_j": float(blk.eigenvalues[match.block_index]),
            "Lambda_N": float(spectrum.eigenvalues[match.oracle_index]),
            "deviation": match.deviation,
            "diagnostics": {"tail_coupling_bound": block_mod.tail_coupling_bound(iset, q)},
        })
        print(f"v = {v.tolist()}: level {verdict.level}, b_k = {iset.size}, deviation = {match.deviation!r}")
    csv_path = out_dir / "resonant_check.csv"
    with open(csv_path, "w") as fh:
        fh.write(csv_header_line(cfg))
        fh.write("v,k,directions,b_k,j,lambda_j,Lambda_N,deviation\n")
        for r in rows:
            fh.write(",".join([
                "(" + " ".join(repr(c) for c in r["v"]) + ")", str(r["k"]),
                "(" + ";".join("_".join(map(str, d)) for d in r["directions"]) + ")",
                str(r["b_k"]), str(r["j"]), repr(r["lambda_j"]), repr(r["Lambda_N"]), repr(r["deviation"]),
            ]) + "\n")
    write_json(out_dir / "resonant_check.json", cfg, rows)
    return 0


def cmd_simple_check(cfg: ExperimentConfig, args) -> int:
    q = cfg.potential()
    sec = cfg.section("simple_check")
    results = []
    for v in sec["points"]:
        cas = cfg.cascade(sec["rho"] or float(np.linalg.norm(v)))
        report = simple.check_simplicity(cfg.lattice, v, cas, cfg.degree, q)
        results.append({
            "v": [float(c) for c in v],
            "f_value": report.f_value,
            "eps1": report.eps1,
            "member": report.member,
            "margins": [
                {"coords": list(e.coords), "level": e.level, "kind": e.kind,
                 "competitor_value": e.competitor_value, "margin": e.margin,
                 "diagnostics": e.diagnostics}
                for e in report.entries
            ],
        })
        print(f"v = {v.tolist()}: member = {report.member} ({len(report.entries)} competitors)")
    out = cfg.output_dir(args.output_dir) / "simple_check.json"
    write_json(out, cfg, results)
    return 0


def cmd_bloch(cfg: ExperimentConfig, args) -> int:
    lat, q = cfg.lattice, cfg.potential()
    sec = cfg.section("bloch")
    results = []
    for v in sec["centers"]:
        cas = cfg.cascade(sec["rho"] or float(np.linalg.norm(v)))
        window = sec["window_radius"] or series.required_window_radius(q, cas)
        # the pair dominated by gamma0, matched as in verify against P_1 .. P_K; A_2 .. walk at F_K
        expansion, spectrum = series.track_center(lat, cfg.degree, q, v, cas, window, range(1, cas.known_order + 1))
        gamma0, _ = lat.reduce(v)
        n = spectrum.dominant_index(gamma0.coords)
        report = simple.bloch_verify(spectrum, n, gamma0.coords, sec["order"], q, expansion.known_part_rel())
        results.append({
            "center": [float(c) for c in v],
            "weight": report.weight,
            "residual_mass": report.residual_mass,
            "normalization_predicted": report.normalization_predicted,
            "normalization_measured": report.normalization_measured,
            "coefficients": [
                {"offset": list(r.offset),
                 "predicted_first_order": [r.predicted_first_order.real, r.predicted_first_order.imag],
                 "predicted_total": [r.predicted_total.real, r.predicted_total.imag],
                 "measured": [r.measured.real, r.measured.imag]}
                for r in report.rows
            ],
            "diagnostics": spectrum.diagnostics,
        })
        print(f"center {v.tolist()}: weight {report.weight!r}, residual mass {report.residual_mass!r}")
    out = cfg.output_dir(args.output_dir) / "bloch.json"
    write_json(out, cfg, results)
    return 0


def cmd_bands(cfg: ExperimentConfig, args) -> int:
    l = cfg.degree
    sec = cfg.section("bands")
    grid, n_bands = sec["grid"], sec["n_bands"]
    q = cfg.potential()
    table = scanner.band_functions(cfg.lattice, l, q, grid, n_bands, basis_radius=sec["basis_radius"])
    out_dir = cfg.output_dir(args.output_dir)
    csv_path = out_dir / "bands.csv"
    with open(csv_path, "w") as fh:
        fh.write(csv_header_line(cfg))
        table.write_csv(fh)
    write_json(out_dir / "bands.json", cfg, {
        "grid": list(grid), "n_bands": n_bands, "basis_radius": table.basis_radius,
        "band_min": [float(x) for x in table.band_min],
        "band_max": [float(x) for x in table.band_max],
        "diagnostics": _band_diagnostics(cfg, q, table),
    })
    print(f"bands: {n_bands} over {grid} grid (basis radius {table.basis_radius!r}) -> {csv_path}")
    return 0


def _band_diagnostics(cfg: ExperimentConfig, q, table) -> dict:
    """Sizes, the solve path, and the basis moves at the table's radius (see scanner.basis_moves)."""
    l = cfg.degree
    return {"solved_points": table.solved_points, "symmetry_order": table.symmetry_order,
            "real_symmetric": table.real_symmetric,
            **scanner.basis_moves(cfg.lattice, l, q, table.basis_radius, table.n_bands),
            "continuity_report": scanner.continuity_report(table, l)}


def cmd_gaps(cfg: ExperimentConfig, args) -> int:
    l = cfg.degree
    sec = cfg.section("gaps")
    q = cfg.potential()
    report, coarse, fine = scanner.stable_gap_report(
        cfg.lattice, l, q, sec["grid"], sec["n_bands"], sec["e_min"], sec["e_max"],
        basis_radius=sec["basis_radius"])
    out = cfg.output_dir(args.output_dir) / "gaps.json"
    write_json(out, cfg, {
        "e_min": report.e_min, "e_max": report.e_max,
        "gaps": [list(g) for g in report.gaps],
        "stable": report.stable,
        "grids": [list(coarse.grid_counts), list(fine.grid_counts)],
        "diagnostics": _band_diagnostics(cfg, q, fine),
    })
    print(f"gaps in ({report.e_min!r}, {report.e_max!r}]: {len(report.gaps)} (stable = {report.stable}) -> {out}")
    return 0


def cmd_isoenergetic(cfg: ExperimentConfig, args) -> int:
    q = cfg.potential()
    rays = cfg.section("isoenergetic")["rays"]
    results = []
    for rho in cfg.rho_list():
        cas = cfg.cascade(rho)
        roots = simple.isoenergetic_sample(cfg.lattice, rho, cfg.degree, q, cas, rays)
        results.append({
            "rho": rho,
            "roots": [
                {"direction": list(r.direction), "radius": r.radius,
                 "point": None if r.point is None else list(r.point),
                 "f_value": r.f_value, "skipped": r.skipped}
                for r in roots
            ],
        })
        found = sum(1 for r in roots if r.skipped is None)
        print(f"rho = {rho}: {found}/{len(roots)} rays crossed")
    out = cfg.output_dir(args.output_dir) / "isoenergetic.json"
    write_json(out, cfg, results)
    return 0


def cmd_measure(cfg: ExperimentConfig, args) -> int:
    n_samples = cfg.section("measure")["n_samples"]
    results = []
    for rho in cfg.rho_list():
        est = scanner.measure_fraction(cfg.lattice, rho, cfg.cascade(rho), n_samples, seed=cfg.seed)
        results.append({
            "rho": rho, "n_samples": n_samples,
            "fractions": est.fractions, "stderr": est.stderr,
        })
        print(f"rho = {rho}: fractions {est.fractions}")
    out = cfg.output_dir(args.output_dir) / "measure.json"
    write_json(out, cfg, results)
    return 0


_COMMANDS = {
    "params": cmd_params,
    "classify": cmd_classify,
    "predict": cmd_predict,
    "verify": cmd_verify,
    "resonant-check": cmd_resonant_check,
    "simple-check": cmd_simple_check,
    "bloch": cmd_bloch,
    "bands": cmd_bands,
    "gaps": cmd_gaps,
    "isoenergetic": cmd_isoenergetic,
    "measure": cmd_measure,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polybloch",
        description="Spectral experiments for periodic polyharmonic operators",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("-c", "--config", required=True, help="experiment config (YAML)")
        p.add_argument("-o", "--output-dir", default=None, help="override the output directory")
        p.add_argument("-v", "--verbose", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](ExperimentConfig.load(args.config), args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except SpectralError as err:
        print(f"numerical failure: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
