"""The four benchmark workloads.

Each workload draws its inputs from a seed, runs one kind of operation
("op") through polybloch's public API, and checks the op's answer two
ways: against seed-independent certificates (any seed) and against the
stored reference answers (default seed only).  The physics constants
mirror ``configs/cosine_sweep.yaml`` (square lattice, l = 1, s = 45,
scaled cascade with thresholds 2/4/8 and pool radius 3) but are fixed
here, so editing the shipped config never changes the benchmark.

Every potential is a *generic* table: complex Hermitian, full rank, no
point symmetry of the square lattice beyond the identity, amplitudes
about 0.1.  Structured tables (cosine pairs and sums) admit coset
splitting, real-symmetric solves and point-group reduction; generic
tables do not, so a speed-up measured here holds for arbitrary input.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

import polybloch as pb
from polybloch.errors import SmallDenominator
from polybloch.potential import FourierPotential

DEGREE = 1
SMOOTHNESS = 45.0
THRESHOLDS = (2.0, 4.0, 8.0)
POOL_RADIUS = 3.0
AMPLITUDE = 0.1

# Certificate tolerances the reference comparison may not loosen.
EIG_TOL = 1e-9      # oracle refinement / block eigenvalues: 1e-9 (1 + |Lambda|)
SERIES_TOL = 1e-12  # known parts, same frame as the series reality bound
WEIGHT_TOL = 1e-8   # eigenvector weights: the residual certificate's 1e-8

_D4 = tuple(np.array(m) for m in (
    [[0, -1], [1, 0]], [[-1, 0], [0, -1]], [[0, 1], [-1, 0]],
    [[1, 0], [0, -1]], [[-1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1], [-1, 0]],
))


def cascade(rho: float, **extra) -> pb.ParameterCascade:
    overrides = {"v_thresholds": list(THRESHOLDS), "pool_radius": POOL_RADIUS}
    overrides.update(extra)
    return pb.derive_parameters(2, DEGREE, SMOOTHNESS, rho, mode="scaled", overrides=overrides)


def _symmetric_under(mat: np.ndarray, table: dict) -> bool:
    return all(abs(table.get(tuple(int(c) for c in mat @ np.array(n)), 0j) - val) <= 1e-12
               for n, val in table.items())


def generic_potential(rng: np.random.Generator, lattice: pb.LatticeModel,
                      support_radius: float) -> FourierPotential:
    """Random Hermitian table on the ball |g| <= support_radius, redrawn
    until no non-identity element of the square lattice's point group
    preserves it."""
    while True:
        records, seen = [], set()
        for vec in lattice.enumerate_ball(support_radius * (1 + 1e-12)):
            if vec.coords in seen:
                continue
            neg = tuple(-c for c in vec.coords)
            seen.update((vec.coords, neg))
            z = AMPLITUDE * rng.uniform(0.75, 1.25) * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
            records.append({"n": list(vec.coords), "re": z.real, "im": z.imag})
            records.append({"n": list(neg), "re": z.real, "im": -z.imag})
        table = {tuple(r["n"]): complex(r["re"], r["im"]) for r in records}
        if not any(_symmetric_under(m, table) for m in _D4):
            return FourierPotential.from_records(lattice, records, SMOOTHNESS)


def unit_vector(rng: np.random.Generator) -> np.ndarray:
    u = rng.standard_normal(2)
    return u / np.linalg.norm(u)


def close(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * (1.0 + abs(b))


class Workload:
    """Inputs drawn in ``setup``; op ``i`` runs on ``inputs[i % len(inputs)]``."""

    name = ""
    CYCLE = 1  # ops in the smallest repeating op mix

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.lattice = pb.LatticeModel.cubic(2)
        self.inputs: list = []

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, i: int) -> dict:
        raise NotImplementedError

    def certify(self, answer: dict, reference: dict) -> list[str]:
        """Seed-independent problems with one answer."""
        raise NotImplementedError

    def compare(self, answer: dict, ref: dict) -> list[str]:
        """Differences from the stored answer for the same op."""
        raise NotImplementedError

    def sizes(self, answers: list[dict]) -> dict:
        """Problem sizes behind the run's ops."""
        raise NotImplementedError


class WindowSweep(Workload):
    """Criterion 3's order sweep (`verify`) at the default required window.

    One op takes about 15 s, so a 20 s run times one op: the input is one
    seeded non-resonant center at RHO, the first radius of `verify`.
    """

    name = "window-sweep"
    RHO = 20.0
    ORDERS = (1, 2, 3)
    WARMUP_WINDOW = 10.0

    def setup(self):
        self.q = generic_potential(self.rng, self.lattice, 1.0)
        self.sweep_cascade = cascade(self.RHO, known_order=2, a_radius=1.2)
        pool = pb.direction_pool(self.lattice, self.sweep_cascade)
        while not self.inputs:
            v = self.RHO * unit_vector(self.rng)
            if not pb.classify(self.lattice, v, self.sweep_cascade, pool=pool).is_resonant:
                self.inputs.append(v)
        pb.bloch_solve(self.lattice, DEGREE, self.q, self.inputs[0], self.WARMUP_WINDOW)

    def run(self, i):
        v = self.inputs[i % len(self.inputs)]
        table = pb.order_sweep(self.lattice, DEGREE, self.q, [v], self.ORDERS, self.sweep_cascade)
        gamma0, _ = self.lattice.reduce(v)
        return {
            "center": [float(c) for c in v],
            "gamma0": list(gamma0.coords),
            "rows": [{"k": r.k, "prediction": r.prediction, "eigenvalue": r.eigenvalue,
                      "error": r.error, "weight": r.weight} for r in table.rows],
        }

    def certify(self, answer, reference):
        out = []
        if [r["k"] for r in answer["rows"]] != list(self.ORDERS):
            out.append(f"orders {[r['k'] for r in answer['rows']]}")
        out += [f"k={r['k']}: matched weight {r['weight']!r} <= 1/2"
                for r in answer["rows"] if not r["weight"] > 0.5]
        return out

    def compare(self, answer, ref):
        out = []
        if answer["gamma0"] != ref["gamma0"]:
            out.append(f"gamma0 {answer['gamma0']} != {ref['gamma0']}")
        for row, want in zip(answer["rows"], ref["rows"]):
            k = row["k"]
            if not close(row["eigenvalue"], want["eigenvalue"], EIG_TOL):
                out.append(f"k={k}: eigenvalue {row['eigenvalue']!r} != {want['eigenvalue']!r}")
            if not close(row["prediction"], want["prediction"], SERIES_TOL):
                out.append(f"k={k}: prediction {row['prediction']!r} != {want['prediction']!r}")
            if abs(row["weight"] - want["weight"]) > WEIGHT_TOL:
                out.append(f"k={k}: weight {row['weight']!r} != {want['weight']!r}")
        return out

    def sizes(self, answers):
        v = self.inputs[0]
        _, qm = self.lattice.reduce(v)
        window = pb.required_window_radius(self.q, self.sweep_cascade)
        return {"window_radius": window,
                "basis_size": len(pb.PlanewaveBasis.window(self.lattice, qm.reduced, v, window)),
                "refined_basis_size": len(pb.PlanewaveBasis.window(self.lattice, qm.reduced, v, 1.5 * window))}


class SimpleSet(Workload):
    """Criterion 7's member search: one `check_simplicity` verdict per op.

    An op's cost is set by how many of its competitors are resonant (each
    builds a ~1,100-point block).  Natural draws range from 0 to 6 block
    competitors, which would make a short run's mix, and so its rate and
    median, depend on the seed.  The op schedule therefore fixes the mix:
    centers are drawn from the seed and sorted into strata by
    block-competitor count, then served in PATTERN order, one PATTERN per
    cycle, so the median op is a one-block verdict.
    """

    name = "simple-set"
    RHO = 20.0
    PATTERN = (1, 1, 0, 1, 2)
    CYCLE = len(PATTERN)
    N_CYCLES = 2  # a 20 s run times one or two cycles
    # Screening a fixed number of draws keeps set-up work nearly independent
    # of the seed; more are drawn only if the strata are still short.
    N_CANDIDATES = 80
    WARMUP_A_RADIUS = 10.0

    def setup(self):
        self.q = generic_potential(self.rng, self.lattice, 1.0)
        self.cascade = cascade(self.RHO, known_order=2)
        pool = pb.direction_pool(self.lattice, self.cascade)
        schedule = list(self.PATTERN) * self.N_CYCLES
        need = Counter(schedule)
        strata = {c: [] for c in need}
        warm = None
        drawn = 0
        while drawn < self.N_CANDIDATES or any(len(strata[c]) < n for c, n in need.items()):
            drawn += 1
            v = self.RHO * unit_vector(self.rng)
            if pb.classify(self.lattice, v, self.cascade, pool=pool).is_resonant:
                continue
            gamma0, qm = self.lattice.reduce(v)
            try:
                f_value = pb.known_part(v, DEGREE, self.q, self.cascade).value
            except SmallDenominator:
                continue
            blocks = [(g, cls) for g, cls in pb.k_set(self.lattice, v, qm.reduced, self.cascade, DEGREE,
                                                      self.q, f_value=f_value, pool=pool)
                      if cls.is_resonant and g.coords != gamma0.coords]
            bucket = strata.get(len(blocks))
            if bucket is not None and len(bucket) < need[len(blocks)]:
                bucket.append(v)
                if warm is None and blocks:
                    g, cls = blocks[0]
                    warm = (g.embedding + qm.reduced, cls.directions, qm.reduced)
        self.inputs = [(strata[c].pop(), c) for c in schedule]
        self.warm = warm
        x, directions, t = warm
        index_set = pb.build_index_set(self.lattice, x, directions, self.cascade,
                                       a_radius=self.WARMUP_A_RADIUS, t=t)
        pb.assemble_block(index_set, DEGREE, self.q)

    def run(self, i):
        v, n_blocks = self.inputs[i % len(self.inputs)]
        answer = {"center": [float(c) for c in v], "block_competitors": n_blocks}
        try:
            report = pb.check_simplicity(self.lattice, v, self.cascade, DEGREE, self.q)
        except SmallDenominator:
            answer["escape"] = "SmallDenominator"
            return answer
        answer.update({
            "member": report.member,
            "f_value": report.f_value,
            "entries": [{"coords": list(e.coords), "level": e.level, "kind": e.kind,
                         "value": e.competitor_value, "margin": e.margin}
                        for e in sorted(report.entries, key=lambda e: e.coords)],
        })
        return answer

    def certify(self, answer, reference):
        if "escape" in answer:
            return []
        out = []
        entries = answer["entries"]
        if answer["member"] != all(e["margin"] >= 0 for e in entries):
            out.append("member verdict disagrees with its margins")
        if any((e["kind"] == "block") != (e["level"] > 0) for e in entries):
            out.append("competitor kind disagrees with its resonance level")
        n_blocks = sum(e["kind"] == "block" for e in entries)
        if n_blocks != answer["block_competitors"]:
            out.append(f"{n_blocks} block competitors, set-up found {answer['block_competitors']}")
        return out

    def compare(self, answer, ref):
        if ("escape" in answer) != ("escape" in ref):
            return [f"escape {answer.get('escape')} != {ref.get('escape')}"]
        if "escape" in answer:
            return []
        out = []
        if answer["member"] != ref["member"]:
            out.append(f"member {answer['member']} != {ref['member']}")
        if not close(answer["f_value"], ref["f_value"], SERIES_TOL):
            out.append(f"f_value {answer['f_value']!r} != {ref['f_value']!r}")
        key = [(e["coords"], e["kind"], e["level"]) for e in answer["entries"]]
        if key != [(e["coords"], e["kind"], e["level"]) for e in ref["entries"]]:
            return out + [f"competitors {key} differ"]
        for e, want in zip(answer["entries"], ref["entries"]):
            tol = EIG_TOL if e["kind"] == "block" else SERIES_TOL
            if not close(e["value"], want["value"], tol):
                out.append(f"{e['coords']}: value {e['value']!r} != {want['value']!r}")
            if abs(e["margin"] - want["margin"]) > tol * (1.0 + abs(want["value"])):
                out.append(f"{e['coords']}: margin {e['margin']!r} != {want['margin']!r}")
        return out

    def sizes(self, answers):
        x, directions, t = self.warm
        index_set = pb.build_index_set(self.lattice, x, directions, self.cascade, t=t)
        return {"block_size": index_set.size, "block_competitors_pattern": list(self.PATTERN)}


class BandScan(Workload):
    """Criterion 8's procedure at a 16x16 probe and 16 -> 32 gap scan.

    One op takes about 14 s, so a 20 s run times one op: the input is one
    seeded potential.
    """

    name = "band-scan"
    N_BANDS = 60
    GRID = (16, 16)
    E_MIN = 10.0
    E_MAX_MARGIN = 0.5

    def setup(self):
        self.inputs = [generic_potential(self.rng, self.lattice, 1.0)]
        self.radius = pb.certified_basis_radius(self.lattice, DEGREE, self.inputs[0], self.N_BANDS)

    def run(self, i):
        q = self.inputs[i % len(self.inputs)]
        lat = self.lattice
        radius = pb.certified_basis_radius(lat, DEGREE, q, self.N_BANDS)
        probe = pb.band_functions(lat, DEGREE, q, self.GRID, self.N_BANDS, basis_radius=radius)
        e_max = float(probe.band_min[-1]) - self.E_MAX_MARGIN
        report, _, fine = pb.stable_gap_report(lat, DEGREE, q, self.GRID, self.N_BANDS,
                                               self.E_MIN, e_max, basis_radius=radius)
        return {"basis_radius": radius, "e_max": e_max, "gaps": [list(g) for g in report.gaps],
                "stable": report.stable, "top_band_min": float(fine.band_min[-1])}

    def certify(self, answer, reference):
        out = []
        if answer["stable"] is not True:
            out.append(f"gap report not stable under grid doubling ({answer['gaps']})")
        if not answer["e_max"] > self.E_MIN:
            out.append(f"e_max {answer['e_max']!r} below e_min")
        return out

    def compare(self, answer, ref):
        out = []
        for key in ("basis_radius", "stable"):
            if answer[key] != ref[key]:
                out.append(f"{key} {answer[key]!r} != {ref[key]!r}")
        for key in ("e_max", "top_band_min"):
            if not close(answer[key], ref[key], EIG_TOL):
                out.append(f"{key} {answer[key]!r} != {ref[key]!r}")
        if len(answer["gaps"]) != len(ref["gaps"]):
            out.append(f"{len(answer['gaps'])} gaps != {len(ref['gaps'])}")
        elif not all(close(a, b, EIG_TOL) for g, h in zip(answer["gaps"], ref["gaps"])
                     for a, b in zip(g, h)):
            out.append(f"gaps {answer['gaps']} != {ref['gaps']}")
        return out

    def sizes(self, answers):
        n_grid = int(np.prod(self.GRID))
        return {"basis_size": len(pb.PlanewaveBasis.full_ball(self.lattice, self.radius)),
                "n_bands": self.N_BANDS, "grid_points": 2 * n_grid + 4 * n_grid}


class SeriesDeep(Workload):
    """Known parts F_1 .. F_5 on a 12-vector table (support radius 2); no eigensolves."""

    name = "series-deep"
    RHO = 40.0
    ORDER = 5
    N_CENTERS = 8  # a 20 s run times 6 to 10 ops
    SUPPORT_RADIUS = 2.0

    def setup(self):
        self.q = generic_potential(self.rng, self.lattice, self.SUPPORT_RADIUS)
        self.cascade = cascade(self.RHO)
        pool = pb.direction_pool(self.lattice, self.cascade)
        while len(self.inputs) < self.N_CENTERS:
            v = self.RHO * unit_vector(self.rng)
            if not pb.classify(self.lattice, v, self.cascade, pool=pool).is_resonant:
                self.inputs.append(v)
        pb.known_part_sequence(self.inputs[0], DEGREE, self.q, self.cascade, k_max=2)

    def run(self, i):
        v = self.inputs[i % len(self.inputs)]
        answer = {"center": [float(c) for c in v]}
        try:
            exp = pb.known_part_sequence(v, DEGREE, self.q, self.cascade, k_max=self.ORDER)
        except SmallDenominator:
            answer["escape"] = "SmallDenominator"
            return answer
        answer.update({
            "f_values": list(exp.f_values),
            "admissible": [list(ev.admissible_counts) for ev in exp.evaluations],
            "contributing": [list(ev.term_counts) for ev in exp.evaluations],
            "floor": min(ev.denominator_floor for ev in exp.evaluations),
        })
        return answer

    def certify(self, answer, reference):
        # Term counts depend only on the support's coordinates, which every
        # seed shares, so the stored counts certify any seed's answer.
        if "escape" in answer:
            return []
        want = next(a for a in reference["answers"] if "escape" not in a)
        return [f"{key} counts {answer[key]} != {want[key]}"
                for key in ("admissible", "contributing") if answer[key] != want[key]]

    def compare(self, answer, ref):
        if ("escape" in answer) != ("escape" in ref):
            return [f"escape {answer.get('escape')} != {ref.get('escape')}"]
        if "escape" in answer:
            return []
        out = [f"F_{s} {a!r} != {b!r}" for s, (a, b) in enumerate(zip(answer["f_values"], ref["f_values"]))
               if not close(a, b, SERIES_TOL)]
        if not abs(answer["floor"] - ref["floor"]) <= SERIES_TOL * abs(ref["floor"]):
            out.append(f"denominator floor {answer['floor']!r} != {ref['floor']!r}")
        return out

    def sizes(self, answers):
        counted = [a for a in answers if "admissible" in a]
        return {"support": len(self.q.support), "order": self.ORDER,
                "admissible_terms_per_op": sum(map(sum, counted[0]["admissible"])) if counted else None}


WORKLOADS = {cls.name: cls for cls in (WindowSweep, SimpleSet, BandScan, SeriesDeep)}
