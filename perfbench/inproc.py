"""The three in-process workloads: verify_sweep, solve_shapes, series_spectrum.

Each workload draws its inputs from a pool of pole configurations whose
exact outputs were recorded (``refs.json``, written by ``record.py``); the
seed chooses which pool entries a run uses and in what order. An op is
timed from the first library call to the last; building the output digest
and the checks run after the clock stops.

Library functions are always looked up on their module at call time
(``ansatz.solve_ansatz``), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from kzsolve import ansatz, frobenius, kzcore, s4explicit, symrep
from kzsolve.exactalg import GaussianRational, Vector, parse_scalar

from common import Checked

KINDS = ("int", "gauss")


def _vec(v) -> list[str]:
    return [str(c) for c in v]


def _fn_json(fn) -> dict:
    return {
        "poles": [[_vec(v) for v in group] for group in fn.pole_coeffs],
        "poly": [_vec(v) for v in fn.poly_coeffs],
    }


def _system(entry: dict):
    pts = [parse_scalar(p) for p in entry["points"]]
    return kzcore.new_system(entry["n"], entry["rho"], pts)


# -- pool generation (record.py) ------------------------------------------------


def _rational(rng: random.Random, span: int) -> Fraction:
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def gaussian_points(rng: random.Random, count: int, span: int) -> list[GaussianRational]:
    """Distinct Gaussian-rational poles; about half have an imaginary part."""
    while True:
        pts = []
        for _ in range(count):
            im = _rational(rng, span) if rng.random() < 0.5 else 0
            pts.append(GaussianRational(_rational(rng, span), im))
        if len(set(pts)) == count:
            return pts


def kind_points(rng: random.Random, kind: str, count: int) -> list[GaussianRational]:
    """Distinct small-integer poles, or Gaussian-rational ones with denominators."""
    if kind == "int":
        return [GaussianRational(v) for v in rng.sample(range(-5, 6), count)]
    return gaussian_points(rng, count, 4)


# -- verify_sweep -------------------------------------------------------------


@dataclass
class VerifyItem:
    entry: dict
    system: object


PASS_SIZE = 16


class VerifySweep(Checked):
    """n = 4, rho = -1: the ``kz verify`` recipe on y1..y4, a certificate, a negative control.

    Nearly all of its work is scalar arithmetic, permutation-matrix
    products and ``eval_A``; its only elimination is a 4x4 determinant,
    so an elimination change should leave it unchanged.
    """

    name = "verify_sweep"
    in_process = True
    timeout = 20.0

    def __init__(self, refs: dict):
        self.items = [VerifyItem(e, _system(e)) for e in refs[self.name]]

    @staticmethod
    def make_pool(size: int = 256) -> list[dict]:
        rng = random.Random("verify_sweep")
        pool = []
        while len(pool) < size:
            z1, z2, z3 = gaussian_points(rng, 3, 6)
            if (z2 + z2 - z1 - z3).is_zero():
                continue  # the explicit columns degenerate on this locus
            corrupt = [rng.randrange(4), rng.randrange(3), rng.randrange(4)]
            pool.append({"n": 4, "rho": -1, "points": [str(z) for z in (z1, z2, z3)], "corrupt": corrupt})
        return pool

    def passes(self, seed: int):
        """Seed-shuffled pool, cut into passes of PASS_SIZE configurations."""
        rng = random.Random(seed)
        while True:
            order = rng.sample(range(len(self.items)), len(self.items))
            for at in range(0, len(order) - PASS_SIZE + 1, PASS_SIZE):
                yield [self.items[i] for i in order[at:at + PASS_SIZE]]

    def warmup_items(self, seed: int):
        return self.items[:1]

    @staticmethod
    def expected(item):
        return item.entry.get("digest")

    @staticmethod
    def _verify(system, fn, zs):
        return ansatz.check_conditions(system, fn), [ansatz.residual(system, fn, z) for z in zs]

    def run(self, item: VerifyItem):
        system = item.system
        pts = system.points
        zs = ansatz.sample_points(pts, 7)
        cands = [build(pts) for build in (s4explicit.y1, s4explicit.y2, s4explicit.y3, s4explicit.y4)]
        reports = [self._verify(system, fn, zs) for fn in cands]
        cert = s4explicit.independence_certificate(pts, tuple(cands))
        j, k, i = item.entry["corrupt"]
        res = list(cands[j].residues)
        res[k] = res[k] + Vector.unit(4, i)
        bad = ansatz.RationalVectorFunction.simple(pts, res, cands[j].q_const, cands[j].q_linear)
        return cands, reports, cert, self._verify(system, bad, zs)

    @staticmethod
    def outputs(item, result):
        cands, reports, cert, (bad_rep, bad_res) = result
        return {
            "candidates": [_fn_json(fn) for fn in cands],
            "reports": [
                [[str(v) for v in (*rep.residue_symmetry, *rep.pole_balance, rep.growth)], [str(r) for r in res]]
                for rep, res in reports
            ],
            "certificate": [cert.ok, str(cert.probe), str(cert.det), cert.probes_tried],
            "corrupted": [bad_rep.failures(), [str(r) for r in bad_res]],
        }

    @staticmethod
    def problems(item, result) -> list[str]:
        cands, reports, cert, (bad_rep, bad_res) = result
        out = []
        for label, (rep, res) in zip(("y1", "y2", "y3", "y4"), reports):
            if not rep.passed or not all(r.is_zero() for r in res):
                out.append(f"{label} rejected")
        if not cert.ok:
            out.append("independence not certified")
        if bad_rep.passed and all(r.is_zero() for r in bad_res):
            out.append("corrupted candidate accepted")
        return out


# -- solve_shapes -------------------------------------------------------------

SHAPES = {4: ((1, 1), (2, 1), (1, 2)), 5: ((1, 1), (2, 1), (1, 2)), 6: ((1, 1),)}
SOLVE_CLASSES = tuple((n, rho) for n in SHAPES for rho in (-1, 1, -2))


@dataclass
class ShapeItem:
    entry: dict
    system: object
    shape_index: int


class SolveShapes(Checked):
    """One ``solve_ansatz`` call per op, then ``in_span`` of the (1,1) basis.

    Dense Gauss-Jordan does most of the work; rho = -2 at (1,1) has an
    empty nullspace, so it skips certification, and pole height drives
    coefficient bit growth. Every pass holds each class once with
    small-integer and once with Gaussian-rational poles, so half the
    configurations of any run are of each kind whatever its seed.
    """

    name = "solve_shapes"
    in_process = True
    timeout = 60.0

    def __init__(self, refs: dict):
        self.pool: dict[tuple, list] = {}
        for entry in refs[self.name]:
            key = (entry["n"], entry["rho"], entry["kind"])
            self.pool.setdefault(key, []).append((entry, _system(entry)))
        self._first: tuple | None = None

    @staticmethod
    def make_pool(per_kind: int = 4) -> list[dict]:
        rng = random.Random("solve_shapes")
        return [
            {"n": n, "rho": rho, "kind": kind, "points": [str(z) for z in kind_points(rng, kind, n - 1)]}
            for n, rho in SOLVE_CLASSES
            for kind in KINDS
            for _ in range(per_kind)
        ]

    def passes(self, seed: int):
        """One pass: every (n, rho) class once with integer and once with Gaussian poles."""
        rng = random.Random(seed)
        while True:
            items = []
            for n, rho in SOLVE_CLASSES:
                for kind in KINDS:
                    entry, system = rng.choice(self.pool[(n, rho, kind)])
                    items += [ShapeItem(entry, system, si) for si in range(len(SHAPES[n]))]
            yield items

    def warmup_items(self, seed: int):
        entry, system = self.pool[(4, -2, "int")][0]
        return [ShapeItem(entry, system, 0)]

    @staticmethod
    def expected(item):
        return item.entry.get("digests", {}).get(str(item.shape_index))

    def run(self, item: ShapeItem):
        p, d = SHAPES[item.system.n][item.shape_index]
        basis = ansatz.solve_ansatz(item.system, pole_order=p, poly_degree=d)
        spans = None
        if item.shape_index == 0:
            self._first = (id(item.entry), basis)
        elif self._first is not None and self._first[0] == id(item.entry):
            spans = [ansatz.in_span(basis, fn, p, d) for fn in self._first[1]]
        return basis, spans

    @staticmethod
    def outputs(item, result):
        basis, spans = result
        return {"basis": [_fn_json(fn) for fn in basis], "in_span": spans}

    @staticmethod
    def problems(item, result) -> list[str]:
        basis, spans = result
        out = []
        want = item.entry["dims"][str(item.shape_index)]
        if len(basis) != want:
            out.append(f"basis dimension {len(basis)}, expected {want}")
        if item.system.rho == -1 and len(basis) != item.system.n:
            out.append("rho = -1 basis is not fundamental")
        if spans is not None and not all(spans):
            out.append("(1,1) solution outside the larger shape's span")
        if item.shape_index > 0 and spans is None:
            out.append("no (1,1) basis to compare against")
        return out


# -- series_spectrum ----------------------------------------------------------

SERIES_CLASSES = tuple((n, rho) for n in (4, 5, 6) for rho in (-1, 1, -2, 2))
SPECTRUM_NS = tuple(range(3, 10))


@dataclass
class SeriesItem:
    entry: dict | None
    system: object | None
    pole: int
    n: int


class SeriesSpectrum(Checked):
    """Local series at one pole per op, or one ``t_spectrum(n)``.

    Hundreds of small ``solve_affine``/``nullspace`` calls plus
    ``char_poly`` and the integer-root search: the elimination layer used
    small, where solve_shapes uses it large. ``t_spectrum(9)`` is the tail.
    """

    name = "series_spectrum"
    in_process = True
    timeout = 60.0

    def __init__(self, refs: dict):
        data = refs[self.name]
        self.pool: dict[tuple, list] = {}
        for entry in data["systems"]:
            key = (entry["n"], entry["rho"], entry["kind"])
            self.pool.setdefault(key, []).append((entry, _system(entry)))
        self.spectra = data["spectra"]

    @staticmethod
    def make_pool(per_kind: int = 4) -> dict:
        rng = random.Random("series_spectrum")
        systems = [
            {"n": n, "rho": rho, "kind": kind, "points": [str(z) for z in kind_points(rng, kind, n - 1)]}
            for n, rho in SERIES_CLASSES
            for kind in KINDS
            for _ in range(per_kind)
        ]
        return {"systems": systems, "spectra": {str(n): None for n in SPECTRUM_NS}}

    def passes(self, seed: int):
        """One pass: every pole of every (n, rho) class for both pole kinds, and t_spectrum(3..9)."""
        rng = random.Random(seed)
        while True:
            items = []
            for n, rho in SERIES_CLASSES:
                for kind in KINDS:
                    entry, system = rng.choice(self.pool[(n, rho, kind)])
                    items += [SeriesItem(entry, system, k, n) for k in range(1, n)]
            yield items + [SeriesItem(None, None, 0, n) for n in SPECTRUM_NS]

    def warmup_items(self, seed: int):
        entry, system = self.pool[(4, -1, "int")][0]
        return [SeriesItem(entry, system, 1, 4), SeriesItem(None, None, 0, 3)]

    def expected(self, item):
        if item.system is None:
            return self.spectra.get(str(item.n))
        return item.entry.get("digests", {}).get(str(item.pole))

    def run(self, item: SeriesItem):
        if item.system is None:
            return symrep.t_spectrum(item.n)
        window = frobenius.exponent_window(item.system, item.pole)
        return window, frobenius.frobenius_solve(item.system, item.pole, window[1] + 2)

    @staticmethod
    def outputs(item, result):
        if item.system is None:
            return {"spectrum": sorted(result.eigenvalues.items()), "window": [result.least, result.greatest]}
        window, families = result
        return {
            "window": list(window),
            "families": [
                {
                    "start": fam.start,
                    "order": fam.order,
                    "columns": {str(q): [_vec(v) for v in cols] for q, cols in sorted(fam.basis.items())},
                }
                for fam in families
            ],
        }

    @staticmethod
    def problems(item, result) -> list[str]:
        if item.system is None:
            n = item.n
            if result.eigenvalues != {n - 1: 1, n - 2: n - 2, -1: 1}:
                return [f"T spectrum {result.eigenvalues} for n = {n}"]
            return []
        window, families = result
        r = abs(item.system.rho)
        out = []
        if tuple(window) != (-r, r):
            out.append(f"exponent window {window}, expected {(-r, r)}")
        if not families:
            out.append("no series family")
        for fam in families:
            if all(col.is_zero() for col in fam.basis[fam.start]):
                out.append(f"family start={fam.start} has a zero leading coefficient")
        return out


WORKLOADS = {cls.name: cls for cls in (VerifySweep, SolveShapes, SeriesSpectrum)}
