"""Seeded task lists for the benchmark workloads.

A workload builds one *round*: a fixed list of tasks, each a call into
taublab with a check of its output and a digest of everything exact it
returned.  The timed phase repeats the round, so every round has exactly
the stated mix.

The seed picks the concrete inputs.  The sizes and thresholds of the
expensive tasks come from fixed ladders, and the seed moves those inputs by
a symmetry that leaves the amount of work unchanged: translations, cube
symmetries in 3-D, torus translations, and relabelled atoms.  The cheap
tasks are drawn freely, in stratified bins, so their sum barely depends on
the seed.  Without this, one 3-D set or torus halo drawn at random can cost
anywhere from 0.1 to 1 s, and the per-seed spread of the whole round would
swamp any change worth measuring.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

# Thresholds for the freely drawn tasks: every p/q with q <= 12 in [1/6, 5/6].
ALPHAS = sorted({Fraction(p, q) for q in range(2, 13) for p in range(1, q)
                 if Fraction(1, 6) <= Fraction(p, q) <= Fraction(5, 6)})

# The expensive inputs are drawn once from this fixed seed and then moved by
# the run's seed; see the module docstring.
CATALOGUE_SEED = 20161202


@dataclass
class Task:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], str | None]  # None when the output is right
    digest: Callable[[Any], str]


def digest_text(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _frac(x) -> str:
    x = Fraction(x)
    return f"{x.numerator}/{x.denominator}"


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list[float]:
    """n draws from [lo, hi), one from each of n equal bins, shuffled."""
    width = (hi - lo) / n
    out = [lo + (i + rng.random()) * width for i in range(n)]
    rng.shuffle(out)
    return out


def _alphas(rng: random.Random, n: int) -> list[Fraction]:
    """n thresholds from ALPHAS, one from each of n equal bins of the list."""
    return [ALPHAS[int(x)] for x in _stratified(rng, 0, len(ALPHAS), n)]


def _estimate_digest(est) -> str:
    witness = est.witness
    if hasattr(witness, "points"):
        witness = witness.points
    return digest_text(f"{_frac(est.alpha)}|{_frac(est.value)}|{witness!r}|{est.strategy}|{est.mode}")


# ---------------------------------------------------------------------------
# lattice-halo
# ---------------------------------------------------------------------------

SPANS_1D = (50, 100, 200, 500, 1000, 2000, 5000, 10_000, 20_000, 100_000)
CUBE = [(x, y, z) for x in range(3) for y in range(3) for z in range(3)]


def _lattice_task(tl, kind: str, E, alpha: Fraction) -> Task:
    lat = tl.lattice
    one_d = E.dim == 1

    if kind == "halo":
        def call():
            return lat.halo(E, alpha)

        def check(h):
            if any(p not in h.members for p in E.points):
                return "halo misses a point of E"
            if one_d and not Fraction(len(h.members), len(E)) < 2 / alpha - 1:
                return "1-D halo ratio reaches 2/alpha - 1"
            return None

        def digest(h):
            return digest_text(f"{len(h.members)}|{hash(h.members.points)}")
    else:
        fn_name = "halo_ratio" if kind == "halo_ratio" else "one_sided_halo_ratio"

        def call():
            return getattr(lat, fn_name)(E, alpha)

        def check(r):
            if r < 1:
                return "ratio below 1: the halo must contain E"
            if kind == "halo_ratio" and one_d and not r < 2 / alpha - 1:
                return "1-D two-sided ratio reaches 2/alpha - 1"
            if kind == "one_sided_halo_ratio" and not r <= 1 / alpha:
                return "one-sided ratio exceeds 1/alpha"
            return None

        def digest(r):
            return digest_text(_frac(r))
    return Task(f"{kind}/{E.dim}d", call, check, digest)


def _cube_image(points, rng: random.Random):
    """A random symmetry of the 3x3x3 box followed by a random translation."""
    axes = rng.choice(list(permutations(range(3))))
    flips = [rng.random() < 0.5 for _ in range(3)]
    shift = [rng.randint(-20, 20) for _ in range(3)]
    out = []
    for p in points:
        q = [p[a] for a in axes]
        out.append(tuple((2 - c if f else c) + s for c, f, s in zip(q, flips, shift)))
    return out


def build_lattice_halo(tl, seed: int, workdir: Path, tiny: bool = False) -> list[Task]:
    rng = random.Random(seed * 7919 + 1)
    cat = random.Random(CATALOGUE_SEED)
    LS = tl.lattice.LatticeSet
    kinds = ("halo_ratio", "one_sided_halo_ratio", "halo")
    tasks = []

    # 1-D random sets spanning exactly each ladder span, two per kind.  From
    # span 10^4 up, density and threshold come from the catalogue.
    spans = (50, 200) if tiny else SPANS_1D
    reps = 1 if tiny else 2
    for span in spans:
        prng = cat if span >= 10_000 else rng
        alphas = _alphas(prng, 3 * reps)
        for density, alpha in zip(_stratified(prng, 0.02, 0.5, 3 * reps), alphas):
            k = max(2, min(2000, round(span * density)))
            inner = rng.sample(range(1, span - 1), k - 2)
            off = rng.randint(-10**6, 10**6)
            E = LS.from_points([(x + off,) for x in [0, span - 1, *inner]])
            tasks.append(_lattice_task(tl, kinds[len(tasks) % 3], E, alpha))

    # 1-D blocks at thresholds 1/200 .. 1/10000 from the catalogue, in
    # stratified log bins of k*q up to 10^5.  The anchor interval(60) at
    # 1/10000 (about 1.2M halo points) sets the peak memory of the workload.
    n_blocks = 2 if tiny else 24
    for log_kq in _stratified(cat, math.log(400), math.log(20_000 if tiny else 100_000), n_blocks):
        kq = math.exp(log_kq)
        k_lo, k_hi = max(2.0, kq / 10_000), min(60.0, kq / 200)
        k = round(math.exp(cat.uniform(math.log(k_lo), math.log(k_hi))))
        q = max(200, min(10_000, round(kq / k)))
        off = rng.randint(-10**6, 10**6)
        E = tl.lattice.interval(k).translate((off,))
        tasks.append(_lattice_task(tl, kinds[len(tasks) % 3], E, Fraction(1, q)))
    if not tiny:
        E = tl.lattice.interval(60).translate((rng.randint(-10**6, 10**6),))
        tasks.append(_lattice_task(tl, "halo_ratio", E, Fraction(1, 10_000)))

    # 2-D random sets in m x m boxes.
    n_sets = 2 if tiny else 80
    for i, (side, alpha) in enumerate(zip(_stratified(rng, 4, 13, n_sets), _alphas(rng, n_sets))):
        m = int(side)
        n = rng.randint(3, min(16, m * m))
        cells = rng.sample([(r, c) for r in range(m) for c in range(m)], n)
        off = (rng.randint(-1000, 1000), rng.randint(-1000, 1000))
        E = LS.from_points([(r + off[0], c + off[1]) for r, c in cells])
        tasks.append(_lattice_task(tl, ("halo_ratio", "halo")[i % 2], E, alpha))

    # 2-D products of blocks up to 25 x 25 from the catalogue: a*b in
    # stratified bins, each threshold 1/2 .. 1/5 paired with every fourth area.
    n_products = 2 if tiny else 20
    areas = sorted(_stratified(cat, 1, 2 if tiny else 625, n_products))
    for i, area in enumerate(areas):
        a = cat.randint(max(1, math.ceil(area / 25)), min(25, max(1, int(area))))
        b = max(1, min(25, round(area / a)))
        E = tl.lattice.product_witness(tl.lattice.interval(a), tl.lattice.interval(b))
        E = E.translate((rng.randint(-1000, 1000), rng.randint(-1000, 1000)))
        alpha = Fraction(1, 2 + i % 4)
        tasks.append(_lattice_task(tl, ("halo_ratio", "halo")[i // 4 % 2], E, alpha))

    # 3-D sets of 2..6 points in a 3x3x3 box at 1/2 and 2/3: one catalogue set
    # per (size, threshold), moved by a random cube symmetry.
    sizes = (2,) if tiny else (2, 3, 4, 5, 6)
    for k in sizes:
        for alpha, kind in ((Fraction(1, 2), "halo"), (Fraction(2, 3), "halo_ratio")):
            base = cat.sample(CUBE, k)
            E = LS.from_points(_cube_image(base, rng))
            tasks.append(_lattice_task(tl, kind, E, alpha))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# ergodic-exact
# ---------------------------------------------------------------------------


def relabel(tl, system, rng: random.Random):
    """The same system with its atoms renamed by a random permutation."""
    n = system.atom_count
    new = list(range(n))
    rng.shuffle(new)
    masses = [None] * n
    for a in range(n):
        masses[new[a]] = system.masses[a]
    gens = []
    for g in system.generators:
        h = [0] * n
        for a in range(n):
            h[new[a]] = new[g[a]]
        gens.append(tuple(h))
    return tl.ergodic.AtomicSystem(masses=tuple(masses), dim=system.dim, generators=tuple(gens))


def _multi_cycle(tl, n: int, rng: random.Random):
    """n atoms in 2..4 cycles, each cycle with its own atom mass."""
    c = rng.randint(2, min(4, n))
    cuts = sorted(rng.sample(range(1, n), c - 1))
    lengths = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    weights = [rng.randint(1, 5) for _ in lengths]
    total = sum(w * L for w, L in zip(weights, lengths))
    masses, perm, start = [], [], 0
    for w, L in zip(weights, lengths):
        masses += [Fraction(w, total)] * L
        perm += [start + (i + 1) % L for i in range(L)]
        start += L
    system = tl.ergodic.AtomicSystem(masses=tuple(masses), dim=1, generators=(tuple(perm),))
    return relabel(tl, system, rng)


def _torus_translate(tl, system, sizes, atoms, rng: random.Random):
    shift = [rng.randrange(s) for s in sizes]
    return tuple(tl.ergodic.apply_power(system, a, shift) for a in atoms)


def _constant_task(tl, system, alpha: Fraction, one_sided: bool, cycle_n: int | None) -> Task:
    erg = tl.ergodic
    name = "one_sided_exact_tauberian" if one_sided else "exact_tauberian"

    def call():
        return getattr(erg, name)(system, alpha)

    def check(est):
        if est.mode != "exact":
            return f"mode {est.mode}, expected exact"
        W = erg.MeasurableSet.of(system, est.witness)
        measure = (erg.one_sided_ergodic_halo_measure if one_sided else erg.ergodic_halo_measure)
        if measure(system, W, alpha) / W.measure != est.value:
            return "witness does not achieve the reported value"
        if cycle_n is not None and not one_sided:
            jump = Fraction(2 * cycle_n - 2, 2 * cycle_n - 1)
            if alpha < jump and not est.value >= Fraction(cycle_n, cycle_n - 1):
                return "cycle below its jump gives less than N/(N-1)"
            if alpha > jump and est.value != 1:
                return "cycle above its jump gives a constant other than 1"
        return None

    label = "cycle" if cycle_n is not None else ("torus" if system.dim > 1 else "multicycle")
    return Task(f"{name}/{label}", call, check, _estimate_digest)


def _halo_measure_task(tl, system, E, alpha: Fraction) -> Task:
    erg = tl.ergodic

    def call():
        return erg.ergodic_halo_measure(system, E, alpha)

    def check(m):
        if not E.measure <= m <= 1:
            return "halo measure outside [measure(E), 1]"
        return None

    return Task("ergodic_halo_measure/torus", call, check, lambda m: digest_text(_frac(m)))


def _eval_task(tl, system, E, atom: int) -> Task:
    erg = tl.ergodic
    inside = atom in set(E.atoms)

    def call():
        return erg.eval_ergodic_max(system, E, atom)

    def check(v):
        if not 0 <= v <= 1:
            return "maximal value outside [0, 1]"
        if (v == 1) != inside:
            return "maximal value is not 1 exactly on the atoms of E"
        return None

    return Task("eval_ergodic_max/torus", call, check, lambda v: digest_text(_frac(v)))


def build_ergodic_exact(tl, seed: int, workdir: Path, tiny: bool = False) -> list[Task]:
    rng = random.Random(seed * 7919 + 2)
    erg = tl.ergodic
    tasks = []

    # Uniform cycles: two-sided just below and just above the jump
    # (2N-2)/(2N-1), one-sided at a free threshold.
    for n in ((3, 4) if tiny else range(3, 12)):
        system = relabel(tl, erg.make_cyclic(n), rng)
        jump = Fraction(2 * n - 2, 2 * n - 1)
        below = jump - Fraction(1, rng.randint(4 * n * n, 8 * n * n))
        above = jump + Fraction(1, rng.randint(4 * n * n, 8 * n * n))
        tasks.append(_constant_task(tl, system, below, False, n))
        tasks.append(_constant_task(tl, system, above, False, n))
        tasks.append(_constant_task(tl, system, rng.choice(ALPHAS), True, n))

    for n in ((4,) if tiny else range(6, 11)):
        system = _multi_cycle(tl, n, rng)
        tasks.append(_constant_task(tl, system, rng.choice(ALPHAS), False, None))
        tasks.append(_constant_task(tl, system, rng.choice(ALPHAS), True, None))

    tori = [((2, 2), Fraction(1, 2))] if tiny else [
        ((2, 3), Fraction(1, 3)), ((2, 3), Fraction(1, 2)), ((2, 3), Fraction(2, 3)),
        ((2, 4), Fraction(1, 3)), ((2, 4), Fraction(1, 2)),
        ((3, 3), Fraction(1, 3)), ((2, 2, 2), Fraction(1, 3)),
    ]
    for sizes, alpha in tori:
        system = relabel(tl, erg.make_torus(*sizes), rng)
        tasks.append(_constant_task(tl, system, alpha, False, None))

    # Torus halos and pointwise values.  Sets on tori up to 5x5 are drawn
    # freely; from 6x6 up a catalogue set is moved by a torus translation.
    cat = random.Random(CATALOGUE_SEED)
    halo_plan = [(4, 2)] if tiny else [(4, 6), (5, 4), (6, 2), (7, 1), (8, 1), (9, 1)]
    for s, count in halo_plan:
        system = erg.make_torus(s, s)
        for i in range(count):
            k = 2 + (i + s) % 5
            if s <= 5:
                atoms = rng.sample(range(s * s), k)
                alpha = rng.choice((Fraction(1, 2), Fraction(1, 3), Fraction(2, 3), Fraction(3, 5)))
            else:
                atoms = _torus_translate(tl, system, (s, s), cat.sample(range(s * s), k), rng)
                alpha = (Fraction(1, 2), Fraction(1, 3))[i % 2]
            E = erg.MeasurableSet.of(system, atoms)
            tasks.append(_halo_measure_task(tl, system, E, alpha))
        E = erg.MeasurableSet.of(system, rng.sample(range(s * s), rng.randint(2, 6)))
        for atom in ([E.atoms[0]] if tiny else [E.atoms[0], *rng.sample(range(s * s), 2)]):
            tasks.append(_eval_task(tl, system, E, atom))
    rng.shuffle(tasks)
    return tasks


# ---------------------------------------------------------------------------
# cli-mixed
# ---------------------------------------------------------------------------


def run_cli(tl, argv: list[str]):
    """taublab.cli.main(argv) with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            code = tl.cli.main(argv)
        except SystemExit as exc:  # argparse rejects a malformed argv this way
            code = exc.code
    return SimpleNamespace(code=code, stdout=out.getvalue(), stderr=err.getvalue())


def _cli_task(tl, kind: str, argv: list[str], out_file: str | None, inputs: list[str]) -> Task:
    def call():
        return run_cli(tl, argv)

    def check(res):
        if res.code != 0:
            return f"exit code {res.code}: {res.stderr.strip()[:200]}"
        if out_file is None:
            return None
        manifest_path = Path(out_file + ".manifest.json")
        if not Path(out_file).is_file() or not manifest_path.is_file():
            return "output file or manifest missing"
        manifest = json.loads(manifest_path.read_text())
        if manifest.get("argv") != argv or manifest.get("command") != argv[0]:
            return "manifest does not record the invocation"
        for path in inputs:
            want = hashlib.sha256(Path(path).read_bytes()).hexdigest()
            if manifest["inputs"].get(path) != want:
                return "manifest input digest is wrong"
        return None

    def digest(res):
        body = Path(out_file).read_bytes().decode() if out_file else ""
        return digest_text(f"{res.code}|{res.stdout}|{body}")

    return Task(kind, call, check, digest)


def _grid(rng: random.Random, lo: Fraction, hi: Fraction, n: int) -> str:
    """n increasing thresholds, one from each of n equal bins of [lo, hi)."""
    width = (hi - lo) / n
    pts = []
    for i in range(n):
        q = rng.randint(7, 13)
        a = lo + i * width
        p = max(1, math.ceil(a * q))
        while Fraction(p, q) <= (pts[-1] if pts else 0):
            p += 1
        pts.append(Fraction(p, q))
    return ",".join(_frac(a) for a in pts)


def build_cli_mixed(tl, seed: int, workdir: Path, tiny: bool = False) -> list[Task]:
    """Set files are written into workdir; argv names them relative to it, so
    the timed phase runs with workdir as the current directory."""
    rng = random.Random(seed * 7919 + 3)
    tasks = []
    n_sets = [0]

    def write_set(points) -> str:
        name = f"set_{n_sets[0]}.json"
        n_sets[0] += 1
        dim = len(points[0])
        pts = sorted({tuple(p) for p in points})
        (workdir / name).write_text(json.dumps({"dim": dim, "points": [list(p) for p in pts]}))
        return name

    def random_set(dim: int):
        if dim == 1:
            span = rng.randint(10, 80)
            return [(x,) for x in rng.sample(range(span), rng.randint(3, min(30, span)))]
        if dim == 2:
            return rng.sample([(r, c) for r in range(8) for c in range(8)], rng.randint(2, 10))
        return rng.sample(CUBE, rng.randint(2, 4))

    def out_name(ext: str) -> str:
        return f"out_{len(tasks)}.{ext}"

    # eval at points of 1-3-D sets, half with a threshold
    for i in range(3 if tiny else 48):
        dim = 1 + i % 3
        pts = random_set(dim)
        name = write_set(pts)
        anchor = rng.choice(pts)
        point = ",".join(str(c + rng.randint(-2, 2)) for c in anchor)
        argv = ["eval", name, f"--point={point}"]
        if i % 2:
            argv += ["--alpha", _frac(rng.choice(ALPHAS))]
        tasks.append(_cli_task(tl, f"eval/{dim}d", argv, None, [name]))

    # halo to CSV and JSON
    for i in range(2 if tiny else 28):
        dim = (1, 2, 1, 2, 1, 2, 3)[i % 7]
        pts = random_set(dim) if dim < 3 else rng.sample(CUBE, rng.randint(2, 3))
        name = write_set(pts)
        alpha = Fraction(1, 2) if dim == 3 else rng.choice(ALPHAS)
        out = out_name("json" if i % 2 else "csv")
        argv = ["halo", name, "--alpha", _frac(alpha), "--out", out]
        tasks.append(_cli_task(tl, f"halo/{dim}d", argv, out, [name]))

    # sweeps with every strategy, to CSV and JSON
    def sweep(kind, extra, grid):
        for ext in ("csv", "json"):
            out = out_name(ext)
            argv = ["sweep", "--grid", grid, *extra, "--out", out]
            tasks.append(_cli_task(tl, f"sweep/{kind}", argv, out, []))

    # Sizes, windows and budgets are fixed so the round's cost is; the seed
    # picks the grids, the anneal seed and the verify seeds.
    F = Fraction

    def size(full: int, small: int) -> str:
        return str(small if tiny else full)

    sweep("interval", ["--strategy", "interval-family", "--max-block", size(60, 6)],
          _grid(rng, F(1, 6), F(5, 6), 4))
    sweep("one-sided", ["--strategy", "interval-family", "--one-sided", "--max-block", size(60, 6)],
          _grid(rng, F(1, 6), F(5, 6), 4))
    sweep("product", ["--dim", "2", "--strategy", "product-family", "--max-block", size(10, 2)],
          _grid(rng, F(1, 3), F(3, 4), 3))
    sweep("box", ["--dim", "2", "--strategy", "box-family", "--max-block", size(5, 2)],
          _grid(rng, F(1, 3), F(3, 4), 2))
    sweep("exhaustive", ["--strategy", "exhaustive", "--window", "0:" + size(11, 4)],
          _grid(rng, F(1, 4), F(3, 4), 2))
    sweep("exhaustive-one-sided", ["--strategy", "exhaustive", "--one-sided",
                                   "--window", "0:" + size(9, 3)], _grid(rng, F(1, 4), F(3, 4), 2))
    sweep("anneal", ["--strategy", "anneal", "--window", "0:19", "--seed",
                     str(rng.randrange(10**6)), "--budget", size(800, 20)],
          _grid(rng, F(1, 4), F(3, 4), 2))

    # verify scenarios; the jump scenario runs on cycles of at most 8 atoms
    verifies = [
        ["ceiling-1d", str(rng.randrange(10**6)), size(200, 2)],
        ["one-sided", str(rng.randrange(10**6)), size(100, 2)],
        ["transfer", str(rng.randrange(10**6)), size(6, 1)],
        ["jump", str(rng.randint(6, 8) if not tiny else 3)],
    ] * (1 if tiny else 2)
    for params in verifies:
        tasks.append(_cli_task(tl, f"verify/{params[0]}", ["verify", *params], None, []))
    rng.shuffle(tasks)
    return tasks


# name -> build(tl, seed, workdir, tiny), which returns the round of tasks.  tl holds the
# imported taublab modules; only cli-mixed writes files into workdir.
WORKLOADS = {
    "lattice-halo": build_lattice_halo,
    "ergodic-exact": build_ergodic_exact,
    "cli-mixed": build_cli_mixed,
}
