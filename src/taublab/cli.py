"""Command-line surface: evaluate, halo, sweep, verify.

Exit codes are a fixed contract for CI use: 0 success, 1 a verification
scenario failed, 2 malformed input (files, flags, rationals), 3 domain
errors (thresholds outside (0,1), dimension mismatches, oversized requests).

Thresholds are accepted only as exact rationals ("1/2", "2/3"); decimals are
rejected with a hint, since the quantities computed here jump exactly at
rational thresholds.  Every file written gets a deterministic sidecar
manifest <out>.manifest.json recording the command, resolved configuration,
seeds, input digests, and tool version; rerunning the same invocation
reproduces output bytes exactly.  `main` builds its parser once per process,
on its first call, so it may be called repeatedly in one process.
"""

from __future__ import annotations

import argparse
import random
import sys
from fractions import Fraction

from . import __version__
from .errors import DomainError, InputFormatError
from .ergodic import (
    AtomicSystem,
    MeasurableSet,
    exact_tauberian,
    ergodic_halo_measure,
    eval_ergodic_max,
    index,
    make_cyclic,
    one_sided_exact_tauberian,
    transfer_witness,
)
from .formats import (
    build_manifest,
    halo_to_csv,
    halo_to_json_dict,
    dumps_deterministic,
    load_lattice_set,
    sweep_to_csv,
    sweep_to_json,
    write_with_manifest,
)
from .lattice import (
    LatticeSet,
    eval_strong_max,
    halo,
    halo_ratio,
    interval_witness,
    one_sided_halo_ratio,
)
from .rational import format_rational, parse_rational, require_alpha
from .search import STRATEGIES, SearchConfig, sweep


def _parse_point(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(c) for c in text.split(","))
    except ValueError as exc:
        raise InputFormatError(f"cannot parse lattice point from {text!r}") from exc


def _parse_grid(text: str) -> list[Fraction]:
    return [parse_rational(part) for part in text.split(",") if part.strip()]


def _parse_window(text: str, dim: int) -> tuple[tuple[int, int], ...]:
    bounds = []
    for part in text.split(","):
        lo, _, hi = part.partition(":")
        try:
            bounds.append((int(lo), int(hi)))
        except ValueError as exc:
            raise InputFormatError(f"cannot parse window bounds from {part!r}") from exc
    if len(bounds) == 1 and dim > 1:
        bounds = bounds * dim
    return tuple(bounds)


def _write_output(args, argv, command: str, render, config: dict, rng_seed, input_paths) -> None:
    """Write render(fmt) to --out with its manifest; the format is --format,
    else json for a .json file and csv otherwise."""
    fmt = args.format or ("json" if str(args.out).endswith(".json") else "csv")
    manifest = build_manifest(
        command=command,
        argv=argv,
        config={**config, "format": fmt},
        rng_seed=rng_seed,
        input_paths=input_paths,
        version=__version__,
    )
    write_with_manifest(args.out, render(fmt), manifest)


def cmd_eval(args, argv) -> int:
    E = load_lattice_set(args.set_file)
    point = _parse_point(args.point)
    alpha = require_alpha(args.alpha) if args.alpha is not None else None
    value = eval_strong_max(E, point)
    print(format_rational(value))
    if alpha is not None:
        print("EXCEEDS" if value > alpha else "NOT")
    return 0


def cmd_halo(args, argv) -> int:
    E = load_lattice_set(args.set_file)
    alpha = require_alpha(args.alpha)
    h = halo(E, alpha)
    print(f"members={len(h.members)} ratio={format_rational(h.ratio)}")
    if args.out:
        _write_output(
            args, argv, "halo",
            lambda fmt: dumps_deterministic(halo_to_json_dict(h)) if fmt == "json" else halo_to_csv(h),
            {"alpha": format_rational(alpha), "set_file": str(args.set_file)},
            rng_seed=None, input_paths=[args.set_file],
        )
    return 0


def cmd_sweep(args, argv) -> int:
    grid = _parse_grid(args.grid)
    window = _parse_window(args.window, args.dim)
    config = SearchConfig(
        dim=args.dim,
        window=window,
        strategy=args.strategy,
        rng_seed=args.seed,
        budget=args.budget,
        max_block=args.max_block,
        one_sided=args.one_sided,
    )
    result = sweep(grid, config)
    _write_output(
        args, argv, "sweep",
        lambda fmt: sweep_to_json(result) if fmt == "json" else sweep_to_csv(result),
        {**config.to_json_dict(), "grid": [format_rational(a) for a in grid]},
        rng_seed=args.seed, input_paths=[],
    )
    print(f"wrote {args.out} ({len(result.entries)} grid points)")
    return 0


# ---------------------------------------------------------------------------
# verify scenarios: each pins one crisp claim about the operators and checks
# it with exact arithmetic, printing one line per assertion.
# ---------------------------------------------------------------------------


class _Checks:
    def __init__(self):
        self.failures = 0

    def check(self, label: str, ok: bool, detail: str = ""):
        tag = "PASS" if ok else "FAIL"
        suffix = f"  [{detail}]" if detail else ""
        print(f"{tag}  {label}{suffix}")
        if not ok:
            self.failures += 1


def _trial_count(params, default: int) -> int:
    count = params[1] if len(params) > 1 else default
    if count < 1:
        raise DomainError(f"the number of random trials must be >= 1, got {count}")
    return count


def _verify_example1(checks: _Checks, params):
    system = make_cyclic(2)
    expected = {
        Fraction(1, 2): Fraction(2),
        Fraction(2, 3): Fraction(1),
        Fraction(3, 4): Fraction(1),
    }
    for alpha, want in expected.items():
        got = exact_tauberian(system, alpha).value
        checks.check(
            f"two-atom rotation: C({format_rational(alpha)}) == {format_rational(want)}",
            got == want,
            f"got {format_rational(got)}",
        )
    values = set()
    for mask in range(1, 4):
        E = MeasurableSet.of(system, [i for i in range(2) if mask >> i & 1])
        for atom in range(2):
            values.add(eval_ergodic_max(system, E, atom))
    checks.check(
        "two-atom rotation: maximal values lie in {0, 2/3, 1}",
        values <= {Fraction(0), Fraction(2, 3), Fraction(1)},
        f"values {sorted(values)}",
    )


def _verify_jump(checks: _Checks, params):
    n = params[0] if params else 3
    if n < 2 or n > 10:
        raise DomainError("jump scenario takes a cycle length between 2 and 10")
    system = make_cyclic(n)
    jump = Fraction(2 * n - 2, 2 * n - 1)
    below, above = jump - Fraction(1, 100), jump + Fraction(1, 100)
    est_below = exact_tauberian(system, below)
    est_above = exact_tauberian(system, above)
    target = Fraction(n, n - 1)
    checks.check(
        f"cycle {n}: C(jump - 1/100) >= {format_rational(target)}",
        est_below.value >= target,
        f"got {format_rational(est_below.value)}",
    )
    witness = MeasurableSet.of(system, range(1, n))
    wr = ergodic_halo_measure(system, witness, below) / witness.measure
    checks.check(
        f"cycle {n}: complement-of-one-atom witness achieves {format_rational(target)}",
        wr == target,
        f"got {format_rational(wr)}",
    )
    checks.check(
        f"cycle {n}: C(jump + 1/100) == 1",
        est_above.value == 1,
        f"got {format_rational(est_above.value)}",
    )


def _verify_index_collapse(checks: _Checks, params):
    rng = random.Random(params[0] if params else 20240901)
    for trial in range(10):
        k = rng.randint(1, 6)
        weights = [rng.randint(1, 5) for _ in range(k)]
        total = sum(weights)
        masses = tuple(Fraction(w, total) for w in weights)
        system = AtomicSystem(masses=masses, dim=1, generators=(tuple(range(k)),))
        idx = index(system)
        checks.check(f"identity on {k} atoms has index 1", idx.value == 1)
        ok = all(
            exact_tauberian(system, alpha).value == 1
            for alpha in (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))
        )
        checks.check(f"index-1 system {trial}: C(alpha) == 1 at 1/4, 1/2, 3/4", ok)


def _verify_transfer(checks: _Checks, params):
    rng = random.Random(params[0] if params else 7)
    count = _trial_count(params, 20)
    for trial in range(count):
        pts = sorted(rng.sample(range(0, 13), rng.randint(1, 6)))
        E = LatticeSet.from_points([(x,) for x in pts])
        alpha = Fraction(rng.randint(2, 5), rng.randint(6, 9))
        h = halo(E, alpha)
        bound = max(abs(p[0]) for p in h.members.points)
        M = 8 * (bound + 1)
        res = transfer_witness(make_cyclic(M), E, alpha)
        checks.check(
            f"witness {trial}: ergodic ratio >= discrete ratio into cycle {M}",
            res.ergodic_ratio >= res.discrete_ratio,
            f"{res.ergodic_ratio} vs {res.discrete_ratio}",
        )
        no_wrap = 2 * len(E) * alpha.denominator <= alpha.numerator * (M - 2 * bound - 1)
        if no_wrap:
            checks.check(
                f"witness {trial}: exact equality (no wraparound)",
                res.ergodic_ratio == res.discrete_ratio,
                f"{res.ergodic_ratio} vs {res.discrete_ratio}",
            )


def _verify_one_sided(checks: _Checks, params):
    rng = random.Random(params[0] if params else 11)
    count = _trial_count(params, 100)
    for _ in range(count):
        pts = sorted(rng.sample(range(-8, 9), rng.randint(1, 7)))
        E = LatticeSet.from_points([(x,) for x in pts])
        alpha = Fraction(rng.randint(1, 9), 10)
        ratio = one_sided_halo_ratio(E, alpha)
        if not ratio <= 1 / alpha:
            checks.check("forward-window ratio within 1/alpha", False, f"{pts} at {alpha}")
            break
    else:
        checks.check(f"forward-window ratio <= 1/alpha on {count} random sets", True)
    got = one_sided_halo_ratio(LatticeSet.from_points([(i,) for i in range(60)]), Fraction(1, 2))
    checks.check(
        "block of 60 at 1/2 gives exactly 119/60",
        got == Fraction(119, 60),
        f"got {format_rational(got)}",
    )
    system = make_cyclic(2)
    for alpha, want in ((Fraction(1, 3), 2), (Fraction(1, 2), 1), (Fraction(3, 4), 1)):
        got = one_sided_exact_tauberian(system, alpha).value
        checks.check(
            f"two-atom rotation: forward C({format_rational(alpha)}) == {want}",
            got == want,
            f"got {format_rational(got)}",
        )


def _verify_ceiling_1d(checks: _Checks, params):
    rng = random.Random(params[0] if params else 5)
    count = _trial_count(params, 500)
    worst = Fraction(0)
    for _ in range(count):
        pts = sorted(rng.sample(range(-12, 13), rng.randint(1, 10)))
        E = LatticeSet.from_points([(x,) for x in pts])
        alpha = Fraction(rng.randint(1, 19), 20)
        ratio = halo_ratio(E, alpha)
        ceiling = 2 / alpha - 1
        if ratio > ceiling:
            checks.check("halo ratio within 2/alpha - 1", False, f"{pts} at {alpha}")
            return
        worst = max(worst, ratio / ceiling)
    checks.check(
        f"halo ratio <= 2/alpha - 1 on {count} random sets", True, f"max fill {float(worst):.3f}"
    )
    est = interval_witness(60, Fraction(1, 2))
    checks.check(
        "block witness 60 at 1/2 reaches 89/30",
        est.value == Fraction(89, 30),
        f"got {format_rational(est.value)}",
    )


_SCENARIOS = {
    "example1": _verify_example1,
    "jump": _verify_jump,
    "index-collapse": _verify_index_collapse,
    "transfer": _verify_transfer,
    "one-sided": _verify_one_sided,
    "ceiling-1d": _verify_ceiling_1d,
}


def cmd_verify(args, argv) -> int:
    if args.scenario not in _SCENARIOS:
        raise DomainError(
            f"unknown scenario {args.scenario!r}; choose from {sorted(_SCENARIOS)}"
        )
    try:
        params = [int(text) for text in args.params]
    except ValueError as exc:
        raise InputFormatError(f"scenario parameters must be integers: {exc}") from exc
    checks = _Checks()
    _SCENARIOS[args.scenario](checks, params)
    if checks.failures:
        print(f"{checks.failures} check(s) FAILED")
        return 1
    print("all checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="taublab",
        description="exact maximal-operator level sets and Tauberian constants",
    )
    parser.add_argument("--version", action="version", version=f"taublab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate the strong maximal operator at a point")
    p_eval.add_argument("set_file", help="lattice set JSON file")
    p_eval.add_argument("--point", required=True, help="comma-separated coordinates, e.g. 4 or 1,2")
    p_eval.add_argument("--alpha", help="optional threshold p/q; prints EXCEEDS or NOT")
    p_eval.set_defaults(func=cmd_eval)

    p_halo = sub.add_parser("halo", help="compute a halo set and its ratio")
    p_halo.add_argument("set_file", help="lattice set JSON file")
    p_halo.add_argument("--alpha", required=True, help="threshold p/q")
    p_halo.add_argument("--out", help="output file (csv or json)")
    p_halo.add_argument("--format", choices=["csv", "json"])
    p_halo.set_defaults(func=cmd_halo)

    p_sweep = sub.add_parser("sweep", help="lower-bound sweep over a threshold grid")
    p_sweep.add_argument("--dim", type=int, default=1)
    p_sweep.add_argument("--grid", required=True, help="comma-separated rationals, e.g. 1/10,1/5,3/10")
    p_sweep.add_argument("--strategy", default="interval-family", choices=STRATEGIES)
    p_sweep.add_argument("--seed", type=int, default=0)
    p_sweep.add_argument("--budget", type=int, default=2000)
    p_sweep.add_argument("--max-block", type=int, default=60)
    p_sweep.add_argument("--window", default="0:11", help="per-axis bounds lo:hi[,lo:hi]")
    p_sweep.add_argument("--one-sided", action="store_true")
    p_sweep.add_argument("--out", required=True)
    p_sweep.add_argument("--format", choices=["csv", "json"])
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="check a pinned scenario; exit 0 iff all assertions hold")
    p_verify.add_argument("scenario", help=f"one of {sorted(_SCENARIOS)}")
    p_verify.add_argument("params", nargs="*", help="scenario parameters (e.g. cycle length for jump)")
    p_verify.set_defaults(func=cmd_verify)
    return parser


_parser: argparse.ArgumentParser | None = None  # main's, built by its first call


def main(argv=None) -> int:
    global _parser
    argv = list(sys.argv[1:] if argv is None else argv)
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except InputFormatError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
