"""Wire formats: JSON for sets and systems, CSV for halos and sweeps.

Rationals travel as lowest-terms "p/q" strings.  Decimal columns in CSV
output are a plotting convenience only and are never read back.  All writers
are deterministic (sorted keys, fixed float formatting, newline-terminated)
so identical runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from pathlib import Path

from .errors import InputFormatError
from .ergodic import AtomicSystem
from .estimate import TauberianEstimate
from .lattice import HaloSet, LatticeSet
from .rational import format_rational, parse_rational
from .search import SweepResult


# -- lattice sets -----------------------------------------------------------


def lattice_set_to_json_dict(E: LatticeSet) -> dict:
    return {"dim": E.dim, "points": [list(p) for p in E.points]}


def lattice_set_from_json_dict(data) -> LatticeSet:
    if not isinstance(data, dict) or "dim" not in data or "points" not in data:
        raise InputFormatError('lattice set JSON needs "dim" and "points"')
    try:
        dim = int(data["dim"])
        points = [tuple(int(c) for c in p) for p in data["points"]]
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed lattice set JSON: {exc}") from exc
    try:
        return LatticeSet.from_points(points, dim=dim)
    except Exception as exc:
        raise InputFormatError(f"malformed lattice set: {exc}") from exc


def load_lattice_set(path) -> LatticeSet:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc
    return lattice_set_from_json_dict(data)


def save_lattice_set(E: LatticeSet, path) -> None:
    Path(path).write_text(dumps_deterministic(lattice_set_to_json_dict(E)))


# -- atomic systems ---------------------------------------------------------


def atomic_system_to_json_dict(system: AtomicSystem) -> dict:
    return {
        "masses": [format_rational(m) for m in system.masses],
        "dim": system.dim,
        "generators": [list(g) for g in system.generators],
    }


def _parse_mass(m) -> Fraction:
    """A mass is an integer or a rational string; JSON floats are refused like
    decimal strings, because 0.1 has no exact binary value."""
    if isinstance(m, str):
        return parse_rational(m)
    if isinstance(m, int) and not isinstance(m, bool):
        return Fraction(m)
    raise InputFormatError(f"mass {m!r} must be an integer or a rational string like \"1/2\"")


def atomic_system_from_json_dict(data) -> AtomicSystem:
    if not isinstance(data, dict) or not {"masses", "dim", "generators"} <= set(data):
        raise InputFormatError('system JSON needs "masses", "dim" and "generators"')
    try:
        masses = tuple(_parse_mass(m) for m in data["masses"])
        dim = int(data["dim"])
        generators = tuple(tuple(int(i) for i in g) for g in data["generators"])
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"malformed system JSON: {exc}") from exc
    return AtomicSystem(masses=masses, dim=dim, generators=generators)


def load_atomic_system(path) -> AtomicSystem:
    try:
        data = json.loads(Path(path).read_text())
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"{path} is not valid JSON: {exc}") from exc
    return atomic_system_from_json_dict(data)


def save_atomic_system(system: AtomicSystem, path) -> None:
    Path(path).write_text(dumps_deterministic(atomic_system_to_json_dict(system)))


# -- halos ------------------------------------------------------------------


def halo_to_csv(h: HaloSet) -> str:
    header = ",".join(f"x{i}" for i in range(h.members.dim))
    lines = [header]
    lines.extend(",".join(str(c) for c in p) for p in h.members.points)
    ratio = Fraction(len(h.members), len(h.source))
    lines.append(
        f"# alpha={format_rational(h.alpha)} members={len(h.members)} "
        f"source={len(h.source)} ratio={format_rational(ratio)}"
    )
    return "\n".join(lines) + "\n"


def halo_to_json_dict(h: HaloSet) -> dict:
    ratio = Fraction(len(h.members), len(h.source))
    return {
        "alpha": format_rational(h.alpha),
        "members": [list(p) for p in h.members.points],
        "source": [list(p) for p in h.source.points],
        "ratio": format_rational(ratio),
    }


# -- sweeps -----------------------------------------------------------------


def _decimal(x: Fraction) -> str:
    return f"{float(x):.12g}"


def sweep_to_csv(result: SweepResult) -> str:
    lines = ["alpha,value,witness_size,halo_size,strategy,alpha_decimal,value_decimal"]
    for alpha, est in result.entries:
        if est.witness is None:
            wsize, hsize = "", ""
        else:
            size = len(est.witness)
            wsize = str(size)
            hsize = str(int(est.value * size))
        lines.append(
            ",".join(
                [
                    format_rational(alpha),
                    format_rational(est.value),
                    wsize,
                    hsize,
                    est.strategy,
                    _decimal(alpha),
                    _decimal(est.value),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def sweep_to_json(result: SweepResult) -> str:
    return dumps_deterministic(result.to_json_dict())


def estimate_to_json(est: TauberianEstimate) -> str:
    return dumps_deterministic(est.to_json_dict())


# -- manifests --------------------------------------------------------------


def dumps_deterministic(payload) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ": "), indent=1) + "\n"


def sha256_of_file(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def build_manifest(
    command: str,
    argv: list[str],
    config: dict,
    rng_seed: int | None,
    input_paths: list,
    version: str,
) -> dict:
    return {
        "command": command,
        "argv": list(argv),
        "config": config,
        "rng_seed": rng_seed,
        "inputs": {str(p): sha256_of_file(p) for p in input_paths},
        "version": version,
    }


def write_with_manifest(path, content: str, manifest: dict) -> None:
    """Write an output file and its manifest sidecar <path>.manifest.json."""
    out = Path(path)
    try:
        out.write_text(content)
        Path(str(out) + ".manifest.json").write_text(dumps_deterministic(manifest))
    except OSError as exc:
        raise InputFormatError(f"cannot write {path}: {exc}") from exc
