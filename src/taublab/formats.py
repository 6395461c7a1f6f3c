"""Wire formats: JSON for lattice sets, JSON and CSV for halos and sweeps.

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
from .lattice import HaloSet, LatticeSet
from .rational import format_rational
from .search import SweepResult


# -- lattice sets -----------------------------------------------------------


def lattice_set_to_json_dict(E: LatticeSet) -> dict:
    return {"dim": E.dim, "points": [list(p) for p in E.points]}


def _json_int(value) -> int:
    """A JSON integer; floats and booleans are refused, not truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    raise InputFormatError(f"lattice set dim and coordinates must be JSON integers, got {value!r}")


def lattice_set_from_json_dict(data) -> LatticeSet:
    if not isinstance(data, dict) or "dim" not in data or "points" not in data:
        raise InputFormatError('lattice set JSON needs "dim" and "points"')
    try:
        dim = _json_int(data["dim"])
        points = [tuple(_json_int(c) for c in p) for p in data["points"]]
    except TypeError as exc:
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


# -- halos ------------------------------------------------------------------


def halo_to_csv(h: HaloSet) -> str:
    header = ",".join(f"x{i}" for i in range(h.members.dim))
    lines = [header]
    lines.extend(",".join(str(c) for c in p) for p in h.members.points)
    lines.append(
        f"# alpha={format_rational(h.alpha)} members={len(h.members)} "
        f"source={len(h.source)} ratio={format_rational(h.ratio)}"
    )
    return "\n".join(lines) + "\n"


def halo_to_json_dict(h: HaloSet) -> dict:
    return {
        "alpha": format_rational(h.alpha),
        "members": [list(p) for p in h.members.points],
        "source": [list(p) for p in h.source.points],
        "ratio": format_rational(h.ratio),
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
