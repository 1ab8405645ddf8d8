"""Canonical JSON serialization for coefficient files and sample dumps.

Coefficient files carry one entry per block:

    {"L": int, "blocks": [{"j": int, "l": int|null,
                           "m": [int], "re": [float], "im": [float]}]}

with arrays indexed m = -j..j.  Tensor-harmonic files add a top-level
"s" and populate "l"; path-tagged scalar blocks (coupling outputs with
multiplicity) add a "path": [j1, j2] entry, which tensor-harmonic
blocks may not carry.  The inverse transform
writes a raw sample dump: the grid header plus the complex samples as
nested re/im arrays.

Output is canonical: keys sorted, floats printed with 17 significant
digits (round-trip exact for float64), LF newlines; re-serializing a
parsed file reproduces it byte for byte.  Readers reject NaN and
infinite re/im entries with a ``SchemaError``.
"""

from __future__ import annotations

import operator

import numpy as np

from .angular import triangle_delta
from .sht import IrrepCoeffs, _block_sort_key, _trusted, make_grid
from .tsh import SpinSignal, TshCoeffs

__all__ = [
    "SchemaError",
    "canonical_json",
    "coeffs_to_obj",
    "coeffs_from_obj",
    "tsh_to_obj",
    "tsh_from_obj",
    "samples_to_obj",
    "samples_from_obj",
    "write_file",
    "read_file",
]


class SchemaError(ValueError):
    """Malformed coefficient/sample JSON; carries a JSON pointer."""

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer}: {message}")


def _format_float(x: float) -> str:
    if x != x or x in (float("inf"), float("-inf")):
        raise ValueError(f"non-finite float {x} cannot be serialized")
    return f"{float(x):.17g}"


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed float format, LF."""
    out: list[str] = []
    _write_canonical(obj, out)
    return "".join(out) + "\n"


def _write_canonical(obj, out: list) -> None:
    if isinstance(obj, dict):
        out.append("{")
        for i, key in enumerate(sorted(obj)):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys must be strings, got {key!r}")
            if i:
                out.append(", ")
            out.append(f'"{key}": ')
            _write_canonical(obj[key], out)
        out.append("}")
    elif isinstance(obj, (list, tuple)):
        out.append("[")
        for i, item in enumerate(obj):
            if i:
                out.append(", ")
            _write_canonical(item, out)
        out.append("]")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        import json

        out.append(json.dumps(obj))
    elif obj is None:
        out.append("null")
    else:
        raise TypeError(f"cannot serialize {type(obj)}")


def _block_obj(j: int, l, vec: np.ndarray, path=None) -> dict:
    obj = {
        "j": int(j),
        "l": None if l is None else int(l),
        "m": list(range(-j, j + 1)),
        "re": [float(v.real) for v in vec],
        "im": [float(v.imag) for v in vec],
    }
    if path is not None:
        obj["path"] = [int(p) for p in path]
    return obj


def _file_tag(j: int, tag):
    """``tag`` as ``coeffs_from_obj`` reads it back: None, l = j, or a path (j1, j2) on the triangle with j."""
    if tag is None:
        return None
    try:
        if isinstance(tag, tuple):
            path = tuple(map(operator.index, tag))
            if len(path) == 2 and min(path) >= 0 and triangle_delta(j, *path):
                return path
        elif operator.index(tag) == j:
            return int(j)
    except TypeError:
        pass
    raise ValueError(f"block {(j, tag)} has a tag that a coefficient file cannot carry: "
                     f"want None, l = j or a path (j1, j2) on the triangle with j")


def coeffs_to_obj(x: IrrepCoeffs) -> dict:
    """The file object of ``x``, every tag checked (``_file_tag``) before any block is written."""
    blocks = sorted(((int(j), _file_tag(j, tag), vec) for (j, tag), vec in x.blocks.items()),
                    key=lambda block: _block_sort_key(block[:2]))
    return {"L": int(x.L), "blocks": [
        _block_obj(j, None, vec, path=tag) if isinstance(tag, tuple) else _block_obj(j, tag, vec)
        for j, tag, vec in blocks]}


def tsh_to_obj(x: TshCoeffs) -> dict:
    blocks = [_block_obj(j, l, vec) for (j, l), vec in x.items()]
    return {"s": int(x.s), "L": int(x.L), "blocks": blocks}


def _is_int(v) -> bool:
    """A JSON integer; ``true``/``false`` load as bool, an int subclass, and are not."""
    return isinstance(v, int) and not isinstance(v, bool)


def _is_count(v) -> bool:
    return _is_int(v) and v >= 0


def _expect(cond: bool, pointer: str, message: str) -> None:
    if not cond:
        raise SchemaError(pointer, message)


def _check_top_level(obj, fields: tuple, counts: tuple) -> None:
    """An object holding ``fields``: ``counts`` non-negative integers, any /blocks a list."""
    _expect(isinstance(obj, dict), "", "top level must be an object")
    for field in fields:
        _expect(field in obj, f"/{field}", "missing field")
    for field in counts:
        _expect(_is_count(obj[field]), f"/{field}", f"{field} must be a non-negative integer")
    _expect(isinstance(obj.get("blocks", []), list), "/blocks", "must be a list")


def _parse_block(obj, i: int):
    ptr = f"/blocks/{i}"
    _expect(isinstance(obj, dict), ptr, "block must be an object")
    for field in ("j", "m", "re", "im"):
        _expect(field in obj, f"{ptr}/{field}", "missing field")
    j = obj["j"]
    _expect(_is_count(j), f"{ptr}/j", "j must be a non-negative integer")
    n = 2 * j + 1
    for field in ("m", "re", "im"):
        _expect(isinstance(obj[field], list) and len(obj[field]) == n,
                f"{ptr}/{field}", f"must be a list of length {n}")
    _expect(obj["m"] == list(range(-j, j + 1)), f"{ptr}/m", "must run -j..j")
    _expect(all(isinstance(v, (int, float)) and not isinstance(v, bool)
                for v in obj["re"] + obj["im"]),
            f"{ptr}/re", "re/im entries must be numbers")
    re = np.array(obj["re"], dtype=float)
    im = np.array(obj["im"], dtype=float)
    _expect(np.isfinite(re).all(), f"{ptr}/re", "entries must be finite")
    _expect(np.isfinite(im).all(), f"{ptr}/im", "entries must be finite")
    vec = re + 1j * im
    l = obj.get("l")
    _expect(l is None or _is_count(l), f"{ptr}/l",
            "l must be null or a non-negative integer")
    path = obj.get("path")
    if "path" in obj:
        _expect(isinstance(path, list) and len(path) == 2
                and all(_is_int(v) for v in path), f"{ptr}/path",
                "path must be a pair of integers")
        _expect(min(path) >= 0 and triangle_delta(j, *path), f"{ptr}/path",
                f"path degrees must be non-negative and form a triangle with j={j}")
        path = tuple(path)
    return j, l, path, vec


def coeffs_from_obj(obj) -> IrrepCoeffs:
    _check_top_level(obj, ("L", "blocks"), ("L",))
    blocks = {}
    for i, bobj in enumerate(obj["blocks"]):
        j, l, path, vec = _parse_block(bobj, i)
        _expect(l is None or l == j, f"/blocks/{i}/l",
                f"l of a scalar block must be null or j={j}")
        tag = path if path is not None else l
        _expect((j, tag) not in blocks, f"/blocks/{i}", f"duplicate block ({j}, {tag})")
        blocks[(j, tag)] = vec
    try:
        return IrrepCoeffs(L=obj["L"], blocks=blocks)
    except ValueError as exc:
        raise SchemaError("/blocks", str(exc)) from exc


def tsh_from_obj(obj) -> TshCoeffs:
    _check_top_level(obj, ("s", "L", "blocks"), ("s", "L"))
    blocks = {}
    for i, bobj in enumerate(obj["blocks"]):
        j, l, _path, vec = _parse_block(bobj, i)
        _expect("path" not in bobj, f"/blocks/{i}/path", "tensor-harmonic blocks carry no path")
        _expect(l is not None, f"/blocks/{i}/l", "tensor-harmonic blocks need l")
        _expect(triangle_delta(j, l, obj["s"]), f"/blocks/{i}/l",
                f"l must form a triangle with j={j} and s={obj['s']}")
        _expect((j, l) not in blocks, f"/blocks/{i}", f"duplicate block ({j}, {l})")
        blocks[(j, l)] = vec
    try:
        return TshCoeffs(s=obj["s"], L=obj["L"], blocks=blocks)
    except ValueError as exc:
        raise SchemaError("/blocks", str(exc)) from exc


def samples_to_obj(sig: SpinSignal) -> dict:
    return {
        "kind": "samples",
        "s": int(sig.s),
        "Lg": int(sig.grid.Lg),
        "n_theta": int(sig.grid.n_theta),
        "n_phi": int(sig.grid.n_phi),
        "re": sig.values.real.tolist(),
        "im": sig.values.imag.tolist(),
    }


def samples_from_obj(obj) -> SpinSignal:
    _check_top_level(obj, ("s", "Lg", "re", "im"), ("s", "Lg"))
    s, Lg = obj["s"], obj["Lg"]
    for field, want in (("kind", "samples"), ("n_theta", Lg + 1), ("n_phi", 2 * Lg + 1)):
        got = obj.get(field, want)  # a dump without the field stays readable
        _expect(type(got) is type(want) and got == want, f"/{field}", f"expected {want!r}, got {got!r}")
    # the header fixes the shape; check it before make_grid, which is O(Lg^2) memory
    shape = (Lg + 1, 2 * Lg + 1, 2 * s + 1)
    try:
        re = np.array(obj["re"], dtype=float)
        im = np.array(obj["im"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise SchemaError("/re", f"samples must be numeric arrays: {exc}") from exc
    _expect(re.shape == shape, "/re", f"expected shape {shape}, got {re.shape}")
    _expect(im.shape == shape, "/im", f"expected shape {shape}, got {im.shape}")
    _expect(np.isfinite(re).all(), "/re", "samples must be finite")
    _expect(np.isfinite(im).all(), "/im", "samples must be finite")
    # every SpinSignal check ran above, each with its JSON pointer
    return _trusted(SpinSignal, s=s, grid=make_grid(Lg), values=re + 1j * im)


def write_file(obj: dict, path) -> None:
    """Write ``obj`` as canonical JSON; a failed serialization leaves ``path`` untouched."""
    text = canonical_json(obj)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def read_file(path) -> dict:
    import json

    with open(path) as fh:
        return json.load(fh)
