"""JSON schemas shared by the CLI and the file formats, and the one reader
of CLI inputs.

Matrix entries are integers or strings ``"p/q"`` with positive denominator
and reduced fraction on output; inputs may be unnormalized.  See
docs/formats.md for the full schemas.

Decoding is strict: a value of the wrong JSON type is never coerced, and
every malformed payload raises ``FormatError`` (or ``DomainError`` when it
is well-formed JSON describing an impossible object).  Every decoder is a
function of a JSON value; only ``read_input`` reads bytes.
"""

from __future__ import annotations

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path
from typing import Any

from .bundles import ExampleBundle
from .errors import DomainError, FormatError
from .homext import BlockLayout
from .quiver import Arrow, DimVector, DoubledQuiver, Quiver, ZetaParam, double
from .ratmat import RatMatrix
from .rep import FramedRep, block_shapes


_JSON_KINDS = {dict: "a JSON object", list: "a JSON array", str: "a string", int: "an integer"}


def _read(obj: Any, kind: type, what: str) -> Any:
    """obj itself if it has the JSON kind (a bool is not an integer)."""
    if not isinstance(obj, kind) or isinstance(obj, bool):
        raise FormatError(f"{what} must be {_JSON_KINDS[kind]}, got {obj!r}")
    return obj


def fraction_to_json(value: Fraction) -> int | str:
    """An int, or "p/q"; DomainError past the int-to-string digit limit."""
    try:
        text = str(value)
    except ValueError:
        raise DomainError("a report value is past the int-to-string digit limit") from None
    return value.numerator if value.denominator == 1 else text


def matrix_to_json(m: RatMatrix) -> list[list[int | str]]:
    return [[fraction_to_json(v) for v in row] for row in m.data]


def matrix_from_json(obj: Any, rows: int, cols: int) -> RatMatrix:
    if not isinstance(obj, list):
        raise FormatError("matrix must be a JSON array of rows")
    if len(obj) != rows:
        raise FormatError(f"matrix has {len(obj)} rows, expected {rows}")
    for row in obj:
        if not isinstance(row, list) or len(row) != cols:
            raise FormatError(f"matrix row has wrong width, expected {cols}")
    return RatMatrix.from_rows(obj, cols=cols)


def quiver_to_json(q: Quiver) -> dict:
    return {
        "vertices": list(q.vertices),
        "arrows": [{"name": a.name, "from": a.source, "to": a.target} for a in q.arrows],
    }


def quiver_from_json(obj: Any) -> Quiver:
    if not isinstance(obj, dict) or "vertices" not in obj or "arrows" not in obj:
        raise FormatError("quiver needs 'vertices' and 'arrows'")
    vertices = [_read(v, str, "vertex name") for v in _read(obj["vertices"], list, "'vertices'")]
    arrows = []
    for a in _read(obj["arrows"], list, "'arrows'"):
        fields = _read(a, dict, "arrow")
        ends = (_read(fields.get(k), str, f"arrow {k!r}") for k in ("name", "from", "to"))
        arrows.append(Arrow(*ends))
    return Quiver(vertices, arrows)


def dimvec_to_json(v: DimVector) -> dict[str, int]:
    return v.as_dict()


def dimvec_from_json(q: Quiver | DoubledQuiver, obj: Any) -> DimVector:
    if not isinstance(obj, dict):
        raise FormatError("dimension vector must be a JSON object vertex -> integer")
    return DimVector.of(
        q, {_read(k, str, "vertex name"): _read(n, int, f"dimension at {k!r}") for k, n in obj.items()}
    )


def zeta_from_json(q: Quiver | DoubledQuiver, obj: Any) -> ZetaParam:
    if not isinstance(obj, dict):
        raise FormatError("zeta must be a JSON object vertex -> rational")
    return ZetaParam.of(q, {_read(k, str, "vertex name"): val for k, val in obj.items()})


def rep_to_json(x: FramedRep) -> dict:
    payload: dict[str, Any] = {
        "quiver": quiver_to_json(x.dq.base),
        "dimV": dimvec_to_json(x.dim_v),
        "dimW": dimvec_to_json(x.dim_w),
    }
    for family, blocks in x.blocks.items():
        payload[family] = {k: matrix_to_json(m) for k, m in blocks.items() if not m.is_zero}
    return payload


def rep_from_json(obj: Any) -> FramedRep:
    """A representation with its quiver inline; a quiver named by path is
    the caller's to read, and decodes here as a malformed quiver."""
    if not isinstance(obj, dict):
        raise FormatError("representation must be a JSON object")
    quiver = quiver_from_json(obj.get("quiver"))
    dq = double(quiver)
    if "dimV" not in obj:
        raise FormatError("representation needs 'dimV'")
    dim_v = dimvec_from_json(quiver, obj["dimV"])
    dim_w = dimvec_from_json(quiver, obj.get("dimW", {}))
    shapes = block_shapes(dq, dim_v, dim_w)
    blocks = {}
    for family, noun in (("B", "doubled arrow"), ("I", "vertex"), ("J", "vertex")):
        blocks[family] = {}
        for key, m in _read(obj.get(family, {}), dict, f"'{family}'").items():
            if key not in shapes[family]:
                raise FormatError(f"{family} block for unknown {noun} {key!r}")
            blocks[family][key] = matrix_from_json(m, *shapes[family][key])
    return FramedRep(dq, dim_v, dim_w, **blocks)


def bundle_to_json(b: ExampleBundle) -> dict:
    return {
        "name": b.name,
        "quiver": quiver_to_json(b.dq.base),
        "dimV": dimvec_to_json(b.dim_v),
        "dimW": dimvec_to_json(b.dim_w),
        "reps": {name: rep_to_json(x) for name, x in sorted(b.reps.items())},
        "notes": dict(sorted(b.notes.items())),
    }


def layout_sha256(layout: BlockLayout) -> str:
    canonical = json.dumps(layout.descriptor(), separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def classes_to_json(layout: BlockLayout, vertex: str, classes: list[RatMatrix]) -> dict:
    return {
        "vertex": vertex,
        "layout_sha256": layout_sha256(layout),
        "classes": [[fraction_to_json(v[k, 0]) for k in range(v.rows)] for v in classes],
    }


def classes_from_json(obj: Any, layout: BlockLayout, vertex: str) -> list[RatMatrix]:
    if not isinstance(obj, dict) or "classes" not in obj:
        raise FormatError("cocycle file needs a 'classes' array")
    if obj.get("vertex") != vertex:
        raise FormatError(
            f"cocycle file is for vertex {obj.get('vertex')!r}, not {vertex!r}"
        )
    expected = layout_sha256(layout)
    if obj.get("layout_sha256") != expected:
        raise FormatError("cocycle layout hash does not match this representation")
    out = []
    for entry in _read(obj["classes"], list, "'classes'"):
        if not isinstance(entry, list) or len(entry) != layout.dim:
            raise FormatError(f"cocycle vector must have {layout.dim} entries")
        out.append(RatMatrix.column(entry))
    return out


def fingerprint_to_json(entries) -> list[list]:
    out = []
    for label, value in entries:
        kind = label[0]
        if kind == "cycle":
            out.append([{"cycle": list(label[1:])}, fraction_to_json(value)])
        else:
            origin, word, target, r, c = label[1], label[2], label[3], label[4], label[5]
            out.append(
                [
                    {"path": {"from": origin, "word": list(word), "to": target, "entry": [r, c]}},
                    fraction_to_json(value),
                ]
            )
    return out


def read_input(label: str, value: str | Path) -> tuple[Any, dict[str, Any]]:
    """Read an input once: its JSON payload and its report record, which
    names the source and the sha256 of exactly the bytes decoded.

    A string is a CLI value (``-`` for stdin, inline JSON if it starts with
    ``{`` or ``[``, else a path); a ``Path`` is a path.  A path that cannot
    be read raises its ``OSError``.
    """
    text = value.strip() if isinstance(value, str) else ""
    source = "stdin" if text == "-" else "inline" if text.startswith(("{", "[")) else "path"
    where = str(Path(value)) if source == "path" else f"{source} JSON for {label}"
    try:
        if source == "path":
            data = Path(value).read_bytes()
        elif source == "stdin":
            data = sys.stdin.buffer.read()
        else:
            data = text.encode()
        payload = json.loads(data.decode("utf-8"))
    # ValueError: bad JSON or UTF-8, a too long integer, or a NUL in the path
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"{where}: invalid JSON ({exc})") from exc
    digest = hashlib.sha256(data).hexdigest()
    return payload, {source: where if source == "path" else True, "sha256": digest}
