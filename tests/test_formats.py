import json
from fractions import Fraction

import pytest

from quivex import formats
from quivex.bundles import a2crystal_bundle, d4_bundle
from quivex.errors import FormatError
from quivex.hecke import class_layout, recovery_classes, reduce_i
from quivex.quiver import ade_minimal_resolution_setup
from quivex.ratmat import RatMatrix


def test_fraction_round_trip():
    assert formats.fraction_to_json(Fraction(3)) == 3
    assert formats.fraction_to_json(Fraction(-1, 2)) == "-1/2"
    assert formats.fraction_from_json("2/4") == Fraction(1, 2)
    assert formats.fraction_from_json(-7) == Fraction(-7)
    with pytest.raises(FormatError):
        formats.fraction_from_json("1/0")
    with pytest.raises(FormatError):
        formats.fraction_from_json(1.5)
    with pytest.raises(FormatError):
        formats.fraction_from_json(True)


def test_matrix_round_trip():
    m = RatMatrix.from_rows([[1, "1/3"], [0, -2]])
    encoded = formats.matrix_to_json(m)
    assert encoded == [[1, "1/3"], [0, -2]]
    assert formats.matrix_from_json(encoded, 2, 2) == m
    with pytest.raises(FormatError):
        formats.matrix_from_json(encoded, 3, 2)
    with pytest.raises(FormatError):
        formats.matrix_from_json([[1], [2, 3]], 2, 1)


def test_quiver_round_trip():
    q = ade_minimal_resolution_setup("D4")[0]
    assert formats.quiver_from_json(formats.quiver_to_json(q)) == q
    with pytest.raises(FormatError):
        formats.quiver_from_json({"vertices": ["1"]})


def test_rep_round_trip():
    for name, x in a2crystal_bundle().reps.items():
        encoded = formats.rep_to_json(x)
        assert formats.rep_from_json(encoded) == x
        # zero blocks are omitted on output
        assert all(not RatMatrix.from_rows(m).is_zero for m in encoded["B"].values())


def test_rep_round_trip_through_json_text():
    x = d4_bundle().reps["point"]
    text = json.dumps(formats.rep_to_json(x), sort_keys=True)
    assert formats.rep_from_json(json.loads(text)) == x


def test_rep_with_quiver_path(tmp_path):
    x = a2crystal_bundle().reps["generic"]
    qpath = tmp_path / "quiver.json"
    qpath.write_text(json.dumps(formats.quiver_to_json(x.dq.base)))
    payload = formats.rep_to_json(x)
    payload["quiver"] = "quiver.json"
    assert formats.rep_from_json(payload, base_dir=tmp_path) == x


def test_rep_rejects_unknown_blocks():
    x = a2crystal_bundle().reps["generic"]
    payload = formats.rep_to_json(x)
    payload["B"]["bogus"] = [[1]]
    with pytest.raises(FormatError):
        formats.rep_from_json(payload)


def test_cocycle_layout_hash_round_trip():
    x = a2crystal_bundle().reps["generic"]
    red = reduce_i(x, "2")
    classes = recovery_classes(x, "2", red)
    layout = class_layout(red.reduced, "2")
    payload = formats.classes_to_json(layout, "2", classes)
    decoded = formats.classes_from_json(payload, layout, "2")
    assert decoded == classes
    tampered = dict(payload, layout_sha256="0" * 64)
    with pytest.raises(FormatError, match="layout"):
        formats.classes_from_json(tampered, layout, "2")
    with pytest.raises(FormatError, match="vertex"):
        formats.classes_from_json(payload, layout, "1")


def test_fingerprint_serialization():
    from quivex.invariants import pi_fingerprint

    x = a2crystal_bundle().reps["generic"]
    encoded = formats.fingerprint_to_json(pi_fingerprint(x, 2))
    kinds = {list(label.keys())[0] for label, _ in encoded}
    assert kinds == {"cycle", "path"}
