import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quivex import formats
from quivex.bundles import a2crystal_bundle, d4_bundle, get_bundle
from quivex.errors import DomainError, FormatError
from quivex.hecke import class_layout, recovery_classes, reduce_i
from quivex.quiver import ade_minimal_resolution_setup
from quivex.ratmat import RatMatrix


A1 = ade_minimal_resolution_setup("A1")[0]
# a JSON rational is read as a matrix entry and as a zeta value
READS = [
    lambda obj: formats.matrix_from_json([[obj]], 1, 1)[0, 0],
    lambda obj: formats.zeta_from_json(A1, {"1": obj})["1"],
]


def test_fraction_round_trip():
    assert formats.fraction_to_json(Fraction(3)) == 3
    assert formats.fraction_to_json(Fraction(-1, 2)) == "-1/2"
    for read in READS:
        assert read("2/4") == Fraction(1, 2)
        assert read(-7) == Fraction(-7)
        with pytest.raises(FormatError):
            read("1/0")
        with pytest.raises(FormatError, match="1.5"):
            read(1.5)
        with pytest.raises(FormatError, match="True"):
            read(True)


@pytest.mark.parametrize(
    "literal", ["1_0", " 3 ", "+4", "\u0661\u0662/3", "", "-", "1/", "/2", "1/2/3", "3\n", "1.5", "--1"]
)
def test_fraction_rejects_loose_literals(literal):
    for read in READS:
        with pytest.raises(FormatError):
            read(literal)


@pytest.mark.parametrize("literal, value", [("1/-2", Fraction(-1, 2)), ("-0", 0), ("007", 7)])
def test_fraction_accepts_plain_literals(literal, value):
    for read in READS:
        assert read(literal) == value


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


def test_rep_decoder_reads_no_quiver_path(tmp_path, monkeypatch):
    # the CLI reads a quiver named by path; to the decoder it is a bad quiver
    x = a2crystal_bundle().reps["generic"]
    (tmp_path / "quiver.json").write_text(json.dumps(formats.quiver_to_json(x.dq.base)))
    monkeypatch.chdir(tmp_path)
    payload = dict(formats.rep_to_json(x), quiver="quiver.json")
    with pytest.raises(FormatError, match="^quiver needs 'vertices' and 'arrows'$"):
        formats.rep_from_json(payload)


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


def test_dimvec_rejects_non_integers():
    q = ade_minimal_resolution_setup("A2")[0]
    assert formats.dimvec_from_json(q, {"1": 2}).as_dict() == {"1": 2, "2": 0}
    for bad in (2.5, 2.0, True, "2", None, [1]):
        with pytest.raises(FormatError):
            formats.dimvec_from_json(q, {"1": bad})


@pytest.mark.parametrize(
    "params, message",
    [
        ({"n": 2.7}, "parameter n must be an integer, got 2.7"),
        ({"k": True}, "parameter k must be an integer, got True"),
        ({"n": "3"}, "parameter n must be an integer, got '3'"),
    ],
    ids=["float", "bool", "str"],
)
def test_get_bundle_rejects_non_integer_parameters(params, message):
    with pytest.raises(FormatError, match=message):
        get_bundle("a1", **params)


def test_quiver_rejects_non_string_names():
    for vertices, arrow in [
        ([1, 2], {"name": "a", "from": 1, "to": 2}),
        (["1", "2"], {"name": 5, "from": "1", "to": "2"}),
        (["1", "2"], {"name": "a", "from": "1"}),
        (["1", "2"], "a"),
    ]:
        with pytest.raises(FormatError):
            formats.quiver_from_json({"vertices": vertices, "arrows": [arrow]})


# ------------------------------------------------------------ fuzz
#
# Every decoder either returns or raises FormatError/DomainError on any JSON.
# Integers stay small: a large dimV would build zero blocks of that size.

NAMES = ["1", "2", "a", "a*", "1->2", "2->1*", "", "/", "\x00"]
KEYS = NAMES + [
    "vertices", "arrows", "name", "from", "to", "quiver", "dimV", "dimW",
    "B", "I", "J", "vertex", "classes", "layout_sha256",
]
JSON = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 5)
    | st.floats()
    | st.sampled_from(NAMES + ["1/2", "x"]),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.sampled_from(KEYS), children, max_size=4),
    max_leaves=12,
)
FUZZ = settings(deadline=None, max_examples=75)

A2 = ade_minimal_resolution_setup("A2")[0]
GENERIC = a2crystal_bundle().reps["generic"]
REDUCTION = reduce_i(GENERIC, "2")
LAYOUT = class_layout(REDUCTION.reduced, "2")
VALID = {
    "quiver": formats.quiver_to_json(A2),
    "dimvec": {"1": 1, "2": 2},
    "rep": formats.rep_to_json(GENERIC),
    "classes": formats.classes_to_json(LAYOUT, "2", recovery_classes(GENERIC, "2", REDUCTION)),
}


def _slots(doc):
    """Every (container, key) pair inside a JSON document."""
    if isinstance(doc, dict):
        items = doc.items()
    elif isinstance(doc, list):
        items = enumerate(doc)
    else:
        return
    for key, value in items:
        yield doc, key
        yield from _slots(value)


@st.composite
def mutated(draw, kind):
    """A valid payload with one value replaced by arbitrary JSON or one key dropped."""
    doc = copy.deepcopy(VALID[kind])
    container, key = draw(st.sampled_from(list(_slots(doc))))
    if isinstance(container, dict) and draw(st.booleans()):
        del container[key]
    else:
        container[key] = draw(JSON)
    return doc


def decode(kind, obj):
    try:
        if kind == "quiver":
            formats.quiver_from_json(obj)
        elif kind == "dimvec":
            formats.dimvec_from_json(A2, obj)
        elif kind == "rep":
            formats.rep_from_json(obj)
        else:
            formats.classes_from_json(obj, LAYOUT, "2")
    except (FormatError, DomainError):
        pass


@pytest.mark.parametrize("kind", sorted(VALID))
@given(data=st.data())
@FUZZ
def test_decoders_on_arbitrary_json(kind, data):
    decode(kind, data.draw(JSON))


@pytest.mark.parametrize("kind", sorted(VALID))
@given(data=st.data())
@FUZZ
def test_decoders_on_mutated_payloads(kind, data):
    decode(kind, data.draw(mutated(kind)))
