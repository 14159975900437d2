import argparse
import hashlib
import io
import json
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from quivex import formats, hecke
from quivex.acceptance import DEFAULT_SEED, build_corpus
from quivex.bundles import a1_bundle, a2crystal_bundle, an_bundle, an_chain_sample, d4_bundle
from quivex.cli import build_parser, main
from quivex.quiver import DimVector, ade_minimal_resolution_setup, cb_transform, double
from quivex.rep import FramedRep, cb_apply, sample_flat

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


def write_rep(tmp_path, name, rep):
    path = tmp_path / name
    path.write_text(json.dumps(formats.rep_to_json(rep)))
    return str(path)


def test_check_moment(capsys, tmp_path):
    rep = write_rep(tmp_path, "rep.json", an_bundle(3).reps["broken_1"])
    code, report = run_cli(capsys, "check-moment", "--rep", rep)
    assert code == 0
    assert report["result"]["flat"] is True
    assert report["inputs"]["rep"]["sha256"]


def test_stability_verdicts(capsys, tmp_path):
    generic = write_rep(tmp_path, "g.json", a2crystal_bundle().reps["generic"])
    code, report = run_cli(capsys, "stability", "--rep", generic, "--zeta", "pos")
    assert code == 0
    assert report["result"]["verdict"] == "stable"
    assert report["result"]["stabilizer_trivial"] is True
    code, report = run_cli(capsys, "stability", "--rep", generic, "--zeta", "neg")
    assert code == 0
    assert report["result"]["verdict"] == "unstable"
    assert report["result"]["witness_dims"] == {"1": 0, "2": 0}


@pytest.mark.parametrize(
    "member, zeta, dims", [("unstable", "pos", {"1": 1}), ("stable", "neg", {"1": 1}), ("unstable", "neg", {"1": 0})]
)
def test_stability_witness_dims_of_unstable_points(capsys, tmp_path, member, zeta, dims):
    rep = write_rep(tmp_path, "a1.json", a1_bundle(3, 2).reps[member])
    code, report = run_cli(capsys, "stability", "--rep", rep, "--zeta", zeta)
    assert code == 0
    assert report["result"]["verdict"] == "unstable"
    assert report["result"]["witness_dims"] == dims


def test_stability_mixed_zeta_exit_2(capsys, tmp_path):
    generic = write_rep(tmp_path, "g.json", a2crystal_bundle().reps["generic"])
    code, report = run_cli(
        capsys, "stability", "--rep", generic, "--zeta", '{"1": 1, "2": -1}'
    )
    assert code == 2
    assert report["error"]["type"] == "UnsupportedZetaError"


@pytest.mark.parametrize("zeta", ["pos", "neg"])
def test_stability_on_the_quiver_with_no_vertices(capsys, zeta):
    # the empty zeta is vacuously all-positive and all-negative
    rep = '{"quiver": {"vertices": [], "arrows": []}, "dimV": {}}'
    code, report = run_cli(capsys, "stability", "--rep", rep, "--zeta", zeta)
    assert code == 0
    assert report["result"] == {"verdict": "stable", "witness_dims": None, "stabilizer_trivial": True}


def test_missing_file_exit_1(capsys):
    code, report = run_cli(capsys, "check-moment", "--rep", "no/such/file.json")
    assert code == 1


def test_dim_and_chi_inline(capsys):
    quiver = json.dumps(formats.quiver_to_json(an_bundle(2).dq.base))
    code, report = run_cli(
        capsys, "dim", "--quiver", quiver, "--dim-v", '{"1": 1, "2": 1}',
        "--dim-w", '{"1": 1, "2": 1}',
    )
    assert code == 0
    assert report["result"] == {"dim_bigM": 6, "d": 2}
    code, report = run_cli(
        capsys, "chi", "--quiver", quiver, "--v1", '{"1": 1}', "--w1", "{}",
        "--v2", '{"1": 1, "2": 2}', "--w2", '{"1": 1, "2": 2}',
    )
    assert code == 0
    assert report["result"]["chi"] == 1


def test_weight_mult(capsys):
    q = json.dumps(formats.quiver_to_json(an_bundle(4).dq.base))
    code, report = run_cli(
        capsys, "weight-mult", "--quiver", q,
        "--dim-v", '{"1":1,"2":1,"3":1,"4":1}', "--dim-w", '{"1":1,"4":1}',
    )
    assert code == 0
    assert report["result"]["multiplicity"] == 4
    assert report["result"]["finite_type"] is True


@pytest.mark.parametrize(
    "label, factor, dim_v, multiplicity, cutoff",
    [
        pytest.param("A2", 1, '{"1": 1, "2": 1, "inf": 1}', 2, 3, id="triangle"),
        pytest.param(
            "E6", 1, '{"1": 1, "2": 2, "3": 2, "4": 3, "5": 2, "6": 1, "inf": 1}', 6, 12, id="affine-E6"
        ),
        pytest.param(
            "E6", 2, '{"1": 2, "2": 4, "3": 4, "4": 6, "5": 4, "6": 2, "inf": 1}', 36, 23, id="E6x2-rewrite"
        ),
    ],
)
def test_weight_mult_affine_triangle(capsys, label, factor, dim_v, multiplicity, cutoff):
    # the framing rewrite of an ADE setup with w scaled by factor, at the
    # drop delta (factor 1) or at 2v + e_inf (factor 2, the hyperbolic
    # rewrite, whose multiplicity is the finite one at 2v below 2w); the root
    # height comes from the drop
    q, _, w = ade_minimal_resolution_setup(label)
    scaled = DimVector(w.vertices, tuple(factor * x for x in w.values))
    affine = json.dumps(formats.quiver_to_json(cb_transform(q, scaled)[0]))
    code, report = run_cli(
        capsys, "weight-mult", "--quiver", affine, "--dim-v", dim_v, "--dim-w", '{"inf": 1}',
    )
    assert code == 0
    assert set(report) == {"command", "version", "inputs", "result"}
    assert set(report["result"]) == {"multiplicity", "weight", "finite_type", "cutoff"}
    assert report["result"]["multiplicity"] == multiplicity
    assert report["result"]["finite_type"] is False
    assert report["result"]["cutoff"] == cutoff


A2_QUIVER = '{"vertices": ["1", "2"], "arrows": [{"name": "a", "from": "1", "to": "2"}]}'


@pytest.mark.parametrize(
    "argv",
    [
        ["dim", "--quiver", A2_QUIVER, "--dim-v", '{"1": 2.5}', "--dim-w", "{}"],
        ["dim", "--quiver", A2_QUIVER, "--dim-v", '{"1": true}', "--dim-w", "{}"],
        ["dim", "--quiver", A2_QUIVER, "--dim-v", '{"1": "x"}', "--dim-w", "{}"],
        [
            "dim", "--quiver", '{"vertices": ["1"], "arrows": [{"name": 5, "from": "1", "to": "1"}]}',
            "--dim-v", "{}", "--dim-w", "{}",
        ],
        ["check-moment", "--rep", '{"quiver": ' + A2_QUIVER + ', "dimV": {"1": 1}, "B": [[1]]}'],
    ],
)
def test_malformed_input_exit_1_in_envelope(capsys, argv):
    code, report = run_cli(capsys, *argv)
    assert code == 1
    assert set(report) == {"command", "version", "error"}
    assert report["command"] == argv[0]
    assert report["error"]["type"] == "FormatError"


A2_REP = '{"quiver": ' + A2_QUIVER + ', "dimV": {"1": 1}'


@pytest.mark.parametrize(
    "argv, message",
    [
        (["check-moment", "--rep", A2_REP + ', "I": {"9": [[1]]}}'], "I block for unknown vertex '9'"),
        (["check-moment", "--rep", A2_REP + ', "J": {"9": [[1]]}}'], "J block for unknown vertex '9'"),
        (["check-moment", "--rep", '{"quiver": ' + A2_QUIVER + "}"], "representation needs 'dimV'"),
        (["stability", "--rep", A2_REP + "}", "--zeta", "[1]"], "zeta must be a JSON object vertex -> rational"),
        (["check-moment", "--rep", A2_REP + ', "B": {"a": 5}}'], "matrix must be a JSON array of rows"),
        (["stability", "--rep", A2_REP + "}", "--zeta", '{"9": 1}'], "zeta keys not in the quiver: ['9']"),
    ],
    ids=["I-unknown-vertex", "J-unknown-vertex", "no-dimV", "zeta-not-object", "B-not-array", "zeta-unknown-vertex"],
)
def test_refused_representation_and_zeta_exit_1_in_envelope(capsys, argv, message):
    code, report = run_cli(capsys, *argv)
    assert code == 1
    assert set(report) == {"command", "version", "error"}
    assert report["error"] == {"type": "FormatError", "message": message}


def _refusal_envelope(message):
    return (
        '{\n  "command": "check-moment",\n  "error": {\n    "message": "' + message
        + '",\n    "type": "FormatError"\n  },\n  "version": "0.1.0"\n}\n'
    )


A2_FRAMED = (
    '{"quiver": {"vertices": ["1", "2"], "arrows": [{"name": "1->2", "from": "1", "to": "2"}]}, '
    '"dimV": {"1": 1, "2": 1}, "dimW": {"1": 1, "2": 1}'
)


@pytest.mark.parametrize(
    "payload, stdout",
    [
        (
            A2_FRAMED + ', "I": {"2": [[0, 0]]}, "J": {"1": [[0], [0]]}}',
            _refusal_envelope("matrix row has wrong width, expected 1"),
        ),
        (
            A2_FRAMED + ', "B": {"1->2": [[0], [0]], "9": [[0]]}}',
            _refusal_envelope("matrix has 2 rows, expected 1"),
        ),
    ],
    ids=["bad-I2-and-J1", "bad-shape-then-unknown-B"],
)
def test_check_moment_refusal_order_pinned(capsys, payload, stdout):
    """The payloads of ``test_rep.py::test_refusal_order_pinned``: the decoder
    refuses blocks in payload order, family by family (B, I, J).  The exit
    code and stdout bytes were recorded at commit 31ba23e."""
    assert main(["check-moment", "--rep", payload]) == 1
    assert capsys.readouterr().out == stdout


def test_hom_ext(capsys, tmp_path):
    bundle = a2crystal_bundle()
    r1 = write_rep(tmp_path, "a.json", bundle.reps["generic"])
    r2 = write_rep(tmp_path, "b.json", bundle.reps["special"])
    code, report = run_cli(capsys, "hom-ext", "--rep1", r1, "--rep2", r2)
    assert code == 0
    result = report["result"]
    assert result["duality_ok"] and result["euler_ok"] and result["ext1_symmetric"]


def test_invariants_zero_fingerprint(capsys, tmp_path):
    rep = write_rep(tmp_path, "rep.json", an_bundle(4).reps["broken_2"])
    code, report = run_cli(capsys, "invariants", "--rep", rep, "--max-length", "6")
    assert code == 0
    assert report["result"]["all_zero"] is True
    assert report["result"]["max_length"] == 6


def test_invariants_negative_bound_exit_2(capsys, tmp_path):
    rep = write_rep(tmp_path, "rep.json", an_bundle(3).reps["broken_1"])
    code, report = run_cli(capsys, "invariants", "--rep", rep, "--max-length", "-1")
    assert code == 2
    assert set(report) == {"command", "version", "error"}
    assert report["command"] == "invariants"
    assert report["error"]["type"] == "DomainError"


def test_invariants_over_walk_budget_exit_2(capsys, tmp_path):
    q, v, w = ade_minimal_resolution_setup("E6")
    rep = write_rep(tmp_path, "e6.json", FramedRep(double(q), v, w))
    start = time.perf_counter()
    code, report = run_cli(capsys, "invariants", "--rep", rep)
    assert time.perf_counter() - start < 1
    assert code == 2
    assert report["error"]["type"] == "DomainError"
    assert "path entries up to length 22 hold 12575136 entries and letters" in report["error"]["message"]
    assert "largest bound under it is 21" in report["error"]["message"]
    code, report = run_cli(capsys, "invariants", "--rep", rep, "--max-length", "6")
    assert code == 0
    assert report["result"]["all_zero"] is True


def test_huge_bound_refused_at_the_fixed_point(capsys):
    """The count stops at the first length past the budget, 22 for the d4
    point's paths, rather than at a bound of ten million."""
    rep = json.dumps(formats.rep_to_json(d4_bundle().reps["point"]))
    start = time.perf_counter()
    code, report = run_cli(capsys, "invariants", "--rep", rep, "--max-length", "10000000")
    assert time.perf_counter() - start < 1
    assert code == 2
    assert report["error"]["message"] == (
        "path entries up to length 10000000 hold 5845852 entries and letters by length 22, "
        "over the budget of 4000000; the largest bound under it is 21"
    )


A2_ONE_ARROW = {
    "quiver": json.loads(A2_QUIVER),
    "dimV": {"1": 1, "2": 1},
    "dimW": {"1": 1},
    "B": {"a": [[1]]},
    "J": {"1": [[1]]},
}


def test_invariants_bound_past_the_recursion_limit(capsys):
    # the walks alternate a and a*, so the walker goes 3000 arrows deep
    code = main(["invariants", "--rep", json.dumps(A2_ONE_ARROW), "--max-length", "3000"])
    out = capsys.readouterr().out
    assert code == 0
    assert '"max_length": 3000' in out[-100:]


# One CLI run from a fresh process that prints the run's peak RSS: a child's
# ru_maxrss starts at the high-water mark of the process that spawned it.
PEAK_RSS = """
import resource, subprocess, sys
subprocess.run([sys.executable, "-m", "quivex.cli", *sys.argv[1:]], stdout=subprocess.DEVNULL, check=True)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
"""


def test_report_streams_to_stdout(tmp_path):
    """The 84 MB report of that point at bound 3000 is written while it is
    encoded: building it as one string first peaked at about 550 MB."""
    rep = tmp_path / "a2.json"
    rep.write_text(json.dumps(A2_ONE_ARROW))
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, "invariants", "--rep", str(rep), "--max-length", "3000"],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    peak_bytes = int(proc.stdout) * (1 if sys.platform == "darwin" else 1024)
    assert peak_bytes < 250 * 2**20


BIG = "1" + "0" * 100


@pytest.mark.parametrize(
    "rep, bound, message",
    [
        (d4_bundle().reps["point"], "20000", "hold 5845852 entries and letters by length 22"),
        # the trace of (a a*)^25 has 5001 digits
        ({**A2_ONE_ARROW, "B": {"a": [[BIG]], "a*": [[BIG]]}}, "50", "past the int-to-string digit limit"),
    ],
    ids=["visit-count", "fingerprint-value"],
)
def test_numbers_past_the_digit_limit_exit_2(capsys, rep, bound, message):
    if isinstance(rep, FramedRep):
        rep = formats.rep_to_json(rep)
    code, report = run_cli(capsys, "invariants", "--rep", json.dumps(rep), "--max-length", bound)
    assert code == 2
    assert set(report) == {"command", "version", "error"}
    assert report["error"]["type"] == "DomainError"
    assert message in report["error"]["message"]


@pytest.mark.parametrize(
    "literal",
    [
        "1_0",
        " 3 ",
        "+4",
        "\u0661\u0662/3",
        # past the digits int() converts from a string
        pytest.param("1" * 5000, id="5000-digit"),
        pytest.param("1/" + "1" * 5000, id="5000-digit-denominator"),
    ],
)
def test_loose_rational_literal_exit_1_in_envelope(capsys, literal):
    rep = {"quiver": json.loads(A2_QUIVER), "dimV": {"1": 1, "2": 1}, "B": {"a": [[literal]]}}
    code, report = run_cli(capsys, "check-moment", "--rep", json.dumps(rep))
    assert code == 1
    assert set(report) == {"command", "version", "error"}
    assert report["error"]["type"] == "FormatError"


def test_reduce_then_extend_round_trip(capsys, tmp_path):
    rep = write_rep(tmp_path, "rep.json", a2crystal_bundle().reps["generic"])
    code, report = run_cli(capsys, "reduce", "--rep", rep, "--vertex", "2")
    assert code == 0
    assert report["result"]["r"] == 2
    assert report["result"]["dimV_reduced"] == {"1": 1, "2": 0}
    reduced_path = tmp_path / "reduced.json"
    reduced_path.write_text(json.dumps(report["result"]["reduced"]))
    classes_path = tmp_path / "classes.json"
    classes_path.write_text(json.dumps(report["result"]["recovery_classes"]))
    code, report = run_cli(
        capsys, "extend", "--rep", str(reduced_path), "--vertex", "2",
        "--classes", str(classes_path),
    )
    assert code == 0
    assert report["result"]["dimV"] == {"1": 1, "2": 2}
    assert report["result"]["flat"] is True
    assert report["result"]["stable"] is True


REDUCE_EXTEND_SHA256 = {
    "d4.point": (
        "b9c339d39b95bfd348a256ae9c51338fe2da95eebc57503f5cd32b74c0c1ecaa",
        "6059cf16fb437c959333ebbefaa31c78f86264bc99c7a678c02576f0c173bd3b",
    ),
    "a2crystal.generic": (
        "df58d19c4c35679d84ff8f9fa4bfa04e7b52d21e31f97f3c3ca42423082fdf10",
        "ccaa8e8d8dc4cdd8d34f4ced62d685900533683c48aec1a4223d53d4977d0fa8",
    ),
    "a2crystal.special": (
        "9b0892a7835cb95854d8585e4b61fd2b0ec7b2db0ff929b8ea3c2d58bcbda8f8",
        "5562d2b8ed4cfb42e41592365e71d832a20d6bebf34e7600fe6ecaed2efbf91a",
    ),
}


@pytest.mark.parametrize("point", sorted(REDUCE_EXTEND_SHA256))
def test_reduce_and_extend_reports_pinned(capsys, point):
    """The stdout bytes of ``reduce --vertex 2`` on an inline rep, and of the
    ``extend`` that its reduced rep and recovery classes feed."""
    bundle, member = point.split(".")
    x = {"d4": d4_bundle, "a2crystal": a2crystal_bundle}[bundle]().reps[member]
    assert main(["reduce", "--rep", json.dumps(formats.rep_to_json(x)), "--vertex", "2"]) == 0
    reduced = capsys.readouterr().out
    result = json.loads(reduced)["result"]
    classes = json.dumps(result["recovery_classes"])
    assert main(["extend", "--rep", json.dumps(result["reduced"]), "--vertex", "2", "--classes", classes]) == 0
    extended = capsys.readouterr().out
    digests = tuple(hashlib.sha256(out.encode()).hexdigest() for out in (reduced, extended))
    assert digests == REDUCE_EXTEND_SHA256[point]


def _cocycle_layout(rep: dict, vertex: str) -> list[list]:
    """The cocycle layout descriptor of docs/formats.md, rebuilt from the JSON
    of the rep the classes extend."""
    vertices = rep["quiver"]["vertices"]
    v = {j: rep["dimV"].get(j, 0) for j in vertices}
    w = {j: rep.get("dimW", {}).get(j, 0) for j in vertices}
    unit = {j: int(j == vertex) for j in vertices}
    base = [(a["name"], a["from"], a["to"]) for a in rep["quiver"]["arrows"]]
    doubled = base + [(name + "*", t, s) for name, s, t in base]
    return (
        [["arrow", name, v[t], unit[s]] for name, s, t in doubled]
        + [["I", j, v[j], 0] for j in vertices]
        + [["J", j, w[j], unit[j]] for j in vertices]
    )


@pytest.mark.parametrize("point", sorted(REDUCE_EXTEND_SHA256))
def test_layout_hash_follows_the_documented_recipe(capsys, point):
    """A second computation of the cocycle layout, from the report's JSON
    alone: its hash is the one ``reduce`` wrote, and its block sizes add up
    to the length of every class."""
    bundle, member = point.split(".")
    x = {"d4": d4_bundle, "a2crystal": a2crystal_bundle}[bundle]().reps[member]
    code, report = run_cli(capsys, "reduce", "--rep", json.dumps(formats.rep_to_json(x)), "--vertex", "2")
    assert code == 0
    result = report["result"]
    descriptor = _cocycle_layout(result["reduced"], "2")
    digest = hashlib.sha256(json.dumps(descriptor, separators=(",", ":")).encode()).hexdigest()
    classes = result["recovery_classes"]
    assert digest == classes["layout_sha256"]
    assert classes["classes"]
    assert {len(c) for c in classes["classes"]} == {sum(rows * cols for _, _, rows, cols in descriptor)}


D4_QUIVER = ade_minimal_resolution_setup("D4")[0]

# (point, --max-length or None for the default bound): the two d4 points
# have only zero entries, the a1 stable point a nonzero path entry, and the
# A4 chain point nonzero cycle traces and path entries
INVARIANTS_POINTS = {
    "d4.point": (lambda: d4_bundle().reps["point"], 10),
    "d4-ladder-forward": (
        lambda: sample_flat(
            double(D4_QUIVER),
            DimVector.of(D4_QUIVER, {"1": 2, "2": 4, "3": 2, "4": 2}),
            DimVector.of(D4_QUIVER, {"1": 1, "2": 2, "3": 1, "4": 1}),
            2,
            half="forward",
        ),
        8,
    ),
    "a1.stable": (lambda: a1_bundle(2, 1).reps["stable"], None),
    "a4-chain-0": (lambda: an_chain_sample(an_bundle(4), 0), None),
}

INVARIANTS_SHA256 = {
    "d4.point": "beaf3e43f0bf78f43cc2e559ef560951f58d4d4dd65bcd10abd372ad8c55723f",
    "d4-ladder-forward": "24653d1f38c516cd873bb8bd8ce2426264d63ae2ea06edbbe4f48d243bddea01",
    "a1.stable": "0f8a765c5fc182666236702ed56987c188727e075f458a99b836a0d9491fe36b",
    "a4-chain-0": "c9168dac69c0cc2891c44aa99a5cac057f4780f0e19f7c5da3818ed6f8e8e13e",
}


@pytest.mark.parametrize("point", sorted(INVARIANTS_SHA256))
def test_invariants_report_pinned(capsys, point):
    """The stdout bytes of ``invariants`` on an inline rep."""
    make, bound = INVARIANTS_POINTS[point]
    argv = ["invariants", "--rep", json.dumps(formats.rep_to_json(make()))]
    assert main(argv + ([] if bound is None else ["--max-length", str(bound)])) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == INVARIANTS_SHA256[point]


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    """The first ``main`` call builds the parser and its 12 subparsers, and
    a later call builds none and prints the same bytes."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(None)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    build_parser.cache_clear()
    rep = json.dumps(formats.rep_to_json(a2crystal_bundle().reps["generic"]))
    printed, counts = [], []
    for _ in range(2):
        assert main(["hom-ext", "--rep1", rep, "--rep2", rep]) == 0
        printed.append(capsys.readouterr().out)
        counts.append(len(built))
        built.clear()
    assert counts == [13, 0]
    assert printed[0] == printed[1]


@pytest.mark.parametrize(
    "argv, code",
    [(["--version"], 0), (["-h"], 0), (["invariants", "-h"], 0), (["invariants", "--max-length", "x"], 2), ([], 2)],
)
def test_parser_exits_print_the_same_bytes_on_a_repeated_call(capsys, argv, code):
    printed = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == code
        printed.append(capsys.readouterr())
    assert printed[0] == printed[1]
    assert printed[0].out if code == 0 else printed[0].err.startswith("usage: quivex")


def test_cb_transform(capsys):
    q = json.dumps(formats.quiver_to_json(an_bundle(2).dq.base))
    code, report = run_cli(
        capsys, "cb-transform", "--quiver", q, "--dim-w", '{"1":1,"2":1}',
        "--dim-v", '{"1":1,"2":1}',
    )
    assert code == 0
    assert report["result"]["infinity"] == "inf"
    assert report["result"]["dimV_extended"]["inf"] == 1
    assert len(report["result"]["quiver"]["arrows"]) == 3


def test_cb_transform_rep_reports_the_rewritten_point(capsys, tmp_path):
    x = a2crystal_bundle().reps["generic"]
    code, report = run_cli(capsys, "cb-transform", "--rep", write_rep(tmp_path, "x.json", x))
    assert code == 0
    assert report["result"]["infinity"] == "inf"
    assert report["result"]["rep"] == formats.rep_to_json(cb_apply(x))
    assert report["result"]["flat"] is True


def test_cb_transform_rewrites_a_rewritten_quiver(capsys, tmp_path):
    a1 = ade_minimal_resolution_setup("A1")[0]
    at1 = cb_transform(a1, DimVector.of(a1, {"1": 2}))[0]
    q = json.dumps(formats.quiver_to_json(at1))
    code, report = run_cli(capsys, "cb-transform", "--quiver", q, "--dim-w", '{"1":1}')
    assert code == 0
    assert report["result"]["infinity"] == "inf2"
    assert report["result"]["quiver"]["vertices"] == ["1", "inf", "inf2"]
    assert {"name": "inf2->1#0", "from": "inf2", "to": "1"} in report["result"]["quiver"]["arrows"]
    x = sample_flat(double(at1), DimVector.of(at1, {"1": 1, "inf": 1}), DimVector.of(at1, {"1": 1}), 3)
    code, report = run_cli(capsys, "cb-transform", "--rep", write_rep(tmp_path, "x.json", x))
    assert code == 0
    assert report["result"]["infinity"] == "inf2"
    assert report["result"]["flat"] is True


def test_cb_transform_needs_a_mode(capsys):
    code, report = run_cli(capsys, "cb-transform")
    assert code == 1
    assert report["error"] == {
        "type": "FormatError",
        "message": "cb-transform needs --rep, or --quiver together with --dim-w",
    }


def test_example_bundle_and_member(capsys):
    code, report = run_cli(capsys, "example", "a1", "--n", "3", "--k", "1")
    assert code == 0
    assert set(report["result"]["reps"]) == {"stable", "unstable"}
    code = main(["example", "a1", "--n", "3", "--k", "1", "--member", "stable"])
    out = capsys.readouterr().out
    rep = formats.rep_from_json(json.loads(out))
    assert rep.dim_v.as_dict() == {"1": 1}


def test_example_out_dir(capsys, tmp_path):
    out = tmp_path / "bundle"
    code, report = run_cli(capsys, "example", "an", "--n", "3", "--out", str(out))
    assert code == 0
    assert (out / "quiver.json").exists()
    assert (out / "rep_broken_1.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["example", "d4", "--n", "3", "--k", "9"],
            "example 'd4' does not take k, n; it takes: none",
        ),
        (["example", "an", "--k", "2"], "example 'an' does not take k; it takes: n"),
        (
            ["example", "a1", "--member", "stable", "--out", "unused"],
            "example takes --member or --out, not both",
        ),
        (
            ["cb-transform", "--rep", "unread.json", "--quiver", "not-a-file", "--dim-w", '{"zz":1}'],
            "cb-transform --rep takes no --quiver, --dim-w",
        ),
        (
            ["cb-transform", "--rep", "unread.json", "--dim-v", "{}"],
            "cb-transform --rep takes no --dim-v",
        ),
        (["verify", "sl2", "--n", "3"], "--n only applies to the 'an' suite"),
    ],
    ids=["d4-n-k", "an-k", "member-out", "rep-quiver-dim-w", "rep-dim-v", "verify-sl2-n"],
)
def test_ignored_options_exit_1(capsys, tmp_path, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    code, report = run_cli(capsys, *argv)
    assert code == 1
    assert report["error"] == {"type": "FormatError", "message": message}
    assert list(tmp_path.iterdir()) == []


def test_example_unknown_member_exit_2(capsys):
    code, report = run_cli(capsys, "example", "d4", "--member", "nope")
    assert code == 2
    assert report["error"]["type"] == "UnknownExampleError"


def test_report_determinism(capsys, tmp_path):
    rep = write_rep(tmp_path, "rep.json", an_bundle(3).reps["broken_1"])
    code = main(["check-moment", "--rep", rep])
    first = capsys.readouterr().out
    code = main(["check-moment", "--rep", rep])
    second = capsys.readouterr().out
    assert first == second


def _stdout_under_hash_seed(argv, seed):
    proc = subprocess.run(
        [sys.executable, "-m", "quivex.cli", *argv],
        env={**os.environ, "PYTHONPATH": SRC, "PYTHONHASHSEED": seed}, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.parametrize("command", ["invariants", "hom-ext"])
def test_report_is_byte_identical_across_hash_seeds(tmp_path, command):
    """String hashing, and so set and dict-of-set order, varies with
    PYTHONHASHSEED; no report may depend on it."""
    if command == "invariants":
        argv = ["invariants", "--rep", write_rep(tmp_path, "x.json", d4_bundle().reps["point"]), "--max-length", "10"]
    else:
        d4 = build_corpus(DEFAULT_SEED).pools["D4"]
        argv = ["hom-ext", "--rep1", write_rep(tmp_path, "x.json", d4[0]), "--rep2", write_rep(tmp_path, "y.json", d4[2])]
    assert _stdout_under_hash_seed(argv, "0") == _stdout_under_hash_seed(argv, "1")


def test_verify_single_suite(capsys):
    code, report = run_cli(capsys, "verify", "crystal", "d4")
    assert code == 0
    assert [c["number"] for c in report["result"]["criteria"]] == [3, 6]
    assert report["result"]["all_passed"] is True
    assert report["seed"] == 20160831


def test_verify_rejects_unknown_suite(capsys):
    code, report = run_cli(capsys, "verify", "bogus")
    assert code == 1
    assert report["error"]["type"] == "FormatError"


def test_pipeline_example_into_stability():
    # the documented shell pipeline: a bundle member piped into stability
    env_cmd = (
        f"PYTHONPATH={SRC} {sys.executable} -m quivex.cli example a1 --n 3 --k 1 --member stable"
        f" | PYTHONPATH={SRC} {sys.executable} -m quivex.cli stability --rep - --zeta pos"
    )
    proc = subprocess.run(env_cmd, shell=True, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["result"]["verdict"] == "stable"


@pytest.mark.parametrize("source", ["path", "stdin", "inline"])
def test_input_record_hashes_the_bytes_given(capsys, monkeypatch, tmp_path, source):
    data = json.dumps(formats.rep_to_json(an_bundle(2).reps["broken_1"])).encode()
    value = {"path": str(tmp_path / "rep.json"), "stdin": "-", "inline": data.decode()}[source]
    (tmp_path / "rep.json").write_bytes(data)
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    code, report = run_cli(capsys, "check-moment", "--rep", value)
    assert code == 0
    assert report["inputs"]["rep"] == {
        source: value if source == "path" else True,
        "sha256": hashlib.sha256(data).hexdigest(),
    }


def _cli_on_rep_path(path, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "quivex.cli", "check-moment", "--rep", path],
        env={**os.environ, "PYTHONPATH": SRC}, capture_output=True, timeout=60, **kwargs,
    )


def test_named_fifo_input_is_read_once(tmp_path):
    data = json.dumps(formats.rep_to_json(an_bundle(2).reps["broken_1"])).encode()
    fifo = tmp_path / "rep.fifo"
    os.mkfifo(fifo)
    # opening the write end blocks until the CLI opens the read end
    writer = threading.Thread(target=fifo.write_bytes, args=(data,), daemon=True)
    writer.start()
    proc = _cli_on_rep_path(str(fifo))
    assert proc.returncode == 0, proc.stderr
    record = json.loads(proc.stdout)["inputs"]["rep"]
    assert record == {"path": str(fifo), "sha256": hashlib.sha256(data).hexdigest()}


def test_dev_fd_pipe_input_records_the_bytes_read():
    data = json.dumps(formats.rep_to_json(an_bundle(2).reps["broken_1"])).encode()
    read_end, write_end = os.pipe()
    os.write(write_end, data)
    os.close(write_end)
    try:
        proc = _cli_on_rep_path(f"/dev/fd/{read_end}", pass_fds=(read_end,))
    finally:
        os.close(read_end)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["inputs"]["rep"]["sha256"] == hashlib.sha256(data).hexdigest()


def test_quiver_path_in_a_piped_rep_resolves_against_the_working_directory(tmp_path):
    # a pipe has no directory of its own, so it reads like stdin
    rep = formats.rep_to_json(an_bundle(2).reps["broken_1"])
    (tmp_path / "quiver.json").write_text(json.dumps(rep["quiver"]))
    data = json.dumps({**rep, "quiver": "quiver.json"}).encode()
    read_end, write_end = os.pipe()
    os.write(write_end, data)
    os.close(write_end)
    try:
        proc = _cli_on_rep_path(f"/dev/fd/{read_end}", pass_fds=(read_end,), cwd=tmp_path)
    finally:
        os.close(read_end)
    assert proc.returncode == 0, proc.stdout
    report = json.loads(proc.stdout)
    assert report["result"]["flat"] is True
    assert report["inputs"]["rep.quiver"] == {
        "path": "quiver.json",
        "sha256": hashlib.sha256((tmp_path / "quiver.json").read_bytes()).hexdigest(),
    }


GENERIC = a2crystal_bundle().reps["generic"]
# the classes that extend the generic a2crystal point at vertex 1
CLASSES = json.dumps(
    formats.classes_to_json(hecke.class_layout(GENERIC, "1"), "1", hecke.ext_space_i(GENERIC, "1"))
)


@pytest.mark.parametrize(
    "argv",
    [
        ["check-moment", "--rep", "REP"],
        ["hom-ext", "--rep1", "REP", "--rep2", "REP"],
        ["stability", "--rep", "REP", "--zeta", "pos"],
        ["invariants", "--rep", "REP", "--max-length", "4"],
        ["reduce", "--rep", "REP", "--vertex", "2"],
        ["extend", "--rep", "REP", "--vertex", "1", "--classes", CLASSES],
        ["cb-transform", "--rep", "REP"],
    ],
    ids=lambda argv: argv[0],
)
def test_rep_with_quiver_path(capsys, tmp_path, argv):
    """A quiver that a rep file names by a relative path is read from the rep
    file's directory and recorded as ``<label>.quiver``; the result is that
    of the same rep with its quiver inline."""
    inline = formats.rep_to_json(GENERIC)
    quiver = json.dumps(inline["quiver"]).encode()
    (tmp_path / "quiver.json").write_bytes(quiver)
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({**inline, "quiver": "quiver.json"}))
    code, named = run_cli(capsys, *[str(rep) if a == "REP" else a for a in argv])
    assert code == 0
    assert main([json.dumps(inline) if a == "REP" else a for a in argv]) == 0
    assert named["result"] == json.loads(capsys.readouterr().out)["result"]
    record = {"path": str(tmp_path / "quiver.json"), "sha256": hashlib.sha256(quiver).hexdigest()}
    labels = [flag.lstrip("-") for flag, value in zip(argv, argv[1:]) if value == "REP"]
    assert {k: v for k, v in named["inputs"].items() if k.endswith(".quiver")} == {
        f"{label}.quiver": record for label in labels
    }


def test_quiver_file_bytes_reach_the_inputs(capsys, tmp_path, monkeypatch):
    # an inline rep resolves its quiver path against the working directory
    monkeypatch.chdir(tmp_path)
    inline = formats.rep_to_json(GENERIC)
    rep = json.dumps({**inline, "quiver": "quiver.json"})
    reports = []
    for indent in (None, 2):
        (tmp_path / "quiver.json").write_text(json.dumps(inline["quiver"], indent=indent))
        code, report = run_cli(capsys, "check-moment", "--rep", rep)
        assert code == 0
        reports.append(report)
    assert reports[0]["result"] == reports[1]["result"]
    assert reports[0]["inputs"]["rep"] == reports[1]["inputs"]["rep"]
    assert reports[0]["inputs"]["rep.quiver"] != reports[1]["inputs"]["rep.quiver"]


@pytest.mark.parametrize(
    "content, error",
    [
        (None, {"type": "FileNotFoundError", "message": "[Errno 2] No such file or directory: '{path}'"}),
        ("nope", {"type": "FormatError", "message": "{path}: invalid JSON (Expecting value: line 1 column 1 (char 0))"}),
    ],
    ids=["missing", "malformed"],
)
def test_unreadable_quiver_file_exit_1(capsys, tmp_path, content, error):
    qpath = tmp_path / "quiver.json"
    if content is not None:
        qpath.write_text(content)
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({**formats.rep_to_json(GENERIC), "quiver": "quiver.json"}))
    code, report = run_cli(capsys, "check-moment", "--rep", str(rep))
    assert code == 1
    assert report["error"] == {**error, "message": error["message"].format(path=qpath)}


def test_closed_stdout_exit_1_without_traceback():
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "quivex.cli", "example", "d4"],
            env={**os.environ, "PYTHONPATH": SRC}, stdout=write_end, stderr=subprocess.PIPE,
            text=True, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr == ""
