"""Command-line contract: output protocol, exit codes, determinism."""

import json
import random
from fractions import Fraction

import pytest

from blockhess import __version__
from blockhess import exterior, hessian
from blockhess.cli import main
from blockhess.exterior import ExteriorArray
from blockhess.hessian import identity_h36
from blockhess.multiindex import enumerate_indices
from blockhess.ring import MultiPoly
from exterior_oracle import array_to_json_dict


def invoke(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_array(tmp_path, name, k, N, seed=0):
    rng = random.Random(seed)
    A = ExteriorArray(k, N, {I: rng.randint(-3, 3) for I in enumerate_indices(k, N)})
    path = tmp_path / name
    path.write_text(json.dumps(array_to_json_dict(A)), encoding="utf-8")
    return path


def test_degrees_result_line_is_byte_exact(capsys):
    code, out, err = invoke(capsys, "degrees", "--k", "3", "--N", "8")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == '{"total":15,"degrees":[15]}'
    meta = json.loads(lines[0])
    assert meta["command"] == "degrees"
    assert meta["version"] == __version__
    assert meta["config"]["k"] == 3 and meta["config"]["N"] == 8
    assert err.strip().endswith("PASS")


def test_missing_input_exits_2_with_error_object(capsys):
    code, out, err = invoke(capsys, "det", "--input", "/no/such/file.json")
    assert code == 2
    assert out == ""
    assert "error" in json.loads(err.splitlines()[0])


@pytest.mark.parametrize("command", ["det", "rank", "hessian", "critical"])
def test_array_with_k_equal_to_N_exits_2(capsys, tmp_path, command):
    # k = N passed the JSON boundary: (3, 3) printed an empty Hessian, and
    # (10^6, 10^6), side 0 and so under the side cap, looped over 5 * 10^11
    # block pairs while laying out the Hessian
    for k in (3, 10**6):
        path = tmp_path / "square.json"
        path.write_text(json.dumps({"k": k, "N": k, "entries": []}), encoding="utf-8")
        code, out, err = invoke(capsys, command, "--input", str(path))
        assert (code, out) == (2, "")
        assert json.loads(err)["error"].endswith(f"need 1 <= k < N, got k={k}, N={k}")


def test_json_nested_past_the_recursion_limit_exits_2(capsys, tmp_path):
    # json.load raised RecursionError, which escaped as a traceback and exit 1
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000, encoding="utf-8")
    code, out, err = invoke(capsys, "det", "--input", str(path))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"].startswith(f"{path} is not valid JSON: ")


# a flag that the command would otherwise ignore, with the one it yields to
IGNORED_FLAG_PAIRS = [
    ("irreducible", "--k", "4", "--N", "8", "--N-max", "12"),
    ("verify-certificates", "--id", "corank-3-9", "--input", "exported.json"),
    ("hessian", "--input", "a.json", "--k", "4", "--N", "9"),
    ("node", "--k", "3", "--N", "7", "--J", "5,6,7", "--T", "1/2", "--limits"),
]


@pytest.mark.parametrize(
    "argv",
    [
        ("degrees", "--k", "1", "--N", "8"),
        ("degrees", "--k", "3"),
        ("det", "--no-such-flag"),
        ("no-such-command",),
        ("node", "--k", "4", "--N", "8", "--J", "1,2,x"),
        ("node", "--k", "4", "--N", "8", "--J", "3,4,5,6", "--T", "0"),
        ("node", "--k", "4", "--N", "8", "--J", "1,2,3,8"),
        ("node", "--k", "4", "--N", "8", "--J", "5,6,7,8", "--symbolic", "--T", "2"),
        ("identity-h36", "--trials", "0"),
        ("verify-node", "--id", "corank-3-9"),
        ("hessian", "--k", "5", "--N", "3"),
        ("hessian", "--k", "0", "--N", "3"),
        ("duality", "--k", "3", "--N", "2"),
        ("verify-certificates", "--input", "/no/such/file"),
    ],
)
def test_bad_invocations_exit_2(capsys, argv):
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert "error" in json.loads(err)


@pytest.mark.parametrize("argv", IGNORED_FLAG_PAIRS, ids=lambda argv: argv[0])
def test_ignored_flag_pairs_are_rejected_before_any_input_is_read(capsys, tmp_path, monkeypatch, argv):
    # the named files do not exist: the pair is refused before they are opened
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"].endswith("are mutually exclusive")


@pytest.mark.parametrize(
    "argv",
    [
        ("hessian", "--k", "10", "--N", "40"),
        ("duality", "--k", "10", "--N", "40", "--symbolic"),
    ],
)
def test_symbolic_shapes_over_the_variable_cap_exit_2_before_allocating(capsys, monkeypatch, argv):
    # (10,40) needs 19,575 variables; building even one of them means the
    # guard came too late, so the variable constructor refuses outright
    def refuse(*args):
        raise AssertionError("a symbolic variable was built past the cap")

    monkeypatch.setattr(MultiPoly, "variable", staticmethod(refuse))
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "19575 variables" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "argv",
    [
        ("det", "--input", "huge.json"),
        ("rank", "--input", "huge.json"),
        ("hessian", "--input", "huge.json"),
        ("critical", "--input", "huge.json"),
        ("specialize", "huge.json", "huge.json"),
    ],
    ids=lambda argv: argv[0],
)
def test_array_past_the_assembly_cap_exits_2_before_allocating(capsys, tmp_path, monkeypatch, argv):
    # 37 bytes of JSON asked for a 299,991^2 Hessian and ended in a MemoryError
    def refuse(*args):
        raise AssertionError("a plan was sized past the cap")

    monkeypatch.setattr(hessian, "comb", refuse)
    (tmp_path / "huge.json").write_text('{"k": 3, "N": 100000, "entries": []}', encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert json.loads(err.splitlines()[0]) == {"error": "(3,100000) Hessian has side 299991, over the cap of 1024"}


def test_critical_past_the_partials_cap_exits_2_before_enumerating_the_star(capsys, tmp_path, monkeypatch):
    # at the origin, critical enumerated the k(N-k)-element star of If and
    # the gradient: k = 10^6, N = 2^64 ran out of memory.  The star test
    # reads only the array's keys, so the cap bounds the gradient
    def refuse(*args):
        raise AssertionError("the gradient was enumerated past the cap")

    monkeypatch.setattr(exterior, "gradient", refuse)
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"k": 10**6, "N": 2**64, "entries": []}), encoding="utf-8")
    code, out, err = invoke(capsys, "critical", "--input", str(path))
    assert (code, out) == (2, "")
    partials = 10**6 * (2**64 - 10**6)
    assert json.loads(err) == {"error": f"(1000000,{2**64}) chart has {partials} first partials, over the cap of 1048576"}


def test_plan_with_fewer_than_two_columns_walks_no_block_pair(monkeypatch):
    # N - k < 2 leaves no cell to fill, yet the plan walked all C(k, 2) pairs
    # of row blocks: about 5 * 10^8 steps at (1024, 1025) and 5 * 10^11 at
    # k = N = 10^6, whose side 0 is under the cap
    calls = []

    def counted(*args):
        calls.append(args)
        if len(calls) > 3:
            raise AssertionError("the plan walked row-block pairs with no cell to fill")
        return range(*args)

    monkeypatch.setattr(hessian, "range", counted, raising=False)
    try:
        for k, N in [(1024, 1025), (10**6, 10**6)]:
            calls.clear()
            hessian._assembly_plan.cache_clear()
            keys, signs, plan = hessian._assembly_plan(k, N)
            assert (keys, signs, len(plan)) == ((), (), k * (N - k))
            assert all(cell == 0 for row in plan for cell in row)
    finally:
        hessian._assembly_plan.cache_clear()  # a side-1024 plan holds a million cells


@pytest.mark.parametrize("flag", ["--N", "--N-max"])
def test_irreducible_past_the_N_cap_exits_2_before_deriving(capsys, monkeypatch, flag):
    # --N 5000 was still deriving after 20 s
    from blockhess import irreducibility

    def refuse(*args):
        raise AssertionError("a verdict was derived past the cap")

    monkeypatch.setattr(irreducibility, "irreducible_verdict", refuse)
    code, out, err = invoke(capsys, "irreducible", "--k", "3", flag, "5000")
    assert (code, out) == (2, "")
    assert json.loads(err.splitlines()[0]) == {"error": "N = 5000 is over the cap of 1000"}


@pytest.mark.parametrize(
    "k,N,error",
    [
        (3, 3000, "(3,3000) Hessian has side 8991, over the cap of 1024"),
        (10, 40, "(10,40) array has 847660528 coefficients, over the cap of 1048576"),
    ],
    ids=["side", "coefficients"],
)
def test_duality_past_the_assembly_caps_exits_2_before_drawing(capsys, monkeypatch, k, N, error):
    # each trial draws all C(N, k) coefficients; (3, 3000) once drew about
    # 4.5 billion and ended in a MemoryError
    def refuse(*args):
        raise AssertionError("coefficients were drawn past the cap")

    monkeypatch.setattr(hessian, "enumerate_indices", refuse)
    code, out, err = invoke(capsys, "duality", "--k", str(k), "--N", str(N), "--trials", "1")
    assert (code, out) == (2, "")
    assert json.loads(err.splitlines()[0]) == {"error": error}


@pytest.mark.parametrize(
    "argv",
    [
        ("--k", "3", "--N", "100000", "--J", "1,99999,100000"),
        ("--k", "3", "--N", "100000", "--J", "1,99999,100000", "--T", "2"),
        ("--k", "3", "--N", "100000", "--J", "1,99999,100000", "--limits"),
        ("--k", "13", "--N", "26", "--J", "1,2,3,4,5,6,7,8,9,10,11,25,26"),
    ],
    ids=["symbolic", "T", "limits", "k13"],
)
def test_node_past_the_system_cap_exits_2_before_building(capsys, monkeypatch, argv):
    # (3, 100000) once printed 47 MB over 12 s, and (13, 26) 16 MB over 4.8 s
    from blockhess import node_cusp

    def refuse(*args):
        raise AssertionError("a frame was built past the cap")

    monkeypatch.setattr(node_cusp, "_pair_rows", refuse)
    code, out, err = invoke(capsys, "node", *argv)
    assert (code, out) == (2, "")
    assert "node system holds up to" in json.loads(err.splitlines()[0])["error"]


@pytest.mark.parametrize(
    "argv,reason",
    [
        (("irreducible", "--k", "3", "--N-max", "2"), "empty schedule"),
        (("irreducible", "--k", "12", "--N-max", "14"), "empty schedule"),
        (("node", "--k", "2", "--N", "4", "--J", "3,4"), "need k >= 3"),
        (("node", "--k", "2", "--N", "5", "--J", "4,5"), "need k >= 3"),
        (("node", "--k", "2", "--N", "4", "--J", "3,4", "--limits"), "need k >= 3"),
    ],
)
def test_invocations_that_decide_nothing_exit_2(capsys, argv, reason):
    # an empty schedule must not pass; k = 2 has no symbolic node forms
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert reason in json.loads(err)["error"]


def test_numeric_node_point_for_k2(capsys):
    code, out, _ = invoke(capsys, "node", "--k", "2", "--N", "4", "--J", "3,4", "--T", "2")
    assert code == 0
    rec = json.loads(out.splitlines()[1])
    assert rec["chart_point"] == [["1/2", 0], [0, "1/2"]]


@pytest.mark.parametrize(
    "array,point",
    [
        ({"k": 2, "N": 4, "entries": [{"I": [1, 2], "c": "1/0"}]}, None),
        ({"k": 2, "N": 4, "entries": [{"I": [1, 2], "c": 5}]}, None),
        ({"k": 2, "N": 4, "entries": [{"I": [1, 2], "c": "1"}]}, {"rows": [["1/0", "0"], ["0", "0"]]}),
        ({"k": 2, "N": 4, "entries": [{"I": [1, 2], "c": "1"}]}, {"rows": [["1", "0"]]}),
        ([], None),
        # shapes and index entries are JSON integers: a float is neither
        # truncated nor overflowed, and a bool is not an int
        ({"k": 3.9, "N": 6, "entries": [{"I": [1, 2, 3], "c": "2"}]}, None),
        ({"k": 3, "N": 6, "entries": [{"I": [1, 2.9, 3], "c": "2"}]}, None),
        ('{"k": 1e999, "N": 6, "entries": []}', None),
        ({"k": 2, "N": 4, "entries": [{"I": [True, 2], "c": "1"}]}, None),
        ({"k": 2, "N": "4", "entries": []}, None),
    ],
)
def test_malformed_input_files_exit_2(capsys, tmp_path, array, point):
    # one {"error": ...} line naming the file, never a traceback
    path = tmp_path / "a.json"
    path.write_text(array if isinstance(array, str) else json.dumps(array), encoding="utf-8")
    argv = ["critical", "--input", str(path)]
    bad = path
    if point is not None:
        bad = tmp_path / "pt.json"
        bad.write_text(json.dumps(point), encoding="utf-8")
        argv += ["--point", str(bad)]
    code, out, err = invoke(capsys, *argv)
    assert code == 2
    assert out == ""
    assert len(err.splitlines()) == 1
    assert str(bad) in json.loads(err)["error"]


def _certificate_with(**fields):
    from blockhess.certificates import load, to_json_dict

    return json.dumps({**to_json_dict(load("corank-3-9")), **fields}).encode()


@pytest.mark.parametrize(
    "content",
    [
        b"\xff\xfe{}",
        b"{oops",
        b'{"id": "x"}',
        _certificate_with(catalog=[1]),
        _certificate_with(k=0),
        _certificate_with(catalog=2.5),
        _certificate_with(catalog=0).replace(b'"catalog": 0', b'"catalog": 1e999'),
        _certificate_with(catalog="1"),
        _certificate_with(catalog=True),
    ],
    ids=["not-utf8", "not-json", "missing-keys", "list-catalog", "zero-k", "float-catalog", "huge-catalog",
         "string-catalog", "bool-catalog"],
)
def test_malformed_certificate_files_exit_2(capsys, tmp_path, content):
    path = tmp_path / "cert.json"
    path.write_bytes(content)
    code, out, err = invoke(capsys, "verify-certificates", "--input", str(path))
    assert code == 2
    assert out == ""
    assert str(path) in json.loads(err)["error"]


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_result_past_the_digit_limit_exits_2(capsys, tmp_path, fmt):
    # a legal 4,201-digit coefficient; its determinant, c^4, has about
    # 16,800 digits, more than an int renders as a string
    path = tmp_path / "a.json"
    path.write_text(json.dumps({"k": 2, "N": 4, "entries": [{"I": [3, 4], "c": "9" * 4201}]}), encoding="utf-8")
    code, out, err = invoke(capsys, "det", "--input", str(path), "--format", fmt)
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert "integer string conversion" in json.loads(err)["error"]


def test_internal_fault_is_not_an_input_error(capsys, tmp_path, monkeypatch):
    # only ValueError means a rejected argument; a failed self-check must
    # propagate rather than exit 2
    def broken(M):
        raise AssertionError("mod-p rank exceeds exact rank")

    monkeypatch.setattr(hessian, "rank_exact", broken)
    path = write_array(tmp_path, "a.json", 3, 6)
    with pytest.raises(AssertionError):
        main(["rank", "--input", str(path)])


def test_unrenderable_value_is_an_internal_fault(monkeypatch):
    # main renders Fractions; any other non-JSON value is a bug, not bad input
    from blockhess import cli

    monkeypatch.setitem(cli._HANDLERS, "degrees", lambda args: ([{"total": object()}], True))
    with pytest.raises(TypeError, match="object value in a record has no JSON rendering"):
        main(["degrees", "--k", "3", "--N", "8"])


@pytest.mark.parametrize("command", ["verify-certificates", "verify-node"])
def test_unknown_certificate_id_exits_2(capsys, command):
    from blockhess.certificates import CERTIFICATE_IDS

    code, out, err = invoke(capsys, command, "--id", "nope")
    assert code == 2
    assert out == ""
    known = ", ".join(CERTIFICATE_IDS)
    assert json.loads(err.splitlines()[0]) == {"error": f"unknown certificate id 'nope'; known: {known}"}


def test_det_rank_hessian_on_file(capsys, tmp_path):
    path = write_array(tmp_path, "a.json", 3, 6, seed=7)
    code, out, _ = invoke(capsys, "det", "--input", str(path))
    assert code == 0
    rec = json.loads(out.splitlines()[1])
    assert isinstance(rec["det"], int)

    code, out, _ = invoke(capsys, "rank", "--input", str(path))
    rec = json.loads(out.splitlines()[1])
    assert rec["side"] == 9
    assert set(rec) == {"side", "rank", "corank", "block_row_ranks"}

    code, out, _ = invoke(capsys, "hessian", "--input", str(path))
    rec = json.loads(out.splitlines()[1])
    assert rec["structure_ok"] is True
    assert len(rec["rows"]) == 9


def test_det_mod_reduces_rational_entries(capsys, tmp_path):
    # the one (2,4) entry feeding the Hessian: det is (1/2)^4 = 1/16, and 1/16 is 4 mod 7
    path = tmp_path / "half.json"
    path.write_text(json.dumps({"k": 2, "N": 4, "entries": [{"I": [3, 4], "c": "1/2"}]}), encoding="utf-8")
    code, out, _ = invoke(capsys, "det", "--input", str(path))
    assert json.loads(out.splitlines()[1]) == {"det": "1/16"}
    code, out, _ = invoke(capsys, "det", "--input", str(path), "--mod", "7")
    assert code == 0
    assert json.loads(out.splitlines()[1]) == {"det": 4, "mod": 7}
    code, out, err = invoke(capsys, "det", "--input", str(path), "--mod", "2")
    assert code == 2
    assert out == ""
    assert "vanishes mod 2" in json.loads(err.splitlines()[0])["error"]


def test_rational_det_renders_as_a_fraction(capsys, tmp_path):
    # det is (1/3)^4 = 1/81: a string "a/b" in JSON, the same digits in text
    path = tmp_path / "q.json"
    path.write_text(json.dumps({"k": 2, "N": 4, "entries": [{"I": [3, 4], "c": "1/3"}, {"I": [1, 2], "c": "5"}]}))
    code, out, _ = invoke(capsys, "det", "--input", str(path))
    assert code == 0 and out.splitlines()[1] == '{"det":"1/81"}'
    code, out, _ = invoke(capsys, "det", "--input", str(path), "--format", "text")
    assert code == 0 and out == "det: 1/81\n\n"


@pytest.mark.parametrize("mod", ["4", "9", "1", str(2**64 + 13)])
def test_det_mod_rejects_non_prime_or_wide_modulus(capsys, tmp_path, mod):
    # the pivot 2 has no inverse mod 4; 2^64 + 13 is prime but out of range
    path = tmp_path / "two.json"
    path.write_text(json.dumps({"k": 2, "N": 4, "entries": [{"I": [3, 4], "c": "2"}]}), encoding="utf-8")
    code, out, err = invoke(capsys, "det", "--input", str(path), "--mod", mod)
    assert code == 2
    assert out == ""
    assert "prime below 2^64" in json.loads(err.splitlines()[0])["error"]


def test_hessian_symbolic_entries_named_by_slot(capsys):
    code, out, _ = invoke(capsys, "hessian", "--k", "3", "--N", "6")
    assert code == 0
    rec = json.loads(out.splitlines()[1])
    flat = [e for row in rec["rows"] for e in row if e != "0"]
    assert flat and all(e.lstrip("-").startswith("a_") for e in flat)


def test_verify_certificates_all_pass_and_embed_checksums(capsys):
    code, out, err = invoke(capsys, "verify-certificates")
    assert code == 0
    lines = [json.loads(l) for l in out.splitlines()]
    assert len(lines) == 11  # meta + ten records
    assert len(lines[0]["certificate_checksums"]) == 10
    assert all(r["pass"] for r in lines[1:])
    assert "PASS" in err


def test_verify_certificates_corrupted_exits_1(capsys, tmp_path):
    from blockhess.certificates import load, to_json_dict

    doc = to_json_dict(load("corank-3-10"))
    doc["blocks"]["A12"][0][1] += 1
    doc["blocks"]["A12"][1][0] -= 1
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = invoke(capsys, "verify-certificates", "--input", str(path))
    assert code == 1
    rec = json.loads(out.splitlines()[1])
    assert rec["pass"] is False and "discrepancy" in rec
    assert "FAIL" in err


def test_verify_certificates_node_condition_failure_exits_1(capsys, tmp_path):
    from blockhess.certificates import load, to_json_dict

    # A23 entry (4, 5) is the coefficient of (1, 7, 8), in the star of Il = (7, 8, 9);
    # a new id skips the comparison with the embedded copy
    doc = to_json_dict(load("node-3-9"))
    doc["id"] = "node-3-9-edited"
    doc["blocks"]["A23"][3][4], doc["blocks"]["A23"][4][3] = 1, -1
    path = tmp_path / "node.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, err = invoke(capsys, "verify-certificates", "--input", str(path))
    assert code == 1
    rec = json.loads(out.splitlines()[1])
    assert rec["pass"] is False and "node" not in rec
    assert rec["error"].startswith("condition (i):")
    assert "FAIL" in err


def test_verify_certificates_known_id_with_another_kind_reports_the_header(capsys, tmp_path):
    from blockhess.certificates import load, to_json_dict

    doc = to_json_dict(load("corank-3-9"))
    doc["kind"] = "invertible"
    path = tmp_path / "kind.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out, _ = invoke(capsys, "verify-certificates", "--input", str(path))
    assert code == 1
    rec = json.loads(out.splitlines()[1])
    assert rec["pass"] is False
    assert rec["discrepancy"] == {"field": "header", "got": ["invertible", 3, 9], "expected": ["corank1", 3, 9]}


def test_output_to_a_directory_exits_2_with_one_error_line(capsys, tmp_path):
    code, out, err = invoke(capsys, "degrees", "--k", "3", "--N", "6", "--output", str(tmp_path))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    assert json.loads(err)["error"].startswith(f"cannot write {tmp_path}: ")


def test_verify_node_subcommand(capsys):
    code, out, _ = invoke(capsys, "verify-node", "--id", "node-3-11")
    assert code == 0
    rec = json.loads(out.splitlines()[1])
    assert rec["node"]["pass"] is True


def test_node_symbolic_forms_and_limits(capsys):
    code, out, _ = invoke(capsys, "node", "--k", "4", "--N", "8", "--J", "3,4,5,6", "--limits")
    assert code == 0
    recs = [json.loads(l) for l in out.splitlines()[1:]]
    assert recs[0]["meet_first"] == 2
    assert len(recs[0]["moving_forms"]) == 4 * 4 + 1
    assert recs[1]["limits_independent"] is True
    assert recs[1]["count"] == 2 * (4 * 4 + 1)


def test_node_numeric_point(capsys):
    code, out, _ = invoke(capsys, "node", "--k", "3", "--N", "7", "--J", "2,3,6", "--T", "1/2")
    assert code == 0
    rec = json.loads(out.splitlines()[1])
    assert rec["T"] == "1/2"
    assert len(rec["chart_point"]) == 3


def test_node_chart_point_is_the_frame_past_k(capsys):
    code, out, _ = invoke(capsys, "node", "--k", "4", "--N", "9", "--J", "1,7,8,9", "--T", "3/4")
    assert code == 0
    rec = json.loads(out.splitlines()[1])
    assert rec["chart_point"] == [row[4:] for row in rec["frame_rows"]]
    assert [row[:4] for row in rec["frame_rows"]] == [[int(i == j) for j in range(4)] for i in range(4)]
    assert {e for row in rec["chart_point"] for e in row} == {0, "3/4", "4/3"}


def test_node_T_past_the_digit_limit_exits_2(capsys):
    # T is read as a chart-point entry is, digit guard included
    code, out, err = invoke(capsys, "node", "--k", "3", "--N", "7", "--J", "5,6,7", "--T", "1e5000")
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == (
        "cannot parse T value '1e5000': chart-point entry '1e5000' has more than 4300 digits"
    )


def test_identity_h36_function_and_command(capsys):
    rep = identity_h36(trials=2, seed=5)
    assert rep["pass"] is True
    assert rep["symbolic_zero"] is True
    assert len(rep["trials"]) == 2

    code, out, _ = invoke(capsys, "identity-h36", "--trials", "2", "--skip-symbolic")
    assert code == 0
    rec = json.loads(out.splitlines()[1])
    assert rec["symbolic_zero"] == "skipped"
    assert all(t["point_match"] and t["cube_ok"] for t in rec["trials"])


def test_reports_are_byte_identical_for_identical_configs(capsys):
    argv = ("duality", "--k", "3", "--N", "7", "--trials", "4", "--seed", "11")
    _, out1, _ = invoke(capsys, *argv)
    _, out2, _ = invoke(capsys, *argv)
    assert out1 == out2
    _, out3, _ = invoke(capsys, "duality", "--k", "3", "--N", "7", "--trials", "4", "--seed", "12")
    assert out3 != out1


def test_duality_symbolic_and_numeric(capsys):
    code, out, _ = invoke(capsys, "duality", "--k", "3", "--N", "7", "--symbolic", "--trials", "2")
    assert code == 0
    recs = [json.loads(l) for l in out.splitlines()[1:]]
    assert recs[0]["mode"] == "symbolic" and recs[0]["structure_ok"]
    assert all(r["equal"] for r in recs[1:])


def test_specialize_multiplicative(capsys, tmp_path):
    p1 = write_array(tmp_path, "a1.json", 3, 6, seed=1)
    p2 = write_array(tmp_path, "a2.json", 3, 7, seed=2)
    code, out, _ = invoke(capsys, "specialize", str(p1), str(p2))
    assert code == 0
    rec = json.loads(out.splitlines()[1])
    assert rec["multiplicative"] is True
    assert rec["N"] == 10


def test_irreducible_single_and_schedule(capsys):
    code, out, _ = invoke(capsys, "irreducible", "--k", "3", "--N", "9")
    assert code == 0
    rec = json.loads(out.splitlines()[1])
    assert rec["status"] == "base"

    code, out, _ = invoke(capsys, "irreducible", "--k", "4", "--N-max", "12")
    assert code == 0
    recs = [json.loads(l) for l in out.splitlines()[1:]]
    assert all(r["status"] != "undecided" for r in recs)


def test_critical_reports_cusp_membership_at_zero(capsys, tmp_path):
    A = ExteriorArray(3, 6, {(2, 4, 6): 1, (3, 4, 5): 2})
    path = tmp_path / "node_like.json"
    path.write_text(json.dumps(array_to_json_dict(A)), encoding="utf-8")
    code, out, _ = invoke(capsys, "critical", "--input", str(path))
    assert code == 0
    rec = json.loads(out.splitlines()[1])
    assert rec["critical"] is True
    assert rec["cusp_membership"] is True

    point = tmp_path / "pt.json"
    point.write_text(json.dumps({"rows": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}), encoding="utf-8")
    code, out, _ = invoke(capsys, "critical", "--input", str(path), "--point", str(point))
    assert code == 0
    rec = json.loads(out.splitlines()[1])
    assert "cusp_membership" not in rec


def test_critical_at_a_fraction_point_is_pinned(capsys, tmp_path, monkeypatch):
    # The point has one nonzero row, so the gradient holds ints (row 1) and
    # Fractions, integral and not; cli_golden.json pins the whole stdout.
    monkeypatch.chdir(tmp_path)
    write_array(tmp_path, "a.json", 4, 8, seed=0)
    rows = [["1/2", "-2/3", 0, "3/4"], [0, 0, 0, 0], [0, "0", 0, 0], [0, 0, 0, 0]]
    (tmp_path / "pt.json").write_text(json.dumps({"rows": rows}), encoding="utf-8")
    code, out, _ = invoke(capsys, "critical", "--input", "a.json", "--point", "pt.json")
    assert code == 0
    assert json.loads(out.splitlines()[1])["gradient"][:2] == [[-2, 1, 0, -1], ["-11/2", "-1/2", -7, 0]]


@pytest.mark.parametrize("entry", ["1e5000", "-2.5e-4400", "1e4300"])
def test_chart_point_entry_past_the_digit_limit_exits_2(capsys, tmp_path, entry):
    # the exponent is read before 10**exponent is built; "1e999999999" would
    # otherwise run for hours (the installed-script CI step checks that one)
    path = write_array(tmp_path, "a.json", 2, 4)
    point = tmp_path / "pt.json"
    point.write_text(json.dumps({"rows": [[entry, 0], [0, "1/2"]]}), encoding="utf-8")
    code, out, err = invoke(capsys, "critical", "--input", str(path), "--point", str(point))
    assert (code, out) == (2, "")
    assert "more than 4300 digits" in json.loads(err)["error"]


def test_chart_point_entries_parse_exactly():
    # what Fraction(str(e)) reads, JSON numbers by their decimal text
    from blockhess.cli import _point_entry

    for e in ["0.5", "1e3", "-3/4", "2", 2, 0.5, 0.1, -1e300, " 1_0e-2 ", "1e4299", "-7e-4299"]:
        x = _point_entry(e)
        assert type(x) is Fraction and x == Fraction(str(e)), e
    assert _point_entry(0.1) == Fraction(1, 10)
    assert _point_entry("-0.0e-999999999") == 0  # a zero head needs no powers of ten
    for bad in ["1/2e3", "inf", "nan", "1/0", "True"]:
        with pytest.raises((ValueError, ZeroDivisionError)):
            _point_entry(bad)


def test_output_flag_writes_report_file(capsys, tmp_path):
    dest = tmp_path / "report.jsonl"
    code, out, _ = invoke(capsys, "degrees", "--k", "4", "--N", "10", "--output", str(dest))
    assert code == 0
    assert out == ""
    lines = dest.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[1]) == {"total": 24, "degrees": [6, 12, 18, 24]}


def test_text_format_renders_plainly(capsys, tmp_path):
    path = write_array(tmp_path, "a.json", 3, 6, seed=3)
    code, out, _ = invoke(capsys, "rank", "--input", str(path), "--format", "text")
    assert code == 0
    assert "rank:" in out and "{" not in out.splitlines()[0]


def test_run_config_validation(capsys):
    code, _out, err = invoke(capsys, "degrees", "--k", "3", "--N", "8", "--seed", "-1")
    assert code == 2
    assert json.loads(err) == {"error": "seed must fit in 64 unsigned bits"}
    code, _out, err = invoke(capsys, "duality", "--k", "3", "--N", "7", "--trials", "0")
    assert code == 2
    assert json.loads(err) == {"error": "trials must be >= 1, got 0"}
    code, out, _ = invoke(capsys, "node", "--k", "3", "--N", "7", "--J", "5,6,7", "--T", "1/2", "--seed", "9")
    assert code == 0
    config = json.loads(out.splitlines()[0])["config"]
    expected = {
        "command": "node",
        "inputs": [],
        "k": 3,
        "N": 7,
        "J": [5, 6, 7],
        "T": "1/2",
        "seed": 9,
        "trials": 1,
        "prime_policy": "fixed-table",
        "output": None,
        "format": "json",
    }
    assert config == expected and list(config) == list(expected)
