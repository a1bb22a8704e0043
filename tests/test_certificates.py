"""Embedded records: payloads, checksums, verification verdicts, and the
composition rules that manufacture new corank-one witnesses."""

import hashlib
import json

import pytest

import cli_golden
import hessian_oracle
from blockhess.certificates import (
    CERTIFICATE_IDS,
    Certificate,
    blocks_from_hessian,
    build_corank1,
    certificate_from_json_dict,
    export_certificate,
    full_rank_hessian,
    load,
    payload_checksum,
    to_array,
    to_hessian,
    to_json_dict,
    verify,
)
from blockhess.cli import main
from blockhess.hessian import block_row_rank, det_exact, rank_exact, rank_report
from exterior_oracle import array_to_json_dict

# sha256 of the canonical payload serialization, frozen at first
# verification; any later edit to an embedded record must be deliberate
FROZEN_CHECKSUMS = {
    "corank-3-9": "930c98b80c38f66ef181143eefed8bbfc1ac484b49c92036eab4c23ff7fe6ca7",
    "corank-3-10": "20508c9d1d9e67a0149949b9cdbaf95364b93ad9bb6e1842451254930b1a552f",
    "corank-3-11": "58e1aeead7252f256130b79ef23286851c0143cd04e60faa7fdc8fff4f4f0582",
    "corank-4-8": "910bc38b6962432064b32514eeb10a784dd7ef87399f5fa02ab1e28f034d7824",
    "corank-4-9": "80da27dd83e700c3ce403605bfd16a53b60c79457d57e0668f77900f998235f1",
    "corank-5-10": "d2c17fdd84b42ce02a5ee20e43fdbe6b419a1bcf25f1622749720289b6458d2d",
    "invertible-4-8": "b19576660d00e44a0d49e1850ddd25a38ced8dec718aab5d5d6f2a4c869e289d",
    "node-3-9": "a54e9bbed7622cb3ea87a3f3ab96b6b86512b7bc9126ab932612075cdd01b792",
    "node-3-10": "2f3dbc7467e64703bb0a5deb5cc8d47fee94d63be0fd7fb36afea9e582a058fb",
    "node-3-11": "d52b072a120434a0fb4ac6299e9db4d8ba3a416b19cce3eea90718b13a2947e5",
}

CORANK_RANKS = {
    "corank-3-9": 17,
    "corank-3-10": 20,
    "corank-3-11": 23,
    "corank-4-8": 15,
    "corank-4-9": 19,
    "corank-5-10": 24,
}

NODE_DETS = {
    "node-3-9": (-27556, -27556),
    "node-3-10": (-307904, 7886848),
    "node-3-11": (542289388, 5443589060),
}


def test_registry_lists_ten_records():
    assert len(CERTIFICATE_IDS) == 10
    assert set(FROZEN_CHECKSUMS) == set(CERTIFICATE_IDS)
    with pytest.raises(ValueError, match=r"^unknown certificate id 'corank-9-99'; known: corank-3-9, "):
        load("corank-9-99")


def test_checksums_frozen():
    for cid in CERTIFICATE_IDS:
        assert payload_checksum(load(cid)) == FROZEN_CHECKSUMS[cid]


@pytest.mark.parametrize("cid", sorted(CORANK_RANKS))
def test_corank_certificates_verify(cid):
    cert = load(cid)
    assert cert.kind == "corank1"
    report = verify(cert)
    assert report["pass"] is True
    assert report["rank"] == CORANK_RANKS[cid]
    assert report["corank"] == 1
    side = cert.k * (cert.N - cert.k)
    assert report["rank"] == side - 1
    assert report["block_row_ranks"] == [cert.N - cert.k] * cert.k


def test_invertible_certificate_verifies():
    report = verify("invertible-4-8")
    assert report["pass"] is True
    assert report["det"] == 1


@pytest.mark.parametrize("cid", sorted(NODE_DETS))
def test_node_certificates_verify(cid):
    report = verify(cid, completion_seed=0)
    assert report["pass"] is True
    assert report["node"]["det_H0"] == NODE_DETS[cid][0]
    assert report["node"]["det_H1"] == NODE_DETS[cid][1]
    assert report["node"]["condition_i"] == "holds"


def test_verify_all_inventories_everything():
    reports = [verify(cid) for cid in CERTIFICATE_IDS]
    assert len(reports) == 10
    assert all(r["pass"] for r in reports)
    assert list(CERTIFICATE_IDS) == list(FROZEN_CHECKSUMS)  # catalog order, as the CLI lists it


def test_export_import_round_trip_is_byte_stable(tmp_path):
    cert = load("corank-4-8")
    path = tmp_path / "cert.json"
    export_certificate(cert, path)
    text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    back = certificate_from_json_dict(json.loads(text))
    assert back == cert
    path2 = tmp_path / "cert2.json"
    export_certificate(back, path2)
    assert path2.read_text(encoding="utf-8") == text


def test_built_exports_are_the_golden_manifest_inputs(tmp_path):
    # the verify-certificates --input entries of cli_golden.json check what
    # the builder writes; the (7,16) bytes as recorded before ranks and
    # determinants split a matrix into the components of its nonzero pattern
    files = {name: text for e in cli_golden.load() for name, text in e["files"].items()}
    for (k, N), name in (((3, 12), "exported.json"), ((7, 16), "exported-7-16.json")):
        export_certificate(build_corank1(k, N, 7), tmp_path / name)
        assert (tmp_path / name).read_text(encoding="ascii") == files[name]
    assert hashlib.sha256((tmp_path / "exported-7-16.json").read_bytes()).hexdigest() == (
        "0045b0f11e8facdc74fcbf94037338e96f8ba75d04f5bb32512f992872593d52"
    )


def test_corrupted_payload_is_located():
    doc = to_json_dict(load("corank-3-9"))
    doc["blocks"]["A13"][2][3] += 5
    report = verify(certificate_from_json_dict(doc))
    assert report["pass"] is False
    d = report["discrepancy"]
    assert d["field"] == "A13" and d["row"] == 3 and d["col"] == 4  # 1-based


def test_import_rejects_malformed_documents():
    good = to_json_dict(load("corank-3-9"))
    for mutate in (
        lambda d: d.pop("kind"),
        lambda d: d.update(kind="banana"),
        lambda d: d.update(k=0),
        lambda d: d["blocks"]["A12"].pop(),
        lambda d: d["blocks"]["A12"][0].__setitem__(0, "x"),
    ):
        doc = json.loads(json.dumps(good))
        mutate(doc)
        with pytest.raises(ValueError):
            certificate_from_json_dict(doc)
    # a missing block imports (shape checks are per-block) but cannot verify:
    # against a known id the payload comparison flags it; under a fresh id
    # the assembly step rejects it
    doc = json.loads(json.dumps(good))
    doc["blocks"].pop("A12")
    report = verify(certificate_from_json_dict(doc))
    assert report["pass"] is False and "discrepancy" in report
    doc["id"] = "user-supplied"
    report = verify(certificate_from_json_dict(doc))
    assert report["pass"] is False and "error" in report


def test_array_from_blocks_validates_structure():
    cert = load("corank-4-8")
    A = to_array(cert)
    assert A.k == 4 and A.N == 8
    # diagonal must be zero
    bad = {name: [list(r) for r in B] for name, B in cert.blocks.items()}
    bad["A12"][0][0] = 1
    with pytest.raises(ValueError):
        to_array(Certificate(k=4, N=8, blocks=bad))
    # skewness enforced per block
    bad = {name: [list(r) for r in B] for name, B in cert.blocks.items()}
    bad["A12"][0][1] = 7
    bad["A12"][1][0] = 7
    with pytest.raises(ValueError, match="skew"):
        to_array(Certificate(k=4, N=8, blocks=bad))
    # every upper block must be present
    partial = {name: [list(r) for r in B] for name, B in cert.blocks.items()}
    partial.pop("A34")
    with pytest.raises(ValueError):
        to_array(Certificate(k=4, N=8, blocks=partial))


@pytest.mark.parametrize("cid", CERTIFICATE_IDS)
def test_array_from_blocks_matches_sorted_sign_oracle(cid):
    cert = load(cid)
    A, ref = to_array(cert), hessian_oracle.array_from_blocks(cert.k, cert.N, cert.blocks)
    assert list(A.coeffs.items()) == list(ref.coeffs.items())


@pytest.mark.parametrize("k,N", [(3, 12), (4, 10), (5, 11), (6, 12), (7, 16)])
def test_built_array_matches_sorted_sign_oracle(k, N):
    cert = build_corank1(k, N)
    A, ref = to_array(cert), hessian_oracle.array_from_blocks(k, N, cert.blocks)
    assert list(A.coeffs.items()) == list(ref.coeffs.items())


def test_blocks_round_trip_through_hessian():
    cert = load("corank-5-10")
    H = to_hessian(cert)
    assert blocks_from_hessian(H) == cert.blocks
    assert rank_exact(H) == len(H.rows) - 1


def test_full_rank_witnesses_pinned():
    assert det_exact(full_rank_hessian(2, 6)) == 1
    assert det_exact(full_rank_hessian(2, 8)) == 1
    assert det_exact(full_rank_hessian(3, 6)) == 2
    assert det_exact(full_rank_hessian(4, 6)) == 1
    assert det_exact(full_rank_hessian(5, 8)) == -86489488
    with pytest.raises(ValueError):
        full_rank_hessian(2, 7)  # odd N, k = 2: determinant always zero


@pytest.mark.parametrize("k,N", [(3, 12), (3, 14), (4, 10), (4, 11), (5, 13), (5, 11), (6, 12)])
def test_build_corank1_produces_verified_records(k, N):
    cert = build_corank1(k, N)
    assert (cert.k, cert.N) == (k, N)
    assert cert.id == f"corank-{k}-{N}"
    H = to_hessian(cert)
    side = k * (N - k)
    assert rank_exact(H) == side - 1
    for i in range(1, k + 1):
        assert block_row_rank(H, i) == N - k
    # deterministic: rebuilding yields the identical payload
    assert payload_checksum(build_corank1(k, N)) == payload_checksum(cert)


def test_five_row_reach_is_the_closed_form_of_its_rule():
    # the composition rule for k = 5, kept here as a recursion: (5, 10), every
    # odd N >= 11, and (5, N) from (5, N - 3) for N >= 13
    from blockhess.certificates import _reachable_5

    reach: dict[int, bool] = {}
    for N in range(2000):
        reach[N] = N == 10 or (N % 2 == 1 and N >= 11) or (N >= 13 and reach[N - 3])
        assert _reachable_5(N) is reach[N], N


def test_build_corank1_unreachable_shape():
    with pytest.raises(ValueError, match=r"no composition rule"):
        build_corank1(5, 12)
    with pytest.raises(ValueError):
        build_corank1(2, 8)


@pytest.mark.parametrize("cid", sorted(CORANK_RANKS))
def test_rank_report_is_the_rank_record_and_the_verify_fields(cid, capsys, tmp_path):
    cert = load(cid)
    rec = rank_report(to_hessian(cert))
    assert list(rec) == ["side", "rank", "corank", "block_row_ranks"]
    report = verify(cert)
    assert rec == {key: report[key] for key in rec}
    path = tmp_path / "a.json"
    path.write_text(json.dumps(array_to_json_dict(to_array(cert))), encoding="utf-8")
    assert main(["rank", "--input", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[1] == json.dumps(rec, separators=(",", ":"))


def test_records_differing_only_in_catalog_are_unequal():
    cert = load("corank-3-9")
    other = certificate_from_json_dict({**to_json_dict(cert), "catalog": 0})
    assert other != cert
    assert certificate_from_json_dict(to_json_dict(cert)) == cert


def test_certificate_dataclass_shape():
    cert = load("node-3-10")
    assert isinstance(cert, Certificate)
    assert cert.kind == "nodepair"
    assert cert.catalog == 2
    assert cert.blocks["A12"]
