"""Malformed array, certificate and chart-point files fed through ``cli.main``.

Whatever a file holds, a command exits 0, 1 or 2 and never raises: exit 2
prints one ``{"error": ...}`` line on stderr and nothing on stdout, and
exits 0 and 1 print their one-line summary.  Documents are drawn near the
valid shapes (small shapes, coefficient strings that parse or nearly do,
one to three edits of a real certificate) and far from them (any JSON
value, any text).  Runs are derandomized, so each property sees the same
examples every time.
"""

import json

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import cli_golden
from blockhess.certificates import CERTIFICATE_IDS, KINDS, load, to_json_dict

FUZZ = settings(max_examples=150, deadline=None, derandomize=True, suppress_health_check=[HealthCheck.too_slow])

json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 12),
    st.sampled_from([10**6, 2**64, -(2**63)]),
    st.floats(),  # NaN and infinities too: json.load reads them back
    st.text(max_size=6),
)
json_values = st.recursive(
    json_scalars, lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)
# any text at all, written as the whole file; lone surrogates have no UTF-8
raw_text = st.text(st.characters(blacklist_categories=("Cs",)), max_size=40)
numeric_text = st.sampled_from(
    ["1", "-2/3", "0", "1/0", "0/0", "1.5", "-0.5e-3", "1e999999999", "0e999999999", "9" * 5000, "1_0", " 3 ", "0x10", ""]
)


# past the digit limit of int, and nested past the recursion limit
EXTREME_TEXT = ["9" * 5000, '{"k": ' + "9" * 5000 + "}", "[" * 100_000, '{"a": ' * 100_000]


def file_text(docs):
    """A file holding one of ``docs`` as JSON, or any other text."""
    return st.one_of(docs.map(json.dumps), raw_text, st.sampled_from(EXTREME_TEXT))


def run(argv, files):
    """Run ``blockhess argv`` on ``files`` and check the exit-status contract."""
    code, err = cli_golden.run_in_process({"argv": argv, "files": files, "stream": "stderr"})
    lines = err.decode("utf-8").splitlines()
    assert code in (0, 1, 2), code
    assert len(lines) == 1, lines
    if code == 2:
        assert set(json.loads(lines[0])) == {"error"}
    return code


shapes = st.integers(-1, 9) | json_scalars
entries = st.one_of(
    st.fixed_dictionaries({"I": st.lists(st.integers(0, 9) | json_scalars, max_size=5), "c": numeric_text | json_scalars}),
    json_values,
)
array_docs = st.one_of(
    st.fixed_dictionaries({"k": shapes, "N": shapes, "entries": st.lists(entries, max_size=6) | json_values}),
    json_values,
)
ARRAY_COMMANDS = [
    ["det", "--input", "a.json"],
    ["det", "--input", "a.json", "--mod", "7"],
    ["rank", "--input", "a.json"],
    ["det", "--input", "a.json", "--dual"],
    ["rank", "--input", "a.json", "--dual"],
    ["hessian", "--input", "a.json"],
    ["hessian", "--input", "a.json", "--dual"],
    ["critical", "--input", "a.json"],
    ["specialize", "a.json", "a.json"],
]


@FUZZ
@given(st.sampled_from(ARRAY_COMMANDS), file_text(array_docs))
def test_malformed_arrays_exit_0_or_2(argv, text):
    assert run(argv, {"a.json": text}) in (0, 2)


ARRAY_36 = json.dumps({"k": 3, "N": 6, "entries": [{"I": [1, 4, 5], "c": "-2"}, {"I": [2, 4, 6], "c": "3/2"}]})
point_entries = st.one_of(numeric_text, json_scalars)
point_docs = st.one_of(
    st.fixed_dictionaries({"rows": st.lists(st.lists(point_entries, min_size=2, max_size=4), min_size=2, max_size=4)}),
    st.fixed_dictionaries({"rows": json_values}),
    json_values,
)


@FUZZ
@given(file_text(point_docs))
def test_malformed_chart_points_exit_0_or_2(text):
    assert run(["critical", "--input", "a.json", "--point", "p.json"], {"a.json": ARRAY_36, "p.json": text}) in (0, 2)


def _paths(doc, prefix=()):
    """Every key and index path into ``doc``."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from _paths(value, prefix + (key,))


BASE = to_json_dict(load("corank-3-9"))
PATHS = list(_paths(BASE))


@st.composite
def certificate_docs(draw):
    """The corank-3-9 record with one to three values replaced or deleted."""
    doc = json.loads(json.dumps(BASE))
    for _ in range(draw(st.integers(1, 3))):
        *head, last = draw(st.sampled_from(PATHS))
        node = doc
        try:
            for key in head:
                node = node[key]
            if draw(st.booleans()):
                del node[last]
            else:
                node[last] = draw(st.sampled_from(KINDS + CERTIFICATE_IDS) | json_values)
        except (KeyError, IndexError, TypeError):  # an earlier edit removed the path
            pass
    return doc


@FUZZ
@given(file_text(certificate_docs() | json_values))
def test_malformed_certificates_never_raise(text):
    # an edit the check does not read (the claim, an unknown id) still passes
    run(["verify-certificates", "--input", "c.json"], {"c.json": text})
