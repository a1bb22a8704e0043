"""Every entry of ``cli_golden.json`` in-process, and a broken one reported."""

import json
import sys
from pathlib import Path

import pytest

import blockhess
import cli_golden

ENTRIES = cli_golden.load()


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(e["argv"]) for e in ENTRIES])
def test_pinned_output(entry):
    line = cli_golden.mismatch(entry, *cli_golden.run_in_process(entry))
    assert line is None, line


ENTRY = next(e for e in ENTRIES if e["argv"] == ["critical", "--input", "a.json", "--point", "p.json"])
BROKEN = {
    "sha256-digit-flipped": {"sha256": f"{int(ENTRY['sha256'][0], 16) ^ 1:x}" + ENTRY["sha256"][1:]},
    "exit-changed": {"exit": 1},
    "file-dropped": {"files": {"a.json": ENTRY["files"]["a.json"]}},
}


@pytest.mark.parametrize("change", BROKEN.values(), ids=BROKEN)
def test_a_broken_entry_is_reported_by_its_argv(change):
    entry = {**ENTRY, **change}
    line = cli_golden.mismatch(entry, *cli_golden.run_in_process(entry))
    assert line and line.startswith("critical --input a.json --point p.json: ")


def test_the_runner_exits_1_on_a_broken_entry(tmp_path, monkeypatch, capsys):
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps([ENTRY, {**ENTRY, **BROKEN["sha256-digit-flipped"]}]), encoding="utf-8")
    monkeypatch.setattr(cli_golden, "MANIFEST", manifest)
    src = Path(blockhess.__file__).resolve().parents[1]
    script = tmp_path / "blockhess"  # the console script pip would install
    script.write_text(f"#!{sys.executable}\nimport sys\nsys.path.insert(0, {str(src)!r})\n"
                      "from blockhess.cli import main\nsys.exit(main())\n")
    script.chmod(0o755)
    assert cli_golden.main([str(script)]) == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("critical --input a.json --point p.json: ") and out[1:] == ["2 entries, 1 failed"]
