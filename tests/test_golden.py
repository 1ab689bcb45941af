"""CLI bytes pinned by the committed golden manifest: golden.py makes the
seeded corpus again, runs every invocation in-process and gives each its
manifest line, which must equal the committed one."""

import golden


def test_cli_bytes_match_the_golden_manifest(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)  # the argv paths are relative to the corpus
    expected = golden.MANIFEST.read_text().splitlines()
    lines = golden.manifest_lines(tmp_path)
    moved = [(want, got) for want, got in zip(expected, lines) if want != got]
    assert (len(lines), moved) == (len(expected), [])
