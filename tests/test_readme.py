"""README's Library example runs as written."""

from __future__ import annotations

import json
import re
from pathlib import Path

from helpers import FIXTURES, RESPONSES
from terminators.documents import SourceRef
from terminators.terms import canonical_source_string, parse_source_string

README = Path(__file__).parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.DOTALL).group(1)


def listing3_for(name: str, shift: int) -> list:
    """Listing 3's terms cited in a copy of the excerpt numbered from 1."""
    records = json.loads(
        (RESPONSES / "listing3_terms.json").read_text(encoding="utf-8")
    )
    for record in records:
        ref = parse_source_string(record["source"])
        record["source"] = canonical_source_string(
            SourceRef(name, ref.start_line + shift, ref.end_line + shift)
        )
    return records


def test_library_example_runs(tmp_path, monkeypatch, capsys):
    excerpt = FIXTURES / "openai_tos_excerpt.txt"
    (tmp_path / "tos.txt").write_bytes(excerpt.read_bytes())
    (tmp_path / "terms.json").write_text(
        json.dumps(listing3_for("tos.txt", 1 - 106)), encoding="utf-8"
    )
    entries = [
        ("3: Output may not always", tmp_path / "terms.json"),
        ("1: When you use", RESPONSES / "empty_terms.json"),
        ("backed by the passage it cites",
         RESPONSES / "supported_verification.json"),
        ("You design accountability checks", RESPONSES / "listing7_plan.json"),
    ]
    (tmp_path / "replies.json").write_text(json.dumps(
        [{"match": m, "response_file": str(path)} for m, path in entries]
    ), encoding="utf-8")
    monkeypatch.chdir(tmp_path)

    namespace: dict = {}
    exec(compile(library_example(), str(README), "exec"), namespace)

    run = namespace["run"]
    assert run.phase == "complete"
    assert len(run.surviving_terms) == 2
    assert capsys.readouterr().out == "complete 2\n"
