"""Every Markdown document the code cites exists.

A ``*.md`` named in a ``.py`` file under ``src/``, ``benchmarks/`` or
``examples/`` must be a file in the repository — at the repo root, or
beside the citing file when the name is a relative path.
"""

import re
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

MD_NAME = re.compile(r"[\w./-]*\w\.md\b")


def test_every_cited_markdown_file_exists():
    dangling = []
    for top in ("src", "benchmarks", "examples"):
        for path in sorted((REPO_ROOT / top).rglob("*.py")):
            for number, line in enumerate(path.read_text().splitlines(), 1):
                for name in MD_NAME.findall(line):
                    if not any(
                        (base / name).is_file() for base in (REPO_ROOT, path.parent)
                    ):
                        where = path.relative_to(REPO_ROOT).as_posix()
                        dangling.append(f"{where}:{number}: {name}")
    assert not dangling, "\n".join(dangling)
