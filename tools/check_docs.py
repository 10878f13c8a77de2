"""Documentation checker: every relative link resolves, every snippet runs.

Two checks, both enforced by CI (the ``docs`` job) and by
``tests/test_docs.py``:

* **links** — every relative markdown link in ``README.md`` and
  ``docs/*.md`` must point at a file or directory that exists
  (fragments are stripped; absolute ``http(s)://`` / ``mailto:`` links
  are out of scope — the offline environment cannot verify them).
* **snippets** — every fenced ```` ```python ```` block in ``docs/*.md``
  must execute.  Blocks in one file share a namespace in order, so a
  guide can build state across snippets like a REPL session.  A block
  whose first line is ``# doc: no-exec`` is skipped (for illustrative
  fragments that need unavailable context); use sparingly — a snippet
  that runs is a snippet that cannot rot.  A page must also close what
  it opens: a worker process it started and left running (an unclosed
  ``ShardedPolicyService``) is reported, then terminated.

Run from the repo root::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import multiprocessing
import re
import sys
from pathlib import Path
from typing import Dict, List, Tuple

REPO_ROOT = Path(__file__).resolve().parents[1]

#: ``[text](target)`` and ``![alt](target)`` — markdown inline links.
_LINK_RE = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")
_FENCE_RE = re.compile(
    r"^```(?P<info>[^\n]*)\n(?P<body>.*?)^```\s*$",
    re.MULTILINE | re.DOTALL,
)

NO_EXEC_MARKER = "# doc: no-exec"


def doc_files() -> List[Path]:
    """README plus every markdown file under docs/, sorted for stable
    reports."""
    files = [REPO_ROOT / "README.md"]
    docs = REPO_ROOT / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.glob("*.md")))
    return [f for f in files if f.exists()]


def _strip_code(text: str) -> str:
    """Remove fenced code blocks so links inside code are not checked
    (they are syntax examples, not navigation)."""
    return _FENCE_RE.sub("", text)


def check_links(files: List[Path] = None) -> List[str]:
    """Every relative link must resolve.  Returns error strings."""
    errors: List[str] = []
    for path in files if files is not None else doc_files():
        text = _strip_code(path.read_text())
        for match in _LINK_RE.finditer(text):
            target = match.group(1)
            if target.startswith(("http://", "https://", "mailto:")):
                continue
            if target.startswith("#"):  # in-page anchor
                continue
            resolved = (path.parent / target.split("#", 1)[0]).resolve()
            if not resolved.exists():
                errors.append(
                    f"{path.relative_to(REPO_ROOT)}: broken link "
                    f"-> {target}"
                )
    return errors


def python_snippets(path: Path) -> List[Tuple[int, str]]:
    """``(line_number, source)`` of every executable python block."""
    text = path.read_text()
    snippets: List[Tuple[int, str]] = []
    for match in _FENCE_RE.finditer(text):
        info = match.group("info").strip().lower()
        if info.split()[:1] != ["python"]:
            continue
        body = match.group("body")
        if body.lstrip().startswith(NO_EXEC_MARKER):
            continue
        line = text[:match.start()].count("\n") + 2  # first body line
        snippets.append((line, body))
    return snippets


def run_snippets(files: List[Path] = None) -> List[str]:
    """Execute the docs' python blocks; returns error strings.

    Blocks of one file run in order in a shared namespace (so guides
    read like a session); files are independent.  README is link-checked
    only — its snippets assume interactive context by design.  Child
    processes a file starts and leaves running are reported and
    terminated at the end of the file.
    """
    errors: List[str] = []
    targets = (
        files if files is not None
        else [f for f in doc_files() if f.parent.name == "docs"]
    )
    for path in targets:
        namespace: Dict = {"__name__": f"__doc_{path.stem}__"}
        before = set(multiprocessing.active_children())
        for line, source in python_snippets(path):
            try:
                code = compile(source, f"{path.name}:{line}", "exec")
                exec(code, namespace)  # noqa: S102 - our own docs
            except Exception as exc:  # noqa: BLE001 - report, continue
                errors.append(
                    f"{_page_name(path)} snippet at line "
                    f"{line} failed: {type(exc).__name__}: {exc}"
                )
                break  # later blocks may depend on this one's state
        leaked = [child for child in multiprocessing.active_children()
                  if child not in before]
        if leaked:
            errors.append(
                f"{_page_name(path)} left {len(leaked)} child "
                f"process(es) running: "
                f"{sorted(child.name for child in leaked)}"
            )
        for child in leaked:
            child.terminate()
            child.join(timeout=10.0)
    return errors


def _page_name(path: Path) -> str:
    """``path`` relative to the repo root when it lives there."""
    try:
        return str(path.relative_to(REPO_ROOT))
    except ValueError:
        return str(path)


def main() -> int:
    files = doc_files()
    print(f"checking {len(files)} documentation file(s)")
    link_errors = check_links(files)
    snippet_files = [f for f in files if f.parent.name == "docs"]
    n_snippets = sum(len(python_snippets(f)) for f in snippet_files)
    print(f"running {n_snippets} python snippet(s) from "
          f"{len(snippet_files)} docs file(s)")
    snippet_errors = run_snippets(snippet_files)
    for error in link_errors + snippet_errors:
        print(f"FAIL {error}", file=sys.stderr)
    if link_errors or snippet_errors:
        print(
            f"{len(link_errors)} broken link(s), "
            f"{len(snippet_errors)} failing snippet(s)",
            file=sys.stderr,
        )
        return 1
    print("docs OK: all links resolve, all snippets execute")
    return 0


if __name__ == "__main__":
    sys.exit(main())
