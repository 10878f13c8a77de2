"""Documentation health: links resolve, guides exist, snippets execute.

The same checks CI's ``docs`` job runs (``tools/check_docs.py``),
wired into tier-1 so a broken link or rotted snippet fails locally
before it ships.
"""

import importlib.util
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location(
    "check_docs", REPO_ROOT / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_docs)

GUIDES = ("architecture.md", "serving.md", "cluster.md", "benchmarks.md")


def test_the_four_guides_exist_and_are_linked_from_readme():
    readme = (REPO_ROOT / "README.md").read_text()
    for guide in GUIDES:
        assert (REPO_ROOT / "docs" / guide).exists(), guide
        assert f"docs/{guide}" in readme, (
            f"README does not link docs/{guide}"
        )


def test_all_relative_links_resolve():
    errors = check_docs.check_links()
    assert not errors, "\n".join(errors)


def test_docs_have_executable_snippets():
    counts = {
        path.name: len(check_docs.python_snippets(path))
        for path in check_docs.doc_files() if path.parent.name == "docs"
    }
    # the three concept guides teach by runnable example; benchmarks.md
    # is reference prose (shell commands) and carries no floor
    for guide in ("architecture.md", "serving.md", "cluster.md"):
        assert counts.get(guide, 0) >= 1, counts


@pytest.mark.parametrize("guide", GUIDES)
def test_docs_snippets_execute(guide):
    path = REPO_ROOT / "docs" / guide
    errors = check_docs.run_snippets([path])
    assert not errors, "\n".join(errors)


def test_snippets_must_close_the_workers_they_start(tmp_path, monkeypatch):
    """A page that opens a cluster and never closes it leaves its shard
    worker running: the check reports it and terminates the child."""
    import multiprocessing
    import sys
    import types

    # The page hands its service to the test via this module, so the
    # test can close it after the check.
    holder = types.ModuleType("leak_holder")
    holder.services = []
    monkeypatch.setitem(sys.modules, "leak_holder", holder)
    page = tmp_path / "leaky.md"
    page.write_text(
        "```python\n"
        "import leak_holder\n"
        "from repro.serve.cluster import ShardedPolicyService\n"
        "service = ShardedPolicyService(n_shards=1)\n"
        "leak_holder.services.append(service)\n"
        "```\n"
    )
    try:
        errors = check_docs.run_snippets([page])
        assert len(errors) == 1, errors
        assert "leaky.md left 1 child process(es) running" in errors[0]
        worker = holder.services[0]._shards[0].process
        assert not worker.is_alive()
        assert worker not in multiprocessing.active_children()
    finally:
        for service in holder.services:
            service.close()
