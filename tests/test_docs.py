"""The committed docs site stays in lockstep with the code.

``docs/cli.md`` is generated from the live argparse tree; this suite
regenerates it and compares.  Byte-equality is only asserted on CPython
3.11 — the interpreter that rendered the committed page and that the CI
``docs-check`` job pins — because argparse help formatting varies
cosmetically across versions; other interpreters check structure (every
subcommand has a section) so a forgotten regeneration still fails
everywhere.
"""

import os
import re
import subprocess
import sys

import pytest

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DOCS = os.path.join(REPO_ROOT, "docs")


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO_ROOT, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, os.path.join(DOCS, script), *args],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO_ROOT,
    )


class TestDocsSite:
    def test_pages_exist_and_are_linked_from_readme(self):
        readme = open(os.path.join(REPO_ROOT, "README.md")).read()
        for page in (
            "architecture.md",
            "kernel.md",
            "streaming.md",
            "observability.md",
            "serve.md",
            "cli.md",
        ):
            assert os.path.exists(os.path.join(DOCS, page)), page
            assert f"docs/{page}" in readme, f"README does not link docs/{page}"

    def test_generated_cli_reference_covers_every_subcommand(self):
        from repro.cli import build_parser

        committed = open(os.path.join(DOCS, "cli.md")).read()
        assert committed.startswith("<!-- Generated by docs/gen_cli.py")
        help_text = build_parser().format_help()
        commands = re.search(r"\{([a-z0-9,-]+)\}", help_text).group(1)
        for command in commands.split(","):
            assert f"## repro {command}\n" in committed, command

    @pytest.mark.skipif(
        sys.version_info[:2] != (3, 11),
        reason="committed page rendered by 3.11 (argparse help formatting "
        "varies across interpreter versions); CI docs-check pins 3.11",
    )
    def test_generated_cli_reference_is_fresh(self):
        result = _run("gen_cli.py", "--check")
        assert result.returncode == 0, result.stderr or result.stdout

    def test_intra_repo_links_resolve(self):
        result = _run("check_links.py")
        assert result.returncode == 0, result.stderr or result.stdout
