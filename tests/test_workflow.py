"""The CI workflow runs the installed ``liecap`` console script in one step.

Every behaviour check of the command line is a tier-1 test that runs
``cli.main`` in process; CI adds one call of the console script, to check
the entry point that pyproject installs.  A second step that calls the
script would be a second harness, which runs only in CI and not in the
tier-1 command, so this test fails on it.
"""

import re
from pathlib import Path

WORKFLOW = Path(__file__).resolve().parent.parent / ".github" / "workflows" / "tier1.yml"

# the word liecap in command position: not a module path (liecap.cli), not
# an import, not part of a longer name
_SCRIPT = re.compile(r"(?<!from )(?<!import )(?<![\w./-])liecap(?![\w./-])")


def run_blocks(text):
    """The shell of each ``run:`` key of a workflow, inline or as a block
    scalar, whose lines are those indented deeper than the key."""
    blocks, block, indent = [], None, 0
    for line in text.splitlines():
        m = re.match(r"^(\s*(?:- )?)run:\s*(.*)$", line)
        if m:
            indent = len(m.group(1))
            block = [] if m.group(2) in ("|", ">") else [m.group(2)]
            blocks.append(block)
        elif block is not None and (not line.strip() or len(line) - len(line.lstrip()) > indent):
            block.append(line)
        else:
            block = None
    return ["\n".join(b) for b in blocks]


def script_calls(text):
    return [b for b in run_blocks(text) if _SCRIPT.search(b)]


def test_one_step_calls_the_console_script():
    calls = script_calls(WORKFLOW.read_text(encoding="utf-8"))
    assert calls == ["liecap invariants L5_8 --format json"]


def test_checker_finds_each_calling_step():
    text = ("    steps:\n"
            "      - name: Install\n"
            "        run: pip install -e '.[test]'\n"
            "      - name: Module only\n"
            "        run: |\n"
            "          python -c \"from liecap import algebra; import liecap.cli\"\n"
            "      - name: Inline\n"
            "        run: liecap list 5\n"
            "      # a comment ends the block above\n"
            "      - run: |\n"
            "          for key in L5_8 H2; do\n"
            "            got=$(liecap invariants \"$key\")\n"
            "          done\n"
            "      - name: After\n"
            "        run: echo liecap-free\n")
    assert script_calls(text) == [
        "liecap list 5",
        "          for key in L5_8 H2; do\n"
        "            got=$(liecap invariants \"$key\")\n"
        "          done"]
