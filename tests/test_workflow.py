"""The CI workflow runs the installed ``liecap`` console script in one step.

Every behaviour check of the command line is a tier-1 test that runs
``cli.main`` in process; CI adds one call of the console script, to check
the entry point that pyproject installs.  A second step that calls the
script would be a second harness, which runs only in CI and not in the
tier-1 command, so this test fails on it.

The two benchmark smoke steps each loop over the workloads; both loops and
the ``--workload`` choices of bench/run.py must name every workload of
BENCHMARK.json, so that no workload drops out of the smoke run unseen.
"""

import ast
import json
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


BENCHMARK = WORKFLOW.parents[2] / "BENCHMARK.json"
BENCH_RUN = WORKFLOW.parents[2] / "bench" / "run.py"


def smoke_loops(text):
    """The workload list of each ``for workload in ...; do`` loop, one per
    ``run:`` block that calls bench/run.py."""
    return [m.group(1).split() for b in run_blocks(text) if "bench/run.py" in b
            for m in re.finditer(r"for workload in ([^;\n]*); do", b)]


def workload_choices(source):
    """The ``choices`` of the ``--workload`` argument in bench/run.py."""
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Call) and node.args
                and isinstance(node.args[0], ast.Constant) and node.args[0].value == "--workload"):
            (choices,) = [k.value for k in node.keywords if k.arg == "choices"]
            return [ast.literal_eval(e) for e in choices.elts]
    return None


def test_benchmark_smoke_runs_every_workload():
    # both smoke loops, untraced and traced, and the harness's own choices
    # list exactly the workloads that BENCHMARK.json declares
    names = [w["name"] for w in json.loads(BENCHMARK.read_text(encoding="utf-8"))["workloads"]]
    assert names
    assert smoke_loops(WORKFLOW.read_text(encoding="utf-8")) == [names, names]
    assert workload_choices(BENCH_RUN.read_text(encoding="utf-8")) == names


def test_checker_finds_a_dropped_workload():
    text = ("      - name: Benchmark smoke\n"
            "        run: |\n"
            "          for workload in a b; do\n"
            "            python bench/run.py --workload \"$workload\"\n"
            "          done\n"
            "      - name: Other loop\n"
            "        run: |\n"
            "          for workload in a b c; do echo \"$workload\"; done\n"
            "      - name: Benchmark smoke, traced\n"
            "        run: |\n"
            "          for workload in a; do\n"
            "            python bench/run.py --workload \"$workload\" --trace 1\n"
            "          done\n")
    assert smoke_loops(text) == [["a", "b"], ["a"]]
    source = ("p.add_argument('--seed', type=int)\n"
              "p.add_argument('--workload', required=True, choices=['a', 'b'])\n")
    assert workload_choices(source) == ["a", "b"]
