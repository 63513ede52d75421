"""The command line's outputs, byte for byte, against a checked-in record.

``golden_outputs.json`` holds the exit code, standard output and standard
error of every command that ``commands()`` lists: ``invariants <key>
--format json`` for each catalog key of dim <= 6 over Q and over GF(3),
``invariants`` on H40 and A200 in both formats, and ``verify-tables all``
over Q and over GF(101).  A change that moves any of them fails here.  When
an output is meant to change, regenerate the record from the source tree
under ``src/`` and say in the change why it moved:

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
from pathlib import Path

from liecap import catalog, cli
from liecap.linalg import QQ, PrimeField

RECORD = Path(__file__).resolve().parent / "golden_outputs.json"


def commands():
    out = []
    for field, arg in ((QQ, "Q"), (PrimeField(3), "Fp:3")):
        out += [f"invariants {key} --format json --field {arg}"
                for key in catalog.all_keys(6, field)]
    out += [f"invariants {key} --format {fmt}" for key in ("H40", "A200")
            for fmt in ("pretty", "json")]
    out += [f"verify-tables all --field {arg}" for arg in ("Q", "Fp:101")]
    return out


def run(command):
    """One command, run in this process: its exit code, its standard
    output as lines and its standard error."""
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = cli.main(command.split())
    return {"command": command, "exit": code, "stdout": stdout.getvalue().split("\n"),
            "stderr": stderr.getvalue()}


def test_outputs_match_record():
    want = json.loads(RECORD.read_text(encoding="utf-8"))
    got = [run(command) for command in commands()]
    assert [r["command"] for r in got] == [r["command"] for r in want]
    for g, w in zip(got, want):
        assert g == w, g["command"]


def test_verify_tables_fails_only_l614_exterior():
    # the one published-table divergence, tables.EXTERIOR_6_ERRATA
    for r in json.loads(RECORD.read_text(encoding="utf-8")):
        if r["command"].startswith("verify-tables"):
            assert r["exit"] == 1
            fails = [line for line in r["stdout"] if line.startswith("FAIL")]
            assert len(fails) == 1 and fails[0].split()[1:3] == ["exterior6", "L6_14"]


if __name__ == "__main__":
    records = [run(command) for command in commands()]
    RECORD.write_text(json.dumps(records, indent=1, ensure_ascii=False) + "\n",
                      encoding="utf-8")
    print(f"wrote {len(records)} records to {RECORD}")
