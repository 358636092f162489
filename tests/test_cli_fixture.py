"""`run --json` and `verify --json` pinned byte for byte: stdout and exit
code on the golden instance and on random d=4 instances m=1 (seed 0)
and m=2 (seeds 0 and 2) at p=32003, against the committed
tests/cli_fixture.json.

The fixture holds each instance file as well, and random_instance must
still draw it.  A change that alters any of these outputs on purpose
regenerates the fixture from the repository root with

    PYTHONPATH=src python tests/test_cli_fixture.py

and names the change to the fixture in CHANGES.md.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from reesgcd.cli import main
from reesgcd.pipeline import builtin_example, random_instance

FIXTURE = Path(__file__).resolve().parent / "cli_fixture.json"
PRIME = 32003
CASES = {"golden": None, "m1k0": (1, 0), "m2k0": (2, 0), "m2k2": (2, 2)}
COMMANDS = ("run", "verify")


def instance_doc(case):
    spec = CASES[case]
    inst = builtin_example(PRIME) if spec is None else \
        random_instance(4, spec[0], p=PRIME, seed=spec[1])
    return inst.to_dict()


def invoke(command, path):
    """Exit code and stdout of `reesgcd COMMAND --json PATH`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main([command, "--json", str(path)])
    return code, out.getvalue()


def regenerate(workdir):
    fixture = {"instances": {}, "outputs": {}}
    for case in CASES:
        doc = instance_doc(case)
        fixture["instances"][case] = doc
        path = Path(workdir) / ("%s.json" % case)
        path.write_text(json.dumps(doc))
        for command in COMMANDS:
            code, stdout = invoke(command, path)
            fixture["outputs"]["%s %s" % (command, case)] = {
                "exit": code, "stdout": stdout}
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True)
                       + "\n")


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_instance_is_drawn_again(case, fixture):
    assert instance_doc(case) == fixture["instances"][case]


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("case", sorted(CASES))
def test_output_is_byte_identical(command, case, fixture, tmp_path):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(fixture["instances"][case]))
    code, stdout = invoke(command, path)
    expected = fixture["outputs"]["%s %s" % (command, case)]
    assert code == expected["exit"]
    assert stdout == expected["stdout"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        regenerate(workdir)
