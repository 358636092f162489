"""Command outputs pinned byte for byte: stdout and exit code against the
committed tests/cli_fixture.json, at p=32003.

- `run --json` and `verify --json` on the golden instance, on random
  d=4 instances m=1 (seed 0) and m=2 (seeds 0 and 2), and on the golden
  matrix with row and column 3 zeroed, which fails the hypotheses;
- `check --json`, and `check`, `run` and `verify` in text, on the
  golden, m=1 seed 0 and hypothesis-failing instances;
- `example`, in text and with --json.

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
# random (m, seed), or None for the golden matrix, which nohyp then
# spoils by zeroing row and column 3
CASES = {"golden": None, "m1k0": (1, 0), "m2k0": (2, 0), "m2k2": (2, 2),
         "nohyp": None}
TEXT_CASES = ("golden", "m1k0", "nohyp")


def instance_doc(case):
    spec = CASES[case]
    inst = builtin_example(PRIME) if spec is None else \
        random_instance(4, spec[0], p=PRIME, seed=spec[1])
    doc = inst.to_dict()
    if case == "nohyp":
        psi = [list(row) for row in doc["psi"]]
        for k in range(len(psi)):
            psi[2][k] = psi[k][2] = "0"
        doc["psi"] = psi
    return doc


def pinned():
    """Fixture key, test id, arguments before the instance file, and the
    instance case (None: no file) of each pinned output."""
    out = []
    for command in ("check", "run", "verify"):
        for case in TEXT_CASES if command == "check" else CASES:
            out.append(("%s %s" % (command, case),
                        "%s-%s" % (case, command), [command, "--json"],
                        case))
        for case in TEXT_CASES:
            out.append(("%s text %s" % (command, case),
                        "%s-%s-text" % (case, command), [command], case))
    out.append(("example", "example", ["example", "--json"], None))
    out.append(("example text", "example-text", ["example"], None))
    return out


def invoke(argv):
    """Exit code and stdout of `reesgcd ARGV`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def instance_args(case, workdir, instances):
    if case is None:
        return []
    path = Path(workdir) / ("%s.json" % case)
    path.write_text(json.dumps(instances[case]))
    return [str(path)]


def regenerate(workdir):
    instances = {case: instance_doc(case) for case in CASES}
    fixture = {"instances": instances, "outputs": {}}
    for key, _, argv, case in pinned():
        code, stdout = invoke(argv + instance_args(case, workdir,
                                                   instances))
        fixture["outputs"][key] = {"exit": code, "stdout": stdout}
    FIXTURE.write_text(json.dumps(fixture, indent=1, sort_keys=True)
                       + "\n")


@pytest.fixture(scope="module")
def fixture():
    return json.loads(FIXTURE.read_text())


@pytest.mark.parametrize("case", sorted(CASES))
def test_instance_is_drawn_again(case, fixture):
    assert instance_doc(case) == fixture["instances"][case]


@pytest.mark.parametrize("key, argv, case", [
    pytest.param(key, argv, case, id=test_id)
    for key, test_id, argv, case in pinned()])
def test_output_is_byte_identical(key, argv, case, fixture, tmp_path):
    code, stdout = invoke(argv + instance_args(case, tmp_path,
                                               fixture["instances"]))
    expected = fixture["outputs"][key]
    assert code == expected["exit"]
    assert stdout == expected["stdout"]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        regenerate(workdir)
