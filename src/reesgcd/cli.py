"""Command line interface.

Subcommands: check (feasibility hypotheses), run (gcd iterations),
verify (run plus the full oracle report), example (the built-in worked
instance), random (seeded fuzz loop with summary rates).  The JSON
document of every instance command (check, run, verify, example) is
assembled in _document; random keeps its own summary.

Instance files are JSON objects {"prime": p, "d": d, "psi": [[str]],
"f": str} with variables named x1..x{d+1} and T1..T{d+1}; "prime" is
optional and --prime overrides it.  All output polynomials use the
canonical grammar (grevlex term order, explicit * and ^), so JSON
output re-parses bit-exactly.

Exit codes: 0 success, 1 usage or parse error (an instance file nested
too deeply for the JSON reader included), or an instance too large
(its last gcd, of bidegree (0, m(d-1)), could have more than
pipeline.MAX_FIBER_TERMS = 10^5 terms, C(m(d-1)+d, d), or, at an even
d, the minors its hypotheses form could have more than
pipeline.MAX_MINOR_TERMS = 10^6 terms, which refuses d=8 and d=10;
refused before any matrix is built, for random -d as well),
2 hypothesis failure,
3 verification failure, 4 Groebner budget exceeded (stderr names the
report section whose run hit the cap), 5 an exponent past
ring.EXP_MAX = 32767, in the input (one too long for int() included) or
in any product formed on the way, 141 standard output closed before the
output was written (e.g. piped into head), with nothing on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import groebner
from .groebner import BudgetExceeded
from .ring import DEFAULT_PRIME, ExponentOverflow, is_prime
from .pipeline import (
    InstanceRejected,
    InstanceSpec,
    IterationError,
    builtin_example,
    check_hypotheses,
    gcd_iterations,
    minimality_and_invariants,
    optional_structural_checks,
    sample_random_instances,
    verify_main_theorem,
    verify_well_definedness,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_HYPOTHESES = 2
EXIT_VERIFICATION = 3
EXIT_BUDGET = 4
EXIT_OVERFLOW = 5
# what a shell reports for a writer that SIGPIPE ended: 128 + 13
EXIT_CLOSED_STDOUT = 141

_SECTIONS = (
    ("hypotheses", "hypothesis checks"),
    ("main", "main identities"),
    ("well_definedness", "well-definedness"),
    ("minimality", "minimality and invariants"),
    ("structural", "structural checks"),
)


class _Parser(argparse.ArgumentParser):
    """argparse with usage failures mapped onto exit code 1."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, "%s: error: %s\n" % (self.prog, message))


def _load_instance(path, prime):
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise ValueError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise ValueError("%s: invalid JSON at line %d column %d: %s"
                         % (path, exc.lineno, exc.colno, exc.msg))
    except RecursionError:
        raise ValueError("%s: invalid JSON: nested too deeply" % path)
    if not isinstance(data, dict):
        raise ValueError("%s: instance file must hold a JSON object"
                         % path)
    inst = InstanceSpec.from_dict(data)
    if prime is not None and prime != inst.prime:
        inst = inst.with_prime(prime)
    return inst


def _dumps(doc):
    return json.dumps(doc, indent=2, sort_keys=True)


def _print_report(report, title):
    print("%s:" % title)
    for line in report.lines():
        print("  " + line)


def _print_trace(trace):
    for i, step in enumerate(trace.steps, 1):
        if step.gcd.is_zero:
            print("g%d = 0" % i)
        else:
            print("g%d = %s" % (i, step.gcd))
            print("     bidegree (%d, %d)" % step.bidegree)
    gens = [g for g in trace.generators() if not g.is_zero]
    print("candidate defining ideal: %d generators" % len(gens))


def _in_section(key, check, *args):
    """check(*args), with a budget overrun tagged by the section key."""
    try:
        return check(*args)
    except BudgetExceeded as exc:
        exc.section = key
        raise


def _full_verification(inst, hypotheses):
    """The hypothesis report of inst first; the remaining sections only
    when it passes."""
    sections = {"hypotheses": hypotheses}
    trace = None
    if hypotheses.ok:
        trace = gcd_iterations(inst)
        for key, check, args in (
                ("main", verify_main_theorem, (inst, trace)),
                ("well_definedness", verify_well_definedness, (inst, trace)),
                ("minimality", minimality_and_invariants, (trace,)),
                ("structural", optional_structural_checks, (inst,))):
            sections[key] = _in_section(key, check, *args)
    return trace, sections


def _sections_ok(sections):
    return all(rep.ok for rep in sections.values())


def _at_second_prime(inst, prime, sections):
    """The sections of inst verified again at prime, and whether every
    check there has the status it has in sections."""
    other = inst.with_prime(prime)
    hypotheses = _in_section("hypotheses", check_hypotheses, other)
    _, second = _full_verification(other, hypotheses)
    statuses = [{(key, c.check_id): c.status
                 for key, rep in run.items() for c in rep.checks}
                for run in (sections, second)]
    return second, statuses[0] == statuses[1]


def _section_dicts(sections):
    return {key: sections[key].to_dict()
            for key, _ in _SECTIONS if key in sections}


def _document(command, inst, sections, trace=None):
    """The JSON document of an instance command: the instance, its report
    sections, the iterations when there is a trace, and whether every
    section passed."""
    doc = {"command": command, "prime": inst.prime,
           "instance": inst.to_dict()}
    doc.update(_section_dicts(sections))
    if trace is not None:
        doc["iterations"] = trace.to_dict()
    doc["ok"] = _sections_ok(sections)
    return doc


def cmd_check(args):
    inst = _load_instance(args.file, args.prime)
    report = _in_section("hypotheses", check_hypotheses, inst)
    if args.json:
        print(_dumps(_document("check", inst, {"hypotheses": report})))
    else:
        _print_report(report, "hypothesis checks")
    return EXIT_OK if report.ok else EXIT_HYPOTHESES


def cmd_run(args):
    inst = _load_instance(args.file, args.prime)
    hypotheses = _in_section("hypotheses", check_hypotheses, inst)
    trace = gcd_iterations(inst) if hypotheses.ok else None
    if args.json:
        print(_dumps(_document("run", inst, {"hypotheses": hypotheses},
                               trace)))
    elif trace is None:
        _print_report(hypotheses, "hypothesis checks")
    else:
        _print_trace(trace)
    return EXIT_OK if hypotheses.ok else EXIT_HYPOTHESES


def cmd_verify(args):
    inst = _load_instance(args.file, args.prime)
    hypotheses = _in_section("hypotheses", check_hypotheses, inst)
    trace, sections = _full_verification(inst, hypotheses)
    doc = _document("verify", inst, sections, trace)
    ok = doc["ok"]
    if not sections["hypotheses"].ok:
        code = EXIT_HYPOTHESES
    elif not ok:
        code = EXIT_VERIFICATION
    else:
        code = EXIT_OK

    consistent = None
    if args.second_prime is not None and code != EXIT_HYPOTHESES:
        second, consistent = _at_second_prime(inst, args.second_prime,
                                              sections)
        doc["second_prime"] = {"prime": args.second_prime,
                               "ok": _sections_ok(second),
                               "consistent": consistent}
        if not consistent and code == EXIT_OK:
            code = EXIT_VERIFICATION

    doc["ok"] = ok and consistent is not False
    doc["exit"] = code
    if args.json:
        print(_dumps(doc))
    else:
        if trace is not None:
            _print_trace(trace)
        for key, title in _SECTIONS:
            if key in sections:
                _print_report(sections[key], title)
        if consistent is not None:
            print("second prime %d: %s" % (
                args.second_prime,
                "consistent" if consistent else "INCONSISTENT"))
        print("verdict: %s" % ("pass" if doc["ok"] else "fail"))
    return code


def cmd_example(args):
    inst = builtin_example(
        DEFAULT_PRIME if args.prime is None else args.prime)
    trace = gcd_iterations(inst)
    minimality = _in_section("minimality", minimality_and_invariants, trace)
    generators = minimality.find("generator-minimality").data
    relation = minimality.find("relation-type").data
    if args.json:
        print(_dumps(_document("example", inst,
                               {"minimality": minimality}, trace)))
    else:
        for i, step in enumerate(trace.steps, 1):
            print("g%d = %s" % (i, step.gcd))
        if minimality.ok:
            print("%d minimal generators, relation type %d"
                  % (generators["generators"],
                     relation["relation_type"]))
        else:
            _print_report(minimality, "minimality and invariants")
    return EXIT_OK if minimality.ok else EXIT_VERIFICATION


def cmd_random(args):
    prime = DEFAULT_PRIME if args.prime is None else args.prime
    drawn = _in_section("hypotheses", sample_random_instances, args.d,
                        args.m, args.count, prime, args.seed)
    results = []
    all_ok = True
    candidates = 0
    for k, (inst, attempts, hypotheses) in enumerate(drawn):
        candidates += attempts
        trace, sections = _full_verification(inst, hypotheses)
        ok = _sections_ok(sections)
        entry = {"seed": args.seed + k, "candidates": attempts,
                 "instance": inst.to_dict(),
                 "ok": ok}
        entry.update(_section_dicts(sections))
        if trace is not None:
            entry["gcds"] = [str(g) for g in trace.gcds]
        if args.second_prime is not None:
            _, consistent = _at_second_prime(inst, args.second_prime,
                                             sections)
            entry["second_prime"] = {"prime": args.second_prime,
                                     "consistent": consistent}
            ok = ok and consistent
            entry["ok"] = ok
        all_ok = all_ok and ok
        results.append(entry)
        if not args.json:
            print("instance %d (seed %d): %s after %d candidate(s)"
                  % (k + 1, args.seed + k,
                     "pass" if ok else "FAIL", attempts))
    accept_rate = len(drawn) / candidates
    pass_rate = sum(1 for r in results if r["ok"]) / len(results)
    if args.json:
        print(_dumps({"command": "random", "prime": prime,
                      "d": args.d, "m": args.m, "seed": args.seed,
                      "instances": results,
                      "accept_rate": accept_rate,
                      "all_pass_rate": pass_rate,
                      "ok": all_ok}))
    else:
        print("accept rate: %d/%d = %.3f"
              % (len(drawn), candidates, accept_rate))
        print("all-pass rate: %.3f" % pass_rate)
    return EXIT_OK if all_ok else EXIT_VERIFICATION


def build_parser():
    common = _Parser(add_help=False)
    common.add_argument("--prime", type=int, default=None,
                        help="coefficient field prime "
                             "(default: instance file, then %d)"
                             % DEFAULT_PRIME)
    common.add_argument("--json", action="store_true",
                        help="machine-readable output")
    common.add_argument("--max-gb-size", dest="max_gb_size", type=int,
                        default=None, metavar="N",
                        help="abort any Groebner run growing past N "
                             "basis elements")

    parser = _Parser(prog="reesgcd",
                     description="gcd iterations for defining ideals "
                                 "of Rees algebras over hypersurface "
                                 "rings, with Groebner certification")
    sub = parser.add_subparsers(dest="command", metavar="command")
    sub.required = True

    for name, func, help_text in (
            ("check", cmd_check,
             "feasibility hypotheses for an instance file"),
            ("run", cmd_run, "gcd iterations on an instance file"),
            ("verify", cmd_verify, "iterations plus the full oracle report")):
        p = sub.add_parser(name, parents=[common], help=help_text)
        p.add_argument("file", help="instance JSON file")
        p.set_defaults(func=func)
    sub.choices["verify"].add_argument(
        "--second-prime", type=int, default=None, metavar="Q",
        help="repeat modulo Q and require consistent verdicts")

    p = sub.add_parser("example", parents=[common],
                       help="run the built-in worked instance")
    p.set_defaults(func=cmd_example)

    p = sub.add_parser("random", parents=[common],
                       help="seeded random instances with full "
                            "verification")
    p.add_argument("count", nargs="?", type=int, default=1,
                   help="number of instances (default 1)")
    p.add_argument("-d", type=int, default=4,
                   help="matrix size parameter, even, at least 4")
    p.add_argument("-m", type=int, default=1,
                   help="degree of the hypersurface equation")
    p.add_argument("--seed", type=int, default=0,
                   help="base seed; instance k uses seed+k")
    p.add_argument("--second-prime", type=int, default=None,
                   metavar="Q",
                   help="repeat each instance modulo Q and require "
                        "consistent verdicts")
    p.set_defaults(func=cmd_random)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "random" and args.count < 1:
        parser.error("count must be positive")
    saved_cap = groebner.DEFAULT_MAX_BASIS
    try:
        # inside the try: is_prime raises ValueError past its exact bound
        second = getattr(args, "second_prime", None)
        if second is not None and not is_prime(second):
            parser.error("--second-prime %d is not prime" % second)
        if args.max_gb_size is not None:
            if args.max_gb_size < 1:
                parser.error("--max-gb-size must be positive")
            groebner.DEFAULT_MAX_BASIS = args.max_gb_size
        code = args.func(args)
        # a closed standard output shows here, not at interpreter exit
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader went away (e.g. `| head -1`): point standard output
        # at the null device, so the exit flush writes nowhere, and stop
        # without a traceback
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    except InstanceRejected as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_HYPOTHESES
    except IterationError as exc:
        print("iteration failure: %s" % exc, file=sys.stderr)
        return EXIT_VERIFICATION
    except BudgetExceeded as exc:
        where = " in %s" % exc.section if exc.section else ""
        print("budget exceeded%s: %s" % (where, exc), file=sys.stderr)
        return EXIT_BUDGET
    except ExponentOverflow as exc:
        print("exponent overflow: %s" % exc, file=sys.stderr)
        return EXIT_OVERFLOW
    finally:
        # the cap covers this one command, not the rest of the process
        groebner.DEFAULT_MAX_BASIS = saved_cap


if __name__ == "__main__":
    sys.exit(main())
