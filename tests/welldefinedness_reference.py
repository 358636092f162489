"""Well-definedness and fiber-equation checks by ideal equality, the
references for the bidegree shortcuts of pipeline.verify_well_definedness
and pipeline.minimality_and_invariants.

Both compare whole ideals, each on a Groebner basis of its own: every
step-i ideal under the "min" column rule against the one under the "max"
rule, and (x) plus all generators against (x) plus the last gcd.
"""

from reesgcd.ideals import Ideal
from reesgcd.pipeline import VerificationReport, _status


def column_rule_report(first, second):
    """The column-rule-step-i checks of two traces of one instance."""
    rep = VerificationReport()
    for i in range(1, len(first.gcds) + 1):
        same = first.gcds[i - 1] == second.gcds[i - 1]
        equal = same or first.partial_ideal(i).equals(
            second.partial_ideal(i))
        rep.add("column-rule-step-%d" % i,
                "step %d ideals agree under both column rules" % i,
                _status(equal),
                "" if equal else "rules produce different ideals",
                {"identical_gcd": same})
    return rep


def fiber_equation_check(trace):
    """Status and data of the fiber-equation check of a trace."""
    ring = trace.ring
    d, m = trace.instance.d, trace.instance.degree
    gens = [g for g in trace.generators() if not g.is_zero]
    pure = [g for g in gens if g.x_degree() == 0]
    last = trace.gcds[-1] if trace.gcds else ring.zero
    data = {"fiber_equation": str(last), "degree": last.t_degree()}
    if not (len(pure) == 1 and pure[0] == last
            and last.t_degree() == m * (d - 1)):
        return "fail", data
    xs = [ring.x(i) for i in range(1, d + 2)]
    with_all = Ideal(ring, xs + gens)
    with_last = Ideal(ring, xs + [last])
    return _status(with_all.equals(with_last)), data
