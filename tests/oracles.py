"""Reference implementations that only the tests use.

``closure_failures_oracle`` is the bracket-compatibility loop on
GradedScalar-weighted vectors that ``VermaModule.closure_failures`` replaced
with integer rows: it applies each generator to whole vectors through
``act`` and accumulates every residual in Q[chi].  Its failure lists must
equal the library's, triple for triple and in the same order.
"""


def closure_failures_oracle(space, max_degree, act_fn=None, max_report=5):
    """Failing (x, y, monomial) triples of act(x, act(y, w)) -
    (-1)^{|x||y|} act(y, act(x, w)) - act([x,y}, w), in the library's
    order, at most ``max_report`` of them."""
    act = act_fn or space.act
    table = space.table
    names = table.names
    monos = space.enumerate_monomials(max_degree)
    failures = []
    vectors = {(g, mono): act(g, mono) for g in names for mono in monos}
    for i, x in enumerate(names):
        px = table.parity(x)
        for y in names[i:]:
            sign = -1 if (px and table.parity(y)) else 1
            minus_bracket = [(h, -c) for h, c in
                             table.bracket_gens(x, y).items()]
            for mono in monos:
                residual = act(x, vectors[(y, mono)])
                for mn, coeff in act(y, vectors[(x, mono)]).terms.items():
                    residual.add_term(mn, -coeff if sign == 1 else coeff)
                for h, c in minus_bracket:
                    for mn, coeff in vectors[(h, mono)].terms.items():
                        residual.add_term(mn, coeff * c)
                if residual:
                    failures.append((x, y, mono))
                    if len(failures) >= max_report:
                        return failures
    return failures
