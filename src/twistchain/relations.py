"""Exchange-relation tables and the tiny expression grammar they are written in.

Each relation is stored verbatim as a string ``lhs = rhs`` over the grammar

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := ['-'] atom ('^' integer)?
    atom   := number | name | name '(' u_or_v (',' u_or_v)? ')' | '(' expr ')'

with operator-valued names A, B, C, D, E, G, Einv (bound to matrices,
products kept in the written order) and scalar names alpha, beta, xi.
Storing the relations as data keeps the transcription auditable line by
line; nothing about them is hand-coded into the evaluator.

``evaluate`` never forms a product of two matrices: it applies each side
to a column block X, right to left, so a side with m operator factors
costs m products of a d x d matrix with a d x k block. ``relation_residual``
compares the two sides on X,

    ||(L - R) X||_F / max(||L X||_F, ||R X||_F, 1).

With X = I this is the relative Frobenius residual of the full matrices
(the displayed CR table runs this way, at N <= 3). With X a complex Gaussian
block scaled so that E||M X||_F^2 = ||M||_F^2, it is an unbiased
randomized estimate of ||L - R||_F^2 (Halko, Martinsson and Tropp,
arXiv:0909.4061, section 4), and L X = R X happens for L != R with
probability 0 (Freivalds, 1977); ``symmetry.probe_block`` draws that block.

Scalar coefficient conventions:

    alpha(u,v) = 1 + beta(u,v) = 1 - eta/(u-v)

``relation_residual`` parses each distinct relation text once per process
and applies the cached trees on every call.

A relation that fails at machine precision for every sampled parameter
point is flagged by the verification suites as a suspected misprint, never
silently corrected, only when ``KNOWN_MISPRINTS`` records the evidence for
it (one line, together with the minimal variant that holds); any other
failing relation is reported as a failure.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .tensor import rel_residual

_TOKEN = re.compile(
    r"\s*(?:(?P<num>\d+(?:\.\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^(),=]))"
)


def _tokenize(text: str) -> list[str]:
    tokens = []
    text = text.strip()
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ValueError(f"bad token at {text[pos:pos + 10]!r}")
        tokens.append(m.group(m.lastgroup))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, tokens: list[str]):
        self.tokens = tokens
        self.pos = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None or (expected is not None and tok != expected):
            raise ValueError(f"expected {expected!r}, got {tok!r}")
        self.pos += 1
        return tok

    def expr(self):
        node = self.term()
        while self.peek() in ("+", "-"):
            op = self.take()
            rhs = self.term()
            node = (op, node, rhs)
        return node

    def term(self):
        node = self.factor()
        while self.peek() == "*":
            self.take("*")
            node = ("*", node, self.factor())
        return node

    def factor(self):
        if self.peek() == "-":
            self.take("-")
            return ("neg", self.factor())
        node = self.atom()
        if self.peek() == "^":
            self.take("^")
            power = self.take()
            node = ("pow", node, int(power))
        return node

    def atom(self):
        tok = self.peek()
        if tok == "(":
            self.take("(")
            node = self.expr()
            self.take(")")
            return node
        tok = self.take()
        if re.fullmatch(r"\d+(?:\.\d+)?", tok):
            return ("num", complex(tok))
        if self.peek() == "(":
            self.take("(")
            args = [self.take()]
            while self.peek() == ",":
                self.take(",")
                args.append(self.take())
            self.take(")")
            return ("sym", f"{tok}({','.join(args)})")
        return ("sym", tok)


def parse(text: str):
    """Parse one side of a relation into an AST."""
    parser = _Parser(_tokenize(text))
    node = parser.expr()
    if parser.peek() is not None:
        raise ValueError(f"trailing tokens in {text!r}")
    return node


def evaluate(node, env: dict, x: np.ndarray) -> np.ndarray:
    """Apply the operator an AST denotes to the column block `x`, right to left.

    A product ``a*b`` is ``a·(b·x)``, a scalar ``c`` (number or scalar
    binding) is ``c·x``, ``M^k`` applies M k times and a sum is the sum of
    the applied terms; matrices are never multiplied with each other. With
    ``x = I`` the result is the operator itself, up to the order in which
    scalar factors are applied.
    """
    kind = node[0]
    if kind == "num":
        return node[1] * x
    if kind == "sym":
        try:
            value = env[node[1]]
        except KeyError:
            raise KeyError(f"unbound symbol {node[1]!r}") from None
        return value @ x if isinstance(value, np.ndarray) else value * x
    if kind == "neg":
        return -evaluate(node[1], env, x)
    if kind == "pow":
        for _ in range(node[2]):
            x = evaluate(node[1], env, x)
        return x
    if kind == "*":
        return evaluate(node[1], env, evaluate(node[2], env, x))
    if kind == "+":
        return evaluate(node[1], env, x) + evaluate(node[2], env, x)
    if kind == "-":
        return evaluate(node[1], env, x) - evaluate(node[2], env, x)
    raise ValueError(f"unknown node {kind!r}")


@lru_cache(maxsize=256)
def _parse_relation(text: str):
    """ASTs of both sides of 'lhs = rhs', parsed once per distinct text."""
    lhs_text, rhs_text = text.split("=")
    return parse(lhs_text), parse(rhs_text)


def relation_residual(text: str, env: dict, x: np.ndarray) -> float:
    """Relative residual of 'lhs = rhs' on the block x:
    ||(lhs - rhs) x|| / max(||lhs x||, ||rhs x||, 1), Frobenius norms."""
    lhs_ast, rhs_ast = _parse_relation(text)
    return rel_residual(evaluate(lhs_ast, env, x), evaluate(rhs_ast, env, x))


@dataclass(frozen=True)
class Relation:
    rel_id: str
    text: str
    note: str = ""


# The displayed exchange relations of the monodromy entries, transcribed
# verbatim (14 lines are displayed; the full set of 16 component identities
# is derived numerically from RTT for comparison, see chain.rtt_components).
CR_RELATIONS: tuple[Relation, ...] = (
    Relation("AC", "A(u)*C(v) = alpha(u,v)*C(v)*A(u) - (beta(u,v)*C(u) - xi*A(u))*A(v)"
                   " - xi*D(v)*A(u) + (xi*C(v) + xi^2*D(v))*B(u)"),
    Relation("DC", "D(u)*C(v) = (alpha(v,u)*C(v) - xi*A(v))*D(u)"
                   " - (beta(v,u)*C(u) - xi*D(u))*D(v) + (xi*C(v) + xi^2*A(v))*B(u)"),
    Relation("BC_1", "B(u)*C(v) = (C(v) + xi*D(v))*B(u) + (xi*B(u) - beta(u,v)*D(u))*A(v)"
                     " + beta(u,v)*D(v)*A(u)"),
    Relation("CC", "alpha(u,v)*C(u)*C(v) = (alpha(u,v)*C(v) - xi*D(v))*C(u)"
                   " + (xi*C(v) + xi^2*D(v))*D(u) + (-xi*C(u) - xi^2*A(u))*A(v) + xi*A(u)*C(v)"),
    Relation("AA", "alpha(u,v)*A(u)*A(v) = (alpha(u,v)*A(v) - xi*B(v))*A(u)"
                   " + (xi*A(v) + xi^2*B(v))*B(u)"),
    Relation("AB", "alpha(u,v)*A(u)*B(v) = B(v)*A(u) + (beta(u,v)*A(v) - xi*B(v))*B(u)"),
    Relation("BB", "B(u)*B(v) = B(v)*B(u)"),
    Relation("AD", "A(u)*D(v) = D(v)*A(u) + (xi*A(u) - beta(u,v)*C(u))*B(v)"
                   " + (beta(u,v)*C(v) - xi*D(v))*B(u)"),
    Relation("DB_1", "alpha(v,u)*D(u)*B(v) = B(v)*D(u) + (beta(v,u)*D(v) - xi*B(v))*B(u)"),
    Relation("CA", "(C(u) + xi*A(u))*A(v) = (alpha(u,v)*A(v) - xi*B(v))*C(u)"
                   " + (xi*A(v) + xi^2*B(v))*D(u) - beta(u,v)*A(u)*C(v)"),
    Relation("BC_2", "B(u)*C(v) = (C(v) + xi*A(v))*B(u) + xi*B(u)*D(v)"
                     " + beta(v,u)*(A(v)*D(u) - A(u)*D(v))"),
    Relation("BC_3", "beta(u,v)*B(u)*C(v) = beta(u,v)*B(v)*C(u) + (A(v) + xi*B(v))*D(u)"
                     " - (D(u) + xi*B(u))*A(v)"),
    Relation("DB_2", "D(u)*B(v) = alpha(u,v)*B(v)*D(u) - beta(u,v)*B(u)*D(v) - B(u)*B(v)",
             note="fails for all parameters, including xi = 0"),
    Relation("DD", "(alpha(u,v)*D(u) - xi*B(u))*D(v) + (xi*D(u) + xi^2*B(u))*B(v)"
                   " = alpha(u,v)*D(v)*D(u)"),
)

# Evidence recorded for consistently failing lines; the suites flag no
# other line. The variant is what the verifier reports as the nearest
# identity that does hold; it is never substituted into the table above.
DB_2_VARIANT = "D(u)*B(v) = alpha(u,v)*B(v)*D(u) - beta(u,v)*B(u)*D(v) - xi*B(u)*B(v)"

KNOWN_MISPRINTS: dict[str, str] = {
    "DB_2": "holds at machine precision with the last term read as xi*B(u)*B(v): "
            + DB_2_VARIANT,
}


# Displayed relations of the scattering-data generators E, G with the
# monodromy entries (Einv denotes E^{-1}). EC is displayed in two forms.
SYMMETRY_RELATIONS: tuple[Relation, ...] = (
    Relation("EG", "E*G = G*E - xi*(1 - E^2)"),
    Relation("EA", "E*A(u) = A(u)*E - xi*B(u)*E"),
    Relation("ED", "E*D(u) = D(u)*E + xi*E*B(u)"),
    Relation("EB", "E*B(u) = B(u)*E"),
    Relation("EC_1", "E*C(u) = C(u)*E + xi*E*A(u) - xi*D(u)*E"),
    Relation("EC_2", "E*C(u) = C(u)*E + xi*(A(u) - D(u))*E - xi^2*B(u)*E"),
    Relation("GB", "G*B(u) = B(u)*G - xi*(E*B(u) + B(u)*Einv)"),
    Relation("GA", "G*A(u) = A(u)*G - xi*(E*A(u) - A(u)*Einv + B(u)*G) + xi^2*B(u)*Einv"),
    Relation("GD", "G*D(u) = D(u)*G + xi*(E*D(u) - D(u)*Einv - G*B(u)) - xi^2*B(u)*E"),
    Relation("GC", "G*C(u) = C(u)*G + xi*(E*C(u) + C(u)*Einv - G*A(u) - D(u)*G)"
                   " + xi^2*(D(u)*Einv - E*A(u))"),
)
