"""Textual formula format: a small s-expression grammar with a header.

A formula file is UTF-8 with LF line endings:

    mode: commutative            # or noncommutative
    field: Q                     # or Fp:<prime>
    (+ x1 (scale 2/3 (* x2 x3)))

Grammar:

    expr  := var | "1" | "(+ " wexpr+ ")" | "(* " wexpr+ ")"
    wexpr := expr | "(scale " rational " " expr ")"
    var   := "x" natural | "x_" natural "_" natural

Unit edge weights are elided on output and restored on input, so
parse(serialize(F)) is structurally F.  The two-index variable form is input
sugar mapping (i, j) to a single id through the Cantor pairing
(i + j) * (i + j + 1) / 2 + j; the serializer always emits plain ids.
Both header lines are optional on input and default to commutative over Q.

The parser and serializer are iterative, so arbitrarily deep combs round-trip
at the default recursion limit.  One frame loop (_body) owns the grammar and
every syntax error; parse makes nodes from it, and parse_program the flat
ir.Program that both oracles read, with no node built.  ir.validate is the one
well-formedness check; the parser calls it only when the text has a token 1 or
a scalar zero in the field (every rule of validate involves one of the two;
parse_program then goes through parse), so other text is walked once, and a
syntax error anywhere still comes before any well-formedness error.  A syntax
error finds its position by tokenizing again up to the offending token.
"""

from __future__ import annotations

import re
from itertools import islice
from typing import NamedTuple

from .errors import FormulaSyntaxError
from .fields import QQ, Field, Scalar, field_from_name
from .ir import (_ONE, _PROD, _SUM, _VAR, Formula, Node, OneLeaf, ProdGate, Program, SumGate,
                 VarLeaf, compile_program, interner, validate)


def cantor_pair(i: int, j: int) -> int:
    """Bijection N x N -> N used by the x_<i>_<j> surface form."""
    return (i + j) * (i + j + 1) // 2 + j


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# a parenthesis, or an atom: a run of anything but space, tab, CR, LF and
# parentheses (other whitespace, such as a vertical tab, is part of an atom)
_TOKEN = re.compile(r"[()]|[^ \t\r\n()]+")


def _position(text: str, start: int, index: int) -> int:
    """Character position of token number index after start.  The tokenizer
    keeps no positions, so an error message finds its position again here."""
    return next(islice(_TOKEN.finditer(text, start), index, None)).start()


def _var_id(atom: str) -> int | None:
    body = atom[1:]
    if body.isdigit():
        return int(body)
    if body.startswith("_"):
        parts = body[1:].split("_")
        if len(parts) == 2 and parts[0].isdigit() and parts[1].isdigit():
            return cantor_pair(int(parts[0]), int(parts[1]))
    return None


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _header(text: str) -> tuple[bool, Field, int]:
    """The mode and field of the header lines, and where the expression starts."""
    commutative = True
    field: Field = QQ
    offset = 0
    for line in text.split("\n"):
        stripped = line.strip()
        if stripped.startswith("mode:"):
            value = stripped[5:].strip()
            if value == "commutative":
                commutative = True
            elif value == "noncommutative":
                commutative = False
            else:
                raise FormulaSyntaxError(f"unknown mode {value!r}", offset)
            offset += len(line) + 1
        elif stripped.startswith("field:"):
            field = field_from_name(stripped[6:].strip())
            offset += len(line) + 1
        elif not stripped or stripped.startswith("#"):
            offset += len(line) + 1
        else:
            break
    return commutative, field, offset


def _body(text: str, offset: int, field: Field, var, const, sum_gate, prod_gate) -> tuple[object, bool]:
    """Read the expression that starts at offset in one frame loop.

    A leaf becomes var(id) or const(), and a gate, when its ")" is read,
    sum_gate(edges) or prod_gate(edges) over the (scalar, child) edges of what
    its children became, so in postorder.  Returns what the root became and
    whether the text is suspect: it has a token 1 or a scalar zero in the field.
    """
    tokens = _TOKEN.findall(text, offset)
    n = len(tokens)
    if not n:
        raise FormulaSyntaxError("empty formula", offset)

    def error(message: str, index: int) -> FormulaSyntaxError:
        return FormulaSyntaxError(message, _position(text, offset, index))

    one = field.one()
    scalars: dict[str, Scalar] = {}  # scalar text -> its value, parsed once per call
    # set when the text may break a rule of ir.validate (see its docstring)
    suspect = "1" in tokens
    # Each frame is [gate maker, or None for a scale; index of its head token;
    # items], the items being (scalar, child) edges; a scale frame also holds
    # its scalar.
    frames: list[list] = []
    done: list[tuple] = []  # completed (scalar, child) at top level
    idx = 0
    while idx < n:
        tok = tokens[idx]
        if tok == "(":
            if idx + 1 >= n:
                raise error("unterminated gate", idx)
            head = tokens[idx + 1]
            if head == "+" or head == "*":
                frames.append([sum_gate if head == "+" else prod_gate, idx + 1, []])
                idx += 2
                continue
            if head != "scale":
                raise error(f"unknown gate head {head!r}", idx + 1)
            if not frames:
                raise error("scale must sit directly under a gate", idx + 1)
            if idx + 2 >= n:
                raise error("scale needs a scalar", idx + 1)
            sc_text = tokens[idx + 2]
            if sc_text == "(" or sc_text == ")":
                raise error("scale needs a scalar", idx + 2)
            scalar = scalars.get(sc_text)
            if scalar is None:
                scalar = scalars[sc_text] = field.parse(sc_text)
                suspect = suspect or field.is_zero(scalar)
            frames.append([None, idx + 1, [], scalar])
            idx += 3
            continue
        if tok == ")":
            if not frames:
                raise error("unmatched )", idx)
            frame = frames.pop()
            make, items = frame[0], frame[2]
            if make is None:
                if len(items) != 1:
                    raise error("scale takes exactly one operand", frame[1])
                if not field.is_one(items[0][0]):
                    raise error("scale may not nest", frame[1])
                edge = (frame[3], items[0][1])
            elif not items:
                raise error("gate with no children", frame[1])
            else:
                edge = (one, make(tuple(items)))
        elif tok == "1":
            edge = (one, const())
        elif tok[0] == "x":
            v = _var_id(tok)
            if v is None:
                raise error(f"bad variable {tok!r}", idx)
            edge = (one, var(v))
        else:
            raise error(f"unexpected token {tok!r}", idx)
        idx += 1
        if not frames:
            done.append(edge)
            continue
        top = frames[-1]
        if top[0] is None and top[2]:
            raise error("scale takes exactly one operand", top[1])
        top[2].append(edge)

    if frames:
        raise error("unterminated gate", frames[-1][1])
    if len(done) != 1:
        raise FormulaSyntaxError("expected exactly one top-level expression", 0)
    scalar, root = done[0]
    if not field.is_one(scalar):
        raise FormulaSyntaxError("scale must sit directly under a gate", 0)
    return root, suspect


def parse(text: str) -> Formula:
    """Parse formula text; raises FormulaSyntaxError / WellFormednessError."""
    commutative, field, offset = _header(text)
    root, suspect = _body(text, offset, field, VarLeaf, OneLeaf, SumGate, ProdGate)
    formula = Formula(root=root, commutative=commutative, field=field)
    if suspect:
        validate(formula)
    return formula


class Parsed(NamedTuple):
    """A formula's program, as both oracles read it, with its mode and field."""

    program: Program
    commutative: bool
    field: Field


def parse_program(text: str, scalars: list) -> Parsed:
    """compile_program(parse(text).root, scalars) and the header, read
    without building a node: the parser meets the nodes in the program's
    postorder.  Suspect text (see _body) goes through parse and
    compile_program, so ir.validate stays the one owner of well-formedness.
    """
    commutative, field, offset = _header(text)
    start, (_, slot), one = len(scalars), interner(scalars), field.one()
    kinds, args, weights, degrees, vs = [], [], [], [], set()

    def add(kind: int, arg, slots: list | None, degree: int) -> int:
        kinds.append(kind)
        args.append(arg)
        weights.append(slots)
        degrees.append(degree)
        return len(kinds) - 1

    def gate(kind: int, fold):
        def make(edges: tuple) -> int:
            kids, slots = [], None
            for c, k in edges:
                kids.append(k)
                if c is not one and (s := slot(c)):
                    slots = slots or [0] * len(edges)
                    slots[len(kids) - 1] = s
            return add(kind, tuple(kids), slots, fold([degrees[k] for k in kids]))

        return make

    # a variable leaf also records its id in vs
    _, suspect = _body(text, offset, field, lambda v: vs.add(v) or add(_VAR, v, None, 1),
                       lambda: add(_ONE, None, None, 0), gate(_SUM, max), gate(_PROD, sum))
    if suspect:
        del scalars[start:]
        return Parsed(compile_program(parse(text).root, scalars), commutative, field)
    uses = [1] * len(kinds)  # text is a tree: one parent edge per node but the root
    uses[-1] = 0
    size = len(kinds) - kinds.count(_SUM) - kinds.count(_PROD)
    return Parsed(Program(kinds, args, weights, uses, degrees[-1], size, vs), commutative, field)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize(formula: Formula) -> str:
    """Canonical text form; parse(serialize(F)) is structurally F."""
    mode = "commutative" if formula.commutative else "noncommutative"
    return f"mode: {mode}\nfield: {formula.field.name}\n{render(formula.root, formula.field)}\n"


def render(root: Node, field: Field = QQ) -> str:
    """The s-expression of root, its edge scalars formatted in field."""
    parts: list[str] = []
    # Work items: raw strings or (scalar, node) edges still to be rendered.
    stack: list = [(None, root)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            parts.append(item)
            continue
        scalar, node = item
        wrapped = scalar is not None and not field.is_one(scalar)
        if wrapped:
            parts.append(f"(scale {field.format(scalar)} ")
        if isinstance(node, VarLeaf):
            parts.append(f"x{node.var}" + (")" if wrapped else ""))
        elif isinstance(node, OneLeaf):
            parts.append("1" + (")" if wrapped else ""))
        else:
            parts.append("(+ " if isinstance(node, SumGate) else "(* ")
            stack.append("))" if wrapped else ")")
            work: list = []
            for i, edge in enumerate(node.children):
                if i > 0:
                    work.append(" ")
                work.append(edge)
            stack.extend(reversed(work))
    return "".join(parts)


def parse_file(path: str) -> Formula:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def parse_program_file(path: str, scalars: list) -> Parsed:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_program(fh.read(), scalars)


def write_file(path: str, formula: Formula) -> None:
    """Write formula's text to path; a formula that cannot be printed leaves
    the file as it was."""
    text = serialize(formula)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
