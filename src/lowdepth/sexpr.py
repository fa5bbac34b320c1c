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
without recursion issues.
"""

from __future__ import annotations

import re

from .errors import FormulaSyntaxError
from .fields import QQ, Field, Scalar, field_from_name
from .ir import Formula, OneLeaf, ProdGate, SumGate, VarLeaf, validate


def cantor_pair(i: int, j: int) -> int:
    """Bijection N x N -> N used by the x_<i>_<j> surface form."""
    return (i + j) * (i + j + 1) // 2 + j


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

# a parenthesis, or an atom: a run of anything but space, tab, CR, LF and
# parentheses (other whitespace, such as a vertical tab, is part of an atom)
_TOKEN = re.compile(r"[()]|[^ \t\r\n()]+")


def _tokenize(text: str, start: int) -> list[tuple[str, int]]:
    """Split the expression part into ('(', ')', atom) tokens with positions."""
    return [(m.group(), m.start()) for m in _TOKEN.finditer(text, start)]


def _parse_var(atom: str, pos: int) -> VarLeaf:
    body = atom[1:]
    if body.isdigit():
        return VarLeaf(int(body))
    if body.startswith("_"):
        parts = body[1:].split("_")
        if len(parts) == 2 and parts[0].isdigit() and parts[1].isdigit():
            return VarLeaf(cantor_pair(int(parts[0]), int(parts[1])))
    raise FormulaSyntaxError(f"bad variable {atom!r}", pos)


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def parse(text: str) -> Formula:
    """Parse formula text; raises FormulaSyntaxError / WellFormednessError."""
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

    tokens = _tokenize(text, offset)
    if not tokens:
        raise FormulaSyntaxError("empty formula", offset)

    one = field.one()
    scalars: dict[str, Scalar] = {}  # scalar text -> its value, parsed once per call
    # Each frame is [op, position, items]; items are (scalar, node) edges.
    frames: list[list] = []
    done: list[tuple] = []  # completed (scalar, node) at top level

    def push_value(scalar, node) -> None:
        if frames:
            top = frames[-1]
            if top[0] == "scale":
                if top[2]:
                    raise FormulaSyntaxError("scale takes exactly one operand", top[1])
            top[2].append((scalar, node))
        else:
            done.append((scalar, node))

    idx = 0
    while idx < len(tokens):
        tok, pos = tokens[idx]
        if tok == "(":
            if idx + 1 >= len(tokens):
                raise FormulaSyntaxError("unterminated gate", pos)
            head, hpos = tokens[idx + 1]
            if head in ("+", "*"):
                frames.append([head, hpos, []])
                idx += 2
                continue
            if head == "scale":
                if not frames:
                    raise FormulaSyntaxError("scale must sit directly under a gate", hpos)
                if idx + 2 >= len(tokens):
                    raise FormulaSyntaxError("scale needs a scalar", hpos)
                sc_text, sc_pos = tokens[idx + 2]
                if sc_text in ("(", ")"):
                    raise FormulaSyntaxError("scale needs a scalar", sc_pos)
                scalar = scalars.get(sc_text)
                if scalar is None:
                    scalar = scalars[sc_text] = field.parse(sc_text)
                frames.append(["scale", hpos, [], scalar])
                idx += 3
                continue
            raise FormulaSyntaxError(f"unknown gate head {head!r}", hpos)
        if tok == ")":
            if not frames:
                raise FormulaSyntaxError("unmatched )", pos)
            frame = frames.pop()
            op, fpos, items = frame[0], frame[1], frame[2]
            if op == "scale":
                if len(items) != 1:
                    raise FormulaSyntaxError("scale takes exactly one operand", fpos)
                inner_scalar, node = items[0]
                if not field.is_one(inner_scalar):
                    raise FormulaSyntaxError("scale may not nest", fpos)
                push_value(frame[3], node)
            else:
                if not items:
                    raise FormulaSyntaxError("gate with no children", fpos)
                gate = SumGate(tuple(items)) if op == "+" else ProdGate(tuple(items))
                push_value(one, gate)
            idx += 1
            continue
        # atom
        if tok == "1":
            push_value(one, OneLeaf())
        elif tok.startswith("x"):
            push_value(one, _parse_var(tok, pos))
        else:
            raise FormulaSyntaxError(f"unexpected token {tok!r}", pos)
        idx += 1

    if frames:
        raise FormulaSyntaxError("unterminated gate", frames[-1][1])
    if len(done) != 1:
        raise FormulaSyntaxError("expected exactly one top-level expression", 0)
    scalar, root = done[0]
    if not field.is_one(scalar):
        raise FormulaSyntaxError("scale must sit directly under a gate", 0)
    formula = Formula(root=root, commutative=commutative, field=field)
    validate(formula)
    return formula


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize(formula: Formula) -> str:
    """Canonical text form; parse(serialize(F)) is structurally F."""
    field = formula.field
    parts: list[str] = [
        "mode: " + ("commutative" if formula.commutative else "noncommutative") + "\n",
        f"field: {field.name}\n",
    ]
    # Work items: raw strings or (scalar, node) edges still to be rendered.
    stack: list = [(None, formula.root)]
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
    parts.append("\n")
    return "".join(parts)


def parse_file(path: str) -> Formula:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())


def write_file(path: str, formula: Formula) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize(formula))
