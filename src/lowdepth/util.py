"""Small shared helpers.

run_recursive evaluates a recursive function written as a generator on an
explicit stack, so the passes that recurse once per subproblem (the split and
potential reductions) handle trees of any depth on the caller's thread, at
the interpreter's default recursion limit.
"""

from __future__ import annotations


def run_recursive(gen_fn, arg):
    """Return f(arg) for the recursive function f that gen_fn spells out.

    gen_fn(x) is a generator: inside it, ``r = yield sub`` stands for
    ``r = f(sub)`` and its return value is f(x).  Calls run one at a time in
    the order the plain recursion would run them, so results are identical;
    the depth is bounded by memory, not by the interpreter's stack.
    """
    stack = [gen_fn(arg)]
    value = None
    while stack:
        try:
            sub = stack[-1].send(value)
        except StopIteration as stop:
            stack.pop()
            value = stop.value
        else:
            stack.append(gen_fn(sub))
            value = None
    return value


def ceil_log2(n: int) -> int:
    """Smallest j with 2**j >= n, for n >= 1."""
    if n < 1:
        raise ValueError(f"ceil_log2 needs n >= 1, got {n}")
    return (n - 1).bit_length()


def ceil_div(a: int, b: int) -> int:
    return -(-a // b)
