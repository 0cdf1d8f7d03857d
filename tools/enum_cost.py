#!/usr/bin/env python3
"""What an Enum member costs per use, next to a module global.

Times four ways of using a member of a small ``enum.Enum`` from inside
a function, each over a plain load of a module-level name bound to the
same member:

- ``Enum.MEMBER``: the member loaded through its class;
- ``member.value``: the public value property;
- ``table[member]``: a dict hit keyed by the member (``Enum.__hash__``);
- ``member._value_``: the value's documented sunder attribute.

Stdlib only, so any interpreter runs it::

    python3 tools/enum_cost.py            # one line for this interpreter

Prints ``version  load  value  hash  _value_`` in ns per use, best of
``--repeats`` runs.  docs/PERFORMANCE.md ("Enum members on the hot
path") holds the table for 3.9-3.13.
"""

import argparse
import enum
import platform
import time

#: Uses per timed loop iteration (the statement is repeated this often).
UNROLL = 10


class Color(enum.Enum):
    RED = "red"
    BLUE = "blue"


RED = Color.RED
TABLE = {RED: "red", Color.BLUE: "blue"}


def _loop(statement):
    source = "def run(n):\n    for _ in range(n):\n" + "".join(
        "        x = %s\n" % statement for _ in range(UNROLL))
    namespace = {}
    exec(compile(source, "<enum_cost>", "exec"), globals(), namespace)
    return namespace["run"]


CASES = (
    ("global", "RED"),
    ("load", "Color.RED"),
    ("value", "RED.value"),
    ("hash", "TABLE[RED]"),
    ("_value_", "RED._value_"),
)


def measure(iterations=200_000, repeats=7):
    """name -> ns per use, less a module-global load of the member."""
    loops = {name: _loop(statement) for name, statement in CASES}
    best = {}
    for _ in range(repeats):
        for name, run in loops.items():
            started = time.perf_counter()
            run(iterations)
            elapsed = time.perf_counter() - started
            best[name] = min(best.get(name, elapsed), elapsed)
    per_use = {name: best[name] / (iterations * UNROLL) * 1e9
               for name in best}
    base = per_use.pop("global")
    return {name: ns - base for name, ns in per_use.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--iterations", type=int, default=200_000)
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    costs = measure(args.iterations, args.repeats)
    print("%-8s %s" % (platform.python_version(), "  ".join(
        "%s %.0f" % (name, costs[name]) for name, _ in CASES[1:])))


if __name__ == "__main__":
    main()
