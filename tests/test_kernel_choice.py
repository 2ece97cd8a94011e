"""The kernel choice: every fork's pick, pinned on a fixed grid, and one
place that prices kernels.

`sets.choose` decides, at each of the eight forks between a kernel and the
pair kernel, which one runs.  FROZEN holds its picks on the grid below,
generated from the separate cost rules it replaced, before they were
deleted: a hex int per fork and prime whose bit i is the pick (1 for the
kernel) at the i-th point of `points(fork, p)`.  The "twist" and "search"
rows price the log table only while it is not built since the table became
one per prime per process; their points with the table not built come
first, and those bits are the picks frozen before.  The test is pure
arithmetic and runs no kernel.  The guard below keeps the pricing in the
kernel-choice section of `sets`.
"""
import ast
import re
from pathlib import Path

import pytest

import expanderlab
from expanderlab import sets

PRIMES = (2, 3, 61, 1009, 3001, 40009, 160001)
SIZES = (0, 1, 2, 3, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 610, 800)
FEW = (0, 1, 4, 30, 200, 800)
MADE = (frozenset(), frozenset({"mask"}), frozenset({"fset"}), frozenset({"mask", "fset"}))
NUS = (0, 1, 2, 3, 5, 10, 20, 50, 100, 200, 500, 1000, 1596, 2000, 5000, 10000, 20000)
SET_SIZES = (1, 2, 3, 4, 6, 8, 12, 20, 40)
CANDIDATES = (100, 300, 1000, 3000, 10**4, 3 * 10**4, 10**5, 3 * 10**5, 10**6)


def points(fork: str, p: int) -> list:
    """The arguments of `choose(fork, ...)` at every grid point over F_p:
    set sizes 0 to 800, log table built and not, and for "spread" each set
    of built forms, with a Combination's size at either end of its range."""
    if fork == "residue":
        return [(p, nx, ny) for nx in SIZES for ny in SIZES]
    if fork in ("log_mask", "slots"):
        return [(p, nx, ny, table) for table in (False, True) for nx in SIZES for ny in SIZES]
    if fork == "spread":
        return [(p, s, nx, ny, size, table, made)
                for s in (1, 2) for made in MADE for table in (False, True)
                for nx in FEW for ny in FEW
                for size in (min(max(nx, ny) if nx * ny else 0, p - 1), min(nx * ny, p - 1))]
    if fork == "twist":
        return [(p, nu, table) for table in (False, True) for nu in NUS]
    return [(p, n, c, table) for table in (False, True) for n in SET_SIZES for c in CANDIDATES]


FROZEN = {
    "residue": {
        2: "fffcfffcfffcfffcfffcfffcfffcfffcfffcfffcfffcfff8fff0ffc000000000",
        3: "fffcfffcfffcfffcfffcfffcfffcfffcfffcfffcfffcfff8fff0ffc000000000",
        61: "fffcfffcfffcfffcfffcfffcfffcfffcfffcfffcfffcfff8fff0ffc000000000",
        1009: "fffcfffcfffcfffcfffcfffcfffcfffcfffcfffcfffcfff8fff0ffc000000000",
        3001: "fffcfffcfffcfffcfffcfffcfffcfffcfffcfffcfff8fff0ff80000000000000",
        40009: "fffcfffcfffcfffcfffcfff8fff0ffc000000000000000000000000000000000",
        160001: "fffcfffcfff8fff0ffe0fe000000000000000000000000000000000000000000",
    },
    "log_mask": {
        2: (
            "fffcfffcfffcfffcfffcfff8fff8fff0ffe0ffc0ff80ff00fe00f80000000000"
            "fffcfffcfffcfffcfffcfff8fff8fff0ffe0ffc0ff80ff00fe00f80000000000"
        ),
        3: (
            "fffcfffcfffcfffcfffcfff8fff8fff0ffe0ffc0ff80ff00fe00f80000000000"
            "fffcfffcfffcfffcfffcfff8fff8fff0ffe0ffc0ff80ff00fe00f80000000000"
        ),
        61: (
            "fffcfffcfffcfffcfffcfff8fff8fff0ffe0ffc0ff80ff00fe00f80000000000"
            "fffcfffcfffcfffcfff8fff8fff0ffe0ffc0ff80ff00fe00fc00f00000000000"
        ),
        1009: (
            "fffcfffcfffcfffcfffcfff8fff8fff0ffe0ffc0ff80ff00fe00f80000000000"
            "fff8fff8fff0ffe0ffc0ff80ff00fe00fc00f800f000e000c000000000000000"
        ),
        3001: (
            "fffcfffcfffcfffcfffcfff8fff0fff0ffe0ffc0ff80ff00fc00f80000000000"
            "fff0ffe0ffc0ff80ff00fe00fc00f800f000e000c00080000000000000000000"
        ),
        40009: (
            "fffcfffcfffcfffcfff8fff0ffe0ff80ff00fe00fe00fc00f800f00000000000"
            "fe00fc00f800f000e000c0008000000000000000000000000000000000000000"
        ),
        160001: (
            "fffcfffcfff8fff0ffc0fe00fc00f800f800f800f000f000e000c00000000000"
            "f000e000c0008000000000000000000000000000000000000000000000000000"
        ),
    },
    "spread": {
        2: (
            "0000000000000000000000000000000000000000000000000000000000000000"
            "00000000ffcffcff0fc0f00000ffcffcff0fc0f00000ff0ff0fc0f00000000ff"
            "0ff0fc0f00000000000000000000000000000000000000000000000000000000"
            "000000000000000000000000ffcffcff0fc0f00000ffcffcff0fc0f00000ff0f"
            "f0fc0f00000000ff0ff0fc0f00000000"
        ),
        3: (
            "0000000000000000000000000000000000000000000000000000000000000000"
            "00000000ffcffcff0fc0f00000ffcffcff0fc0f00000ff0ff0fc0f00000000ff"
            "0ff0fc0f00000000000000000000000000000000000000000000000000000000"
            "000000000000000000000000ffcffcff0fc0f00000ffcffcff0fc0f00000ff0f"
            "f0fc0f00000000ff0ff0fc0f00000000"
        ),
        61: (
            "ffcffcfa0f80f00000ffcffcfa0f80f000000000000000000000000000000000"
            "00000000ffcffcffcfc0fc0000ffcffcffcfc0fc0000ff0ff0fe0f80000000ff"
            "0ff0fc0f00000000ffcffcfa0f80f00000ffcffcfa0f80f00000000000000000"
            "000000000000000000000000ffcffcffcfc0fc0000ffcffcffcfc0fc0000ff0f"
            "f0fe0f80000000ff0ff0fc0f00000000"
        ),
        1009: (
            "ffcffcfa0f80f00000ffcffcfa0f80f000000a02a0a80a000000000000000000"
            "00000000ffcffcffcfc0fc0000ffcffcffcfc0fc0000ffcffcfe0f80f00000ff"
            "0fe0f80e00000000ffcffcfa0f80f00000ffcffcfa0f80f000000a02a0a80a00"
            "000000000000000000000000ffcffcffcfc0fc0000ffcffcffcfc0fc0000ffcf"
            "fcfe0f80f00000ff0fe0f80e00000000"
        ),
        3001: (
            "ffcffcf80f00f00000ffcffcf80f00f000002a0aa0a80a000000000000000000"
            "00000000ffcffcff0fc0f00000ffcffcff0fc0f00000ffcff0fc0f00c00000fe"
            "0fc0f00800000000ffcffcfa0f80f00000ffcffcfa0f80f000002a0aa0a80a00"
            "000000000000000000000000ffcffcff0fc0f00000ffcffcff0fc0f00000ffcf"
            "f0fc0f00c00000fe0fc0f00800000000"
        ),
        40009: (
            "aa0a80a00800000000aa0a80a00800000000aa0a80a008000000000000000000"
            "00000000ff0fc0f80c00000000ff0fc0f80c00000000ff0fc0f00c00000000f8"
            "0e00800000000000aa0a80a00800000000aa0a80a00800000000aa0a80a00800"
            "000000000000000000000000ffcfe0f80e00c00000ffcfe0f80e00c00000ff0f"
            "c0f00c00000000f80e00800000000000"
        ),
        160001: (
            "a80a00800000000000a80a00800000000000a80a008000000000000000000000"
            "00000000fe0f80e00800000000fe0f80e00800000000fc0f80e00000000000e0"
            "0800000000000000a80a80a00000000000a80a80a00000000000a80a00800000"
            "000000000000000000000000fe0fc0f00800000000fe0fc0f00800000000fc0f"
            "80e00000000000e00800000000000000"
        ),
    },
    "slots": {
        2: (
            "fffcfffcfffcfffcfffcfff8fff0fff0ffe0ff80ff80ff00fc00f80000000000"
            "fffcfffcfffcfffcfffcfff8fff0fff0ffe0ff80ff80ff00fc00f80000000000"
        ),
        3: (
            "fffcfffcfffcfffcfffcfff8fff0fff0ffe0ff80ff80ff00fc00f80000000000"
            "fffcfffcfffcfffcfffcfff8fff0fff0ffe0ff80ff80ff00fc00f80000000000"
        ),
        61: (
            "fffcfffcfffcfffcfffcfff8fff0ffe0ffc0ff80ff00fe00fc00f80000000000"
            "fffcfffcfffcfffcfff8fff0fff0ffe0ffc0ff80ff00fe00f800f00000000000"
        ),
        1009: (
            "fffcfffcfffcfff8fff0ffe0ffc0ff80ff00fe00fc00f800f000e00000000000"
            "fff8fff0fff0ffe0ffc0ff80ff00fe00fc00f800f000e0008000000000000000"
        ),
        3001: (
            "fff8fff8fff0fff0ffe0ffc0ff00fe00fc00fc00f800f000c000000000000000"
            "ffe0ffe0ffc0ff80ff00fe00fc00f800f000e000c00000000000000000000000"
        ),
        40009: (
            "ff80ff00fe00f800f000e000e000c00080000000000000000000000000000000"
            "fc00f800c000c000c00080000000000000000000000000000000000000000000"
        ),
        160001: (
            "0000000000000000000000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
        ),
    },
    "twist": {
        2: "3ffc1ffe0",
        3: "3ffc1ffe0",
        61: "3ffc1ffe0",
        1009: "3ff01ff80",
        3001: "3ff01ff00",
        40009: "3f001f800",
        160001: "3c001e000",
    },
    "search": {
        2: "3fffffffffffffffffc01fffffffffffffffffe00",
        3: "3fffffffffffffffffc01fffffffffffffffffe00",
        61: "3fffffffffffffffffc01fffffffffffffffffe00",
        1009: "3fffffffffffffffffc01fffffffffffffffbf800",
        3001: "3fffffffffffff0000001ffffffffffefc0000000",
        40009: "00000000000000000000000000000000000000000",
        160001: "00000000000000000000000000000000000000000",
    },
}


@pytest.mark.parametrize("fork", sorted(FROZEN))
def test_every_pick_is_the_frozen_one(fork):
    assert set(FROZEN) == set(sets.KERNELS)
    changed = []
    for p in PRIMES:
        args = points(fork, p)
        frozen = int(FROZEN[fork][p], 16)
        assert frozen >> len(args) == 0
        changed += [a for i, a in enumerate(args) if sets.choose(fork, *a) != (frozen >> i & 1)]
    assert changed == []


def test_the_known_twist_mispricing_stands():
    # the slots take 1.08 s and the pairs 1.6-1.8 s here; re-pricing the twist
    # is its own change
    assert not sets.choose("twist", 160001, 1596, False)
    assert sets.choose("twist", 160001, 2000, False)


# -- one place prices the kernels -----------------------------------------------------

SECTION = "# -- kernel choice"
PRICING = re.compile(r"_steps$|_cheaper$")


def section_of(source: str, tree: ast.Module) -> range:
    """The lines of the kernel-choice section: from its header to the end
    of `choose`."""
    first = source.splitlines().index(next(
        line for line in source.splitlines() if line.startswith(SECTION))) + 1
    end = next(node.end_lineno for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.name == "choose")
    return range(first, end + 1)


def test_only_the_kernel_choice_section_prices_kernels():
    home = Path(expanderlab.__file__).parent
    source = (home / "sets.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    section = section_of(source, tree)
    # the section's own helpers, the cost unit among them: only `choose` and
    # the two tables are read from outside
    helpers = {node.name for node in tree.body
               if isinstance(node, ast.FunctionDef) and node.lineno in section} - {"choose"}
    assert {"_passes", "_log_kernel"} <= helpers
    outside = []
    for path in sorted(home.glob("*.py")):
        text = path.read_text(encoding="utf-8")
        for node in ast.walk(ast.parse(text)):
            inside = path.name == "sets.py" and getattr(node, "lineno", 0) in section
            if inside:
                continue
            if isinstance(node, ast.FunctionDef) and PRICING.search(node.name):
                outside.append((path.name, node.lineno, node.name))
            elif isinstance(node, ast.Name) and node.id in helpers:
                outside.append((path.name, node.lineno, node.id))
            elif isinstance(node, ast.Attribute) and node.attr in helpers:
                outside.append((path.name, node.lineno, node.attr))
            elif isinstance(node, ast.alias) and node.name in helpers:
                outside.append((path.name, node.name))
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "choose"):
                assert node.args[0].value in sets.KERNELS, (path.name, node.lineno)
    assert outside == []
