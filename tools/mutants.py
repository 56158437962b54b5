#!/usr/bin/env python3
"""Mutation audit of named functions, with the standard library only.

    python tools/mutants.py src/caustics/spatial_averages.py periodic_quadrature _closed_forms

Each mutant changes one operator node inside one of the named functions
(nested functions included):

  flip     a comparison to its negation (< to >=, == to !=, is to is not, in
           to not in)
  strict   a comparison's strictness (< to <=, >= to >)
  swap     + and - (in a binary operation or an augmented assignment)
  negate   drops a unary - or a not
  andor    and and or
  out      drops an out= argument
  ulp      moves a float constant one ulp up or down

Each mutant is written over the module in a copy of src/ and tests/ (and
pyproject.toml) in a temporary directory, and the module's own test file,
tests/test_<module>.py, runs there under pytest -x.  A mutant whose run
passes survived: no test noticed it; a run longer than TIMEOUT seconds kills
it.  The survivors are printed, one a line, with the line number, the node
as written and as mutated.  The exit status is 1 if any survived.
"""
from __future__ import annotations

import argparse
import ast
import copy
import math
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 600.0

FLIP = {ast.Lt: ast.GtE, ast.LtE: ast.Gt, ast.Gt: ast.LtE, ast.GtE: ast.Lt, ast.Eq: ast.NotEq,
        ast.NotEq: ast.Eq, ast.Is: ast.IsNot, ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In}
STRICT = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
SWAP = {ast.Add: ast.Sub, ast.Sub: ast.Add}


def mutations_of(node):
    """The mutations of one node, each a (kind, argument) pair."""
    if isinstance(node, ast.Compare):
        return ([("flip", i) for i, op in enumerate(node.ops) if type(op) in FLIP]
                + [("strict", i) for i, op in enumerate(node.ops) if type(op) in STRICT])
    if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAP:
        return [("swap", None)]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.Not)):
        return [("negate", None)]
    if isinstance(node, ast.BoolOp):
        return [("andor", None)]
    if isinstance(node, ast.Call) and any(k.arg == "out" for k in node.keywords):
        return [("out", None)]
    if isinstance(node, ast.Constant) and type(node.value) is float and math.isfinite(node.value):
        return [("ulp", 1), ("ulp", -1)]
    return []


def mutated(node, kind, arg):
    """The node with one mutation applied (a new node where it is replaced)."""
    if kind == "flip":
        node.ops[arg] = FLIP[type(node.ops[arg])]()
    elif kind == "strict":
        node.ops[arg] = STRICT[type(node.ops[arg])]()
    elif kind == "swap":
        node.op = SWAP[type(node.op)]()
    elif kind == "negate":
        return node.operand
    elif kind == "andor":
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
    elif kind == "out":
        node.keywords = [k for k in node.keywords if k.arg != "out"]
    elif kind == "ulp":
        node.value = math.nextafter(node.value, math.copysign(math.inf, arg))
    return node


class Walk(ast.NodeTransformer):
    """Numbers the nodes of the named functions in pre-order.  With no
    target it lists every (number, kind, argument, node); with one, it
    replaces the node of that number by its mutant."""

    def __init__(self, functions, target=None):
        self.functions, self.target = functions, target
        self.count, self.inside, self.found = -1, 0, []

    def visit(self, node):
        entering = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.name in self.functions
        self.inside += entering
        if self.inside:
            self.count += 1
            if self.target is None:
                self.found += [(self.count, kind, arg, node) for kind, arg in mutations_of(node)]
            elif self.count == self.target[0]:
                self.inside -= entering
                return mutated(node, *self.target[1:])
        node = self.generic_visit(node)
        self.inside -= entering
        return node


def mutants(source, functions):
    """(target, line, as written, as mutated) of each mutant, target being
    the (number, kind, argument) that mutant_tree applies."""
    walk = Walk(functions)
    walk.visit(ast.parse(source))
    return [((number, kind, arg), node.lineno, ast.unparse(node),
             ast.unparse(mutated(copy.deepcopy(node), kind, arg)))
            for number, kind, arg, node in walk.found]


def mutant_tree(source, functions, target):
    """The module's source with one mutant applied."""
    return ast.unparse(ast.fix_missing_locations(Walk(functions, target).visit(ast.parse(source))))


def run(args):
    module = Path(args.module).resolve()
    source = module.read_text()
    missing = set(args.functions) - {n.name for n in ast.walk(ast.parse(source)) if isinstance(n, ast.FunctionDef)}
    if missing:
        sys.exit(f"no function named {', '.join(sorted(missing))} in {args.module}")
    found = mutants(source, set(args.functions))
    tests = f"tests/test_{module.stem}.py"
    print(f"{len(found)} mutants of {', '.join(args.functions)} in {module.relative_to(ROOT)}; tests: {tests}")
    survivors = []
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        tree = Path(tmp)
        ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache", "*.egg-info")
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part, ignore=ignore)
        shutil.copy2(ROOT / "pyproject.toml", tree / "pyproject.toml")
        copied = tree / module.relative_to(ROOT)
        # no bytecode: a mutant of the same size written in the same second
        # would otherwise import the last mutant's cached bytecode
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        def passes(text):
            copied.write_text(text)
            try:
                return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", tests],
                                      cwd=tree, env=env, capture_output=True, timeout=TIMEOUT).returncode == 0
            except subprocess.TimeoutExpired:
                return False

        if not passes(ast.unparse(ast.parse(source))):
            sys.exit("the tests fail on the module as ast.unparse writes it, unmutated")
        for i, (target, line, before, after) in enumerate(found, 1):
            start = time.perf_counter()
            killed = not passes(mutant_tree(source, set(args.functions), target))
            status = "killed" if killed else "SURVIVED"
            described = f"{line}: {target[1]}: {before}  ->  {after}"
            print(f"  [{i}/{len(found)}] {status} in {time.perf_counter() - start:.1f} s  {described}", flush=True)
            if not killed:
                survivors.append(described)
    print(f"{len(survivors)} of {len(found)} mutants survived")
    for survivor in survivors:
        print(f"  {survivor}")
    return 1 if survivors else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("module", help="path of the module to mutate, e.g. src/caustics/spatial_averages.py")
    parser.add_argument("functions", nargs="+", help="names of the functions whose nodes are mutated")
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
