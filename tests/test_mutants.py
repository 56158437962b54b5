"""The mutation audit's mutants (tools/mutants.py).

Proves:
 - every operator kind is found inside the named functions only, nested
   functions included, and each mutant changes exactly the node it names:
   the module with it applied differs from the original at that node alone
"""
from __future__ import annotations

import ast
import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parent.parent / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

SOURCE = '''
def target(x, out):
    def inner(y):
        return -y if not y < 0.5 else y
    np.add(x, 1.5, out=out)
    out += x - 2
    return inner(x) and x >= 3


def other(x):
    return x + 1.0 < 2.0
'''


def test_each_mutant_changes_one_node_of_the_named_function():
    found = mutants.mutants(SOURCE, {"target"})
    kinds = sorted({target[1] for target, *_ in found})
    assert kinds == ["andor", "flip", "negate", "out", "strict", "swap", "ulp"]
    assert {line for _, line, _, _ in found} <= set(range(2, 8))  # none in other()
    original = ast.unparse(ast.parse(SOURCE))
    for target, line, before, after in found:
        assert before != after
        mutated = mutants.mutant_tree(SOURCE, {"target"}, target)
        changed = [(a, b) for a, b in zip(original.splitlines(), mutated.splitlines()) if a != b]
        assert len(changed) == 1 and before in changed[0][0] and after in changed[0][1], (target, changed)
    assert ("ulp", "1.5", "1.5000000000000002") in {(t[1], b, a) for t, _, b, a in found}
    assert ("out", "np.add(x, 1.5, out=out)", "np.add(x, 1.5)") in {(t[1], b, a) for t, _, b, a in found}
