"""README's examples run as written, so the documented API and instance
file format cannot drift from the code, and the suite keeps the rules
README's "Tests" states."""

import ast
import json
import re
from pathlib import Path

import numpy as np

from jbtrotter.algebras import AlgebraDescriptor, spin_element
from jbtrotter.instances import instance_from_dict
from jbtrotter.trotter import SweepRecord
from cli_corpus import error_commands, successful_commands, write_instances

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"


def _block(section: str, language: str) -> str:
    """The first fenced block in ``language`` after the heading ``section``."""
    text = README.read_text(encoding="utf-8")
    start = text.index(f"\n{section}\n")
    match = re.compile(rf"^```{language}\n(.*?)^```$", re.M | re.S).search(text, start)
    return match.group(1)


def test_library_use_example_runs():
    scope = {}
    exec(compile(_block("## Library use", "python"), "README.md", "exec"), scope)
    assert 0.0 < scope["err"] < 1.0
    assert [r.n for r in scope["records"]] == [1, 2, 4, 8, 16, 32]
    assert all(isinstance(r, SweepRecord) and r.scheme == "f" for r in scope["records"])
    assert isinstance(scope["n_needed"], int) and scope["n_needed"] >= 1


def test_instance_file_example_loads():
    instance = instance_from_dict(json.loads(_block("### Instance files", "json")))
    assert instance.algebra == AlgebraDescriptor("spin", 4)
    assert instance.label == "example"
    (element,) = instance.elements
    np.testing.assert_array_equal(element.data, spin_element(0.5, [0.1, 0.2, 0.3, 0.4]).data)


def test_corpus_count_is_the_corpus_length(tmp_path):
    text = README.read_text(encoding="utf-8")
    stated = int(re.search(r"It runs (\d+) fixed\s+command lines", text).group(1))
    instances = write_instances(tmp_path)
    assert stated == len(successful_commands(instances)) + len(error_commands())


def _run_at_import(tree: ast.AST):
    """Every node of a module that runs when it is imported: all of it but
    the bodies of functions and lambdas, whose defaults and decorators
    do run."""
    stack = [tree]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            args = node.args
            stack += [*getattr(node, "decorator_list", ()), *args.defaults,
                      *(d for d in args.kw_defaults if d is not None)]
        else:
            stack += ast.iter_child_nodes(node)


def _calls_named(nodes, name: str):
    return [n for n in nodes if isinstance(n, ast.Call)
            and name in (getattr(n.func, "id", None), getattr(n.func, "attr", None))]


def test_every_test_seeds_what_it_draws():
    # No generator made at import, whose state would carry from one test to
    # the next, and no Hypothesis setting beside the conftest profile's.
    broken = []
    for path in sorted(TESTS.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        broken += [f"{path.name}:{n.lineno} default_rng at import"
                   for n in _calls_named(_run_at_import(tree), "default_rng")]
        broken += [f"{path.name}:{n.lineno} settings({k.arg}=...)"
                   for n in _calls_named(ast.walk(tree), "settings") for k in n.keywords
                   if k.arg in ("derandomize", "database", "deadline")]
    assert not broken, "\n".join(broken)
