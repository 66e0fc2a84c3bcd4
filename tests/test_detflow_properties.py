"""Property tests for detlint's symbol-table/call-graph builder.

The graph is the foundation every whole-program check stands on, so its two
structural guarantees get property coverage on generated module trees:

1. **Permutation stability** — the graph is a pure function of the
   *set* of modules, never of file discovery order.  A graph that
   changed shape with directory-listing order would make detlint's own
   output nondeterministic (the exact sin it polices).
2. **Resolution soundness on known shapes** — aliased imports, import
   cycles, re-export hops, and method-vs-function shadowing resolve to
   the defining qualname; ``from x import *`` is rejected, not guessed.

Synthetic modules are built as in-memory :class:`FileContext` objects
(no tmp files), so hypothesis can explore hundreds of trees per run.
"""

from __future__ import annotations

import ast

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tools.detlint.graph import IMPORT_STAR_CODE, ProjectGraph
from repro.tools.detlint.engine import FileContext


def make_context(module: str, source: str) -> FileContext:
    return FileContext(
        path=f"synth/{module.replace('.', '/')}.py",
        module=module,
        tree=ast.parse(source),
        lines=source.splitlines(),
        suppressions={},
    )


def graph_shape(graph: ProjectGraph) -> tuple:
    """Everything observable about a graph, in canonical form."""
    return (
        sorted(graph.modules),
        sorted(graph.functions),
        sorted(graph.classes),
        sorted(graph.edge_set()),
        sorted((f.path, f.line, f.code) for f in graph.findings),
    )


# -- generated module trees ----------------------------------------------

MODULE_NAMES = [f"mod{i}" for i in range(5)]
FUNC_NAMES = ["alpha", "beta", "gamma"]


@st.composite
def module_trees(draw):
    """A random package: modules with functions, imports, and calls."""
    n_modules = draw(st.integers(min_value=1, max_value=5))
    names = MODULE_NAMES[:n_modules]
    sources = {}
    for i, name in enumerate(names):
        lines = []
        # Imports: each module may import any other (cycles included).
        for j, other in enumerate(names):
            if j == i:
                continue
            style = draw(st.integers(min_value=0, max_value=2))
            if style == 1:
                lines.append(f"import {other}")
            elif style == 2:
                alias = f"{other}_as"
                lines.append(f"import {other} as {alias}")
        funcs = draw(
            st.lists(st.sampled_from(FUNC_NAMES), min_size=1, max_size=3, unique=True)
        )
        for fn in funcs:
            lines.append(f"def {fn}():")
            # Calls: to own functions or to imported modules' functions.
            calls = draw(
                st.lists(
                    st.tuples(
                        st.sampled_from(names),
                        st.sampled_from(FUNC_NAMES),
                    ),
                    max_size=3,
                )
            )
            body = []
            for target_mod, target_fn in calls:
                if target_mod == name:
                    body.append(f"    {target_fn}()")
                else:
                    prefix = draw(st.sampled_from([target_mod, f"{target_mod}_as"]))
                    body.append(f"    {prefix}.{target_fn}()")
            body.append("    return None")
            lines.extend(body)
        sources[name] = "\n".join(lines) + "\n"
    return sources


@given(tree=module_trees(), seed=st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_graph_is_stable_under_file_ordering_permutations(tree, seed):
    # Parsing a module whose source references aliases that don't exist
    # (style 1 import but alias call) is fine — resolution just misses;
    # the property is about *stability*, not completeness.
    contexts = [make_context(name, src) for name, src in sorted(tree.items())]
    baseline = graph_shape(ProjectGraph.build(list(contexts)))
    shuffled = list(contexts)
    seed.shuffle(shuffled)
    assert graph_shape(ProjectGraph.build(shuffled)) == baseline
    # And building twice from the same order is identical too.
    assert graph_shape(ProjectGraph.build(list(contexts))) == baseline


@given(tree=module_trees())
@settings(max_examples=60, deadline=None)
def test_resolved_edges_point_at_real_functions(tree):
    contexts = [make_context(name, src) for name, src in tree.items()]
    graph = ProjectGraph.build(contexts)
    for caller, callee in graph.edge_set():
        assert caller in graph.functions
        assert callee in graph.functions


# -- known shapes --------------------------------------------------------


def test_import_cycle_resolves_both_directions():
    a = make_context("pkg_a", "import pkg_b\ndef fa():\n    pkg_b.fb()\n")
    b = make_context("pkg_b", "import pkg_a\ndef fb():\n    pkg_a.fa()\n")
    graph = ProjectGraph.build([a, b])
    assert graph.edge_set() == {
        ("pkg_a.fa", "pkg_b.fb"),
        ("pkg_b.fb", "pkg_a.fa"),
    }


def test_aliased_import_resolves():
    helper = make_context("helper", "def work():\n    return 1\n")
    user = make_context(
        "user", "import helper as h\ndef go():\n    h.work()\n"
    )
    graph = ProjectGraph.build([helper, user])
    assert ("user.go", "helper.work") in graph.edge_set()


def test_from_import_resolves():
    helper = make_context("helper2", "def work():\n    return 1\n")
    user = make_context(
        "user2", "from helper2 import work\ndef go():\n    work()\n"
    )
    graph = ProjectGraph.build([helper, user])
    assert ("user2.go", "helper2.work") in graph.edge_set()


def test_reexport_hop_resolves():
    # from pkg import f, where pkg/__init__.py itself re-exports f
    # from pkg.impl: resolution follows the hop to the definition.
    impl = make_context("pkg.impl", "def f():\n    return 1\n")
    init = make_context("pkg", "from pkg.impl import f\n")
    user = make_context("user3", "from pkg import f\ndef go():\n    f()\n")
    graph = ProjectGraph.build([impl, init, user])
    assert ("user3.go", "pkg.impl.f") in graph.edge_set()


def test_import_star_is_rejected_with_finding():
    ctx = make_context("starry", "from os.path import *\n")
    graph = ProjectGraph.build([ctx])
    assert [f.code for f in graph.findings] == [IMPORT_STAR_CODE]


def test_method_and_function_with_same_name_resolve_separately():
    src = (
        "def run():\n"
        "    return 1\n"
        "class Worker:\n"
        "    def run(self):\n"
        "        return 2\n"
        "    def go(self):\n"
        "        self.run()\n"
        "def main():\n"
        "    run()\n"
        "    w = Worker()\n"
        "    w.run()\n"
    )
    ctx = make_context("dual", src)
    graph = ProjectGraph.build([ctx])
    edges = graph.edge_set()
    # self.run() inside the class resolves to the *method*.
    assert ("dual.Worker.go", "dual.Worker.run") in edges
    assert ("dual.Worker.go", "dual.run") not in edges
    # A bare run() at module level resolves to the *function*; the
    # typed local w resolves through the constructor to the method.
    assert ("dual.main", "dual.run") in edges
    assert ("dual.main", "dual.Worker.run") in edges


def test_duplicate_module_name_is_deterministic():
    # Two files claiming one module: the path-sorted first wins, so the
    # graph cannot depend on discovery order.
    first = FileContext(
        path="a/dup.py", module="dup", tree=ast.parse("def f():\n    return 1\n"),
        lines=[], suppressions={},
    )
    second = FileContext(
        path="b/dup.py", module="dup", tree=ast.parse("def g():\n    return 2\n"),
        lines=[], suppressions={},
    )
    forward = graph_shape(ProjectGraph.build([first, second]))
    reverse = graph_shape(ProjectGraph.build([second, first]))
    assert forward == reverse
    assert "dup.f" in dict.fromkeys(forward[1])
