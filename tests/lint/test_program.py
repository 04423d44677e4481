"""Golden tests for the whole-program model: symbols, imports, calls.

Each test builds a miniature package tree on disk and asserts the call
graph edges the interprocedural rules depend on: aliased imports,
re-exports through ``__init__``, ``self.method`` resolution through
base classes, constructor-to-``__init__`` edges, and
``functools.partial``.
"""

from repro.lint.program import build_program, module_dotted_name


def _edges(program, caller):
    return sorted(
        site.callee
        for site in program.calls.get(caller, ())
        if site.callee is not None
    )


class TestModuleNames:
    def test_package_layout_gives_dotted_names(self, make_tree):
        root = make_tree({"pkg/sub/mod.py": "x = 1\n"})
        assert module_dotted_name(root / "pkg/sub/mod.py") == "pkg.sub.mod"
        assert module_dotted_name(root / "pkg/__init__.py") == "pkg"

    def test_stray_file_is_its_stem(self, tmp_path):
        stray = tmp_path / "script.py"
        stray.write_text("x = 1\n", encoding="utf-8")
        assert module_dotted_name(stray) == "script"


class TestCallResolution:
    def test_plain_cross_module_call(self, make_tree):
        root = make_tree({
            "pkg/util.py": """
                def helper():
                    return 1
            """,
            "pkg/app.py": """
                from pkg.util import helper

                def run():
                    return helper()
            """,
        })
        program = build_program([root / "pkg"])
        assert _edges(program, "pkg.app.run") == ["pkg.util.helper"]

    def test_aliased_import_forms(self, make_tree):
        root = make_tree({
            "pkg/util.py": """
                def helper():
                    return 1
            """,
            "pkg/app.py": """
                import pkg.util as u
                from pkg.util import helper as h

                def via_module():
                    return u.helper()

                def via_alias():
                    return h()
            """,
        })
        program = build_program([root / "pkg"])
        assert _edges(program, "pkg.app.via_module") == ["pkg.util.helper"]
        assert _edges(program, "pkg.app.via_alias") == ["pkg.util.helper"]

    def test_relative_import(self, make_tree):
        root = make_tree({
            "pkg/util.py": """
                def helper():
                    return 1
            """,
            "pkg/app.py": """
                from .util import helper

                def run():
                    return helper()
            """,
        })
        program = build_program([root / "pkg"])
        assert _edges(program, "pkg.app.run") == ["pkg.util.helper"]

    def test_reexport_through_package_init(self, make_tree):
        root = make_tree({
            "pkg/__init__.py": """
                from .impl import thing
            """,
            "pkg/impl.py": """
                def thing():
                    return 1
            """,
            "client.py": """
                from pkg import thing

                def use():
                    return thing()
            """,
        })
        program = build_program([root])
        assert _edges(program, "client.use") == ["pkg.impl.thing"]

    def test_constructor_resolves_to_init(self, make_tree):
        root = make_tree({
            "pkg/model.py": """
                class Router:
                    def __init__(self, rng=None):
                        self.rng = rng
            """,
            "pkg/app.py": """
                from pkg.model import Router

                def build():
                    return Router()
            """,
        })
        program = build_program([root / "pkg"])
        assert _edges(program, "pkg.app.build") == [
            "pkg.model.Router.__init__"
        ]

    def test_self_method_through_base_class(self, make_tree):
        root = make_tree({
            "pkg/base.py": """
                class Base:
                    def charge_rounds(self, rounds):
                        return rounds
            """,
            "pkg/child.py": """
                from pkg.base import Base

                class Child(Base):
                    def work(self):
                        return self.charge_rounds(3)
            """,
        })
        program = build_program([root / "pkg"])
        assert _edges(program, "pkg.child.Child.work") == [
            "pkg.base.Base.charge_rounds"
        ]

    def test_functools_partial_edge(self, make_tree):
        root = make_tree({
            "pkg/util.py": """
                def helper(x):
                    return x
            """,
            "pkg/app.py": """
                import functools
                from functools import partial

                from pkg.util import helper

                def bind():
                    return partial(helper, 1)

                def bind_module():
                    return functools.partial(helper, 2)
            """,
        })
        program = build_program([root / "pkg"])
        assert "pkg.util.helper" in _edges(program, "pkg.app.bind")
        assert "pkg.util.helper" in _edges(program, "pkg.app.bind_module")

    def test_unresolved_attribute_call_keeps_attr(self, make_tree):
        root = make_tree({
            "pkg/app.py": """
                def work(ledger):
                    ledger.charge("label", 3)
            """,
        })
        program = build_program([root / "pkg"])
        sites = program.calls["pkg.app.work"]
        assert len(sites) == 1
        assert sites[0].callee is None
        assert sites[0].attr == "charge"
        assert sites[0].receiver == "ledger"

    def test_transitive_callees(self, make_tree):
        root = make_tree({
            "pkg/chain.py": """
                def c():
                    return 1

                def b():
                    return c()

                def a():
                    return b()
            """,
        })
        program = build_program([root / "pkg"])
        assert program.transitive_callees("pkg.chain.a") == {
            "pkg.chain.b",
            "pkg.chain.c",
        }

    def test_callers_index_inverts_calls(self, make_tree):
        root = make_tree({
            "pkg/chain.py": """
                def callee():
                    return 1

                def one():
                    return callee()

                def two():
                    return callee()
            """,
        })
        program = build_program([root / "pkg"])
        callers = sorted(
            caller
            for caller, _site in program.callers["pkg.chain.callee"]
        )
        assert callers == ["pkg.chain.one", "pkg.chain.two"]


class TestClassQueries:
    def test_class_is_transitive_across_modules(self, make_tree):
        root = make_tree({
            "pkg/base.py": """
                class NodeAlgorithm:
                    pass
            """,
            "pkg/mid.py": """
                from pkg.base import NodeAlgorithm

                class Mid(NodeAlgorithm):
                    pass
            """,
            "pkg/leaf.py": """
                from pkg.mid import Mid

                class Leaf(Mid):
                    pass
            """,
        })
        program = build_program([root / "pkg"])
        assert program.class_is("pkg.leaf.Leaf", "NodeAlgorithm")
        assert not program.class_is("pkg.base.NodeAlgorithm", "Router")

    def test_syntax_error_file_is_skipped(self, make_tree):
        root = make_tree({
            "pkg/broken.py": "def broken(:\n",
            "pkg/fine.py": """
                def fine():
                    return 1
            """,
        })
        program = build_program([root / "pkg"])
        assert "pkg.fine.fine" in program.functions
        assert "pkg.broken" not in program.by_module_name
