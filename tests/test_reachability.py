"""Every public name, method and option in ``src/repro`` is reached.

The program paths are the code that ships: ``src/repro`` and the
``perfbench/`` harness, tests excluded.  Three passes check them.

**Top-level names.**  A public (no leading underscore) module-level
function or class counts as *reached* when a module on those paths,
outside the name's own definition, names it:

* a ``Name`` or an ``Attribute.attr`` (``module.fn``, ``obj.Class``);
* an ``ImportFrom`` alias, except in a package ``__init__`` (a
  re-export serves no caller by itself);
* an identifier string (op tables and tracing entries name code by
  string).

Entries of ``__all__`` do not count.

**Methods.**  A public method of a public class is reached when a
program module names it (``Name``, ``Attribute.attr`` or identifier
string) outside the method's own body.  Dunder methods are called by
the language and are not checked.

**Parameters.**  A defaulted parameter (no leading underscore) of a
public function, or of a public method or ``__init__`` of a public
class, is *set* when a call of that name outside the function's own
body passes it: by keyword, by position, or through ``*``/``**``.  A
class's ``__init__`` is called by the class name, and by ``cls(...)``
inside the class.  A name used as a value (an op table, the
``BACKENDS`` dict, a callback) counts as passing everything; type
annotations and ``isinstance``/``issubclass`` targets are not values.

These are name scans, not a call graph:
:meth:`repro.lint.program.Program.transitive_callees` leaves
``obj.method()`` unresolved unless the receiver is ``self``, so a
call-graph closure would flag code that is reached.  A name scan errs
the other way: a method whose name another class also defines and
calls (``result``, ``run``) is seen as reached.

Names, methods and options only tests, examples or prose use are
deleted, not kept.  The few that stay anyway are listed in
:data:`ALLOWED`, :data:`ALLOWED_METHODS` and :data:`ALLOWED_PARAMS`,
each with its reason; reprolint's rule classes are reached through
their registry and are exempt by base class.
"""

import ast
from pathlib import Path

import pytest

from repro.lint.program import build_program

REPO_ROOT = Path(__file__).resolve().parents[1]
LIBRARY = REPO_ROOT / "src" / "repro"
PROGRAM_PATHS = [LIBRARY, REPO_ROOT / "perfbench"]

_ORACLE = "oracle an equivalence test checks the library against"
_FIXTURE = "graph generator the tests use as a fixture"
_USER_API = "user API that README.md or docs/tutorial.md calls"
_RATIO = "lemma bound for the ROADMAP ratio-column item"
_PROBE = "probe the tests read state through"
_SEAM = "test seam: tests pass their own argv/stdout"

#: Unreached public names that stay, by qualified name, with the reason.
ALLOWED = {
    "repro.baselines.mst_verify.verify_mst": _ORACLE,
    "repro.baselines.mincut_oracle.exact_min_cut": _ORACLE,
    "repro.baselines.centralized_mst.prim": _ORACLE,
    "repro.core.validate.validate_hierarchy": _ORACLE,
    "repro.core.validate.validate_portals": _ORACLE,
    "repro.runtime.events.sum_ledger_charges": _ORACLE,
    "repro.baselines.ghs_congest.congest_ghs_mst": (
        "message-passing oracle for ghs_mst's round model"
    ),
    "repro.congest.forwarding.forward_demands": (
        "one-step entry to the array executor that the hop cross-check "
        "compares with the per-node oracle"
    ),
    "repro.graphs.generators.path_graph": _FIXTURE,
    "repro.graphs.generators.star_graph": _FIXTURE,
    "repro.graphs.generators.lollipop_graph": _FIXTURE,
    "repro.graphs.generators.binary_tree": _FIXTURE,
    "repro.graphs.generators.complete_graph": _FIXTURE,
    "repro.graphs.generators.watts_strogatz": _FIXTURE,
    "repro.graphs.generators.with_weights": _FIXTURE,
    "repro.runtime.events.read_jsonl_trace": (
        "input of the ROADMAP trace-summarizer item"
    ),
    "repro.theory.conductance_mixing_bound": _RATIO,
    "repro.theory.gkp_upper_bound": _RATIO,
    "repro.theory.parallel_walk_load_bound": _RATIO,
    "repro.theory.parallel_walk_rounds_bound": _RATIO,
    "repro.theory.routing_recursion_bound": _RATIO,
    "repro.theory.virtual_tree_degree_bound": _RATIO,
    "repro.theory.virtual_tree_depth_bound": _RATIO,
    "repro.core.mst.minimum_spanning_tree": _USER_API,
    "repro.graphs.interop.from_networkx": _USER_API,
    "repro.graphs.interop.to_networkx": _USER_API,
    "repro.congest.leader.elect_leader": _USER_API,
}

#: Unreached public methods that stay, by qualified name, with the reason.
ALLOWED_METHODS = {
    "repro.core.partition.HierarchicalPartition.part_of": (
        "per-vnode oracle the partition tests compare "
        "all_parts_at_level with"
    ),
    "repro.graphs.graph.Graph.arc_tail": (
        "scalar oracle the graph tests compare arc_tails with"
    ),
    "repro.graphs.graph.Graph.arc_twin": (
        "reverse-arc map the graph tests check the CSR layout with"
    ),
    "repro.core.virtual_tree.VirtualTree.check_invariants": (
        "invariant probe the virtual-tree property tests call after "
        "every operation"
    ),
    "repro.runtime.backends.Backend.g0_edge_multiset": (
        _PROBE + ": cross-backend and fault-identity tests compare G0 "
        "overlays"
    ),
    "repro.runtime.events.MemorySink.of_kind": (
        _PROBE + ": trace tests and README.md filter events"
    ),
    "repro.core.ledger.RoundLedger.by_prefix": (
        _PROBE + ": per-phase ledger totals"
    ),
}

#: Defaulted parameters no program path sets that stay, as
#: ``"qualname(param)"``, with the reason.
ALLOWED_PARAMS = {
    "repro.cli.main(argv)": _SEAM,
    "repro.lint.cli.main(argv)": _SEAM,
    "repro.lint.cli.main(stdout)": _SEAM,
    "repro.core.mst.minimum_spanning_tree(params)": _USER_API,
    "repro.core.mst.minimum_spanning_tree(rng)": _USER_API,
    "repro.core.mst.minimum_spanning_tree(hierarchy)": _USER_API,
    "repro.runtime.events.sum_ledger_charges(prefix)": (
        "oracle the ledger tests and docs/architecture.md sum traces with"
    ),
}

#: Base classes whose subclasses are reached through a rule registry.
REGISTERED_BASES = (
    "repro.lint.engine.Rule",
    "repro.lint.program.ProgramRule",
)


def _is_test(path):
    path = Path(path).relative_to(REPO_ROOT)
    return (
        "tests" in path.parts
        or path.name.startswith("test_")
        or path.name == "conftest.py"
    )


def _mentioned(node):
    """The name a ``Name``, ``Attribute`` or identifier string mentions."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if (
        isinstance(node, ast.Constant)
        and isinstance(node.value, str)
        and node.value.isidentifier()
    ):
        return node.value
    return None


def _names_in(node, in_package_init):
    """Every name ``node`` mentions, by the rules of the module docstring."""
    for child in ast.walk(node):
        if isinstance(child, ast.ImportFrom) and not in_package_init:
            yield from (alias.name for alias in child.names)
        elif _mentioned(child) is not None:
            yield _mentioned(child)


def _is_all(statement):
    return isinstance(statement, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__all__"
        for target in statement.targets
    )


@pytest.fixture(scope="module")
def program():
    return build_program(PROGRAM_PATHS)


@pytest.fixture(scope="module")
def unreached(program):
    """Qualified names of the library's unreached public top-level defs.

    A reference is kept with the top-level statement it sits in, so a
    definition's mentions of its own name (a recursive call) do not
    reach it.
    """
    users = {}
    for path, module in program.modules.items():
        if _is_test(path):
            continue
        in_package_init = Path(path).name == "__init__.py"
        for statement in module.tree.body:
            if _is_all(statement):
                continue
            for name in _names_in(statement, in_package_init):
                users.setdefault(name, set()).add(id(statement))
    found = set()
    definitions = list(program.functions.values())
    definitions += list(program.classes.values())
    for info in definitions:
        if getattr(info, "class_qualname", None) is not None:
            continue  # a method, not a top-level name
        if info.node.name.startswith("_"):
            continue
        if LIBRARY not in Path(info.module.path).resolve().parents:
            continue
        if users.get(info.node.name, set()) - {id(info.node)}:
            continue
        found.add(info.qualname)
    return found


def _program_modules(program):
    return [
        module for path, module in program.modules.items()
        if not _is_test(path)
    ]


def _in_library(info):
    return LIBRARY in Path(info.module.path).resolve().parents


def _class_name(info):
    """The simple name of a method's class, else ``None``."""
    if info.class_qualname is None:
        return None
    return info.class_qualname.rsplit(".", 1)[1]


@pytest.fixture(scope="module")
def unreached_methods(program):
    """Qualified names of the library's unreached public methods."""
    users = {}
    for module in _program_modules(program):
        for node in ast.walk(module.tree):
            name = _mentioned(node)
            if name is not None:
                users.setdefault(name, []).append(id(node))
    found = set()
    for info in program.functions.values():
        owner = _class_name(info)
        if owner is None or owner.startswith("_") or not _in_library(info):
            continue
        if info.name.startswith("_"):
            continue
        own = {id(node) for node in ast.walk(info.node)}
        if not any(user not in own for user in users.get(info.name, ())):
            found.add(info.qualname)
    return found


def _not_values(tree):
    """Ids of the nodes in annotations and ``isinstance``/``issubclass``
    class arguments: mentions there call nothing."""
    skipped = set()
    for node in ast.walk(tree):
        parts = []
        if isinstance(node, ast.arg) and node.annotation is not None:
            parts.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node.returns is not None:
                parts.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            parts.append(node.annotation)
        elif (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id in ("isinstance", "issubclass")
        ):
            parts.extend(node.args[1:])
        for part in parts:
            skipped.update(id(child) for child in ast.walk(part))
    return skipped


def _defaulted(args):
    """``(name, position)`` of each defaulted parameter; keyword-only
    ones have position ``None``."""
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    for index in range(first, len(positional)):
        yield positional[index].arg, index
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        if default is not None:
            yield arg.arg, None


def _passes(call, param, index, offset):
    """Whether ``call`` sets ``param`` (at ``index``; the receiver takes
    ``offset`` positions)."""
    if any(isinstance(arg, ast.Starred) for arg in call.args):
        return True
    if any(kw.arg is None or kw.arg == param for kw in call.keywords):
        return True
    return index is not None and len(call.args) + offset > index


@pytest.fixture(scope="module")
def unset_params(program):
    """``"qualname(param)"`` of every defaulted parameter of the
    library's public functions and methods that no program call sets."""
    calls = {}
    values = set()
    for module in _program_modules(program):
        skipped = _not_values(module.tree)
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef):
                for inner in ast.walk(node):
                    if (
                        isinstance(inner, ast.Call)
                        and isinstance(inner.func, ast.Name)
                        and inner.func.id == "cls"
                    ):
                        calls.setdefault(node.name, []).append(inner)
            elif isinstance(node, ast.Call):
                skipped.add(id(node.func))
                name = _mentioned(node.func)
                if name is not None:
                    calls.setdefault(name, []).append(node)
            elif (
                isinstance(node, (ast.Name, ast.Attribute))
                and isinstance(node.ctx, ast.Load)
                and id(node) not in skipped
            ):
                values.add(_mentioned(node))
    found = set()
    for info in program.functions.values():
        owner = _class_name(info)
        if not _in_library(info) or (owner or "").startswith("_"):
            continue
        if owner is not None and info.name == "__init__":
            name, offset = owner, 1
        elif info.name.startswith("_"):
            continue
        elif owner is not None:
            static = any(
                _mentioned(decorator) == "staticmethod"
                for decorator in info.node.decorator_list
            )
            name, offset = info.name, 0 if static else 1
        else:
            name, offset = info.name, 0
        if name in values:
            continue
        own = {id(node) for node in ast.walk(info.node)}
        sites = [call for call in calls.get(name, ()) if id(call) not in own]
        for param, index in _defaulted(info.node.args):
            if param.startswith("_"):
                continue  # a recursion guard, not an option
            if not any(_passes(call, param, index, offset) for call in sites):
                found.add(f"{info.qualname}({param})")
    return found


def _registered(program, qualname):
    return any(program.class_is(qualname, base) for base in REGISTERED_BASES)


class TestReachability:
    def test_every_public_name_is_reached(self, program, unreached):
        stray = sorted(
            name for name in unreached
            if name not in ALLOWED and not _registered(program, name)
        )
        assert stray == [], (
            "public names no program path reaches -- delete them (and "
            "their tests), or add one to ALLOWED with its reason:\n"
            + "\n".join(stray)
        )

    def test_allowed_names_are_still_unreached(self, unreached):
        """An entry whose name gained a program caller, or is gone,
        leaves the list, so the list never outgrows the need."""
        stale = sorted(set(ALLOWED) - unreached)
        assert stale == [], (
            "ALLOWED entries that are reached or no longer defined -- "
            "remove them:\n" + "\n".join(stale)
        )

    def test_every_public_method_is_reached(self, unreached_methods):
        stray = sorted(unreached_methods - set(ALLOWED_METHODS))
        assert stray == [], (
            "public methods no program path calls -- delete them (and "
            "their tests), or add one to ALLOWED_METHODS with its "
            "reason:\n" + "\n".join(stray)
        )

    def test_allowed_methods_are_still_unreached(self, unreached_methods):
        stale = sorted(set(ALLOWED_METHODS) - unreached_methods)
        assert stale == [], (
            "ALLOWED_METHODS entries that are reached or no longer "
            "defined -- remove them:\n" + "\n".join(stale)
        )

    def test_every_default_is_set(self, unset_params):
        stray = sorted(unset_params - set(ALLOWED_PARAMS))
        assert stray == [], (
            "defaulted parameters no program call sets -- make each a "
            "constant or delete it, or add it to ALLOWED_PARAMS with its "
            "reason:\n" + "\n".join(stray)
        )

    def test_allowed_params_are_still_unset(self, unset_params):
        stale = sorted(set(ALLOWED_PARAMS) - unset_params)
        assert stale == [], (
            "ALLOWED_PARAMS entries that a program call sets or that no "
            "longer exist -- remove them:\n" + "\n".join(stale)
        )
