"""Every public top-level name in ``src/repro`` is reached by a program path.

The program paths are the code that ships: ``src/repro`` and the
``perfbench/`` harness, tests excluded.  A public (no leading
underscore) module-level function or class counts as *reached* when a
module on those paths, outside the name's own definition, names it:

* a ``Name`` or an ``Attribute.attr`` (``module.fn``, ``obj.Class``);
* an ``ImportFrom`` alias, except in a package ``__init__`` (a
  re-export serves no caller by itself);
* an identifier string (op tables and tracing entries name code by
  string).

Entries of ``__all__`` do not count.  This is a name scan, not a call
graph: :meth:`repro.lint.program.Program.transitive_callees` leaves
``obj.method()`` unresolved unless the receiver is ``self``, so a
call-graph closure would flag code that is reached.

Names only tests, examples or prose use are deleted, not kept.  The few
that stay anyway are listed in :data:`ALLOWED`, each with its reason;
reprolint's rule classes are reached through their registry and are
exempt by base class.
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


def _names_in(node, in_package_init):
    """Every name ``node`` mentions, by the rules of the module docstring."""
    for child in ast.walk(node):
        if isinstance(child, ast.Name):
            yield child.id
        elif isinstance(child, ast.Attribute):
            yield child.attr
        elif isinstance(child, ast.ImportFrom) and not in_package_init:
            yield from (alias.name for alias in child.names)
        elif (
            isinstance(child, ast.Constant)
            and isinstance(child.value, str)
            and child.value.isidentifier()
        ):
            yield child.value


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
