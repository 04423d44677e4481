"""Whole-program model for ``reprolint``: symbols, imports, call graph.

The per-file rules (R001–R008, R013) judge one module at a time; the
contracts they enforce, though, are *global* properties — "every
executed round is charged to the ledger" and "every generator traces
back to a seed" hold or fail across call boundaries.  This module
builds the project-wide view the interprocedural rules (R009–R011,
:mod:`.program_rules`) need:

* a **module table** mapping files to dotted module names (derived from
  the package layout, so ``src/repro/congest/leader.py`` is
  ``repro.congest.leader``);
* a **symbol table** of every function, method, and class, keyed by
  qualified name (``repro.congest.leader.elect_leader``,
  ``repro.core.router.Router.route``);
* per-module **import resolution** including relative imports
  (``from .leader import elect_leader``) and re-exports through
  package ``__init__`` files;
* a **call graph**: each function's call sites resolved to symbol-table
  entries where statically possible — plain calls, aliased imports,
  ``self.method(...)`` through program-wide base-class resolution, and
  ``functools.partial(f, ...)`` — with *unresolved* attribute calls kept
  around (rules pattern-match them by attribute name, which is how
  ``.charge(...)`` on a ledger of unknown static type is recognised).

The model is deliberately an over/under-approximation in the usual
linter sense: precise enough to catch the bug classes the rules target,
coarse enough to stay fast and dependency-free.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

from .engine import (
    Finding,
    LintModule,
    iter_python_files,
    qualified_name,
)

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ClassInfo",
    "Program",
    "ProgramRule",
    "build_program",
    "lint_program",
    "module_dotted_name",
]


def module_dotted_name(path: Path) -> str:
    """Dotted module name of ``path``, derived from the package layout.

    Walks upward while ``__init__.py`` exists, so the name matches what
    ``import`` would see regardless of where the tree is checked out.
    A stray file with no package parent is just its stem.
    """
    path = Path(path)
    parts = [path.stem] if path.stem != "__init__" else []
    parent = path.parent
    while (parent / "__init__.py").is_file():
        parts.insert(0, parent.name)
        parent = parent.parent
    return ".".join(parts) if parts else path.stem


@dataclass
class CallSite:
    """One ``ast.Call`` inside a function, with its resolution.

    Attributes:
        node: the call expression.
        callee: qualified name of the resolved target (symbol-table
            key), or ``None`` when resolution failed.
        attr: for attribute calls (``obj.m(...)``), the method name —
            kept even when the receiver's type is unknown, so rules can
            match calls like ``.charge(...)`` structurally.
        receiver: rendered receiver chain of an attribute call
            (``"self.network"``), or ``None`` for plain calls.
    """

    node: ast.Call
    callee: Optional[str] = None
    attr: Optional[str] = None
    receiver: Optional[str] = None


@dataclass
class FunctionInfo:
    """A function or method in the program's symbol table."""

    qualname: str
    module: LintModule
    module_name: str
    node: "ast.FunctionDef | ast.AsyncFunctionDef"
    class_qualname: Optional[str] = None

    @property
    def name(self) -> str:
        return self.node.name

    def param_names(self) -> List[str]:
        """Positional-ish parameter names, in call-mapping order."""
        args = self.node.args
        names = [a.arg for a in args.posonlyargs]
        names += [a.arg for a in args.args]
        return names


@dataclass
class ClassInfo:
    """A class definition plus its resolved base names."""

    qualname: str
    module: LintModule
    module_name: str
    node: ast.ClassDef
    bases: List[str] = field(default_factory=list)
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


class Program:
    """The whole-program view: modules, symbols, and the call graph."""

    def __init__(self) -> None:
        #: file path -> parsed module
        self.modules: Dict[str, LintModule] = {}
        #: file path -> dotted module name
        self.module_names: Dict[str, str] = {}
        #: dotted module name -> file path (first wins)
        self.by_module_name: Dict[str, str] = {}
        #: qualified name -> function/method
        self.functions: Dict[str, FunctionInfo] = {}
        #: qualified name -> class
        self.classes: Dict[str, ClassInfo] = {}
        #: function qualname -> its call sites
        self.calls: Dict[str, List[CallSite]] = {}
        #: callee qualname -> [(caller qualname, site), ...]
        self.callers: Dict[str, List[Tuple[str, CallSite]]] = {}
        #: per-module import table with *relative imports resolved*
        #: (unlike LintModule.aliases, which skips them)
        self._imports: Dict[str, Dict[str, str]] = {}

    # -- construction --------------------------------------------------------

    def add_module(self, module: LintModule) -> None:
        name = module_dotted_name(Path(module.path))
        self.modules[module.path] = module
        self.module_names[module.path] = name
        self.by_module_name.setdefault(name, module.path)
        self._imports[module.path] = self._collect_imports(module, name)
        self._collect_symbols(module, name)

    @staticmethod
    def _collect_imports(
        module: LintModule, module_name: str
    ) -> Dict[str, str]:
        """Local name -> dotted target, relative imports included."""
        table: Dict[str, str] = {}
        package = module_name.rsplit(".", 1)[0] if "." in module_name \
            else module_name
        is_package = Path(module.path).name == "__init__.py"
        if is_package:
            package = module_name
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else \
                        alias.name.split(".")[0]
                    table[local] = target
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    # Relative: climb level-1 packages from here.
                    base_parts = package.split(".")
                    climb = node.level - 1
                    if climb:
                        base_parts = base_parts[:-climb] or base_parts[:1]
                    base = ".".join(base_parts)
                    prefix = f"{base}.{node.module}" if node.module \
                        else base
                else:
                    prefix = node.module or ""
                for alias in node.names:
                    local = alias.asname or alias.name
                    table[local] = f"{prefix}.{alias.name}" if prefix \
                        else alias.name
        return table

    def _collect_symbols(self, module: LintModule, name: str) -> None:
        for stmt in module.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = f"{name}.{stmt.name}"
                self.functions[qual] = FunctionInfo(
                    qualname=qual, module=module, module_name=name,
                    node=stmt,
                )
            elif isinstance(stmt, ast.ClassDef):
                cls_qual = f"{name}.{stmt.name}"
                info = ClassInfo(
                    qualname=cls_qual, module=module, module_name=name,
                    node=stmt,
                )
                for base in stmt.bases:
                    rendered = qualified_name(base)
                    if rendered:
                        info.bases.append(rendered)
                for item in stmt.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        method_qual = f"{cls_qual}.{item.name}"
                        fn = FunctionInfo(
                            qualname=method_qual, module=module,
                            module_name=name, node=item,
                            class_qualname=cls_qual,
                        )
                        self.functions[method_qual] = fn
                        info.methods[item.name] = fn
                self.classes[cls_qual] = info

    # -- name resolution -----------------------------------------------------

    def resolve_local(
        self, module: LintModule, dotted: str
    ) -> Optional[str]:
        """Resolve ``dotted`` as seen from ``module`` to a symbol key.

        Expands the leading import alias (relative imports included),
        then follows re-exports through package ``__init__`` modules.
        """
        table = self._imports.get(module.path, {})
        head, _, rest = dotted.partition(".")
        target = table.get(head)
        module_name = self.module_names.get(module.path, "")
        if target is None:
            # Not imported: a module-local symbol?
            candidate = f"{module_name}.{dotted}"
            return self.resolve_symbol(candidate)
        full = f"{target}.{rest}" if rest else target
        return self.resolve_symbol(full)

    def resolve_symbol(
        self, dotted: str, _depth: int = 0
    ) -> Optional[str]:
        """Canonicalise ``dotted`` against the symbol table.

        Follows re-export chains (``repro.congest.elect_leader`` ->
        ``repro.congest.leader.elect_leader``) up to a small
        depth.
        """
        if _depth > 8:
            return None
        if dotted in self.functions or dotted in self.classes:
            return dotted
        # Split into (module prefix, remainder) at the longest module
        # name we know.
        parts = dotted.split(".")
        for cut in range(len(parts) - 1, 0, -1):
            prefix = ".".join(parts[:cut])
            path = self.by_module_name.get(prefix)
            if path is None:
                continue
            remainder = parts[cut:]
            # Direct symbol in that module?
            candidate = f"{prefix}." + ".".join(remainder)
            if candidate in self.functions or candidate in self.classes:
                return candidate
            # Re-export: the module's import table knows the head.
            table = self._imports.get(path, {})
            head = remainder[0]
            if head in table:
                rebased = table[head]
                if len(remainder) > 1:
                    rebased += "." + ".".join(remainder[1:])
                if rebased != dotted:
                    return self.resolve_symbol(rebased, _depth + 1)
            return None
        return None

    def expand(self, module: LintModule, dotted: str) -> str:
        """Expand the leading import alias of ``dotted`` (relative
        imports included) without requiring an in-program symbol —
        ``np.random.default_rng`` becomes ``numpy.random.default_rng``
        even though numpy is not part of the program."""
        table = self._imports.get(module.path, {})
        head, _, rest = dotted.partition(".")
        target = table.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    def method_on(
        self, class_qualname: str, method: str, _seen: frozenset = frozenset()
    ) -> Optional[str]:
        """Resolve ``method`` on a class or its (program-wide) bases."""
        if class_qualname in _seen:
            return None
        info = self.classes.get(class_qualname)
        if info is None:
            return None
        if method in info.methods:
            return info.methods[method].qualname
        for base in info.bases:
            base_qual = self.resolve_local(info.module, base)
            if base_qual is None:
                continue
            found = self.method_on(
                base_qual, method, _seen | {class_qualname}
            )
            if found:
                return found
        return None

    def class_is(
        self, class_qualname: str, base_suffix: str,
        _seen: frozenset = frozenset(),
    ) -> bool:
        """True if the class (transitively) extends a base whose name
        ends with ``base_suffix`` — program-wide, so a subclass in
        another module still counts."""
        if class_qualname in _seen:
            return False
        if class_qualname.endswith(base_suffix):
            return True
        info = self.classes.get(class_qualname)
        if info is None:
            return False
        for base in info.bases:
            if base.endswith(base_suffix):
                return True
            base_qual = self.resolve_local(info.module, base)
            if base_qual and self.class_is(
                base_qual, base_suffix, _seen | {class_qualname}
            ):
                return True
        return False

    # -- call graph ----------------------------------------------------------

    def build_call_graph(self) -> None:
        for qual, fn in self.functions.items():
            sites = list(self._call_sites(fn))
            self.calls[qual] = sites
            for site in sites:
                if site.callee:
                    self.callers.setdefault(site.callee, []).append(
                        (qual, site)
                    )

    def _call_sites(self, fn: FunctionInfo) -> Iterator[CallSite]:
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Call):
                yield self._resolve_call(fn, node)
                # functools.partial(f, ...): an edge to f as well.
                target = self._partial_target(fn, node)
                if target is not None:
                    yield CallSite(node=node, callee=target)

    def _partial_target(
        self, fn: FunctionInfo, call: ast.Call
    ) -> Optional[str]:
        name = qualified_name(call.func)
        if name is None or not call.args:
            return None
        resolved = self.resolve_local(fn.module, name)
        is_partial = (
            name in ("partial", "functools.partial")
            or (resolved or "").endswith("functools.partial")
        )
        # `functools` is stdlib, so resolve_local can't see its symbol
        # table; match the spelling through the import table instead.
        table = self._imports.get(fn.module.path, {})
        head = name.partition(".")[0]
        expanded = table.get(head, head)
        full = name.replace(head, expanded, 1)
        if not (is_partial or full == "functools.partial"):
            return None
        inner = qualified_name(call.args[0])
        if inner is None:
            return None
        return self.resolve_local(fn.module, inner)

    def _resolve_call(
        self, fn: FunctionInfo, call: ast.Call
    ) -> CallSite:
        func = call.func
        if isinstance(func, ast.Name):
            callee = self.resolve_local(fn.module, func.id)
            if callee in self.classes:
                # Constructor: edge to __init__ when it exists, else
                # keep the class itself as the target.
                init = self.method_on(callee, "__init__")
                callee = init or callee
            return CallSite(node=call, callee=callee)
        if isinstance(func, ast.Attribute):
            receiver = qualified_name(func.value)
            # self.method(...) -> program-wide method resolution.
            if receiver == "self" and fn.class_qualname:
                callee = self.method_on(fn.class_qualname, func.attr)
                return CallSite(
                    node=call, callee=callee, attr=func.attr,
                    receiver=receiver,
                )
            # module.attr(...) through the import table.
            dotted = qualified_name(func)
            callee = None
            if dotted is not None:
                callee = self.resolve_local(fn.module, dotted)
                if callee in self.classes:
                    init = self.method_on(callee, "__init__")
                    callee = init or callee
            return CallSite(
                node=call, callee=callee, attr=func.attr,
                receiver=receiver,
            )
        return CallSite(node=call)

    # -- traversal helpers for rules -----------------------------------------

    def transitive_callees(self, qualname: str) -> Set[str]:
        """All resolved callees reachable from ``qualname``."""
        seen: Set[str] = set()
        stack = [qualname]
        while stack:
            current = stack.pop()
            for site in self.calls.get(current, ()):
                if site.callee and site.callee not in seen:
                    seen.add(site.callee)
                    stack.append(site.callee)
        return seen


class ProgramRule:
    """Base class for whole-program rules.

    Like :class:`~repro.lint.engine.Rule` but ``check`` receives the
    :class:`Program`; findings still carry the module path/line of the
    offending site so suppressions work identically.
    """

    rule_id: str = "R900"
    name: str = "abstract-program"
    description: str = ""

    def check(self, program: Program) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(
        self, module: LintModule, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            rule=self.rule_id,
            path=module.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


def build_program(paths: Iterable["str | Path"]) -> Program:
    """Parse every ``.py`` under ``paths`` into one :class:`Program`."""
    program = Program()
    for file_path in iter_python_files(paths):
        try:
            # Decoded as lint_paths does, so a non-UTF-8 file fails to
            # parse here and gets the per-file pass's E000.
            source = file_path.read_bytes().decode("utf-8", errors="replace")
            module = LintModule(source, str(file_path))
        except (OSError, SyntaxError):
            continue  # per-file linting already reports E000
        program.add_module(module)
    program.build_call_graph()
    return program


def lint_program(
    paths: Iterable["str | Path"],
    rules: Optional[Iterable[ProgramRule]] = None,
) -> List[Finding]:
    """Run the whole-program rules over the tree under ``paths``."""
    from .program_rules import get_program_rules

    program = build_program(paths)
    findings: List[Finding] = []
    active = list(rules) if rules is not None else get_program_rules()
    for rule in active:
        for finding in rule.check(program):
            module = program.modules.get(finding.path)
            if module is not None and module.is_suppressed(finding):
                continue
            findings.append(finding)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule))
    return findings
