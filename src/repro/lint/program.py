"""The parsed form every ``reprolint`` rule reads: one :class:`Program`.

Each file is read, decoded and parsed once per run.  The contracts the
rules enforce are partly *global* — "every executed round is charged to
the ledger" and "every generator traces back to a seed" hold or fail
across call boundaries — so the program carries the project-wide view
alongside the per-file ASTs:

* a **module table** mapping files to dotted module names (derived from
  the package layout, so ``src/repro/congest/leader.py`` is
  ``repro.congest.leader``);
* a **symbol table** of every top-level function, method, and class,
  keyed by qualified name (``repro.congest.leader.elect_leader``,
  ``repro.core.router.Router.route``);
* one per-module **import table**, relative imports included
  (``from .leader import elect_leader``), with re-exports followed
  through package ``__init__`` files;
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
import re
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Set, Tuple

__all__ = [
    "CallSite",
    "ClassInfo",
    "Finding",
    "FunctionInfo",
    "LintModule",
    "Program",
    "build_program",
    "module_dotted_name",
    "qualified_name",
]

#: ``# reprolint: disable=R001,R003`` or ``# reprolint: disable=all``
_SUPPRESS_RE = re.compile(
    r"#\s*reprolint:\s*disable=([A-Za-z0-9_,\s]+)"
)


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str

    def to_dict(self) -> dict:
        """JSON-serialisable form (consumed by ``--format=json``)."""
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
        }

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"


def qualified_name(node: ast.AST) -> Optional[str]:
    """Render a ``Name``/``Attribute`` chain as ``a.b.c`` (else ``None``)."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


class LintModule:
    """One parsed source file and its line-level suppressions."""

    def __init__(self, source: str, path: str):
        self.path = path
        self.tree = ast.parse(source, filename=path)
        self.suppressions: dict[int, set[str]] = {}
        for number, text in enumerate(source.splitlines(), start=1):
            match = _SUPPRESS_RE.search(text)
            if match:
                self.suppressions[number] = {
                    token.strip().upper() if token.strip() != "all" else "all"
                    for token in match.group(1).split(",")
                    if token.strip()
                }

    @cached_property
    def class_defs(self) -> Dict[str, ast.ClassDef]:
        """Every class defined in the module, at any depth, by name."""
        return {
            node.name: node for node in ast.walk(self.tree)
            if isinstance(node, ast.ClassDef)
        }

    def is_suppressed(self, finding: Finding) -> bool:
        rules = self.suppressions.get(finding.line)
        if not rules:
            return False
        return "all" in rules or finding.rule in rules


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


def iter_python_files(paths: Iterable[str | Path]) -> Iterator[Path]:
    """Expand files/directories into the ``.py`` files beneath them."""
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            yield from sorted(path.rglob("*.py"))
        elif path.suffix == ".py":
            yield path


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
    """A class definition plus its methods."""

    qualname: str
    module: LintModule
    node: ast.ClassDef
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)


class Program:
    """The parsed tree: modules, imports, symbols, and the call graph."""

    def __init__(self) -> None:
        #: file path -> parsed module
        self.modules: Dict[str, LintModule] = {}
        #: E000 findings of the files that failed to parse
        self.errors: List[Finding] = []
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
        #: file path -> local name -> dotted import target
        self._imports: Dict[str, Dict[str, str]] = {}

    # -- construction --------------------------------------------------------

    def add_source(self, source: str, path: str) -> None:
        """Parse ``source`` as the module at ``path``; a file that does
        not parse becomes an E000 finding instead."""
        try:
            module = LintModule(source, path)
        except SyntaxError as error:
            self.errors.append(Finding(
                rule="E000",
                path=path,
                line=error.lineno or 1,
                col=error.offset or 0,
                message=f"syntax error: {error.msg}",
            ))
            return
        name = module_dotted_name(Path(path))
        self.modules[path] = module
        self.module_names[path] = name
        self.by_module_name.setdefault(name, path)
        self._imports[path] = self._collect_imports(module, name)
        self._collect_symbols(module, name)

    @staticmethod
    def _collect_imports(
        module: LintModule, module_name: str
    ) -> Dict[str, str]:
        """Local name -> dotted target, relative imports included.

        ``import numpy as np`` maps ``np -> numpy``;
        ``from random import randint as ri`` maps
        ``ri -> random.randint``; ``from .leader import elect_leader``
        in ``repro/congest/x.py`` maps
        ``elect_leader -> repro.congest.leader.elect_leader``.
        """
        table: Dict[str, str] = {}
        package = module_name.rsplit(".", 1)[0] if "." in module_name \
            else module_name
        if Path(module.path).name == "__init__.py":
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
                    qualname=qual, module=module, node=stmt,
                )
            elif isinstance(stmt, ast.ClassDef):
                cls_qual = f"{name}.{stmt.name}"
                info = ClassInfo(qualname=cls_qual, module=module, node=stmt)
                for item in stmt.body:
                    if isinstance(
                        item, (ast.FunctionDef, ast.AsyncFunctionDef)
                    ):
                        method_qual = f"{cls_qual}.{item.name}"
                        fn = FunctionInfo(
                            qualname=method_qual, module=module, node=item,
                            class_qualname=cls_qual,
                        )
                        self.functions[method_qual] = fn
                        info.methods[item.name] = fn
                self.classes[cls_qual] = info

    # -- name resolution -----------------------------------------------------

    def expand(self, module: LintModule, dotted: str) -> str:
        """Expand the leading import alias of ``dotted`` —
        ``np.random.default_rng`` becomes ``numpy.random.default_rng``
        even though numpy is not part of the program.  A name the module
        never imported keeps its literal spelling."""
        table = self._imports.get(module.path, {})
        head, _, rest = dotted.partition(".")
        target = table.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    def imported(self, module: LintModule, node: ast.AST) -> Optional[str]:
        """Like :meth:`expand` on ``node``'s rendered chain, but only for
        chains rooted at an import: ``None`` otherwise, so a local
        variable that happens to be called ``random`` or ``time`` cannot
        masquerade as the module."""
        dotted = qualified_name(node)
        if dotted is None:
            return None
        if dotted.partition(".")[0] not in self._imports.get(module.path, {}):
            return None
        return self.expand(module, dotted)

    def resolve_local(
        self, module: LintModule, dotted: str
    ) -> Optional[str]:
        """Resolve ``dotted`` as seen from ``module`` to a symbol key.

        Expands the leading import alias (relative imports included),
        then follows re-exports through package ``__init__`` modules.
        """
        if dotted.partition(".")[0] not in self._imports.get(module.path, {}):
            # Not imported: a module-local symbol?
            module_name = self.module_names.get(module.path, "")
            return self.resolve_symbol(f"{module_name}.{dotted}")
        return self.resolve_symbol(self.expand(module, dotted))

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
        for base in info.node.bases:
            dotted = qualified_name(base)
            base_qual = dotted and self.resolve_local(info.module, dotted)
            if not base_qual:
                continue
            found = self.method_on(
                base_qual, method, _seen | {class_qualname}
            )
            if found:
                return found
        return None

    def extends(
        self, module: LintModule, cls: ast.ClassDef, base_suffix: str,
        _seen: frozenset = frozenset(),
    ) -> bool:
        """True if class ``cls`` of ``module`` extends, directly or
        through other classes, a base whose imported name ends with
        ``base_suffix``.  Bases are followed through the program's
        classes in any module, and through classes nested anywhere in
        ``module`` (a test's local subclass of a local base)."""
        for base in cls.bases:
            dotted = qualified_name(base)
            if dotted is None:
                continue
            if self.expand(module, dotted).endswith(base_suffix):
                return True
            target = self.resolve_local(module, dotted)
            info = self.classes.get(target) if target else None
            if info is not None:
                owner, node = info.module, info.node
            elif dotted in module.class_defs:
                owner, node = module, module.class_defs[dotted]
            else:
                continue
            if id(node) not in _seen and self.extends(
                owner, node, base_suffix, _seen | {id(cls)}
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
        if not (
            name == "partial"
            or self.expand(fn.module, name) == "functools.partial"
        ):
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


def build_program(paths: Iterable["str | Path"]) -> Program:
    """Read and parse every ``.py`` under ``paths`` once, into one
    :class:`Program` with its call graph built."""
    program = Program()
    for file_path in iter_python_files(paths):
        try:
            raw = file_path.read_bytes()
        except OSError:
            continue
        # Undecodable bytes become U+FFFD, which fails the parse: E000.
        program.add_source(raw.decode("utf-8", errors="replace"),
                           str(file_path))
    program.build_call_graph()
    return program
