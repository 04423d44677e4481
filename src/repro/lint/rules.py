"""The ``reprolint`` rule set.

Each rule targets a concrete failure mode of this codebase: breaking the
CONGEST model the paper's theorems assume, or breaking the seeded-RNG
discipline the experiments' reproducibility rests on.  Every rule reads
the one parsed :class:`~repro.lint.program.Program`: the per-file rules
(R001–R008) one module at a time, R009 and R010 through its call graph.
Rule ids are stable (suppression comments reference them); see
``docs/linting.md`` for the catalogue with rationale.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import Dict, Iterator, List, Optional, Set, Tuple

from ..congest.network import MESSAGE_WORD_LIMIT
from .engine import Rule
from .program import (
    CallSite,
    Finding,
    FunctionInfo,
    LintModule,
    Program,
    qualified_name,
)

__all__ = ["RULES", "register"]

RULES: dict[str, Rule] = {}


def register(cls: type) -> type:
    """Class decorator: instantiate the rule and add it to the registry."""
    rule = cls()
    RULES[rule.rule_id] = rule
    return cls


#: Calls that mint a new generator.  Seeding decides whether they are OK.
RNG_CONSTRUCTORS = {
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "random.Random",
}

#: Module-level sampling functions of the stdlib ``random`` module.
STDLIB_SAMPLERS = {
    "betavariate", "choice", "choices", "expovariate", "gauss",
    "getrandbits", "lognormvariate", "normalvariate", "paretovariate",
    "randbytes", "randint", "random", "randrange", "sample", "seed",
    "shuffle", "triangular", "uniform", "vonmisesvariate",
    "weibullvariate",
}

#: ``numpy.random`` attributes that are *not* the legacy global samplers.
NUMPY_RANDOM_ALLOWED = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator",
    "RandomState", "PCG64", "PCG64DXSM", "Philox", "MT19937", "SFC64",
}

#: Wall-clock / entropy sources that make runs unreproducible.
NONDETERMINISTIC_CALLS = {
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns", "os.urandom",
    "uuid.uuid1", "uuid.uuid4", "secrets.token_bytes",
    "secrets.token_hex", "secrets.token_urlsafe", "secrets.randbelow",
    "secrets.randbits", "secrets.choice",
}

#: Bare names that, read inside a node-local CONGEST method, mean the
#: algorithm is peeking at global knowledge it cannot have.
NONLOCAL_KNOWLEDGE_NAMES = {"graph", "network", "topology", "adjacency"}

#: Parameter names that receive injected randomness.
RNG_PARAM_NAMES = {"rng", "random_state", "rng_factory"}

#: Parameter names that count as "randomness is injected by the caller".
SEED_PARAM_NAMES = RNG_PARAM_NAMES | {"seed"}

#: Directories whose code is scaffolding, not library API: fixtures
#: there deliberately pin seeds or break contracts to test the
#: enforcement machinery.
SCAFFOLD_DIRS = {"tests", "benchmarks", "examples"}


def _parts(path: str) -> Set[str]:
    return set(PurePath(path).parts)


def _is_rng_implementation(path: str) -> bool:
    """Scaffolding, ``repro/runtime/`` or ``repro/rng.py``: the code
    that implements stream derivation, or only tests it."""
    parts = _parts(path)
    if (SCAFFOLD_DIRS | {"runtime"}) & parts:
        return True
    return PurePath(path).name == "rng.py" and "repro" in parts


def _is_unseeded(call: ast.Call) -> bool:
    return not call.args and not call.keywords


def _params(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    args = fn.args
    params = {arg.arg for arg in args.posonlyargs + args.args}
    params.update(arg.arg for arg in args.kwonlyargs)
    if args.vararg:
        params.add(args.vararg.arg)
    if args.kwarg:
        params.add(args.kwarg.arg)
    return params


@register
class GlobalRngRule(Rule):
    """R001: global or unseeded RNG use.

    Every random choice must flow through an injected, seeded
    ``numpy.random.Generator`` (or ``random.Random``); the legacy global
    samplers and unseeded constructors make runs depend on interpreter
    state, which breaks same-seed reproducibility.
    """

    rule_id = "R001"
    name = "global-rng"
    description = (
        "module-level/global RNG use: legacy samplers, unseeded "
        "constructors, or module-scope generator instances"
    )

    def check_module(
        self, program: Program, module: LintModule
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                yield from self._check_call(program, module, node)
        for stmt in module.tree.body:
            value = getattr(stmt, "value", None)
            if (
                isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign))
                and isinstance(value, ast.Call)
                and program.imported(module, value.func) in RNG_CONSTRUCTORS
            ):
                yield self.finding(
                    module, stmt,
                    "module-level RNG instance shares mutable state across "
                    "every caller — construct generators inside functions "
                    "from an explicit seed",
                )

    def _check_call(
        self, program: Program, module: LintModule, call: ast.Call
    ) -> Iterator[Finding]:
        name = program.imported(module, call.func)
        if name is None:
            return
        if name in RNG_CONSTRUCTORS and _is_unseeded(call):
            yield self.finding(
                module, call,
                f"unseeded `{name}()` — pass an explicit seed (or use "
                "repro.rng.resolve_rng) so runs are reproducible",
            )
            return
        head, _, tail = name.rpartition(".")
        if head == "random" and tail in STDLIB_SAMPLERS:
            yield self.finding(
                module, call,
                f"call to global `random.{tail}` — inject a seeded "
                "random.Random/numpy Generator instead",
            )
        elif head == "numpy.random" and tail not in NUMPY_RANDOM_ALLOWED:
            yield self.finding(
                module, call,
                f"call to legacy global `numpy.random.{tail}` — use a "
                "seeded numpy.random.Generator instead",
            )


def _local_bindings(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Names bound inside ``fn``: parameters plus any assignment target."""
    bound = _params(fn)
    for node in ast.walk(fn):
        if isinstance(node, ast.Name) and isinstance(
            node.ctx, (ast.Store, ast.Del)
        ):
            bound.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if node is not fn:
                bound.add(node.name)
    return bound


@register
class CongestModelRule(Rule):
    """R002: statically-detectable CONGEST violations in node algorithms.

    A ``NodeAlgorithm`` subclass sends what ``initialize``/``receive``
    return, and nodes often build that outbox in a helper.  So the rule
    reads ``initialize``/``receive`` and every method of the same class
    or function of the same module they call, transitively.  There, a
    payload tuple longer than ``MESSAGE_WORD_LIMIT`` words cannot fit in
    one O(log n)-bit message, and reading a module-global graph/network
    gives the node knowledge the model says it does not have.
    """

    rule_id = "R002"
    name = "congest-model"
    description = (
        "NodeAlgorithm.initialize/receive, or a same-class/same-module "
        "helper they call, builds an over-wide payload tuple or reads "
        "global graph/network state"
    )

    _METHODS = ("initialize", "receive")

    def check_module(
        self, program: Program, module: LintModule
    ) -> Iterator[Finding]:
        # A helper two node classes share is checked once.
        scope: Dict[int, ast.FunctionDef | ast.AsyncFunctionDef] = {}
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ClassDef) and program.extends(
                module, node, "NodeAlgorithm"
            ):
                self._add_send_scope(program, module, node, scope)
        for fn in sorted(scope.values(), key=lambda fn: fn.lineno):
            yield from self._check_function(module, fn)

    def _add_send_scope(
        self,
        program: Program,
        module: LintModule,
        cls: ast.ClassDef,
        scope: Dict[int, ast.FunctionDef | ast.AsyncFunctionDef],
    ) -> None:
        """Add ``initialize``/``receive`` of ``cls`` and the same-class
        methods and same-module functions they call, transitively."""
        methods = {
            item.name: item for item in cls.body
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        stack = [methods[name] for name in self._METHODS if name in methods]
        while stack:
            fn = stack.pop()
            if id(fn) in scope:
                continue
            scope[id(fn)] = fn
            for call in ast.walk(fn):
                if not isinstance(call, ast.Call):
                    continue
                name = qualified_name(call.func)
                if name is None:
                    continue
                if name.startswith("self."):
                    helper = methods.get(name[len("self."):])
                else:
                    target = program.resolve_local(module, name)
                    info = program.functions.get(target or "")
                    helper = info.node if (
                        info is not None and info.module is module
                    ) else None
                if helper is not None:
                    stack.append(helper)

    def _check_function(
        self, module: LintModule, fn: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> Iterator[Finding]:
        local = _local_bindings(fn)
        for node in ast.walk(fn):
            width = self._static_tuple_width(node)
            if width is not None and width > MESSAGE_WORD_LIMIT:
                yield self.finding(
                    module, node,
                    f"payload tuple of {width} words exceeds the "
                    f"{MESSAGE_WORD_LIMIT}-word CONGEST message budget "
                    f"in {fn.name}()",
                )
            elif (
                isinstance(node, ast.Name)
                and isinstance(node.ctx, ast.Load)
                and node.id.lower() in NONLOCAL_KNOWLEDGE_NAMES
                and node.id not in local
            ):
                yield self.finding(
                    module, node,
                    f"{fn.name}() reads global `{node.id}` — non-local "
                    "knowledge breaks the CONGEST model; nodes may only "
                    "use their NodeContext and received messages",
                )

    @staticmethod
    def _static_tuple_width(node: ast.AST) -> Optional[int]:
        """Length of a tuple whose size is statically known, else None."""
        if isinstance(node, ast.Tuple) and isinstance(node.ctx, ast.Load):
            if any(isinstance(elt, ast.Starred) for elt in node.elts):
                return None
            return len(node.elts)
        # tuple(range(k)) with a constant k
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "tuple"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Call)
            and isinstance(node.args[0].func, ast.Name)
            and node.args[0].func.id == "range"
            and len(node.args[0].args) == 1
            and isinstance(node.args[0].args[0], ast.Constant)
            and isinstance(node.args[0].args[0].value, int)
        ):
            return node.args[0].args[0].value
        return None


@register
class NondeterminismRule(Rule):
    """R003: wall-clock, entropy, or hash-order dependence.

    ``time.time``/``os.urandom``/``uuid.uuid4`` make a run depend on the
    environment; iterating a set directly makes it depend on hash
    randomisation.  Either way, same-seed runs stop being identical.
    """

    rule_id = "R003"
    name = "nondeterminism"
    description = (
        "wall-clock/entropy source, or direct iteration over a set"
    )

    def check_module(
        self, program: Program, module: LintModule
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call):
                name = program.imported(module, node.func)
                if name is not None and name in NONDETERMINISTIC_CALLS:
                    yield self.finding(
                        module, node,
                        f"`{name}` is nondeterministic — thread seeds/"
                        "counters through parameters instead",
                    )
            elif isinstance(node, ast.For):
                yield from self._check_iter(module, node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                for generator in node.generators:
                    yield from self._check_iter(module, generator.iter)

    def _check_iter(
        self, module: LintModule, iterable: ast.AST
    ) -> Iterator[Finding]:
        is_set_call = (
            isinstance(iterable, ast.Call)
            and isinstance(iterable.func, ast.Name)
            and iterable.func.id in {"set", "frozenset"}
        )
        if is_set_call or isinstance(iterable, ast.Set):
            yield self.finding(
                module, iterable,
                "iteration order over a set depends on hash "
                "randomisation — iterate `sorted(...)` instead",
            )


@register
class ExceptionHygieneRule(Rule):
    """R004: bare excepts and swallowed CongestViolation.

    A bare ``except:`` hides model violations (and KeyboardInterrupt); a
    handler that catches ``CongestViolation`` without re-raising turns a
    broken-model run into a silently wrong result.
    """

    rule_id = "R004"
    name = "exception-hygiene"
    description = "bare except, or CongestViolation caught and swallowed"

    def check_module(
        self, program: Program, module: LintModule
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    module, node,
                    "bare `except:` hides CONGEST violations and "
                    "KeyboardInterrupt — catch specific exceptions",
                )
                continue
            caught = self._caught_names(node.type)
            has_raise = any(
                isinstance(child, ast.Raise) for child in ast.walk(node)
            )
            if any(
                name.endswith("CongestViolation") for name in caught
            ) and not has_raise:
                yield self.finding(
                    module, node,
                    "CongestViolation caught without re-raise — a "
                    "swallowed model violation yields silently wrong "
                    "round/message counts",
                )
            elif self._is_silent_pass(node) and any(
                name in {"Exception", "BaseException"} for name in caught
            ):
                yield self.finding(
                    module, node,
                    f"`except {'/'.join(sorted(caught))}: pass` swallows "
                    "every error, including model violations",
                )

    @staticmethod
    def _caught_names(type_node: ast.AST) -> list[str]:
        nodes = (
            type_node.elts if isinstance(type_node, ast.Tuple)
            else [type_node]
        )
        names = []
        for node in nodes:
            name = qualified_name(node)
            if name:
                names.append(name)
        return names

    @staticmethod
    def _is_silent_pass(handler: ast.ExceptHandler) -> bool:
        return all(
            isinstance(stmt, ast.Pass)
            or (
                isinstance(stmt, ast.Expr)
                and isinstance(stmt.value, ast.Constant)
                and stmt.value.value is Ellipsis
            )
            for stmt in handler.body
        )


def _walk_own_body(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
) -> Iterator[ast.AST]:
    """Walk ``fn`` without descending into nested function definitions

    (nested functions are visited — and judged — on their own)."""
    stack: list[ast.AST] = list(fn.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


@register
class SeedParamRule(Rule):
    """R005: public function mints an RNG no caller can control.

    A public function that constructs its own generator from a constant
    (or from nothing) cannot be replayed under a different seed and hides
    randomness from the experiment harness: its signature must accept
    ``rng``/``seed`` (or derive the seed from its parameters/self).
    Scaffolding directories are exempt: a pinned literal seed there *is*
    the injected seed, the exact discipline this rule exists to enforce.
    """

    rule_id = "R005"
    name = "missing-seed-param"
    description = (
        "public library function constructs an RNG without an rng/seed "
        "parameter or a seed derived from its inputs"
    )

    def check_module(
        self, program: Program, module: LintModule
    ) -> Iterator[Finding]:
        if SCAFFOLD_DIRS & _parts(module.path):
            return
        for node in ast.walk(module.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            if node.name.startswith("_") or node.name.startswith("test"):
                # Private helpers inherit their caller's contract; pytest
                # entry points take no arguments, so their literal seeds
                # *are* the injected seeds.
                continue
            if self._is_fixture(program, module, node):
                continue
            params = _params(node)
            if params & SEED_PARAM_NAMES:
                continue
            for call in _walk_own_body(node):
                if not isinstance(call, ast.Call):
                    continue
                if program.imported(module, call.func) not in RNG_CONSTRUCTORS:
                    continue
                if self._derives_from(call, params):
                    continue
                yield self.finding(
                    module, call,
                    f"{node.name}() constructs an RNG the caller cannot "
                    "seed — add an `rng`/`seed` parameter and thread it "
                    "through",
                )

    @staticmethod
    def _is_fixture(
        program: Program,
        module: LintModule,
        fn: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> bool:
        """Pytest fixtures pin seeds by design."""
        for decorator in fn.decorator_list:
            target = decorator.func if isinstance(
                decorator, ast.Call
            ) else decorator
            dotted = qualified_name(target)
            if dotted and "fixture" in program.expand(module, dotted):
                return True
        return False

    @staticmethod
    def _derives_from(call: ast.Call, params: set[str]) -> bool:
        """True if any argument of ``call`` references a parameter."""
        sources = params | {"self", "cls"}
        arg_nodes = list(call.args) + [kw.value for kw in call.keywords]
        for arg in arg_nodes:
            for node in ast.walk(arg):
                if isinstance(node, ast.Name) and node.id in sources:
                    return True
        return False


@register
class TupleSeedRule(Rule):
    """R006: ad-hoc tuple-seed RNG derivation outside the runtime layer.

    ``np.random.default_rng((seed, k))`` derives sub-streams with magic
    offsets; every call site invents its own ``k``, and two sites that
    collide silently share a stream.  Stream derivation is centralised:
    use :func:`repro.rng.derive_rng` for integer labels or
    :meth:`repro.runtime.RunContext.stream` for named streams.  The
    implementation modules themselves (``repro/rng.py``,
    ``repro/runtime/``) and scaffolding dirs are exempt.
    """

    rule_id = "R006"
    name = "tuple-seed-derivation"
    description = (
        "RNG constructed from a raw tuple seed outside repro.rng/"
        "repro.runtime — use derive_rng or RunContext.stream"
    )

    def check_module(
        self, program: Program, module: LintModule
    ) -> Iterator[Finding]:
        if _is_rng_implementation(module.path):
            return
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            if program.imported(module, node.func) not in RNG_CONSTRUCTORS:
                continue
            if node.args and isinstance(node.args[0], ast.Tuple):
                yield self.finding(
                    module, node,
                    "raw tuple-seed RNG derivation — use "
                    "repro.rng.derive_rng(seed, k) for integer labels or "
                    "RunContext.stream(name) for named streams",
                )


@register
class StreamHygieneRule(Rule):
    """R007: a fault or chaos plan built off its managed stream.

    Fault sampling must draw from its own named stream, or enabling
    ``--faults`` would shift the draw sequence of every other stream and
    change the structure under test.  A ``FaultPlan`` may therefore only
    be constructed from :func:`repro.rng.derive_rng` or a
    ``RunContext.stream(...)``/``fresh_stream(...)`` call — never from a
    generator whose provenance the runtime does not manage.

    A ``ChaosPlan`` must in addition name the ``"chaos"`` stream
    literally in that call: a failure campaign decided by any other
    stream would consume a model stream's draws (so enabling chaos
    changes the run it attacks), and its fixed draws-per-request
    contract only aligns decisions with request indices if nothing else
    touches that stream.
    """

    rule_id = "R007"
    name = "stream-hygiene"
    description = (
        "FaultPlan/ChaosPlan constructed from an RNG that is not "
        "derive_rng(...) or a context .stream(...)/.fresh_stream(...) "
        "call (for ChaosPlan: one naming the 'chaos' stream)"
    )

    _STREAM_METHODS = {"stream", "fresh_stream"}

    #: plan class -> (stream its rng call must name, or None for any
    #: managed stream; how to build it; what the isolation protects)
    _PLANS: Dict[str, Tuple[Optional[str], str, str]] = {
        "FaultPlan": (
            None,
            "derive_rng(...) or context.stream('faults')",
            "--faults never perturbs any other stream",
        ),
        "ChaosPlan": (
            "chaos",
            "derive_rng(seed, stream_entropy('chaos')) or "
            "context.stream('chaos')",
            "a failure campaign never perturbs the run it attacks",
        ),
    }

    def check_module(
        self, program: Program, module: LintModule
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            plan = (qualified_name(node.func) or "").rsplit(".", 1)[-1]
            if plan not in self._PLANS:
                continue
            stream, hint, protects = self._PLANS[plan]
            rng_arg = self._rng_argument(node)
            if rng_arg is None:
                yield self.finding(
                    module, node,
                    f"{plan} constructed without an explicit rng — pass "
                    f"{hint}",
                )
            elif not self._is_managed_stream(rng_arg, stream):
                named = f" naming the '{stream}' stream" if stream else ""
                yield self.finding(
                    module, node,
                    f"{plan} rng must come straight from a "
                    "repro.rng.derive_rng(...) or context "
                    f".stream(...)/.fresh_stream(...) call{named} "
                    f"({hint}), so {protects}",
                )

    @staticmethod
    def _rng_argument(call: ast.Call) -> Optional[ast.AST]:
        for keyword in call.keywords:
            if keyword.arg == "rng":
                return keyword.value
        if len(call.args) >= 2:
            return call.args[1]
        return None

    @classmethod
    def _is_managed_stream(cls, node: ast.AST, stream: Optional[str]) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        if isinstance(func, ast.Name):
            managed = func.id == "derive_rng"
        elif isinstance(func, ast.Attribute):
            managed = func.attr == "derive_rng" or (
                func.attr in cls._STREAM_METHODS
            )
        else:
            managed = False
        if not managed:
            return False
        return stream is None or any(
            isinstance(child, ast.Constant) and child.value == stream
            for child in ast.walk(node)
        )


@register
class CrashStateRule(Rule):
    """R008: recovery code reading raw crash state.

    Self-healing code must learn about crashes the way a real system
    would — through the failure detector.  Reading ``FaultPlan.crashed``
    (or the private ``_crash_sets``/``_crash_entropy`` caches) outside
    ``repro/congest/`` gives recovery logic oracle knowledge the model
    does not grant and couples it to the fault-injection internals.
    Consume :class:`repro.congest.detector.CrashView` (via
    ``RunContext.crash_view_for`` or ``crash_view``) instead; inspecting
    the declarative ``plan.spec.crashes`` is fine.
    """

    rule_id = "R008"
    name = "raw-crash-state"
    description = (
        "crash state read via FaultPlan.crashed/_crash_sets outside "
        "repro/congest — consume the failure-detector CrashView instead"
    )

    _PRIVATE_ATTRS = {"_crash_sets", "_crash_entropy"}

    def check_module(
        self, program: Program, module: LintModule
    ) -> Iterator[Finding]:
        if "congest" in _parts(module.path):
            # The simulator and the detector are the two sanctioned
            # consumers; both live in repro/congest/.
            return
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "crashed"
            ):
                yield self.finding(
                    module, node,
                    "`.crashed(...)` hands recovery code the ground-truth "
                    "crash schedule — consume a failure-detector "
                    "CrashView (repro.congest.detector) instead",
                )
            elif (
                isinstance(node, ast.Attribute)
                and node.attr in self._PRIVATE_ATTRS
                and isinstance(node.ctx, ast.Load)
            ):
                yield self.finding(
                    module, node,
                    f"`.{node.attr}` is FaultPlan's private crash cache — "
                    "consume a failure-detector CrashView "
                    "(repro.congest.detector) instead",
                )


def _map_arguments(
    call: ast.Call, callee: FunctionInfo, bound: bool
) -> Iterator[Tuple[str, ast.AST]]:
    """Pair up ``call``'s arguments with ``callee``'s parameter names.

    ``bound`` drops the leading ``self``/``cls`` (method called on an
    instance, or a constructor resolved to ``__init__``).
    """
    params = callee.param_names()
    if bound and params and params[0] in ("self", "cls"):
        params = params[1:]
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return
        if index < len(params):
            yield params[index], arg
    for keyword in call.keywords:
        if keyword.arg is not None:
            yield keyword.arg, keyword.value


def _assign_targets(node: ast.AST) -> List[str]:
    """Plain-name targets of an assignment (tuple unpacking included)."""
    names: List[str] = []
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
        targets = [node.target]
    else:
        return names
    for target in targets:
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, (ast.Tuple, ast.List)):
            for element in target.elts:
                if isinstance(element, ast.Name):
                    names.append(element.id)
                elif isinstance(element, ast.Starred) and isinstance(
                    element.value, ast.Name
                ):
                    names.append(element.value.id)
    return names


def _mentions(node: ast.AST, names: Set[str]) -> bool:
    for child in ast.walk(node):
        if isinstance(child, ast.Name) and child.id in names:
            return True
    return False


@register
class RoundChargeRule(Rule):
    """R009: a function that runs rounds has a charge below it, or
    returns the count.

    Under ``congest/``, ``core/`` and ``runtime/``, a function that
    *executes rounds* — calls ``Network.run`` (directly, or
    transitively through the call graph), ``replay_walk_run`` or the
    array round executor — must do one of two things.  Either some call
    path below it (itself included) reaches a
    ``RoundLedger.charge``/``RunContext.charge``/``absorb_ledger``/
    ``slice_from`` call, or the round count flows into its return value
    (the pattern of the CONGEST primitives).  A function that does
    neither executes "free rounds" the paper's accounting never sees.

    That is all the rule proves.  Any charge anywhere below a function
    discharges it, whatever that charge counts, and a charge computed
    analytically (with no round executed under it) is not checked at
    all.
    """

    rule_id = "R009"
    name = "rounds-charged-or-returned"
    description = (
        "congest/core/runtime function executes CONGEST rounds, but no "
        "call path below it charges a ledger and it does not return "
        "the round count"
    )

    # ``slice_from`` is the session layer's accounting handoff: a
    # request handler that marks ``len(ctx.ledger)`` before running an
    # op and slices afterwards hands every executed round to the
    # per-request ledger view — same contract as charging directly.
    _CHARGE_ATTRS = {"charge", "absorb_ledger", "slice_from"}
    # _forward_steps_array is the array round executor (one-hop
    # forwarding): it plays the queue/wire dynamics without a Network,
    # so its rounds need the same coverage as a simulator run.
    _RUN_EXECUTORS = (
        "replay_walk_run",
        "_forward_steps_array",
    )
    # Serving ops invoked on a backend execute rounds behind an attribute
    # call the call graph cannot resolve; treat them as round sites so
    # session request handlers owe the same accounting (they pay it by
    # slicing the run ledger per request — see _CHARGE_ATTRS).
    _SERVE_OP_ATTRS = {"route", "mst", "min_cut", "clique"}

    def check(self, program: Program) -> Iterator[Finding]:
        direct: Dict[str, List[CallSite]] = {
            qual: self._direct_round_sites(program, fn)
            for qual, fn in program.functions.items()
        }
        # Round-executing closure: seed with direct executors, walk the
        # caller edges so "calls something that runs rounds" counts.
        round_funcs: Set[str] = {
            qual for qual, sites in direct.items() if sites
        }
        frontier = list(round_funcs)
        while frontier:
            callee = frontier.pop()
            for caller, _site in program.callers.get(callee, ()):
                if caller not in round_funcs:
                    round_funcs.add(caller)
                    frontier.append(caller)

        charges_direct = {
            qual for qual in program.functions
            if any(
                site.attr in self._CHARGE_ATTRS
                for site in program.calls.get(qual, ())
            )
        }

        def charges_somewhere(qual: Optional[str]) -> bool:
            return qual is not None and (
                qual in charges_direct
                or bool(charges_direct & program.transitive_callees(qual))
            )

        for qual, fn in program.functions.items():
            parts = _parts(fn.module.path)
            if SCAFFOLD_DIRS & parts:
                continue
            if not ({"congest", "core", "runtime"} & parts):
                continue
            # A callee that charges somewhere below discharges the
            # caller's obligation for that site.
            round_sites = direct[qual] + [
                site
                for site in program.calls.get(qual, ())
                if site.callee in round_funcs
                and not charges_somewhere(site.callee)
            ]
            if not round_sites:
                continue
            if charges_somewhere(qual):
                continue
            if self._exports_rounds(program, fn, direct[qual], round_funcs):
                continue
            for site in round_sites:
                yield self.finding(
                    fn.module, site.node,
                    f"{fn.name}() executes CONGEST rounds here but "
                    "neither charges a RoundLedger/RunContext nor "
                    "returns the round count — these rounds are "
                    "invisible to the paper's accounting (charge them, "
                    "return stats.rounds, or suppress citing the "
                    "charging site)",
                )

    def _direct_round_sites(
        self, program: Program, fn: FunctionInfo
    ) -> List[CallSite]:
        network_names = self._network_locals(program, fn)
        return [
            site for site in program.calls.get(fn.qualname, ())
            if self._is_direct_run(site, network_names)
        ]

    def _is_direct_run(
        self, site: CallSite, network_names: Set[str]
    ) -> bool:
        if site.callee is not None:
            tail = site.callee.rsplit(".", 1)[-1]
            if tail in self._RUN_EXECUTORS:
                return True
            if site.callee.endswith(".Network.run"):
                return True
        if site.attr == "run" and site.receiver is not None:
            root = site.receiver.split(".")[-1]
            return root in network_names
        if site.attr in self._SERVE_OP_ATTRS and site.receiver is not None:
            return site.receiver.split(".")[-1] == "backend"
        # Op-table dispatch (`spec.runner(backend, ...)`): the runner
        # executes whichever backend op the request named.
        return site.attr == "runner"

    @staticmethod
    def _network_locals(
        program: Program, fn: FunctionInfo
    ) -> Set[str]:
        """Names in ``fn`` statically known to hold a ``Network``:
        parameters annotated ``Network``, variables assigned from a
        ``Network(...)`` constructor, and the conventional name
        ``network`` itself."""
        names = {"network"}
        args = fn.node.args
        for arg in (
            list(args.posonlyargs) + list(args.args)
            + list(args.kwonlyargs)
        ):
            if arg.annotation is not None:
                rendered = qualified_name(arg.annotation) or ""
                expanded = program.expand(fn.module, rendered)
                if expanded.rsplit(".", 1)[-1] == "Network":
                    names.add(arg.arg)
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                ctor = qualified_name(node.value.func)
                if ctor is None:
                    continue
                expanded = program.expand(fn.module, ctor)
                if expanded.rsplit(".", 1)[-1] == "Network":
                    names.update(_assign_targets(node))
        return names

    @staticmethod
    def _exports_rounds(
        program: Program,
        fn: FunctionInfo,
        direct_sites: List[CallSite],
        round_funcs: Set[str],
    ) -> bool:
        """True when a rounds-bearing value reaches a ``return``.

        Within-function taint: results of round-executing calls seed the
        tainted set; plain assignments propagate it; a return whose
        expression mentions a tainted name (or is itself a
        round-executing call) exports the count to the caller.
        """
        round_call_ids = {id(site.node) for site in direct_sites} | {
            id(site.node)
            for site in program.calls.get(fn.qualname, ())
            if site.callee in round_funcs
        }

        def contains_round_call(node: ast.AST) -> bool:
            return any(
                id(child) in round_call_ids for child in ast.walk(node)
            )

        tainted: Set[str] = set()
        changed = True
        while changed:
            changed = False
            for node in ast.walk(fn.node):
                if not isinstance(
                    node, (ast.Assign, ast.AnnAssign, ast.AugAssign)
                ):
                    continue
                value = node.value
                if value is None:
                    continue
                if contains_round_call(value) or _mentions(
                    value, tainted
                ):
                    for name in _assign_targets(node):
                        if name not in tainted:
                            tainted.add(name)
                            changed = True
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Return) and node.value is not None:
                if contains_round_call(node.value) or _mentions(
                    node.value, tainted
                ):
                    return True
        return False


@register
class RngProvenanceRule(Rule):
    """R010: generators crossing call boundaries trace to managed seeds.

    The interprocedural upgrade of R006: a generator minted locally with
    ``np.random.default_rng(...)`` / ``random.Random(...)`` and then
    *passed to another function's* ``rng``-like parameter has untracked
    provenance — two such sites can silently share (or fail to share) a
    stream, and the run's draws stop being attributable to named
    streams.  Every generator argument must come from
    :func:`repro.rng.derive_rng`, :func:`repro.rng.resolve_rng`, a
    ``RunContext.stream(...)``/``fresh_stream(...)`` call, or the
    caller's own ``rng`` parameter (whose provenance is checked at *its*
    call sites, all the way up the call graph).
    """

    rule_id = "R010"
    name = "rng-provenance"
    description = (
        "locally-minted RNG passed to another function's rng parameter "
        "— derive it via derive_rng/resolve_rng or a RunContext stream"
    )

    def check(self, program: Program) -> Iterator[Finding]:
        for fn in program.functions.values():
            if not _is_rng_implementation(fn.module.path):
                yield from self._check_function(program, fn)

    def _check_function(
        self, program: Program, fn: FunctionInfo
    ) -> Iterator[Finding]:
        minted: Dict[str, str] = {}
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                ctor = self._minter_of(program, fn, node.value)
                if ctor is not None:
                    for name in _assign_targets(node):
                        minted[name] = ctor
        for site in program.calls.get(fn.qualname, ()):
            callee = program.functions.get(site.callee or "")
            if callee is None:
                continue
            bound = site.attr is not None or callee.name == "__init__"
            for param, arg in _map_arguments(site.node, callee, bound):
                if param not in RNG_PARAM_NAMES:
                    continue
                if isinstance(arg, ast.Name):
                    origin = minted.get(arg.id)
                elif isinstance(arg, ast.Call):
                    origin = self._minter_of(program, fn, arg)
                else:
                    origin = None
                if origin is None:
                    continue
                target = callee.qualname.rsplit(".", 2)[-2:]
                yield self.finding(
                    fn.module, site.node,
                    f"generator minted via `{origin}` flows into "
                    f"`{'.'.join(target)}({param}=...)` — its stream "
                    "has no managed provenance; derive it with "
                    "repro.rng.derive_rng/resolve_rng or a "
                    "RunContext stream so every draw traces to a "
                    "named seed",
                )

    @staticmethod
    def _minter_of(
        program: Program, fn: FunctionInfo, call: ast.Call
    ) -> Optional[str]:
        dotted = qualified_name(call.func)
        if dotted is None:
            return None
        expanded = program.expand(fn.module, dotted)
        return expanded if expanded in RNG_CONSTRUCTORS else None
