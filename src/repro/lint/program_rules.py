"""Interprocedural ``reprolint`` rules (R009–R011).

These rules run on the :class:`~repro.lint.program.Program` call graph
rather than one file at a time, because the contracts they enforce only
exist across call boundaries:

* **R009** — every executed CONGEST round is charged to the ledger (or
  its count is handed to the caller), on every call chain;
* **R010** — every generator handed to an ``rng`` parameter traces back
  to :func:`repro.rng.derive_rng` / a ``RunContext`` stream, however
  many call layers it crosses;
* **R011** — statically over-wide payloads cannot sneak into a send by
  being built in a helper one call away.

See ``docs/linting.md`` for the catalogue entries with the paper-level
rationale.
"""

from __future__ import annotations

import ast
from pathlib import PurePath
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from ..congest.network import MESSAGE_WORD_LIMIT
from .engine import Finding, qualified_name
from .program import CallSite, FunctionInfo, Program, ProgramRule
from .rules import CongestModelRule

__all__ = [
    "PROGRAM_RULES",
    "get_program_rules",
    "register_program",
]

PROGRAM_RULES: Dict[str, ProgramRule] = {}

#: Directories whose code is scaffolding: fixtures there deliberately
#: violate contracts to test the enforcement machinery.
SCAFFOLD_DIRS = {"tests", "benchmarks", "examples"}

#: Generator-minting constructors (import-alias-expanded spellings).
RNG_MINTERS = {
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "random.Random",
}

#: Parameter names that receive injected randomness.
RNG_PARAM_NAMES = {"rng", "random_state", "rng_factory"}

#: Parameter names that receive a CONGEST message payload.
PAYLOAD_PARAM_NAMES = {"payload", "message", "msg"}


def register_program(cls: type) -> type:
    """Class decorator: instantiate and register a program rule."""
    rule = cls()
    PROGRAM_RULES[rule.rule_id] = rule
    return cls


def get_program_rules(
    disable: Sequence[str] = (),
) -> List[ProgramRule]:
    disabled = {rule_id.upper() for rule_id in disable}
    return [
        rule for rule_id, rule in sorted(PROGRAM_RULES.items())
        if rule_id not in disabled
    ]


def _parts(path: str) -> Set[str]:
    return set(PurePath(path).parts)


def _is_scaffold(path: str) -> bool:
    return bool(SCAFFOLD_DIRS & _parts(path))


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


@register_program
class LedgerCoverageRule(ProgramRule):
    """R009: rounds under ``congest/``/``core/``/``runtime/`` reach a charge.

    A function that *executes rounds* — calls ``Network.run`` (directly,
    or transitively through the call graph), ``replay_walk_run`` or one
    of the array round executors —
    must account for them one of two ways: reach a
    ``RoundLedger.charge``/``RunContext.charge``/``absorb_ledger`` call
    (in itself or a transitive callee), or *export* the round count to
    its caller (the ``RunStats`` / rounds value flows into its return
    value, the pattern of the CONGEST primitives).  A function that does
    neither executes "free rounds": wall-clock work the paper's round
    accounting never sees, which would falsify the headline budgets.
    """

    rule_id = "R009"
    name = "ledger-coverage"
    description = (
        "congest/core/runtime function executes CONGEST rounds but "
        "neither charges a ledger nor returns the round count to its "
        "caller"
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
            qual
            for qual, fn in program.functions.items()
            if self._charges_directly(program, qual)
        }

        def charges_somewhere(qual: str) -> bool:
            if qual in charges_direct:
                return True
            return bool(
                charges_direct & program.transitive_callees(qual)
            )

        for qual, fn in program.functions.items():
            parts = _parts(fn.module.path)
            if _is_scaffold(fn.module.path):
                continue
            if not ({"congest", "core", "runtime"} & parts):
                continue
            round_sites = direct[qual] + [
                site
                for site in program.calls.get(qual, ())
                if site.callee in round_funcs
                and not self._callee_is_accounted(
                    program, site.callee, charges_somewhere
                )
            ]
            if not round_sites:
                continue
            if charges_somewhere(qual):
                continue
            if self._exports_rounds(program, fn, round_funcs):
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

    # A callee that charges internally (or exports nothing because it
    # charges) discharges the caller's obligation for that site.
    @staticmethod
    def _callee_is_accounted(
        program: Program, callee: Optional[str], charges_somewhere
    ) -> bool:
        return callee is not None and charges_somewhere(callee)

    def _charges_directly(self, program: Program, qual: str) -> bool:
        for site in program.calls.get(qual, ()):
            if site.attr in self._CHARGE_ATTRS:
                return True
        return False

    def _direct_round_sites(
        self, program: Program, fn: FunctionInfo
    ) -> List[CallSite]:
        network_names = self._network_locals(program, fn)
        sites = []
        for site in program.calls.get(fn.qualname, ()):
            if self._is_direct_run(program, fn, site, network_names):
                sites.append(site)
        return sites

    def _is_direct_run(
        self,
        program: Program,
        fn: FunctionInfo,
        site: CallSite,
        network_names: Set[str],
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
        if site.attr == "runner":
            return True
        return False

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

    def _exports_rounds(
        self,
        program: Program,
        fn: FunctionInfo,
        round_funcs: Set[str],
    ) -> bool:
        """True when a rounds-bearing value reaches a ``return``.

        Within-function taint: results of round-executing calls seed the
        tainted set; plain assignments propagate it; a return whose
        expression mentions a tainted name (or is itself a
        round-executing call) exports the count to the caller.
        """
        network_names = self._network_locals(program, fn)
        round_calls = [
            site.node
            for site in program.calls.get(fn.qualname, ())
            if self._is_direct_run(program, fn, site, network_names)
            or site.callee in round_funcs
        ]
        round_call_ids = {id(node) for node in round_calls}

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


@register_program
class RngProvenanceRule(ProgramRule):
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

    _EXEMPT_DIRS = SCAFFOLD_DIRS | {"runtime"}

    def check(self, program: Program) -> Iterator[Finding]:
        for qual, fn in program.functions.items():
            path = fn.module.path
            if self._EXEMPT_DIRS & _parts(path):
                continue
            pure = PurePath(path)
            if pure.name == "rng.py" and "repro" in pure.parts:
                continue
            yield from self._check_function(program, fn)

    def _check_function(
        self, program: Program, fn: FunctionInfo
    ) -> Iterator[Finding]:
        minted = self._minted_names(program, fn)
        for site in program.calls.get(fn.qualname, ()):
            callee = (
                program.functions.get(site.callee)
                if site.callee else None
            )
            if callee is None:
                continue
            bound = site.attr is not None or (
                callee.name == "__init__"
            )
            for param, arg in _map_arguments(site.node, callee, bound):
                if param not in RNG_PARAM_NAMES:
                    continue
                origin = self._mint_origin(program, fn, arg, minted)
                if origin is None:
                    continue
                target = site.callee.rsplit(".", 2)[-2:]
                yield self.finding(
                    fn.module, site.node,
                    f"generator minted via `{origin}` flows into "
                    f"`{'.'.join(target)}({param}=...)` — its stream "
                    "has no managed provenance; derive it with "
                    "repro.rng.derive_rng/resolve_rng or a "
                    "RunContext stream so every draw traces to a "
                    "named seed",
                )

    def _minted_names(
        self, program: Program, fn: FunctionInfo
    ) -> Dict[str, str]:
        """Local names bound to a raw RNG constructor result."""
        minted: Dict[str, str] = {}
        for node in ast.walk(fn.node):
            if isinstance(node, ast.Assign) and isinstance(
                node.value, ast.Call
            ):
                ctor = self._minter_of(program, fn, node.value)
                if ctor is not None:
                    for name in _assign_targets(node):
                        minted[name] = ctor
        return minted

    @staticmethod
    def _minter_of(
        program: Program, fn: FunctionInfo, call: ast.Call
    ) -> Optional[str]:
        dotted = qualified_name(call.func)
        if dotted is None:
            return None
        expanded = program.expand(fn.module, dotted)
        return expanded if expanded in RNG_MINTERS else None

    def _mint_origin(
        self,
        program: Program,
        fn: FunctionInfo,
        arg: ast.AST,
        minted: Dict[str, str],
    ) -> Optional[str]:
        if isinstance(arg, ast.Name):
            return minted.get(arg.id)
        if isinstance(arg, ast.Call):
            return self._minter_of(program, fn, arg)
        return None


@register_program
class MessageSizeFlowRule(ProgramRule):
    """R011: over-wide payloads caught across call boundaries.

    R002 sees a 6-word tuple built *inside* ``receive``; it cannot see
    one built by a helper and returned, or passed into a ``payload``
    parameter.  This rule propagates static tuple widths through the
    call graph: a call that passes a statically over-wide tuple to a
    ``payload``/``message`` parameter, or a NodeAlgorithm
    ``initialize``/``receive`` calling a helper whose return is
    statically wider than ``MESSAGE_WORD_LIMIT``, is flagged — the
    simulator would reject the send at runtime, but only on executed
    paths.
    """

    rule_id = "R011"
    name = "message-size-flow"
    description = (
        "payload wider than MESSAGE_WORD_LIMIT words flowing into a "
        "send across a call boundary"
    )

    _METHODS = {"initialize", "receive"}

    def check(self, program: Program) -> Iterator[Finding]:
        widths = self._return_widths(program)
        for qual, fn in program.functions.items():
            if _is_scaffold(fn.module.path):
                continue
            yield from self._check_payload_args(program, fn)
            if (
                fn.class_qualname
                and fn.name in self._METHODS
                and program.class_is(fn.class_qualname, "NodeAlgorithm")
            ):
                yield from self._check_helper_widths(
                    program, fn, widths
                )

    @staticmethod
    def _return_widths(program: Program) -> Dict[str, int]:
        """Max *statically known* tuple width returned per function."""
        widths: Dict[str, int] = {}
        for qual, fn in program.functions.items():
            best = 0
            for node in ast.walk(fn.node):
                if isinstance(node, ast.Return) and node.value is not None:
                    width = CongestModelRule._static_tuple_width(
                        node.value
                    )
                    if width is not None:
                        best = max(best, width)
            if best:
                widths[qual] = best
        return widths

    def _check_payload_args(
        self, program: Program, fn: FunctionInfo
    ) -> Iterator[Finding]:
        for site in program.calls.get(fn.qualname, ()):
            callee = (
                program.functions.get(site.callee)
                if site.callee else None
            )
            if callee is None:
                continue
            bound = site.attr is not None or callee.name == "__init__"
            for param, arg in _map_arguments(site.node, callee, bound):
                if param not in PAYLOAD_PARAM_NAMES:
                    continue
                width = CongestModelRule._static_tuple_width(arg)
                if width is not None and width > MESSAGE_WORD_LIMIT:
                    yield self.finding(
                        fn.module, site.node,
                        f"{width}-word tuple passed to "
                        f"`{callee.name}({param}=...)` exceeds the "
                        f"{MESSAGE_WORD_LIMIT}-word CONGEST message "
                        "budget one call away from the send",
                    )

    def _check_helper_widths(
        self,
        program: Program,
        fn: FunctionInfo,
        widths: Dict[str, int],
    ) -> Iterator[Finding]:
        for site in program.calls.get(fn.qualname, ()):
            if site.callee is None:
                continue
            width = widths.get(site.callee)
            if width is not None and width > MESSAGE_WORD_LIMIT:
                helper = site.callee.rsplit(".", 1)[-1]
                yield self.finding(
                    fn.module, site.node,
                    f"{fn.name}() calls {helper}(), whose return is a "
                    f"statically {width}-word tuple — wider than the "
                    f"{MESSAGE_WORD_LIMIT}-word CONGEST message budget "
                    "if sent",
                )
