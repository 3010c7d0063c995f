"""The woltlint rule registry and the six WOLT-specific rules.

Every rule encodes one of the coding disciplines the PR-1 correctness
contracts (bit-identical batching, SeedSequence-derived parallel
determinism) silently depend on.  Rules are plain classes registered in
:data:`RULES`; adding a rule means subclassing :class:`Rule`, decorating
it with :func:`register`, and giving it a focused unit test (see
``docs/STATIC_ANALYSIS.md``).
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, List, Optional, Sequence, Type

from .findings import Finding

__all__ = ["Rule", "RULES", "register", "all_rule_codes",
           "UnseededRng", "SeedArithmetic", "ScalarEvalInLoop",
           "ReportMutation", "UnitSuffix", "SwallowedEngineException",
           "SwallowedTransportException", "NonAtomicPersistence",
           "UnsanitizedTelemetryScenario", "UnvalidatedIngest"]


def dotted_parts(node: ast.AST) -> Optional[List[str]]:
    """``a.b.c`` as ``["a", "b", "c"]``; None for non-name expressions."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return list(reversed(parts))
    return None


def _path_parts(path: str) -> List[str]:
    return path.replace("\\", "/").split("/")


class Rule:
    """Base class: one invariant, one code, one ``check`` pass."""

    code: str = ""
    name: str = ""
    description: str = ""
    rationale: str = ""

    def applies_to(self, path: str) -> bool:
        """Whether the rule runs on ``path`` (analysis-root relative)."""
        return True

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, path: str, node: ast.AST, message: str,
                fix: Optional[object] = None) -> Finding:
        return Finding(path=path, line=getattr(node, "lineno", 1),
                       col=getattr(node, "col_offset", 0),
                       rule=self.code, message=message, fix=fix)


class ProjectRule(Rule):
    """Base for whole-project rules (W010+): one pass over the model.

    Project rules see every analyzed file at once — the module graph,
    call graph, and per-function dataflow — instead of a single tree.
    Their findings still land on concrete file/line locations, so the
    per-line suppression and baseline machinery applies unchanged.
    """

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        return iter(())

    def check_project(self, context: "object") -> Iterator[Finding]:
        """Yield findings over a :class:`~.flowrules.ProjectContext`."""
        raise NotImplementedError


RULES: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not cls.code:
        raise ValueError(f"rule {cls.__name__} has no code")
    if cls.code in RULES:
        raise ValueError(f"duplicate rule code {cls.code}")
    RULES[cls.code] = cls
    return cls


def all_rule_codes() -> List[str]:
    return sorted(RULES)


# ---------------------------------------------------------------------------
# W001 — unseeded RNG


#: numpy legacy global-state sampling/seeding functions: any
#: ``np.random.<fn>`` call routes through the hidden global RandomState
#: and silently couples otherwise-independent components.
_GLOBAL_STATE_FNS = frozenset({
    "seed", "random", "rand", "randn", "randint", "random_sample",
    "random_integers", "sample", "ranf", "choice", "bytes", "shuffle",
    "permutation", "uniform", "normal", "standard_normal", "exponential",
    "poisson", "binomial", "beta", "gamma", "lognormal", "geometric",
})


@register
class UnseededRng(Rule):
    """``default_rng()`` with no seed, or any legacy global-state call."""

    code = "W001"
    name = "unseeded-rng"
    description = ("np.random.default_rng() without a seed, or a legacy "
                   "np.random.* global-state call")
    rationale = ("Every RNG must be seeded (or derived from a "
                 "SeedSequence) for trials to be reproducible and for "
                 "parallel runs to be bit-identical to serial runs.")

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            parts = dotted_parts(node.func)
            if parts is None:
                continue
            if parts[-1] == "default_rng" and not node.args \
                    and not node.keywords:
                yield self.finding(
                    path, node,
                    "unseeded default_rng() — pass an explicit seed or a "
                    "SeedSequence child so results are reproducible")
            elif (len(parts) >= 3 and parts[-3] in ("np", "numpy")
                    and parts[-2] == "random"
                    and parts[-1] in _GLOBAL_STATE_FNS):
                yield self.finding(
                    path, node,
                    f"legacy global-state call np.random.{parts[-1]}() — "
                    "use a seeded np.random.Generator instead")


# ---------------------------------------------------------------------------
# W002 — seed arithmetic


def _mentions_seed(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and "seed" in sub.id.lower():
            return True
        if isinstance(sub, ast.Attribute) and "seed" in sub.attr.lower():
            return True
    return False


@register
class SeedArithmetic(Rule):
    """Child seeds derived by arithmetic instead of SeedSequence.spawn."""

    code = "W002"
    name = "seed-arithmetic"
    description = ("default_rng()/SeedSequence() called with arithmetic "
                   "on a seed (e.g. seed + trial)")
    rationale = ("seed + k child streams overlap statistically and tie "
                 "results to loop order; SeedSequence.spawn gives "
                 "independent child streams and is what makes "
                 "workers=N bit-identical to serial.")

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            parts = dotted_parts(node.func)
            if parts is None or parts[-1] not in ("default_rng",
                                                  "SeedSequence"):
                continue
            values = list(node.args) + [kw.value for kw in node.keywords]
            for arg in values:
                has_binop = any(isinstance(sub, ast.BinOp)
                                for sub in ast.walk(arg))
                if has_binop and _mentions_seed(arg):
                    yield self.finding(
                        path, node,
                        f"{parts[-1]} seeded with seed arithmetic — "
                        "derive child seeds with "
                        "np.random.SeedSequence(seed).spawn(n) instead")
                    break


# ---------------------------------------------------------------------------
# W003 — scalar evaluate inside a candidate loop


@register
class ScalarEvalInLoop(Rule):
    """Scalar ``evaluate`` called inside a for/while on a hot path."""

    code = "W003"
    name = "scalar-eval-in-loop"
    description = ("scalar engine evaluate() inside a for/while loop in "
                   "core/, sim/ or fleet/ hot paths")
    rationale = ("Scoring candidates one evaluate() call per iteration "
                 "is the hot path the batched engine vectorized; use "
                 "evaluate_batch or a DeltaEvaluator (bit-identical by "
                 "contract) or suppress with a justification if the "
                 "loop is a reference oracle.  fleet/ is in scope "
                 "because the service's per-building compose runs in "
                 "the parent process on every epoch.")

    def applies_to(self, path: str) -> bool:
        return bool({"core", "sim", "fleet"}
                    & set(_path_parts(path)[:-1]))

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        rule = self
        findings: List[Finding] = []

        class Visitor(ast.NodeVisitor):
            def __init__(self) -> None:
                self.loop_depth = 0

            def _new_scope(self, node: ast.AST) -> None:
                saved, self.loop_depth = self.loop_depth, 0
                self.generic_visit(node)
                self.loop_depth = saved

            visit_FunctionDef = _new_scope
            visit_AsyncFunctionDef = _new_scope
            visit_Lambda = _new_scope

            def _loop(self, node: ast.AST) -> None:
                self.loop_depth += 1
                self.generic_visit(node)
                self.loop_depth -= 1

            visit_For = _loop
            visit_While = _loop
            visit_ListComp = _loop
            visit_SetComp = _loop
            visit_DictComp = _loop
            visit_GeneratorExp = _loop

            def visit_Call(self, node: ast.Call) -> None:
                parts = dotted_parts(node.func)
                if (self.loop_depth > 0 and parts is not None
                        and parts[-1] == "evaluate"):
                    findings.append(rule.finding(
                        path, node,
                        "scalar evaluate() inside a loop — score the "
                        "whole candidate batch with evaluate_batch()"))
                self.generic_visit(node)

        Visitor().visit(tree)
        return iter(findings)


# ---------------------------------------------------------------------------
# W004 — mutation of throughput reports


@register
class ReportMutation(Rule):
    """Attribute assignment to a ThroughputReport-like object."""

    code = "W004"
    name = "report-mutation"
    description = ("attribute assignment to a ThroughputReport / "
                   "BatchThroughputReport instance")
    rationale = ("Reports are frozen snapshots shared across search "
                 "code; mutating one (or bypassing frozen with "
                 "object.__setattr__) silently corrupts every holder.")

    @staticmethod
    def _is_report_expr(node: ast.AST) -> bool:
        if isinstance(node, ast.Name):
            return "report" in node.id.lower()
        if isinstance(node, ast.Attribute):
            return "report" in node.attr.lower()
        return False

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            targets: Sequence[ast.AST] = ()
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = (node.target,)
            elif isinstance(node, ast.Call):
                parts = dotted_parts(node.func)
                if (parts is not None and parts[-1] == "__setattr__"
                        and node.args
                        and self._is_report_expr(node.args[0])):
                    yield self.finding(
                        path, node,
                        "__setattr__ on a throughput report — reports "
                        "are frozen; build a new one instead")
                continue
            for target in targets:
                if isinstance(target, ast.Attribute) \
                        and self._is_report_expr(target.value):
                    yield self.finding(
                        path, node,
                        f"mutation of report attribute "
                        f"'.{target.attr}' — ThroughputReport and "
                        "BatchThroughputReport are frozen snapshots; "
                        "build a new report instead")


# ---------------------------------------------------------------------------
# W005 — Mbps unit suffix


#: Substrings that mark a float as a link-throughput quantity.
_UNIT_WORDS = ("throughput", "capacity", "tput", "bandwidth", "goodput")


def _is_float_annotation(annotation: Optional[ast.AST]) -> bool:
    if annotation is None:
        return False
    if isinstance(annotation, ast.Name):
        return annotation.id == "float"
    if isinstance(annotation, ast.Constant):
        return annotation.value == "float"
    return False


def _needs_suffix(name: str) -> bool:
    lowered = name.lower()
    return (any(word in lowered for word in _UNIT_WORDS)
            and not lowered.endswith("_mbps"))


@register
class UnitSuffix(Rule):
    """Float throughput/capacity names must end in ``_mbps``."""

    code = "W005"
    name = "unit-suffix"
    description = ("float-typed throughput/capacity parameter or field "
                   "without a _mbps suffix")
    rationale = ("Mixing Mbps with other units is invisible to the type "
                 "checker; the suffix convention makes the unit part of "
                 "every signature.  Established result-API names may "
                 "carry a documented inline exemption.")

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = (list(node.args.posonlyargs) + list(node.args.args)
                        + list(node.args.kwonlyargs))
                for arg in args:
                    if _is_float_annotation(arg.annotation) \
                            and _needs_suffix(arg.arg):
                        yield self.finding(
                            path, arg,
                            f"float parameter '{arg.arg}' carries a "
                            "throughput/capacity value — name it "
                            f"'{arg.arg}_mbps' (or document an "
                            "exemption)")
            elif isinstance(node, ast.ClassDef):
                for stmt in node.body:
                    if isinstance(stmt, ast.AnnAssign) \
                            and isinstance(stmt.target, ast.Name) \
                            and _is_float_annotation(stmt.annotation) \
                            and _needs_suffix(stmt.target.id):
                        yield self.finding(
                            path, stmt,
                            f"float field '{stmt.target.id}' carries a "
                            "throughput/capacity value — name it "
                            f"'{stmt.target.id}_mbps' (or document an "
                            "exemption)")


# ---------------------------------------------------------------------------
# W006 — swallowed exceptions in the engine / sharing laws


#: Analysis-root-relative path suffixes the rule guards.
_ENGINE_SUFFIXES = ("net/engine.py", "plc/sharing.py", "wifi/sharing.py")


@register
class SwallowedEngineException(Rule):
    """Bare/broad except that swallows errors in the throughput engine."""

    code = "W006"
    name = "bare-except-in-engine"
    description = ("bare except, or broad except that swallows the "
                   "exception, in the engine/sharing-law modules")
    rationale = ("The engine and the two sharing laws are the ground "
                 "truth every policy is scored against; a swallowed "
                 "exception there turns a wrong number into a silent "
                 "wrong answer.")

    def applies_to(self, path: str) -> bool:
        normalized = path.replace("\\", "/")
        return any(normalized.endswith(suffix)
                   for suffix in _ENGINE_SUFFIXES)

    @staticmethod
    def _is_broad(handler: ast.ExceptHandler) -> bool:
        parts = (dotted_parts(handler.type)
                 if handler.type is not None else None)
        return parts is not None and parts[-1] in ("Exception",
                                                   "BaseException")

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.ExceptHandler):
                continue
            if node.type is None:
                yield self.finding(
                    path, node,
                    "bare except in an engine module — catch the "
                    "specific exception and re-raise or report it")
            elif self._is_broad(node):
                reraises = any(isinstance(sub, ast.Raise)
                               for sub in ast.walk(node))
                if not reraises:
                    yield self.finding(
                        path, node,
                        "broad except swallows the exception in an "
                        "engine module — narrow it or re-raise")


# ---------------------------------------------------------------------------
# W007 — swallowed exceptions around control-plane transport calls


#: Method names of the :class:`repro.core.controller.Transport` seam.
_TRANSPORT_METHODS = frozenset({
    "observe_report", "deliver_directive", "handoff_succeeds",
    "backoff_s",
})


def _calls_transport(stmts: Sequence[ast.stmt]) -> bool:
    for stmt in stmts:
        for sub in ast.walk(stmt):
            if not isinstance(sub, ast.Call):
                continue
            parts = dotted_parts(sub.func)
            if parts is None:
                continue
            if parts[-1] in _TRANSPORT_METHODS \
                    or "transport" in parts[:-1]:
                return True
    return False


@register
class SwallowedTransportException(Rule):
    """Bare/broad except that swallows errors around transport calls."""

    code = "W007"
    name = "swallowed-transport-exception"
    description = ("bare except, or broad except that does not "
                   "re-raise, around a control-plane transport call")
    rationale = ("The controller's directive retry path must re-raise "
                 "on exhaustion; an `except Exception` that swallows a "
                 "transport error silently desynchronizes the CC's "
                 "view of the network from the clients' real "
                 "associations.")

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Try):
                continue
            if not _calls_transport(node.body):
                continue
            for handler in node.handlers:
                if handler.type is None:
                    yield self.finding(
                        path, handler,
                        "bare except around a transport call — catch "
                        "the specific exception and re-raise on "
                        "exhaustion")
                elif SwallowedEngineException._is_broad(handler):
                    reraises = any(isinstance(sub, ast.Raise)
                                   for sub in ast.walk(handler))
                    if not reraises:
                        yield self.finding(
                            path, handler,
                            "broad except swallows a transport error — "
                            "the retry path must re-raise on "
                            "exhaustion")


# ---------------------------------------------------------------------------
# W008 — non-atomic result persistence


#: Name fragments that mark an expression as a results/checkpoint path.
_PERSIST_WORDS = ("result", "checkpoint", "journal", "snapshot",
                  "output", "history", "trace", "baseline", "bench")

#: Function-name prefixes that mark the enclosing function as a
#: persistence routine (its writes land on a results path even when the
#: path variable has a neutral name).
_PERSIST_FN_PREFIXES = ("save", "write", "dump", "persist", "store")


def _mentions_persist_word(node: ast.AST) -> bool:
    for sub in ast.walk(node):
        name = None
        if isinstance(sub, ast.Name):
            name = sub.id
        elif isinstance(sub, ast.Attribute):
            name = sub.attr
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            name = sub.value
        if name is not None and any(word in name.lower()
                                    for word in _PERSIST_WORDS):
            return True
    return False


def _is_persistence_fn(name: Optional[str]) -> bool:
    if name is None:
        return False
    lowered = name.lower()
    if "atomic" in lowered:
        # The atomic-write helpers themselves (and any *_atomic wrapper)
        # are the sanctioned implementation, not a violation.
        return False
    return lowered.startswith(_PERSIST_FN_PREFIXES)


def _write_mode(call: ast.Call) -> bool:
    """Whether an ``open`` call truncates (mode contains ``w``)."""
    mode: Optional[ast.AST] = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return False
    return (isinstance(mode, ast.Constant)
            and isinstance(mode.value, str) and "w" in mode.value)


@register
class NonAtomicPersistence(Rule):
    """Results/checkpoints written without the atomic-write helper."""

    code = "W008"
    name = "non-atomic-persistence"
    description = ("open(path, 'w') / write_text / json.dump onto a "
                   "results or checkpoint path outside the atomic-write "
                   "helper")
    rationale = ("A crash between truncate and flush leaves a torn "
                 "results file that a resumed sweep would trust; route "
                 "result persistence through "
                 "repro.sim.checkpoint.atomic_write_text/_json "
                 "(temp file + os.replace) or an append-only "
                 "TrialStore journal.")

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        rule = self
        findings: List[Finding] = []

        class Visitor(ast.NodeVisitor):
            def __init__(self) -> None:
                self.fn_stack: List[str] = []

            def _visit_fn(self, node: ast.AST) -> None:
                self.fn_stack.append(node.name)
                self.generic_visit(node)
                self.fn_stack.pop()

            visit_FunctionDef = _visit_fn
            visit_AsyncFunctionDef = _visit_fn

            def _in_atomic_helper(self) -> bool:
                return any("atomic" in name.lower()
                           for name in self.fn_stack)

            def _in_persistence_fn(self) -> bool:
                return bool(self.fn_stack) and \
                    _is_persistence_fn(self.fn_stack[-1])

            def visit_Call(self, node: ast.Call) -> None:
                self.generic_visit(node)
                if self._in_atomic_helper():
                    return
                parts = dotted_parts(node.func)
                if parts is not None:
                    tail = parts[-1]
                elif isinstance(node.func, ast.Attribute):
                    # e.g. Path(path).write_text(...) — the receiver is
                    # a call, so there is no dotted-name chain.
                    tail = node.func.attr
                    parts = ["<expr>", tail]
                else:
                    return
                if tail == "open" and node.args and _write_mode(node):
                    if _mentions_persist_word(node.args[0]) \
                            or self._in_persistence_fn():
                        findings.append(rule.finding(
                            path, node,
                            "open(..., 'w') truncates a results/"
                            "checkpoint file in place — a crash here "
                            "tears it; write through "
                            "atomic_write_text/atomic_write_json"))
                elif tail == "write_text" and len(parts) >= 2:
                    target = node.func.value \
                        if isinstance(node.func, ast.Attribute) else None
                    if (target is not None
                            and _mentions_persist_word(target)) \
                            or self._in_persistence_fn():
                        findings.append(rule.finding(
                            path, node,
                            "write_text onto a results/checkpoint "
                            "path is not atomic — a crash mid-write "
                            "tears the file; use atomic_write_text"))
                elif tail == "dump" and len(parts) >= 2 \
                        and parts[-2] == "json" and len(node.args) >= 2 \
                        and _mentions_persist_word(node.args[1]):
                    findings.append(rule.finding(
                        path, node,
                        "json.dump straight onto a results/checkpoint "
                        "handle is not atomic — serialize first and "
                        "write through atomic_write_json"))

        Visitor().visit(tree)
        return iter(findings)


# ---------------------------------------------------------------------------
# W009 — Scenario built from unsanitized telemetry


#: Name fragments that mark data as coming from live telemetry (scan
#: reports, capacity probes, driver readouts) rather than synthesis.
_TELEMETRY_WORDS = ("report", "scan", "telemetry", "measured", "readout")

#: Name fragments whose presence in the same function shows the
#: telemetry is being checked or sanitized before use.
_SANITIZER_WORDS = ("isfinite", "nan_to_num", "sanitize", "guard",
                    "check", "validate")


def _identifiers(node: ast.AST) -> Iterator[str]:
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield sub.name


def _mentions_any(names: Iterator[str],
                  words: Sequence[str]) -> bool:
    return any(any(word in name.lower() for word in words)
               for name in names)


@register
class UnsanitizedTelemetryScenario(Rule):
    """``Scenario(...)`` built from telemetry with no finiteness check."""

    code = "W009"
    name = "unsanitized-telemetry-scenario"
    description = ("Scenario(...) constructed from telemetry-derived "
                   "data (report/scan/telemetry/measured names) in a "
                   "function with no finiteness or sanitation check")
    rationale = ("Scenario.__post_init__ rejects non-finite rates, so "
                 "a NaN scan report crashes the control loop at "
                 "construction time — far from the telemetry that "
                 "caused it.  A function that turns telemetry into a "
                 "Scenario must gate it first (np.isfinite / "
                 "nan_to_num / DecisionGuard.sanitize_rates / an "
                 "explicit validate step).")

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            if _mentions_any(_identifiers(node), _SANITIZER_WORDS):
                continue
            fn_telemetry = any(
                word in node.name.lower() for word in _TELEMETRY_WORDS
            ) or any(word in arg.arg.lower()
                     for word in _TELEMETRY_WORDS
                     for arg in (list(node.args.posonlyargs)
                                 + list(node.args.args)
                                 + list(node.args.kwonlyargs)))
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                parts = dotted_parts(sub.func)
                if parts is None or parts[-1] != "Scenario":
                    continue
                args = list(sub.args) + [kw.value
                                         for kw in sub.keywords]
                arg_telemetry = any(
                    _mentions_any(_identifiers(arg),
                                  _TELEMETRY_WORDS) for arg in args)
                if fn_telemetry or arg_telemetry:
                    yield self.finding(
                        path, sub,
                        "Scenario built from telemetry-derived data "
                        "with no finiteness gate in sight — check "
                        "np.isfinite (or route through "
                        "DecisionGuard.sanitize_rates) before "
                        "construction, or a NaN report crashes the "
                        "control loop here")


# ---------------------------------------------------------------------------
# W014 — unbounded dispatch


#: The chunked-dispatch entry points that accept a per-item deadline.
_DISPATCH_FNS = frozenset({"dispatch_chunked", "run_chunked"})


@register
class UnboundedDispatch(Rule):
    """Chunked dispatch without an explicit per-item deadline."""

    code = "W014"
    name = "unbounded-dispatch"
    description = ("dispatch_chunked()/run_chunked() call without a "
                   "timeout_s argument")
    rationale = ("A dispatch with no deadline waits on its slowest "
                 "item forever: one hung worker stalls the whole "
                 "batch (and, in the fleet service, the whole epoch). "
                 "Pass timeout_s — or timeout_s=None at the call site "
                 "to record that unbounded waiting is intentional "
                 "(e.g. the serial path, where there is no process "
                 "to reap across).")

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            parts = dotted_parts(node.func)
            if parts is None or parts[-1] not in _DISPATCH_FNS:
                continue
            if any(kw.arg == "timeout_s" or kw.arg is None
                   for kw in node.keywords):
                # Explicit timeout (even None) or a **kwargs splat
                # that may carry one: the author made a choice.
                continue
            yield self.finding(
                path, node,
                f"{parts[-1]}() without timeout_s — a hung worker "
                "stalls this batch forever; pass a deadline, or "
                "timeout_s=None to mark unbounded waiting as "
                "deliberate")


# ---------------------------------------------------------------------------
# W015 — unvalidated ingest


#: Deserializers whose output is untrusted external data.
_DESERIALIZER_FNS = frozenset({"loads", "load", "safe_load",
                               "full_load", "unsafe_load"})

#: Name fragments whose presence in the same function shows the
#: deserialized payload passes through a validation layer before it
#: reaches a trusted sink.
_VALIDATOR_WORDS = ("validate", "decode", "classify", "sanitize",
                    "schema", "isfinite", "reject", "require",
                    "_take", "check", "verify", "quarantine")


def _is_deserializer(call: ast.Call) -> bool:
    parts = dotted_parts(call.func)
    if parts is None or parts[-1] not in _DESERIALIZER_FNS:
        return False
    # Bare load()/loads() of unknown provenance counts too, but the
    # canonical shapes are json.loads / yaml.safe_load.
    return len(parts) == 1 or parts[-2] in ("json", "yaml")


def _ingest_sink(call: ast.Call) -> Optional[str]:
    """Name a trusted sink this call feeds, or ``None``."""
    parts = dotted_parts(call.func)
    if parts is None:
        return None
    if parts[-1] == "Scenario":
        return "Scenario(...)"
    if parts[-1] == "fingerprint":
        return "fingerprint(...)"
    if (parts[-1] in ("append", "append_event") and len(parts) >= 2
            and any(word in parts[-2].lower()
                    for word in ("store", "journal"))):
        return f"{parts[-2]}.{parts[-1]}(...)"
    return None


@register
class UnvalidatedIngest(Rule):
    """Deserialized external data flowing into a trusted sink unvetted."""

    code = "W015"
    name = "unvalidated-ingest"
    description = ("json.loads()/yaml.safe_load() output reaching a "
                   "Scenario, a fingerprinted journal append, or "
                   "fingerprint() in a function with no validation "
                   "step")
    rationale = ("Deserialized bytes are attacker-shaped: one NaN, "
                 "bool-as-int, or missing key that reaches "
                 "Scenario(...) or a fingerprinted journal poisons "
                 "the control loop (or the journal's identity) far "
                 "from the read that caused it.  Ingest boundaries "
                 "must classify/validate every record first — see "
                 "repro.fleet.ingest for the reference shape.")

    def check(self, tree: ast.AST, path: str) -> Iterator[Finding]:
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef,
                                     ast.AsyncFunctionDef)):
                continue
            if _mentions_any(_identifiers(node), _VALIDATOR_WORDS):
                continue
            tainted: set = set()
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Assign):
                    continue
                if not (isinstance(sub.value, ast.Call)
                        and _is_deserializer(sub.value)):
                    continue
                for target in sub.targets:
                    if isinstance(target, ast.Name):
                        tainted.add(target.id)
            if not tainted:
                continue
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                sink = _ingest_sink(sub)
                if sink is None:
                    continue
                args = list(sub.args) + [kw.value
                                         for kw in sub.keywords]
                if any(name in tainted
                       for arg in args
                       for name in _identifiers(arg)):
                    yield self.finding(
                        path, sub,
                        f"deserialized payload reaches {sink} with "
                        "no validation step in this function — "
                        "classify/validate the record first (see "
                        "repro.fleet.ingest), or a malformed read "
                        "poisons the trusted state here")
