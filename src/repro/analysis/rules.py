"""The rule catalogue: AST checks for the engine's stated invariants.

Every rule here enforces a contract the runtime equivalence tests can
only probe probabilistically — RNG placement, lock discipline, iteration
determinism, taxonomy completeness.  Rules are :class:`Rule` subclasses
with a stable ``code``; :func:`default_rules` builds the registry a lint
run executes.  All configuration (which files are worker-executed, which
classes are lock-guarded, which scopes metrics may use) lives in
:class:`LintConfig`, addressed by path *suffix* so test fixtures can
reproduce the layout under a temporary directory.

The catalogue (see ``repro lint --list-rules``):

======  ==========================  =========================================
code    name                        contract
======  ==========================  =========================================
REP000  syntax-error                the file must parse (framework)
REP101  worker-rng                  no RNG construction in (or global-state
                                    RNG reachable from) worker-executed
                                    modules; growth is the only RNG and runs
                                    scheduler-side
REP102  fingerprint-purity          fingerprint/token functions are pure:
                                    no time, id(), hash(), uuid or RNG
REP103  worker-growth               worker-executed modules never call the
                                    grow*/initialise lifecycle (scheduler-only)
REP201  unlocked-shared-write       writes to ``self._*`` shared state of
                                    guarded classes happen under a lock
REP202  lock-order-cycle            the lock acquisition-order graph is
                                    acyclic (and never re-entered)
REP301  unordered-set-iteration     sets never feed ordered outputs without
                                    ``sorted`` in deterministic paths
REP401  metric-naming               MetricsScope registrations resolve to
                                    ``repro_{plan,exec,scheduler,workers,
                                    server}_[a-z0-9_]*``
REP402  error-status-mapping        every repro.errors class maps to an HTTP
                                    status in server/app.py (not just the
                                    ReproError 500 catch-all), subclasses
                                    listed before their bases
REP403  stage-bucket-attribution    every STAGE_* constant is attributed to
                                    some ``stage_ms`` bucket somewhere
REP501  unused-suppression          every ``# repro: ignore[...]`` still
                                    suppresses something (framework)
======  ==========================  =========================================
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field

from repro.analysis.findings import Finding
from repro.analysis.project import Project, SourceModule

__all__ = [
    "LintConfig",
    "Rule",
    "RULE_DESCRIPTIONS",
    "default_rules",
]


@dataclass(frozen=True)
class LintConfig:
    """The contract tables the rules check against.

    Files are named by posix path suffix (matched on ``/`` boundaries),
    so the defaults bind to the repository layout while fixture trees in
    tests can reproduce any subset under a scratch directory.
    """

    #: modules whose code executes inside worker processes (round +
    #: prewarm execution) or is called from them on the hot validation
    #: path — the no-RNG, no-growth zone
    worker_modules: tuple[str, ...] = (
        "store/workers.py",
        "semantics/kernels.py",
        "semantics/validation.py",
    )
    #: modules sanctioned to construct RNG even though they are import-
    #: reachable from worker modules: growth in the executor (the only
    #: sanctioned RNG site — it always runs scheduler-side) and the
    #: central seed-derivation helpers
    sanctioned_rng_modules: tuple[str, ...] = (
        "core/executor.py",
        "utils/rng.py",
    )
    #: classes whose ``self._*`` state is shared across threads and must
    #: only be written under a lock (or inside ``__init__``/its helpers,
    #: or in a ``*_locked`` method whose caller holds the lock)
    guarded_classes: tuple[str, ...] = (
        "AggregateQueryService",
        "ProcessBackend",
        "WorkerPool",
        "PlanCache",
    )
    #: modules whose lock acquisitions join the acquisition-order graph
    lock_order_modules: tuple[str, ...] = (
        "core/service.py",
        "store/workers.py",
        "obs/metrics.py",
        "semantics/kernels.py",
    )
    #: modules on the determinism-critical path (kernels, round export,
    #: persistence, wire encoding): set iteration must never feed an
    #: ordered output unsorted
    deterministic_modules: tuple[str, ...] = (
        "semantics/kernels.py",
        "semantics/validation.py",
        "core/executor.py",
        "store/workers.py",
        "store/plans.py",
        "store/snapshot.py",
        "kg/csr.py",
        "kg/io.py",
        "server/app.py",
    )
    #: the only metric scopes the observability contract recognises
    metric_scopes: tuple[str, ...] = (
        "plan", "exec", "scheduler", "workers", "server",
    )
    metric_namespace: str = "repro"
    #: the errors-taxonomy module and the HTTP mapping that must cover it
    errors_module: str = "errors.py"
    status_module: str = "server/app.py"
    status_table: str = "_ERROR_STATUS"
    #: where STAGE_* bucket constants are declared
    stage_module: str = "core/executor.py"
    stage_prefix: str = "STAGE_"


# ---------------------------------------------------------------------------
# Shared AST helpers
# ---------------------------------------------------------------------------

def _import_aliases(tree: ast.Module) -> dict[str, str]:
    """Local name -> dotted origin, from every import in the module."""
    aliases: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.asname:
                    aliases[alias.asname] = alias.name
                else:
                    root = alias.name.split(".")[0]
                    aliases[root] = root
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            for alias in node.names:
                origin = f"{base}.{alias.name}" if base else alias.name
                aliases[alias.asname or alias.name] = origin
    return aliases


def _resolve_origin(aliases: dict[str, str], node: ast.expr) -> str | None:
    """Render a call target as a fully-dotted origin, or None."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    root = aliases.get(node.id, node.id)
    parts.append(root)
    return ".".join(reversed(parts))


def _functions(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _parent_map(tree: ast.AST) -> dict[int, ast.AST]:
    parents: dict[int, ast.AST] = {}
    for node in ast.walk(tree):
        for child in ast.iter_child_nodes(node):
            parents[id(child)] = node
    return parents


def _is_self_attr(node: ast.expr) -> bool:
    return (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    )


_LOCKISH = re.compile(r"lock|condition", re.IGNORECASE)


def _lockish_attr(node: ast.expr) -> str | None:
    """The attribute name when ``node`` is ``self.<something lock-like>``."""
    if _is_self_attr(node) and _LOCKISH.search(node.attr):
        return node.attr
    return None


# ---------------------------------------------------------------------------
# Rule base
# ---------------------------------------------------------------------------

class Rule:
    """One invariant check over a :class:`Project`."""

    code: str = "REP000"
    name: str = "rule"
    severity: str = "error"
    summary: str = ""

    def __init__(self, config: LintConfig | None = None) -> None:
        self.config = config or LintConfig()

    def check(self, project: Project) -> list[Finding]:
        raise NotImplementedError

    def finding(
        self,
        module: SourceModule,
        node: ast.AST | int,
        message: str,
        anchor_lines: tuple[int, ...] = (),
    ) -> Finding:
        if isinstance(node, int):
            line, column = node, 0
        else:
            line = getattr(node, "lineno", 1)
            column = getattr(node, "col_offset", 0)
        return Finding(
            code=self.code,
            message=message,
            path=module.display_path,
            line=line,
            column=column,
            severity=self.severity,
            anchor_lines=anchor_lines,
        )


# ---------------------------------------------------------------------------
# REP101 — RNG discipline in worker-executed code
# ---------------------------------------------------------------------------

#: names that construct a generator (fine when explicitly seeded outside
#: worker modules; never fine inside them)
_RNG_CONSTRUCTOR_TAILS = (
    "default_rng", "ensure_rng", "Generator", "PCG64", "SeedSequence",
    "RandomState",
)


def _rng_call_kind(origin: str) -> str | None:
    """Classify a call origin: "global" (shared-state RNG), "constructor"
    (builds a generator) or None (not RNG)."""
    if origin == "random.Random":
        return "constructor"  # an owned stream; fine when seeded
    if origin.startswith("random.") or origin == "random":
        return "global"
    tail = origin.rsplit(".", 1)[-1]
    if origin.startswith("numpy.random.") or ".random." in origin:
        if tail in _RNG_CONSTRUCTOR_TAILS:
            return "constructor"
        return "global"
    if tail in ("ensure_rng", "default_rng"):
        return "constructor"
    return None


def _is_unseeded(call: ast.Call) -> bool:
    if not call.args and not call.keywords:
        return True
    if call.args and isinstance(call.args[0], ast.Constant):
        return call.args[0].value is None
    return False


class WorkerRngRule(Rule):
    code = "REP101"
    name = "worker-rng"
    summary = (
        "no RNG construction in worker-executed modules, and no "
        "global-state or unseeded RNG anywhere import-reachable from them"
    )

    def check(self, project: Project) -> list[Finding]:
        config = self.config
        roots = [
            module for module in project
            if any(module.matches(s) for s in config.worker_modules)
        ]
        if not roots:
            return []
        findings: list[Finding] = []
        reachable = project.reachable_from(roots)
        root_ids = {id(module) for module in roots}
        for module in reachable:
            if any(module.matches(s) for s in config.sanctioned_rng_modules):
                continue
            is_entry = id(module) in root_ids
            aliases = _import_aliases(module.tree)
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                origin = _resolve_origin(aliases, node.func)
                if origin is None:
                    continue
                kind = _rng_call_kind(origin)
                if kind is None:
                    continue
                if is_entry:
                    findings.append(self.finding(
                        module, node,
                        f"RNG call {origin}() in a worker-executed module; "
                        "growth is the only sanctioned RNG and runs "
                        "scheduler-side (core/executor.py)",
                    ))
                elif kind == "global":
                    findings.append(self.finding(
                        module, node,
                        f"global-state RNG call {origin}() is import-"
                        "reachable from worker-executed modules; results "
                        "would differ across backends — use an explicitly "
                        "seeded generator (utils/rng.ensure_rng)",
                    ))
                elif _is_unseeded(node):
                    findings.append(self.finding(
                        module, node,
                        f"unseeded RNG {origin}() is import-reachable from "
                        "worker-executed modules; derive the seed "
                        "explicitly (utils/rng.derive_seed) or move the "
                        "call to the scheduler",
                    ))
        return findings


# ---------------------------------------------------------------------------
# REP102 — fingerprint purity
# ---------------------------------------------------------------------------

_FINGERPRINT_EXTRA_NAMES = ("config_token", "component_token")


class FingerprintPurityRule(Rule):
    code = "REP102"
    name = "fingerprint-purity"
    summary = (
        "fingerprint/token functions must be pure content hashes: no "
        "time, datetime, uuid, os.urandom, id(), hash() or RNG"
    )

    def _impure(self, origin: str) -> str | None:
        if origin.startswith("time.") or origin == "time.time":
            return "wall-clock time"
        if origin.startswith("datetime.") and origin.rsplit(".", 1)[-1] in (
            "now", "utcnow", "today"
        ):
            return "wall-clock time"
        if origin.startswith("uuid."):
            return "a random UUID"
        if origin == "os.urandom":
            return "OS entropy"
        if origin == "id":
            return "a process-local object address"
        if origin == "hash":
            return "the per-process salted builtin hash"
        if _rng_call_kind(origin) is not None:
            return "RNG"
        return None

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project:
            aliases = _import_aliases(module.tree)
            for func in _functions(module.tree):
                if (
                    "fingerprint" not in func.name
                    and func.name not in _FINGERPRINT_EXTRA_NAMES
                ):
                    continue
                for node in ast.walk(func):
                    if not isinstance(node, ast.Call):
                        continue
                    origin = _resolve_origin(aliases, node.func)
                    if origin is None:
                        continue
                    why = self._impure(origin)
                    if why is not None:
                        findings.append(self.finding(
                            module, node,
                            f"{origin}() inside fingerprint function "
                            f"{func.name}() folds {why} into a supposedly "
                            "content-derived key; fingerprints must be "
                            "pure so cache/store keys survive restarts",
                        ))
        return findings


# ---------------------------------------------------------------------------
# REP103 — growth lifecycle never runs worker-side
# ---------------------------------------------------------------------------

_GROWTH_NAMES = ("grow", "grow_grouped", "grow_extreme", "initialise")


class WorkerGrowthRule(Rule):
    code = "REP103"
    name = "worker-growth"
    summary = (
        "worker-executed modules never call the grow*/initialise "
        "lifecycle — growth (the only RNG) runs in the scheduler thread"
    )

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project:
            if not any(module.matches(s) for s in self.config.worker_modules):
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call):
                    continue
                name = None
                if isinstance(node.func, ast.Attribute):
                    name = node.func.attr
                elif isinstance(node.func, ast.Name):
                    name = node.func.id
                if name in _GROWTH_NAMES:
                    findings.append(self.finding(
                        module, node,
                        f"{name}() called from a worker-executed module; "
                        "the grow/initialise lifecycle (and its RNG) is "
                        "scheduler-only — workers receive already-grown "
                        "samples so replays stay byte-identical",
                    ))
        return findings


# ---------------------------------------------------------------------------
# REP201 — lock discipline for shared state
# ---------------------------------------------------------------------------

class LockDisciplineRule(Rule):
    code = "REP201"
    name = "unlocked-shared-write"
    summary = (
        "guarded classes write self._* shared state only under a lock, "
        "in __init__ (and its helpers), or in *_locked methods whose "
        "caller holds the lock"
    )

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project:
            for node in ast.walk(module.tree):
                if (
                    isinstance(node, ast.ClassDef)
                    and node.name in self.config.guarded_classes
                ):
                    findings.extend(self._check_class(module, node))
        return findings

    def _check_class(
        self, module: SourceModule, cls: ast.ClassDef
    ) -> list[Finding]:
        methods = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        init_helpers: set[str] = set()
        init = methods.get("__init__")
        if init is not None:
            for node in ast.walk(init):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and _is_self_attr(node.func)
                    and node.func.attr in methods
                ):
                    init_helpers.add(node.func.attr)
        findings: list[Finding] = []
        for name, method in methods.items():
            if name == "__init__" or name in init_helpers:
                continue
            if name.endswith("_locked"):
                # naming contract: the caller already holds the lock
                continue
            findings.extend(
                self._check_method(module, cls, method)
            )
        return findings

    def _check_method(
        self,
        module: SourceModule,
        cls: ast.ClassDef,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
    ) -> list[Finding]:
        findings: list[Finding] = []
        anchor = (cls.lineno,)

        def flag(node: ast.AST, attr: str) -> None:
            findings.append(self.finding(
                module, node,
                f"{cls.name}.{method.name} writes shared attribute "
                f"self.{attr} outside a lock; guard it with the class "
                "lock, move it to __init__, or give the method a "
                "*_locked name if its caller holds the lock",
                anchor_lines=anchor,
            ))

        def target_attr(target: ast.expr) -> str | None:
            """The shared-attr name a write target touches, if any."""
            node = target
            if isinstance(node, ast.Subscript):
                node = node.value
            if (
                _is_self_attr(node)
                and node.attr.startswith("_")
                and not _LOCKISH.search(node.attr)
            ):
                return node.attr
            return None

        def walk(node: ast.AST, locked: bool) -> None:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                holds = locked or any(
                    _lockish_attr(item.context_expr) is not None
                    for item in node.items
                )
                for child in node.body:
                    walk(child, holds)
                return
            if isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                return  # nested callables run at unknown times; skip
            if not locked:
                if isinstance(node, ast.Assign):
                    for target in node.targets:
                        attr = target_attr(target)
                        if attr is not None:
                            flag(node, attr)
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    attr = target_attr(node.target)
                    if attr is not None:
                        flag(node, attr)
                elif isinstance(node, ast.Delete):
                    for target in node.targets:
                        attr = target_attr(target)
                        if attr is not None:
                            flag(node, attr)
            for child in ast.iter_child_nodes(node):
                walk(child, locked)

        for statement in method.body:
            walk(statement, False)
        return findings


# ---------------------------------------------------------------------------
# REP202 — lock acquisition-order graph must be acyclic
# ---------------------------------------------------------------------------

class LockOrderRule(Rule):
    code = "REP202"
    name = "lock-order-cycle"
    summary = (
        "nested lock acquisitions (including one call level deep) form "
        "an acyclic order; cycles and re-entries deadlock"
    )

    def check(self, project: Project) -> list[Finding]:
        # edges: (outer lock id, inner lock id) -> (module, node) of first
        # occurrence; lock ids are class-qualified attr names
        edges: dict[tuple[str, str], tuple[SourceModule, ast.AST]] = {}
        for module in project:
            if not any(
                module.matches(s) for s in self.config.lock_order_modules
            ):
                continue
            for cls in ast.walk(module.tree):
                if not isinstance(cls, ast.ClassDef):
                    continue
                self._class_edges(module, cls, edges)
        return self._report_cycles(edges)

    @staticmethod
    def _direct_locks(cls_name: str, func: ast.AST) -> list[str]:
        locks = []
        for node in ast.walk(func):
            if isinstance(node, (ast.With, ast.AsyncWith)):
                for item in node.items:
                    attr = _lockish_attr(item.context_expr)
                    if attr is not None:
                        locks.append(f"{cls_name}.{attr}")
        return locks

    def _class_edges(self, module, cls, edges) -> None:
        methods = {
            stmt.name: stmt
            for stmt in cls.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        method_locks = {
            name: self._direct_locks(cls.name, func)
            for name, func in methods.items()
        }

        def record(outer: str, inner: str, node: ast.AST) -> None:
            edges.setdefault((outer, inner), (module, node))

        def walk(node: ast.AST, held: list[str]) -> None:
            if isinstance(node, (ast.With, ast.AsyncWith)):
                acquired = []
                for item in node.items:
                    attr = _lockish_attr(item.context_expr)
                    if attr is not None:
                        lock_id = f"{cls.name}.{attr}"
                        for outer in held + acquired:
                            record(outer, lock_id, node)
                        acquired.append(lock_id)
                for child in node.body:
                    walk(child, held + acquired)
                return
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return
            if held and isinstance(node, ast.Call) and isinstance(
                node.func, ast.Attribute
            ) and _is_self_attr(node.func):
                # one call level deep: self.m() under a held lock inherits
                # the held set for m's own direct acquisitions
                for inner in method_locks.get(node.func.attr, ()):
                    for outer in held:
                        record(outer, inner, node)
            for child in ast.iter_child_nodes(node):
                walk(child, held)

        for func in methods.values():
            for statement in func.body:
                walk(statement, [])

    def _report_cycles(self, edges) -> list[Finding]:
        graph: dict[str, set[str]] = {}
        for outer, inner in edges:
            graph.setdefault(outer, set()).add(inner)
            graph.setdefault(inner, set())
        findings: list[Finding] = []
        # self-edges are immediate deadlocks (non-reentrant locks)
        for (outer, inner), (module, node) in sorted(
            edges.items(), key=lambda kv: (kv[1][0].display_path,
                                           kv[1][1].lineno)
        ):
            if outer == inner:
                findings.append(self.finding(
                    module, node,
                    f"lock {outer} is re-acquired while already held; "
                    "threading.Lock/Condition are not reentrant — this "
                    "deadlocks",
                ))
        # longer cycles via DFS back-edge detection
        seen_cycles: set[frozenset[str]] = set()
        state: dict[str, int] = {}
        stack: list[str] = []

        def dfs(lock: str) -> None:
            state[lock] = 1
            stack.append(lock)
            for nxt in sorted(graph.get(lock, ())):
                if nxt == lock:
                    continue
                if state.get(nxt, 0) == 1:
                    cycle = stack[stack.index(nxt):] + [nxt]
                    key = frozenset(cycle)
                    if key not in seen_cycles:
                        seen_cycles.add(key)
                        edge = edges.get((lock, nxt)) or next(
                            iter(edges.values())
                        )
                        module, node = edge
                        findings.append(self.finding(
                            module, node,
                            "lock acquisition-order cycle: "
                            + " -> ".join(cycle)
                            + "; acquire locks in one global order",
                        ))
                elif state.get(nxt, 0) == 0:
                    dfs(nxt)
            stack.pop()
            state[lock] = 2

        for lock in sorted(graph):
            if state.get(lock, 0) == 0:
                dfs(lock)
        return findings


# ---------------------------------------------------------------------------
# REP301 — set iteration feeding ordered outputs
# ---------------------------------------------------------------------------

_ORDER_INSENSITIVE = {
    "sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset",
}
_ORDERED_WRAPPERS = {"list", "tuple", "enumerate"}
_SET_METHODS = {
    "union", "intersection", "difference", "symmetric_difference", "copy",
}


class SetIterationRule(Rule):
    code = "REP301"
    name = "unordered-set-iteration"
    summary = (
        "in deterministic-path modules, sets never flow into ordered "
        "outputs (list/tuple/enumerate/join/comprehensions/yield) "
        "without sorted()"
    )

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project:
            if not any(
                module.matches(s)
                for s in self.config.deterministic_modules
            ):
                continue
            parents = _parent_map(module.tree)
            scopes = list(_functions(module.tree)) + [module.tree]
            claimed: set[int] = set()
            for scope in scopes:
                if isinstance(scope, ast.Module):
                    body_nodes = [
                        n for n in ast.walk(scope)
                        if id(n) not in claimed
                    ]
                else:
                    body_nodes = list(ast.walk(scope))
                    claimed.update(id(n) for n in body_nodes)
                set_vars = self._set_vars(body_nodes)
                findings.extend(self._check_scope(
                    module, body_nodes, set_vars, parents
                ))
        return findings

    def _is_set_expr(self, node: ast.expr, set_vars: set[str]) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Name):
            return node.id in set_vars
        if isinstance(node, ast.Call):
            if isinstance(node.func, ast.Name) and node.func.id in (
                "set", "frozenset"
            ):
                return True
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr in _SET_METHODS
                and self._is_set_expr(node.func.value, set_vars)
            ):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(node.left, set_vars) or (
                self._is_set_expr(node.right, set_vars)
            )
        return False

    def _set_vars(self, nodes: list[ast.AST]) -> set[str]:
        set_vars: set[str] = set()
        # two passes so `a = set(...); b = a | other` both resolve
        for _ in range(2):
            for node in nodes:
                if isinstance(node, ast.Assign) and len(node.targets) == 1:
                    target = node.targets[0]
                    if isinstance(target, ast.Name) and self._is_set_expr(
                        node.value, set_vars
                    ):
                        set_vars.add(target.id)
                elif isinstance(node, ast.AugAssign) and isinstance(
                    node.target, ast.Name
                ):
                    if node.target.id in set_vars:
                        continue
        return set_vars

    def _consumed_insensitively(self, node: ast.AST, parents) -> bool:
        parent = parents.get(id(node))
        if isinstance(parent, ast.Call) and node in parent.args:
            if isinstance(parent.func, ast.Name):
                return parent.func.id in _ORDER_INSENSITIVE
        return False

    def _check_scope(self, module, nodes, set_vars, parents) -> list[Finding]:
        findings: list[Finding] = []
        advice = (
            "; set iteration order varies across runs/processes — wrap "
            "in sorted(...) (or suppress with a reviewed justification "
            "if the consumer is order-insensitive)"
        )
        for node in nodes:
            if isinstance(node, ast.Call):
                func = node.func
                if (
                    isinstance(func, ast.Name)
                    and func.id in _ORDERED_WRAPPERS
                    and node.args
                    and self._is_set_expr(node.args[0], set_vars)
                    and not self._consumed_insensitively(node, parents)
                ):
                    findings.append(self.finding(
                        module, node,
                        f"{func.id}() over a set produces an "
                        "unstable ordering" + advice,
                    ))
                elif (
                    isinstance(func, ast.Attribute)
                    and func.attr == "join"
                    and node.args
                    and self._is_set_expr(node.args[0], set_vars)
                ):
                    findings.append(self.finding(
                        module, node,
                        "str.join() over a set produces an unstable "
                        "ordering" + advice,
                    ))
            elif isinstance(node, (ast.ListComp, ast.DictComp)):
                if any(
                    self._is_set_expr(gen.iter, set_vars)
                    for gen in node.generators
                ) and not self._consumed_insensitively(node, parents):
                    kind = (
                        "list" if isinstance(node, ast.ListComp) else "dict"
                    )
                    findings.append(self.finding(
                        module, node,
                        f"{kind} comprehension over a set produces an "
                        "unstable ordering" + advice,
                    ))
            elif isinstance(node, ast.For):
                if self._is_set_expr(node.iter, set_vars) and any(
                    isinstance(inner, (ast.Yield, ast.YieldFrom))
                    for stmt in node.body
                    for inner in ast.walk(stmt)
                ):
                    findings.append(self.finding(
                        module, node,
                        "generator yields in set-iteration order, which "
                        "is unstable" + advice,
                    ))
        return findings


# ---------------------------------------------------------------------------
# REP401 — metric naming contract
# ---------------------------------------------------------------------------

_METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")
_INSTRUMENT_METHODS = ("counter", "gauge", "histogram")


class MetricNameRule(Rule):
    code = "REP401"
    name = "metric-naming"
    summary = (
        "every MetricsScope registration resolves to "
        "repro_{plan,exec,scheduler,workers,server}_[a-z0-9_]* — one "
        "scope per layer, names greppable from the ROADMAP"
    )

    def check(self, project: Project) -> list[Finding]:
        findings: list[Finding] = []
        for module in project:
            if module.matches("obs/metrics.py"):
                continue  # the registry itself, not a registration site
            for scope_node in [module.tree, *_functions(module.tree)]:
                findings.extend(self._check_scope(module, scope_node))
        return findings

    def _scope_literal(self, node: ast.expr) -> str | None:
        """The scope name when ``node`` is ``<x>.scope("literal")``."""
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "scope"
            and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)
            and isinstance(node.args[0].value, str)
        ):
            return node.args[0].value
        return None

    def _check_scope(self, module, scope_root) -> list[Finding]:
        findings: list[Finding] = []
        scope_vars: dict[str, str] = {}
        nodes = (
            list(ast.walk(scope_root))
            if not isinstance(scope_root, ast.Module)
            else list(scope_root.body)
            + [n for stmt in scope_root.body for n in ast.walk(stmt)
               if not isinstance(
                   stmt, (ast.FunctionDef, ast.AsyncFunctionDef)
               )]
        )
        for node in nodes:
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                scope_name = self._scope_literal(node.value)
                if scope_name is not None and isinstance(
                    node.targets[0], ast.Name
                ):
                    scope_vars[node.targets[0].id] = scope_name
        for node in nodes:
            scope_name = self._scope_literal(node)
            if scope_name is not None:
                if scope_name not in self.config.metric_scopes:
                    findings.append(self.finding(
                        module, node,
                        f"metric scope {scope_name!r} is not one of the "
                        "contract scopes "
                        f"{'/'.join(self.config.metric_scopes)}; every "
                        "layer registers under its own documented scope",
                    ))
                continue
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _INSTRUMENT_METHODS
            ):
                continue
            owner = node.func.value
            owner_scope = self._scope_literal(owner)
            if owner_scope is None and isinstance(owner, ast.Name):
                owner_scope = scope_vars.get(owner.id)
            if owner_scope is None:
                continue  # not a MetricsScope registration we can see
            if not node.args or not isinstance(node.args[0], ast.Constant):
                findings.append(self.finding(
                    module, node,
                    "metric names must be string literals so the full "
                    f"{self.config.metric_namespace}_{owner_scope}_* name "
                    "is greppable",
                ))
                continue
            metric = str(node.args[0].value)
            full = (
                f"{self.config.metric_namespace}_{owner_scope}_{metric}"
            )
            if not _METRIC_NAME_RE.match(metric):
                findings.append(self.finding(
                    module, node,
                    f"metric name {metric!r} (full name {full!r}) must "
                    "match [a-z][a-z0-9_]*",
                ))
        return findings


# ---------------------------------------------------------------------------
# REP402 — errors taxonomy <-> HTTP status completeness
# ---------------------------------------------------------------------------

class ErrorTaxonomyRule(Rule):
    code = "REP402"
    name = "error-status-mapping"
    summary = (
        "every repro.errors exception class is status-mapped in "
        "server/app.py by itself or a base more specific than the "
        "ReproError 500 catch-all, with subclasses before bases"
    )

    def check(self, project: Project) -> list[Finding]:
        errors = project.find(self.config.errors_module)
        status = project.find(self.config.status_module)
        if errors is None or status is None:
            return []
        bases: dict[str, list[str]] = {}
        class_lines: dict[str, int] = {}
        for node in errors.tree.body:
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [
                    base.id for base in node.bases
                    if isinstance(base, ast.Name)
                ]
                class_lines[node.name] = node.lineno
        roots = [
            name for name, parents in bases.items()
            if "Exception" in parents
        ]
        if not roots:
            return []
        root = roots[0]

        def ancestors(name: str) -> list[str]:
            out: list[str] = []
            frontier = list(bases.get(name, ()))
            while frontier:
                base = frontier.pop()
                if base in bases and base not in out:
                    out.append(base)
                    frontier.extend(bases[base])
            return out

        table_node = None
        for node in ast.walk(status.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                if any(
                    isinstance(t, ast.Name)
                    and t.id == self.config.status_table
                    for t in targets
                ):
                    table_node = node
                    break
        if table_node is None or table_node.value is None:
            return [self.finding(
                status, 1,
                f"status table {self.config.status_table} not found in "
                f"{status.display_path}; the errors taxonomy has no HTTP "
                "mapping",
            )]
        entries: list[tuple[str, ast.AST]] = []
        if isinstance(table_node.value, (ast.Tuple, ast.List)):
            for element in table_node.value.elts:
                if (
                    isinstance(element, (ast.Tuple, ast.List))
                    and element.elts
                    and isinstance(element.elts[0], ast.Name)
                ):
                    entries.append((element.elts[0].id, element))
        findings: list[Finding] = []
        mapped = [name for name, _ in entries]
        for name in bases:
            if name == root:
                continue
            covering = [
                entry for entry in mapped
                if entry != root and (
                    entry == name or entry in ancestors(name)
                )
            ]
            if not covering:
                findings.append(self.finding(
                    status, table_node,
                    f"exception class {name} (declared at "
                    f"{errors.display_path}:{class_lines[name]}) falls "
                    f"through to the {root} 500 catch-all; add a "
                    f"{self.config.status_table} entry so its wire "
                    "status is a decision, not an accident",
                ))
        for i, (earlier, _node) in enumerate(entries):
            for later, node in entries[i + 1:]:
                if earlier != later and earlier in ancestors(later):
                    findings.append(self.finding(
                        status, node,
                        f"status entry {later} is unreachable: its base "
                        f"{earlier} appears earlier in "
                        f"{self.config.status_table} and isinstance-"
                        "matches first; order subclasses before bases",
                    ))
        return findings


# ---------------------------------------------------------------------------
# REP403 — every stage bucket is attributed
# ---------------------------------------------------------------------------

class StageBucketRule(Rule):
    code = "REP403"
    name = "stage-bucket-attribution"
    summary = (
        "every STAGE_* constant is attributed somewhere (a timer "
        "measure, setdefault or stage write) so stage_ms keeps summing "
        "to wall clock"
    )

    def check(self, project: Project) -> list[Finding]:
        stage_module = project.find(self.config.stage_module)
        if stage_module is None:
            return []
        constants: dict[str, int] = {}
        for node in stage_module.tree.body:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id.startswith(
                        self.config.stage_prefix
                    ):
                        constants[target.id] = node.lineno
        if not constants:
            return []
        used: set[str] = set()
        for module in project:
            for node in ast.walk(module.tree):
                if isinstance(node, ast.Call):
                    parts: list[ast.expr] = list(node.args)
                    parts.extend(kw.value for kw in node.keywords)
                elif isinstance(node, ast.Subscript):
                    parts = [node.slice]
                else:
                    continue
                for part in parts:
                    for inner in ast.walk(part):
                        name = None
                        if isinstance(inner, ast.Name):
                            name = inner.id
                        elif isinstance(inner, ast.Attribute):
                            name = inner.attr
                        if name in constants:
                            used.add(name)
        return [
            self.finding(
                stage_module, line,
                f"stage bucket {name} is declared but never attributed "
                "anywhere (no timer measure, setdefault or stage write "
                "passes it); either attribute the stage or delete the "
                "bucket — stage_ms must keep summing to wall clock",
            )
            for name, line in sorted(constants.items())
            if name not in used
        ]


RULE_DESCRIPTIONS: dict[str, str] = {
    "REP000": "file failed to parse (framework)",
    "REP101": WorkerRngRule.summary,
    "REP102": FingerprintPurityRule.summary,
    "REP103": WorkerGrowthRule.summary,
    "REP201": LockDisciplineRule.summary,
    "REP202": LockOrderRule.summary,
    "REP301": SetIterationRule.summary,
    "REP401": MetricNameRule.summary,
    "REP402": ErrorTaxonomyRule.summary,
    "REP403": StageBucketRule.summary,
    "REP501": (
        "a # repro: ignore[...] comment suppressed nothing; stale "
        "suppressions must not outlive their violation (framework)"
    ),
}


def default_rules(config: LintConfig | None = None) -> list[Rule]:
    """The full rule registry, in catalogue order."""
    config = config or LintConfig()
    return [
        WorkerRngRule(config),
        FingerprintPurityRule(config),
        WorkerGrowthRule(config),
        LockDisciplineRule(config),
        LockOrderRule(config),
        SetIterationRule(config),
        MetricNameRule(config),
        ErrorTaxonomyRule(config),
        StageBucketRule(config),
    ]
