"""Interprocedural nondeterminism taint tracking.

The model, in one paragraph: **sources** introduce values that can
differ between two runs of the same `(config, seed)` — wall clocks,
`os.environ`/pids, unsorted directory listings, set/dict-ordering
iteration, global RNG, float reductions over unordered collections.
**Sinks** are the byte-identity surfaces — shard writers and canonical
JSON, `fingerprint()` inputs, journal event payloads, deterministic
manifest content.  A dataflow path from a source to a sink that never
passes a **sanitizer** (`sorted()`, `repro.rng` substreams, the
manifest exclusion lists) is a finding, reported with the full call
chain so the fix site is obvious.

Mechanics: summary-based fixpoint over the
:class:`~repro.tools.detlint.graph.ProjectGraph`.  Each function gets a
:class:`FunctionSummary` — which sources its return value carries,
which parameters flow to its return, and which parameters flow into
sinks it (transitively) reaches.  Summaries are recomputed until
stable, so taint crosses module boundaries in either direction and
survives import cycles.

Precision choices (all deliberate, all documented in
``docs/STATIC_ANALYSIS.md``):

* **Field-sensitive dict literals** — ``{"payload": clean, "elapsed":
  tainted}`` keeps per-key taint, and ``d["payload"]`` retrieves only
  that key's taint.  Without this, every campaign result dict (clean
  payload riding next to a wall-clock duration) would be a false
  positive.
* **Comparisons drop taint** — ``now > deadline`` yields an untainted
  bool.  Implicit flows (branching on tainted data) are out of scope;
  timeouts/deadlines are ubiquitous and legitimate.
* **Unresolved calls propagate argument taint** — a call the graph
  cannot resolve is assumed to pass its inputs through (conservative
  for data, silent for new sources, which only specs introduce).
* **Per-category sanitizers** — ``sorted()`` cancels *ordering* taints
  (listing, set-order, float-reduction) but not wall-clock: sorting a
  list of timestamps does not make it reproducible.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field, replace

from repro.tools.detlint.engine import Finding, _dotted
from repro.tools.detlint.graph import FunctionInfo, ModuleInfo, ProjectGraph
from repro.tools.detlint.rules import (
    LISTING_METHODS,
    excluded_from_deterministic_manifest,
)

# -- taint categories ----------------------------------------------------

WALLCLOCK = "wallclock"
ENVIRON = "environ"
LISTING = "listing"
SETORDER = "setorder"
GLOBALRNG = "globalrng"
FLOATSUM = "floatsum"

#: Categories that describe *ordering* nondeterminism — a ``sorted()``
#: wrap genuinely fixes these.  Wall-clock/environ/RNG values stay
#: nondeterministic no matter how you order them.
ORDER_CATEGORIES = frozenset({LISTING, SETORDER, FLOATSUM})

CATEGORY_CODES = {
    WALLCLOCK: "DF101",
    ENVIRON: "DF102",
    LISTING: "DF103",
    SETORDER: "DF104",
    GLOBALRNG: "DF105",
    FLOATSUM: "DF106",
}

CATEGORY_LABELS = {
    WALLCLOCK: "wall-clock time",
    ENVIRON: "os.environ/pid",
    LISTING: "unsorted directory listing",
    SETORDER: "set/dict-ordering iteration",
    GLOBALRNG: "global RNG state",
    FLOATSUM: "float reduction over an unordered collection",
}


@dataclass(frozen=True)
class TaintAtom:
    """One source occurrence: what kind, and where it entered."""

    category: str
    #: ``path:line`` of the originating expression.
    origin: str
    #: Human-readable description of the source expression.
    detail: str
    #: Call chain (function qualnames) the taint has traversed so far,
    #: origin first.  Tuples keep atoms hashable.
    chain: tuple[str, ...] = ()

    def through(self, qualname: str) -> "TaintAtom":
        if self.chain and self.chain[-1] == qualname:
            return self
        return replace(self, chain=(*self.chain, qualname))


@dataclass
class Value:
    """Abstract value: taint atoms, parameter derivations, dict fields."""

    taints: frozenset[TaintAtom] = frozenset()
    #: Parameter indices (of the *enclosing* function) this value may
    #: derive from, minus categories a sanitizer has cancelled on the
    #: way: ``{param_index: frozenset(cancelled_categories)}``.
    params: dict[int, frozenset[str]] = field(default_factory=dict)
    #: Per-key taint for dict literals with constant string keys.
    fields: dict[str, "Value"] = field(default_factory=dict)
    #: Value is a set (iterating it is a SETORDER source).
    is_set: bool = False

    @staticmethod
    def clean() -> "Value":
        return Value()

    def merged(self, other: "Value") -> "Value":
        params = dict(self.params)
        for idx, cancelled in other.params.items():
            params[idx] = params.get(idx, cancelled) & cancelled
        fields = dict(self.fields)
        for key, val in other.fields.items():
            fields[key] = fields[key].merged(val) if key in fields else val
        return Value(
            taints=self.taints | other.taints,
            params=params,
            fields=fields,
            is_set=self.is_set or other.is_set,
        )

    def collapsed(self) -> "Value":
        """Fold field taint up (for whole-value uses of a dict)."""
        out = Value(taints=self.taints, params=dict(self.params), is_set=self.is_set)
        for val in self.fields.values():
            out = out.merged(val.collapsed())
        return out

    def sanitized(self, categories: frozenset[str]) -> "Value":
        """Remove the given taint categories (e.g. after ``sorted()``)."""
        return Value(
            taints=frozenset(t for t in self.taints if t.category not in categories),
            params={
                idx: cancelled | categories for idx, cancelled in self.params.items()
            },
            fields={k: v.sanitized(categories) for k, v in self.fields.items()},
            is_set=False if categories & {SETORDER} else self.is_set,
        )

    @property
    def empty(self) -> bool:
        return (
            not self.taints
            and not self.params
            and not any(not v.empty for v in self.fields.values())
        )


@dataclass(frozen=True)
class SinkHit:
    """A parameter of this function reaches a sink (transitively)."""

    param: int
    #: Categories cancelled on the way (sanitized between param and sink).
    cancelled: frozenset[str]
    sink_label: str
    sink_origin: str
    #: Chain of function qualnames from this function to the sink.
    chain: tuple[str, ...]


@dataclass
class FunctionSummary:
    """Fixpoint state for one function."""

    #: Taint atoms the return value may carry.
    returns: frozenset[TaintAtom] = frozenset()
    #: ``{param_index: cancelled_categories}`` — params that may flow
    #: to the return value.
    param_returns: dict[int, frozenset[str]] = field(default_factory=dict)
    #: Params that reach sinks inside (or below) this function.
    sink_hits: tuple[SinkHit, ...] = ()

    def state(self) -> tuple:
        return (
            self.returns,
            tuple(sorted((k, v) for k, v in self.param_returns.items())),
            self.sink_hits,
        )


# -- source specs --------------------------------------------------------

#: dotted-call -> category for direct source expressions.
SOURCE_CALLS: dict[str, str] = {
    "time.time": WALLCLOCK,
    "time.time_ns": WALLCLOCK,
    "time.monotonic": WALLCLOCK,
    "time.monotonic_ns": WALLCLOCK,
    "time.perf_counter": WALLCLOCK,
    "time.perf_counter_ns": WALLCLOCK,
    "datetime.datetime.now": WALLCLOCK,
    "datetime.datetime.utcnow": WALLCLOCK,
    "datetime.datetime.today": WALLCLOCK,
    "datetime.date.today": WALLCLOCK,
    "os.getpid": ENVIRON,
    "os.getppid": ENVIRON,
    "os.environ.get": ENVIRON,
    "os.getenv": ENVIRON,
    "os.listdir": LISTING,
    "os.scandir": LISTING,
    "glob.glob": LISTING,
    "glob.iglob": LISTING,
    "random.random": GLOBALRNG,
    "random.randint": GLOBALRNG,
    "random.choice": GLOBALRNG,
    "random.shuffle": GLOBALRNG,
    "random.uniform": GLOBALRNG,
    "np.random.uniform": GLOBALRNG,
    "np.random.normal": GLOBALRNG,
    "np.random.random": GLOBALRNG,
    "numpy.random.uniform": GLOBALRNG,
    "numpy.random.normal": GLOBALRNG,
    "numpy.random.random": GLOBALRNG,
}

#: ``sum()``/``math.fsum`` over these producers is a FLOATSUM source
#: when the iterable is a set or ``dict.values()``.
FLOAT_REDUCERS = frozenset({"sum", "max", "min"})

#: Builtins that never propagate data taint from args to result.
CLEAN_BUILTINS = frozenset({
    "len", "bool", "isinstance", "issubclass", "id", "type", "range",
    "hasattr", "callable", "print", "repr",
})

#: Modules whose *documented job* is stamping wall-clock metadata that
#: the deterministic view strips (``created_at`` in the manifest).
#: Wall-clock sources inside them are exempt; everything else applies.
WALLCLOCK_EXEMPT_MODULES = frozenset({"repro.obs.manifest"})


# -- sink specs ----------------------------------------------------------

@dataclass(frozen=True)
class SinkSpec:
    """One byte-identity surface: which args of which callee are sinks."""

    label: str
    #: Argument indices that are sink inputs (``None`` = every arg).
    args: tuple[int, ...] | None = None
    #: Taint categories this sink does *not* care about.
    immune: frozenset[str] = frozenset()


#: Resolved-callee qualname -> spec.  These are the surfaces
#: ``docs/ARTIFACTS.md`` / ``docs/SERVICE.md`` define; adding a new
#: durable writer means adding a row here (see docs/STATIC_ANALYSIS.md).
SINK_SPECS: dict[str, SinkSpec] = {
    "repro.store.shard.ShardWriter.append": SinkSpec("shard record (digest-chained)"),
    "repro.store.shard.ShardWriter.finish": SinkSpec("shard meta record"),
    "repro.store.shard.build_shard_bytes": SinkSpec("shard bytes"),
    "repro.store.shard.canonical_json": SinkSpec("canonical JSON"),
    "repro.store.shard.chain_digest": SinkSpec("shard digest chain"),
    "repro.store.commit.atomic_write_bytes": SinkSpec(
        "durable artifact bytes", args=(1,)
    ),
    "repro.store.commit.atomic_write_json": SinkSpec(
        "durable artifact JSON", args=(1,)
    ),
    "repro.serve.journal.JobJournal.append": SinkSpec("journal event payload"),
    "repro.serve.journal.JobJournal._append_line": SinkSpec("journal line"),
    "repro.serve.service.CampaignService._journal": SinkSpec("journal event payload"),
    "repro.serve.jobs.job_id_for_spec": SinkSpec("job-id fingerprint input"),
}

#: Bare function names treated as sinks wherever they resolve —
#: ``fingerprint(...)`` is the identity function of the whole repo.
SINK_NAMES: dict[str, SinkSpec] = {
    "fingerprint": SinkSpec("fingerprint input"),
}

#: Known sanitizer calls: dotted name -> categories cancelled.
#: ``repro.rng`` substream draws replace global RNG taint entirely.
SANITIZER_CALLS: dict[str, frozenset[str]] = {
    "sorted": ORDER_CATEGORIES,
    "math.fsum": frozenset({FLOATSUM}),
}


# -- the analyzer --------------------------------------------------------

class TaintAnalyzer:
    def __init__(self, graph: ProjectGraph) -> None:
        self.graph = graph
        self.summaries: dict[str, FunctionSummary] = {
            q: FunctionSummary() for q in graph.functions
        }
        self.findings: list[Finding] = []
        self._finding_keys: set[tuple] = set()

    # -- public entry point ----------------------------------------------

    def run(self) -> list[Finding]:
        # Fixpoint over summaries: iterate until no summary changes.
        # Bound the loop defensively; chain lengths are small in practice.
        for _ in range(20):
            changed = False
            for qualname in sorted(self.graph.functions):
                before = self.summaries[qualname].state()
                self._analyze_function(qualname, record=False)
                if self.summaries[qualname].state() != before:
                    changed = True
            if not changed:
                break
        # Final recording pass with stable summaries.
        self._finding_keys.clear()
        self.findings.clear()
        for qualname in sorted(self.graph.functions):
            self._analyze_function(qualname, record=True)
        return sorted(self.findings)

    # -- per-function analysis -------------------------------------------

    def _analyze_function(self, qualname: str, record: bool) -> None:
        fn = self.graph.functions[qualname]
        module = self.graph.modules[fn.module]
        walker = _FunctionWalker(self, module, fn, record)
        walker.walk()
        self.summaries[qualname] = walker.summary()

    def add_finding(self, key: tuple, finding: Finding) -> None:
        if key in self._finding_keys:
            return
        self._finding_keys.add(key)
        self.findings.append(finding)


class _FunctionWalker:
    """One abstract-interpretation pass over a function body."""

    def __init__(
        self,
        analyzer: TaintAnalyzer,
        module: ModuleInfo,
        fn: FunctionInfo,
        record: bool,
    ) -> None:
        self.an = analyzer
        self.graph = analyzer.graph
        self.module = module
        self.fn = fn
        self.record = record
        self.types = self.graph.local_types(module, fn)
        self.env: dict[str, Value] = {}
        self.return_value = Value.clean()
        self.sink_hits: list[SinkHit] = []
        # Parameters start as themselves (no categories cancelled).
        for idx, name in enumerate(fn.params):
            self.env[name] = Value(params={idx: frozenset()})

    # -- driving ---------------------------------------------------------

    def walk(self) -> None:
        body = self.fn.node.body
        # Two passes so loop-carried taint (acc updated from a tainted
        # expression later in the loop) stabilizes; statements are
        # re-interpreted, findings are deduplicated by (line, code).
        self._exec_block(body)
        self._exec_block(body)

    def summary(self) -> FunctionSummary:
        ret = self.return_value.collapsed()
        return FunctionSummary(
            returns=ret.taints,
            param_returns=dict(ret.params),
            sink_hits=tuple(dict.fromkeys(self.sink_hits)),
        )

    # -- statements ------------------------------------------------------

    def _exec_block(self, stmts: list[ast.stmt]) -> None:
        for stmt in stmts:
            self._exec(stmt)

    def _exec(self, stmt: ast.stmt) -> None:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            return  # nested defs analyzed separately / out of scope
        if isinstance(stmt, ast.Assign):
            value = self.eval(stmt.value)
            for target in stmt.targets:
                self._assign(target, value)
        elif isinstance(stmt, ast.AugAssign):
            current = self._load_target(stmt.target)
            value = current.merged(self.eval(stmt.value))
            self._assign(stmt.target, value)
        elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
            self._assign(stmt.target, self.eval(stmt.value))
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self.return_value = self.return_value.merged(self.eval(stmt.value))
        elif isinstance(stmt, ast.Expr):
            self.eval(stmt.value)
        elif isinstance(stmt, (ast.If,)):
            self.eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.For, ast.AsyncFor)):
            iter_val = self.eval(stmt.iter)
            elem = self._element_of(iter_val, stmt.iter)
            self._assign(stmt.target, elem)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.While,)):
            self.eval(stmt.test)
            self._exec_block(stmt.body)
            self._exec_block(stmt.orelse)
        elif isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                value = self.eval(item.context_expr)
                if item.optional_vars is not None:
                    self._assign(item.optional_vars, value)
            self._exec_block(stmt.body)
        elif isinstance(stmt, ast.Try):
            self._exec_block(stmt.body)
            for handler in stmt.handlers:
                self._exec_block(handler.body)
            self._exec_block(stmt.orelse)
            self._exec_block(stmt.finalbody)
        elif isinstance(stmt, (ast.Raise, ast.Assert)):
            for child in ast.iter_child_nodes(stmt):
                if isinstance(child, ast.expr):
                    self.eval(child)
        # Pass/Break/Continue/Import/Global/Delete: nothing to do.

    def _assign(self, target: ast.expr, value: Value) -> None:
        if isinstance(target, ast.Name):
            self.env[target.id] = value
        elif isinstance(target, ast.Attribute):
            dotted = _dotted(target)
            if dotted is not None:
                self.env[dotted] = value
        elif isinstance(target, ast.Subscript):
            base = _dotted(target.value)
            key = (
                target.slice.value
                if isinstance(target.slice, ast.Constant)
                and isinstance(target.slice.value, str)
                else None
            )
            if base is not None and base in self.env:
                current = self.env[base]
                if key is not None:
                    fields = dict(current.fields)
                    fields[key] = value
                    self.env[base] = replace(current, fields=fields)
                else:
                    self.env[base] = current.merged(value)
        elif isinstance(target, (ast.Tuple, ast.List)):
            spread = value.collapsed()
            for elt in target.elts:
                self._assign(elt, spread)

    def _load_target(self, target: ast.expr) -> Value:
        dotted = _dotted(target)
        if dotted is not None and dotted in self.env:
            return self.env[dotted]
        return Value.clean()

    # -- expressions -----------------------------------------------------

    def eval(self, node: ast.expr) -> Value:
        if isinstance(node, ast.Constant):
            return Value.clean()
        if isinstance(node, ast.Name):
            return self.env.get(node.id, Value.clean())
        if isinstance(node, ast.Attribute):
            return self._eval_attribute(node)
        if isinstance(node, ast.Call):
            return self._eval_call(node)
        if isinstance(node, ast.Compare):
            # Comparisons yield plain bools; implicit flows untracked.
            self.eval(node.left)
            for comp in node.comparators:
                self.eval(comp)
            return Value.clean()
        if isinstance(node, ast.BoolOp):
            out = Value.clean()
            for v in node.values:
                out = out.merged(self.eval(v))
            return out
        if isinstance(node, ast.BinOp):
            return self.eval(node.left).merged(self.eval(node.right)).collapsed()
        if isinstance(node, ast.UnaryOp):
            return self.eval(node.operand)
        if isinstance(node, ast.IfExp):
            self.eval(node.test)
            return self.eval(node.body).merged(self.eval(node.orelse))
        if isinstance(node, ast.Dict):
            return self._eval_dict(node)
        if isinstance(node, (ast.List, ast.Tuple)):
            out = Value.clean()
            for elt in node.elts:
                out = out.merged(self.eval(elt).collapsed())
            return out
        if isinstance(node, ast.Set):
            out = Value(is_set=True)
            for elt in node.elts:
                out = out.merged(self.eval(elt).collapsed())
            return replace(out, is_set=True)
        if isinstance(node, (ast.ListComp, ast.GeneratorExp, ast.SetComp)):
            return self._eval_comp(node)
        if isinstance(node, ast.DictComp):
            for gen in node.generators:
                self._bind_comprehension(gen)
            out = self.eval(node.key).merged(self.eval(node.value)).collapsed()
            return out
        if isinstance(node, ast.Subscript):
            return self._eval_subscript(node)
        if isinstance(node, ast.JoinedStr):
            out = Value.clean()
            for part in node.values:
                if isinstance(part, ast.FormattedValue):
                    out = out.merged(self.eval(part.value).collapsed())
            return out
        if isinstance(node, ast.FormattedValue):
            return self.eval(node.value).collapsed()
        if isinstance(node, ast.Starred):
            return self.eval(node.value).collapsed()
        if isinstance(node, (ast.Lambda,)):
            return Value.clean()
        if isinstance(node, ast.NamedExpr):
            value = self.eval(node.value)
            self._assign(node.target, value)
            return value
        if isinstance(node, ast.Await):
            return self.eval(node.value)
        return Value.clean()

    def _eval_attribute(self, node: ast.Attribute) -> Value:
        dotted = _dotted(node)
        if dotted is not None:
            if dotted in self.env:
                return self.env[dotted]
            # ``os.environ`` read as a mapping.
            if dotted in ("os.environ", "sys.argv"):
                return self._source(node, ENVIRON, dotted)
        base = self.eval(node.value)
        if node.attr in ("values", "keys", "items"):
            # Bound-method access: taint decided at the call site.
            return base
        return base.collapsed()

    def _eval_subscript(self, node: ast.Subscript) -> Value:
        base = self.eval(node.value)
        dotted = _dotted(node.value)
        if dotted == "os.environ":
            return self._source(node, ENVIRON, "os.environ[...]")
        if isinstance(node.slice, ast.expr):
            self.eval(node.slice)
        if (
            isinstance(node.slice, ast.Constant)
            and isinstance(node.slice.value, str)
            and node.slice.value in base.fields
        ):
            return base.fields[node.slice.value]
        if base.fields and isinstance(node.slice, ast.Constant):
            # Known-keys dict, key not tracked: only top-level taint.
            return Value(taints=base.taints, params=dict(base.params))
        return base.collapsed()

    def _eval_dict(self, node: ast.Dict) -> Value:
        out = Value.clean()
        fields: dict[str, Value] = {}
        for key, val in zip(node.keys, node.values):
            value = self.eval(val)
            if (
                key is not None
                and isinstance(key, ast.Constant)
                and isinstance(key.value, str)
            ):
                fields[key.value] = value
            else:
                out = out.merged(value.collapsed())
                if key is not None:
                    out = out.merged(self.eval(key).collapsed())
        out.fields.update(fields)
        return out

    def _bind_comprehension(self, gen: ast.comprehension) -> None:
        iter_val = self.eval(gen.iter)
        self._assign(gen.target, self._element_of(iter_val, gen.iter))
        for cond in gen.ifs:
            self.eval(cond)

    def _eval_comp(self, node: ast.ListComp | ast.GeneratorExp | ast.SetComp) -> Value:
        for gen in node.generators:
            self._bind_comprehension(gen)
        out = self.eval(node.elt).collapsed()
        if isinstance(node, ast.SetComp):
            out = replace(out, is_set=True)
        return out

    def _element_of(self, iterable: Value, iter_node: ast.expr) -> Value:
        """Taint of one element drawn from ``iterable``."""
        out = iterable.collapsed()
        if iterable.is_set or self._is_set_expr(iter_node):
            out = out.merged(self._source(iter_node, SETORDER, "iteration over a set"))
        # ``for k in d`` / ``d.values()`` on a *literal-keyed* tracked
        # dict is fine (insertion order is deterministic); untracked
        # dicts built from sets are caught by is_set above.
        return out

    def _is_set_expr(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            dotted = _dotted(node.func)
            if dotted in ("set", "frozenset"):
                return True
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitAnd, ast.BitOr, ast.BitXor, ast.Sub)
        ):
            return self._is_set_expr(node.left) or self._is_set_expr(node.right)
        if isinstance(node, ast.Name):
            bound = self.env.get(node.id)
            return bound is not None and bound.is_set
        return False

    # -- sources/sinks/sanitizers at call sites --------------------------

    def _source(self, node: ast.AST, category: str, detail: str) -> Value:
        if (
            category == WALLCLOCK
            and self.fn.module in WALLCLOCK_EXEMPT_MODULES
        ):
            return Value.clean()
        atom = TaintAtom(
            category=category,
            origin=f"{self.module.ctx.path}:{getattr(node, 'lineno', 1)}",
            detail=detail,
            chain=(self.fn.qualname,),
        )
        return Value(taints=frozenset({atom}))

    def _eval_call(self, node: ast.Call) -> Value:
        dotted = _dotted(node.func)
        arg_values = [self.eval(a) for a in node.args]
        kw_values = [self.eval(kw.value) for kw in node.keywords]

        # Sources.
        if dotted is not None:
            resolved_src = self._resolve_dotted_for_specs(dotted)
            if resolved_src in SOURCE_CALLS:
                return self._source(node, SOURCE_CALLS[resolved_src], f"{dotted}()")
            leaf = dotted.rpartition(".")[2]
            if leaf in LISTING_METHODS and "." in dotted:
                return self._source(node, LISTING, f".{leaf}()")
            if leaf == "fsum" or dotted in SANITIZER_CALLS or resolved_src in SANITIZER_CALLS:
                cats = SANITIZER_CALLS.get(dotted) or SANITIZER_CALLS.get(resolved_src)
                if cats:
                    out = Value.clean()
                    for v in (*arg_values, *kw_values):
                        out = out.merged(v.collapsed())
                    return out.sanitized(cats)
            if dotted in FLOAT_REDUCERS and node.args:
                inner = arg_values[0]
                if inner.is_set or self._is_set_expr(node.args[0]):
                    return inner.collapsed().merged(
                        self._source(node, FLOATSUM, f"{dotted}() over a set")
                    )
            if dotted in ("set", "frozenset"):
                out = Value(is_set=True)
                for v in arg_values:
                    out = out.merged(v.collapsed())
                return replace(out, is_set=True)
            if dotted in ("list", "tuple") and node.args:
                inner = arg_values[0]
                if inner.is_set or self._is_set_expr(node.args[0]):
                    return inner.collapsed().merged(
                        self._source(node, SETORDER, f"{dotted}(set)")
                    )
                return inner.collapsed()
            if dotted in CLEAN_BUILTINS:
                return Value.clean()
            if leaf in ("get", "pop") and len(node.args) >= 1:
                # d.get("key", ...) on a tracked field-dict.
                base = self.eval(node.func.value) if isinstance(node.func, ast.Attribute) else Value.clean()
                if (
                    isinstance(node.args[0], ast.Constant)
                    and isinstance(node.args[0].value, str)
                    and node.args[0].value in base.fields
                ):
                    return base.fields[node.args[0].value]

        # Resolved project calls: sinks, then summaries.
        callee = self.graph.resolve_call(self.module, self.fn, node, self.types)
        self._check_sink(node, callee, dotted, arg_values, kw_values)
        self._check_metric_sink(node, dotted, arg_values, kw_values)

        if callee is not None and callee in self.an.summaries:
            return self._apply_summary(node, callee, arg_values, kw_values)

        # Unresolved call: conservatively pass argument taint through.
        out = Value.clean()
        for v in (*arg_values, *kw_values):
            out = out.merged(v.collapsed())
        # A method call on an unresolved receiver also carries the
        # receiver's taint (e.g. tainted_list.copy()).
        if isinstance(node.func, ast.Attribute):
            out = out.merged(self.eval(node.func.value).collapsed())
        return out

    def _resolve_dotted_for_specs(self, dotted: str) -> str:
        """Expand import aliases so specs match (``from os import getpid``)."""
        head, _, rest = dotted.partition(".")
        target = self.module.imports.get(head)
        if target is None:
            return dotted
        return f"{target}.{rest}" if rest else target

    def _apply_summary(
        self,
        node: ast.Call,
        callee: str,
        arg_values: list[Value],
        kw_values: list[Value],
    ) -> Value:
        summary = self.an.summaries[callee]
        callee_fn = self.graph.functions[callee]
        # Map call-site args onto callee params (methods: self first).
        mapped: dict[int, Value] = {}
        offset = 0
        if callee_fn.is_method and isinstance(node.func, ast.Attribute):
            receiver = self.eval(node.func.value)
            mapped[0] = receiver
            offset = 1
        for i, v in enumerate(arg_values):
            mapped[i + offset] = v
        kwarg_names = {kw.arg: kv for kw, kv in zip(node.keywords, kw_values)}
        for name, kv in kwarg_names.items():
            if name in callee_fn.params:
                mapped[callee_fn.params.index(name)] = kv

        # Param->sink flows recorded inside the callee.
        for hit in summary.sink_hits:
            value = mapped.get(hit.param)
            if value is None:
                continue
            value = value.collapsed().sanitized(hit.cancelled)
            self._report_sink_taint(
                node, value, hit.sink_label, hit.sink_origin,
                chain_suffix=hit.chain,
            )
            # Propagate: our params flowing into that callee param also
            # reach the sink.
            for pidx, cancelled in value.params.items():
                self.sink_hits.append(SinkHit(
                    param=pidx,
                    cancelled=cancelled | hit.cancelled,
                    sink_label=hit.sink_label,
                    sink_origin=hit.sink_origin,
                    chain=(self.fn.qualname, *hit.chain),
                ))

        # Return taint.
        out = Value(taints=frozenset(
            t.through(self.fn.qualname) for t in summary.returns
        ))
        for pidx, cancelled in summary.param_returns.items():
            value = mapped.get(pidx)
            if value is not None:
                out = out.merged(value.collapsed().sanitized(cancelled))
        return out

    # -- sinks -----------------------------------------------------------

    def _sink_spec_for(self, callee: str | None, dotted: str | None) -> SinkSpec | None:
        if callee is not None and callee in SINK_SPECS:
            return SINK_SPECS[callee]
        # fingerprint() by name, wherever it lives.
        for name, spec in SINK_NAMES.items():
            if dotted is not None and dotted.rpartition(".")[2] == name:
                return spec
            if callee is not None and callee.rpartition(".")[2] == name:
                return spec
        return None

    def _check_sink(
        self,
        node: ast.Call,
        callee: str | None,
        dotted: str | None,
        arg_values: list[Value],
        kw_values: list[Value],
    ) -> None:
        spec = self._sink_spec_for(callee, dotted)
        if spec is None:
            return
        values = [*arg_values, *kw_values]
        if spec.args is not None:
            # Indices are positional-arg indices (method receiver not
            # counted — specs use the visible-call arg positions).
            values = [arg_values[i] for i in spec.args if i < len(arg_values)]
            values.extend(kw_values)
        origin = f"{self.module.ctx.path}:{node.lineno}"
        for value in values:
            value = value.collapsed().sanitized(spec.immune)
            self._report_sink_taint(node, value, spec.label, origin, chain_suffix=())
            for pidx, cancelled in value.params.items():
                self.sink_hits.append(SinkHit(
                    param=pidx,
                    cancelled=cancelled,
                    sink_label=spec.label,
                    sink_origin=origin,
                    chain=(self.fn.qualname,),
                ))

    def _check_metric_sink(
        self,
        node: ast.Call,
        dotted: str | None,
        arg_values: list[Value],
        kw_values: list[Value],
    ) -> None:
        """``registry.counter("name").inc(v)`` style: a metric series
        that is *not* manifest-excluded feeds `deterministic_dict`."""
        if dotted is not None:
            return  # chained factory calls never form a plain dotted name
        func = node.func
        if not isinstance(func, ast.Attribute) or func.attr not in ("inc", "set", "observe", "add"):
            return
        inner = func.value
        if not isinstance(inner, ast.Call):
            return
        factory = inner.func
        if not isinstance(factory, ast.Attribute) or factory.attr not in (
            "counter", "gauge", "histogram"
        ):
            return
        if not inner.args or not isinstance(inner.args[0], ast.Constant):
            return
        series = inner.args[0].value
        if not isinstance(series, str) or excluded_from_deterministic_manifest(series):
            return
        origin = f"{self.module.ctx.path}:{node.lineno}"
        for value in (*arg_values, *kw_values):
            value = value.collapsed()
            self._report_sink_taint(
                node, value,
                f"deterministic-manifest metric '{series}'", origin,
                chain_suffix=(),
            )
            for pidx, cancelled in value.params.items():
                self.sink_hits.append(SinkHit(
                    param=pidx,
                    cancelled=cancelled,
                    sink_label=f"deterministic-manifest metric '{series}'",
                    sink_origin=origin,
                    chain=(self.fn.qualname,),
                ))

    def _report_sink_taint(
        self,
        node: ast.Call,
        value: Value,
        sink_label: str,
        sink_origin: str,
        chain_suffix: tuple[str, ...],
    ) -> None:
        if not self.record:
            return
        for atom in sorted(
            value.taints, key=lambda a: (a.category, a.origin, a.chain)
        ):
            code = CATEGORY_CODES[atom.category]
            chain = tuple(dict.fromkeys((*atom.chain, self.fn.qualname, *chain_suffix)))
            key = (code, self.module.ctx.path, node.lineno, atom.origin, sink_label)
            message = (
                f"{CATEGORY_LABELS[atom.category]} ({atom.detail}, from "
                f"{atom.origin}) reaches {sink_label} without a sanitizer; "
                f"call chain: {' -> '.join(chain)}"
            )
            self.an.add_finding(key, self.module.ctx.finding(node, code, message))


def analyze(graph: ProjectGraph) -> list[Finding]:
    """Run taint analysis over a built project graph."""
    return TaintAnalyzer(graph).run()
