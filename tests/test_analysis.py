"""repro.analysis: the invariant linter.

Each rule gets the four-quadrant treatment on synthetic fixture trees —
firing (positive), staying quiet (negative), silenced by a reviewed
suppression, and flagging the suppression once it goes stale — plus the
self-lint test pinning the repo's committed baseline to empty.
"""

from __future__ import annotations

import ast
import json
import subprocess
import textwrap
from pathlib import Path

import pytest

from repro.analysis import (
    LintConfig,
    RULE_DESCRIPTIONS,
    default_rules,
    lint_paths,
    load_project,
)
from repro.analysis.cli import main as lint_main
from repro.analysis.linter import discover_files
from repro.analysis.rules import LockOrderRule

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_lint(tmp_path: Path, files: dict[str, str], **kwargs):
    for rel, source in files.items():
        path = tmp_path / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source), encoding="utf-8")
    return lint_paths([tmp_path], root=tmp_path, **kwargs)


def codes(report) -> list[str]:
    return [finding.code for finding in report.findings]


# ---------------------------------------------------------------------------
# Framework: parsing, output shapes, suppressions
# ---------------------------------------------------------------------------
class TestFramework:
    def test_syntax_error_is_a_finding_not_a_crash(self, tmp_path):
        report = run_lint(tmp_path, {"broken.py": "def f(:\n"})
        assert codes(report) == ["REP000"]
        assert report.findings[0].path == "broken.py"

    def test_clean_tree_reports_clean(self, tmp_path):
        report = run_lint(tmp_path, {"ok.py": "x = 1\n"})
        assert report.clean
        assert report.files_checked == 1

    def test_json_shape_round_trips(self, tmp_path):
        report = run_lint(tmp_path, {"broken.py": "def f(:\n"})
        payload = json.loads(report.to_json())
        assert payload["clean"] is False
        (finding,) = payload["findings"]
        assert {"code", "severity", "path", "line", "column", "message"} <= (
            set(finding)
        )

    def test_human_render_is_path_line_col_code(self, tmp_path):
        report = run_lint(tmp_path, {"broken.py": "def f(:\n"})
        first = report.render().splitlines()[0]
        assert first.startswith("broken.py:1:")
        assert " REP000 " in first

    def test_findings_sort_stably(self, tmp_path):
        report = run_lint(tmp_path, {
            "b.py": "def f(:\n",
            "a.py": "def f(:\n",
        })
        assert [f.path for f in report.findings] == ["a.py", "b.py"]

    def test_every_rule_code_is_catalogued(self):
        for rule in default_rules():
            assert rule.code in RULE_DESCRIPTIONS

    def test_unused_suppression_is_flagged(self, tmp_path):
        report = run_lint(tmp_path, {
            "ok.py": "x = 1  # repro: ignore[REP201] stale\n",
        })
        assert codes(report) == ["REP501"]
        assert "matches no finding" in report.findings[0].message

    def test_wildcard_suppression_covers_any_code(self, tmp_path):
        source = _CACHE_UNLOCKED.replace(
            "self._items[key] = value",
            "self._items[key] = value  # repro: ignore[*] scratch",
        )
        report = run_lint(tmp_path, {"core/plan.py": source})
        assert report.clean
        assert report.suppressed == 1


# ---------------------------------------------------------------------------
# REP101 — RNG discipline on the validation path
# ---------------------------------------------------------------------------
_VALIDATION_WITH_RNG = """
    import numpy as np

    def validate(samples):
        rng = np.random.default_rng(7)
        return rng.random()
"""

_VALIDATION_IMPORTING = """
    from semantics import helper

    def validate(samples):
        return helper.jitter(samples)
"""


class TestValidationRng:
    def test_any_rng_in_a_validation_module_fires(self, tmp_path):
        report = run_lint(tmp_path, {"semantics/validation.py": _VALIDATION_WITH_RNG})
        assert codes(report) == ["REP101"]
        assert "validation-path" in report.findings[0].message

    def test_global_state_rng_reachable_from_validation_fires(self, tmp_path):
        report = run_lint(tmp_path, {
            "semantics/validation.py": _VALIDATION_IMPORTING,
            "semantics/helper.py": """
                import random

                def jitter(samples):
                    random.shuffle(samples)
                    return samples
            """,
        })
        assert codes(report) == ["REP101"]
        assert "import-reachable" in report.findings[0].message

    def test_unseeded_rng_reachable_from_validation_fires(self, tmp_path):
        report = run_lint(tmp_path, {
            "semantics/validation.py": _VALIDATION_IMPORTING,
            "semantics/helper.py": """
                import numpy as np

                def jitter(samples):
                    return np.random.default_rng().random()
            """,
        })
        assert codes(report) == ["REP101"]
        assert "unseeded" in report.findings[0].message

    def test_seeded_rng_outside_validation_is_fine(self, tmp_path):
        report = run_lint(tmp_path, {
            "semantics/validation.py": _VALIDATION_IMPORTING,
            "semantics/helper.py": """
                import numpy as np

                def jitter(samples):
                    return np.random.default_rng(42).random()
            """,
        })
        assert report.clean

    def test_seeded_random_random_is_a_constructor_not_global(self, tmp_path):
        # an owned, explicitly seeded stream
        report = run_lint(tmp_path, {
            "semantics/validation.py": _VALIDATION_IMPORTING,
            "semantics/helper.py": """
                import random

                def jitter(samples):
                    return random.Random("seed:1").random()
            """,
        })
        assert report.clean

    def test_sanctioned_module_may_construct_rng(self, tmp_path):
        report = run_lint(tmp_path, {
            "semantics/validation.py": """
                from utils import rng

                def validate(samples):
                    return rng.seeded_draw(samples)
            """,
            "utils/rng.py": """
                import numpy as np

                def seeded_draw(samples):
                    return np.random.default_rng(7).random()
            """,
        })
        assert report.clean

    def test_unreachable_rng_is_not_flagged(self, tmp_path):
        report = run_lint(tmp_path, {
            "semantics/validation.py": "def validate(s):\n    return s\n",
            "cli_tool.py": """
                import random

                def shuffle(items):
                    random.shuffle(items)
            """,
        })
        assert report.clean

    def test_suppression_silences_and_goes_stale(self, tmp_path):
        suppressed = _VALIDATION_WITH_RNG.replace(
            "np.random.default_rng(7)",
            "np.random.default_rng(7)  # repro: ignore[REP101] test scaffold",
        )
        report = run_lint(tmp_path, {"semantics/validation.py": suppressed})
        assert report.clean and report.suppressed == 1

        stale = (
            "def validate(s):\n"
            "    return s  # repro: ignore[REP101] obsolete\n"
        )
        report = run_lint(tmp_path, {"semantics/validation.py": stale})
        assert codes(report) == ["REP501"]


# ---------------------------------------------------------------------------
# REP102 — fingerprint purity
# ---------------------------------------------------------------------------
class TestFingerprintPurity:
    def test_time_in_fingerprint_fires(self, tmp_path):
        report = run_lint(tmp_path, {"store/plans.py": """
            import time

            def plan_fingerprint(plan):
                return f"{plan.key}:{time.time()}"
        """})
        assert codes(report) == ["REP102"]
        assert "wall-clock" in report.findings[0].message

    def test_builtin_hash_in_fingerprint_fires(self, tmp_path):
        report = run_lint(tmp_path, {"kg/io.py": """
            def graph_fingerprint(kg):
                return hash(kg.edges)
        """})
        assert codes(report) == ["REP102"]
        assert "salted" in report.findings[0].message

    def test_content_hash_is_fine(self, tmp_path):
        report = run_lint(tmp_path, {"kg/io.py": """
            import hashlib

            def graph_fingerprint(kg):
                digest = hashlib.sha256()
                digest.update(kg.edges.tobytes())
                return digest.hexdigest()
        """})
        assert report.clean

    def test_time_outside_fingerprints_is_fine(self, tmp_path):
        report = run_lint(tmp_path, {"store/plans.py": """
            import time

            def stamp():
                return time.time()
        """})
        assert report.clean


# ---------------------------------------------------------------------------
# REP103 — growth never runs on the validation path
# ---------------------------------------------------------------------------
class TestValidationGrowth:
    def test_grow_call_in_validation_module_fires(self, tmp_path):
        report = run_lint(tmp_path, {"semantics/kernels.py": """
            def execute(state, samples):
                state.grow(samples)
        """})
        assert codes(report) == ["REP103"]
        assert "scheduler" in report.findings[0].message

    def test_step_call_in_validation_module_fires(self, tmp_path):
        """A sampled ``step`` grows its sample before every round of a run
        but the first, so calling it from validation draws."""
        report = run_lint(tmp_path, {"semantics/validation.py": """
            def validate(executor, state, error_bound):
                return executor.step(state, error_bound, run_round=2)
        """})
        assert codes(report) == ["REP103"]
        assert "sampled step" in report.findings[0].message

    def test_grow_elsewhere_is_fine(self, tmp_path):
        report = run_lint(tmp_path, {"core/scheduler_glue.py": """
            def step(state, samples):
                state.grow(samples)
        """})
        assert report.clean


# ---------------------------------------------------------------------------
# REP201 — lock discipline
# ---------------------------------------------------------------------------
_CACHE_UNLOCKED = """
    import threading

    class PlanCache:
        def __init__(self):
            self._lock = threading.Lock()
            self._items = {}

        def put(self, key, value):
            self._items[key] = value
"""


class TestLockDiscipline:
    def test_unlocked_write_fires(self, tmp_path):
        report = run_lint(tmp_path, {"core/plan.py": _CACHE_UNLOCKED})
        assert codes(report) == ["REP201"]
        assert "self._items" in report.findings[0].message

    def test_locked_write_is_fine(self, tmp_path):
        report = run_lint(tmp_path, {"core/plan.py": """
            import threading

            class PlanCache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def put(self, key, value):
                    with self._lock:
                        self._items[key] = value
        """})
        assert report.clean

    def test_locked_suffix_methods_trust_the_caller(self, tmp_path):
        report = run_lint(tmp_path, {"core/plan.py": """
            import threading

            class PlanCache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._items = {}

                def put(self, key, value):
                    with self._lock:
                        self._put_locked(key, value)

                def _put_locked(self, key, value):
                    self._items[key] = value
        """})
        assert report.clean

    def test_init_helper_methods_are_exempt(self, tmp_path):
        report = run_lint(tmp_path, {"core/plan.py": """
            import threading

            class PlanCache:
                def __init__(self):
                    self._lock = threading.Lock()
                    self._reset_state()

                def _reset_state(self):
                    self._items = {}
        """})
        assert report.clean

    def test_unguarded_classes_are_ignored(self, tmp_path):
        report = run_lint(tmp_path, {"core/plan.py": """
            class Scratchpad:
                def put(self, key, value):
                    self._items[key] = value
        """})
        assert report.clean

    def test_class_level_suppression_exempts_single_writer(self, tmp_path):
        source = _CACHE_UNLOCKED.replace(
            "class PlanCache:",
            "# repro: ignore[REP201] single-writer by construction\n"
            "    class PlanCache:",
        )
        report = run_lint(tmp_path, {"core/plan.py": source})
        assert report.clean
        assert report.suppressed == 1


# ---------------------------------------------------------------------------
# REP202 — lock acquisition order
# ---------------------------------------------------------------------------
class TestLockOrder:
    def test_inverted_nesting_fires(self, tmp_path):
        report = run_lint(tmp_path, {"core/service.py": """
            class AggregateQueryService:
                def submit(self):
                    with self._lock:
                        with self._condition:
                            pass

                def settle(self):
                    with self._condition:
                        with self._lock:
                            pass
        """})
        assert codes(report) == ["REP202"]
        assert "cycle" in report.findings[0].message

    def test_consistent_order_is_fine(self, tmp_path):
        report = run_lint(tmp_path, {"core/service.py": """
            class AggregateQueryService:
                def submit(self):
                    with self._lock:
                        with self._condition:
                            pass

                def settle(self):
                    with self._lock:
                        with self._condition:
                            pass
        """})
        assert report.clean

    def test_reacquisition_through_a_call_fires(self, tmp_path):
        report = run_lint(tmp_path, {"core/service.py": """
            class AggregateQueryService:
                def submit(self):
                    with self._lock:
                        self._notify()

                def _notify(self):
                    with self._lock:
                        pass
        """})
        assert codes(report) == ["REP202"]
        assert "re-acquired" in report.findings[0].message

    def test_modules_off_the_contract_list_are_ignored(self, tmp_path):
        report = run_lint(tmp_path, {"misc/tool.py": """
            class AggregateQueryService:
                def a(self):
                    with self._lock:
                        with self._condition:
                            pass

                def b(self):
                    with self._condition:
                        with self._lock:
                            pass
        """})
        assert report.clean


# ---------------------------------------------------------------------------
# REP301 — set iteration feeding ordered outputs
# ---------------------------------------------------------------------------
class TestSetIteration:
    def test_list_over_set_fires(self, tmp_path):
        report = run_lint(tmp_path, {"semantics/kernels.py": """
            def export(edges):
                support = {edge.head for edge in edges}
                return list(support)
        """})
        assert codes(report) == ["REP301"]
        assert "sorted" in report.findings[0].message

    def test_sorted_over_set_is_fine(self, tmp_path):
        report = run_lint(tmp_path, {"semantics/kernels.py": """
            def export(edges):
                support = {edge.head for edge in edges}
                return sorted(support)
        """})
        assert report.clean

    def test_order_insensitive_consumer_is_fine(self, tmp_path):
        report = run_lint(tmp_path, {"semantics/kernels.py": """
            def export(edges):
                support = {edge.head for edge in edges}
                return sorted(list(support)), len(support)
        """})
        assert report.clean

    def test_comprehension_over_set_union_fires(self, tmp_path):
        report = run_lint(tmp_path, {"core/executor.py": """
            def merge(left, right):
                return [entry for entry in set(left) | set(right)]
        """})
        assert codes(report) == ["REP301"]

    def test_a_nested_function_fires_once(self, tmp_path):
        report = run_lint(tmp_path, {"semantics/kernels.py": """
            def export(edges):
                def heads():
                    return list({edge.head for edge in edges})
                return heads()
        """})
        assert codes(report) == ["REP301"]

    def test_yield_in_set_order_fires(self, tmp_path):
        report = run_lint(tmp_path, {"kg/io.py": """
            def stream(nodes):
                pending = set(nodes)
                for node in pending:
                    yield node
        """})
        assert codes(report) == ["REP301"]

    @pytest.mark.parametrize(
        "module",
        [
            "core/planner.py",
            "sampling/strength.py",
            "sampling/chain.py",
            "sampling/collector.py",
        ],
    )
    def test_s1_modules_are_guarded(self, tmp_path, module):
        # S1 output is pinned by the golden file and persisted by the store
        report = run_lint(tmp_path, {module: """
            def answers(nodes):
                return list(set(nodes))
        """})
        assert codes(report) == ["REP301"]

    def test_plain_accumulate_then_sort_loop_is_fine(self, tmp_path):
        # the kernels.py idiom: loop over the set, sort what accumulated
        report = run_lint(tmp_path, {"semantics/kernels.py": """
            def relevant(edges):
                out = []
                for edge in set(edges):
                    out.append(edge)
                out.sort()
                return out
        """})
        assert report.clean

    def test_modules_off_the_deterministic_path_are_ignored(self, tmp_path):
        report = run_lint(tmp_path, {"misc/tool.py": """
            def export(edges):
                return list(set(edges))
        """})
        assert report.clean


# ---------------------------------------------------------------------------
# REP401 — metric naming
# ---------------------------------------------------------------------------
class TestMetricNaming:
    def test_off_contract_scope_fires(self, tmp_path):
        report = run_lint(tmp_path, {"core/service.py": """
            def wire(registry):
                scope = registry.scope("misc")
                return scope.counter("events_total")
        """})
        assert codes(report) == ["REP401"]
        assert "misc" in report.findings[0].message

    def test_malformed_metric_name_fires(self, tmp_path):
        report = run_lint(tmp_path, {"core/service.py": """
            def wire(registry):
                scope = registry.scope("scheduler")
                return scope.counter("Bad-Name")
        """})
        assert codes(report) == ["REP401"]
        assert "repro_scheduler_Bad-Name" in report.findings[0].message

    def test_a_method_registration_fires_once(self, tmp_path):
        report = run_lint(tmp_path, {"core/service.py": """
            class Service:
                def wire(self, registry):
                    scope = registry.scope("scheduler")
                    scope.counter("Bad-Name")
                    return scope.gauge("Bad-Name")
        """})
        assert codes(report) == ["REP401", "REP401"]

    def test_a_module_scope_used_in_a_method_fires(self, tmp_path):
        report = run_lint(tmp_path, {"core/service.py": """
            S = registry.scope("exec")

            class Service:
                def wire(self):
                    return S.counter("Bad-Name")
        """})
        assert codes(report) == ["REP401"]
        assert "repro_exec_Bad-Name" in report.findings[0].message

    def test_non_literal_metric_name_fires(self, tmp_path):
        report = run_lint(tmp_path, {"core/service.py": """
            def wire(registry, name):
                return registry.scope("exec").counter(name)
        """})
        assert codes(report) == ["REP401"]
        assert "literal" in report.findings[0].message

    def test_contract_registration_is_fine(self, tmp_path):
        report = run_lint(tmp_path, {"core/service.py": """
            def wire(registry):
                scope = registry.scope("scheduler")
                chained = registry.scope("plan").gauge("stage_batches")
                return scope.counter("queries_settled_total"), chained
        """})
        assert report.clean


# ---------------------------------------------------------------------------
# REP402 — error taxonomy <-> status mapping
# ---------------------------------------------------------------------------
_ERRORS_FIXTURE = """
    class ReproError(Exception):
        pass

    class GraphError(ReproError):
        pass

    class StoreError(ReproError):
        pass
"""


class TestErrorTaxonomy:
    def test_unmapped_class_fires(self, tmp_path):
        report = run_lint(tmp_path, {
            "errors.py": _ERRORS_FIXTURE,
            "server/app.py": """
                from errors import GraphError, ReproError

                _ERROR_STATUS = (
                    (GraphError, 400),
                    (ReproError, 500),
                )
            """,
        })
        assert codes(report) == ["REP402"]
        assert "StoreError" in report.findings[0].message
        assert "catch-all" in report.findings[0].message

    def test_subclass_after_base_is_unreachable(self, tmp_path):
        report = run_lint(tmp_path, {
            "errors.py": _ERRORS_FIXTURE,
            "server/app.py": """
                from errors import GraphError, ReproError, StoreError

                _ERROR_STATUS = (
                    (ReproError, 500),
                    (GraphError, 400),
                    (StoreError, 503),
                )
            """,
        })
        assert sorted(codes(report)) == ["REP402", "REP402"]
        messages = " ".join(f.message for f in report.findings)
        assert "unreachable" in messages

    def test_full_specific_coverage_is_fine(self, tmp_path):
        report = run_lint(tmp_path, {
            "errors.py": _ERRORS_FIXTURE,
            "server/app.py": """
                from errors import GraphError, ReproError, StoreError

                _ERROR_STATUS = (
                    (GraphError, 400),
                    (StoreError, 503),
                    (ReproError, 500),
                )
            """,
        })
        assert report.clean

    def test_coverage_via_a_specific_base_is_fine(self, tmp_path):
        report = run_lint(tmp_path, {
            "errors.py": _ERRORS_FIXTURE + (
                "\n    class NodeNotFoundError(GraphError):\n"
                "        pass\n"
            ),
            "server/app.py": """
                from errors import GraphError, ReproError, StoreError

                _ERROR_STATUS = (
                    (GraphError, 400),
                    (StoreError, 503),
                    (ReproError, 500),
                )
            """,
        })
        assert report.clean

    def test_missing_table_fires(self, tmp_path):
        report = run_lint(tmp_path, {
            "errors.py": _ERRORS_FIXTURE,
            "server/app.py": "status_for = None\n",
        })
        assert codes(report) == ["REP402"]
        assert "not found" in report.findings[0].message


# ---------------------------------------------------------------------------
# REP403 — stage bucket attribution
# ---------------------------------------------------------------------------
class TestStageBuckets:
    def test_orphan_stage_constant_fires(self, tmp_path):
        report = run_lint(tmp_path, {"core/executor.py": """
            STAGE_SAMPLING = "sampling"
            STAGE_ORPHAN = "orphan"

            def run(measure):
                measure(STAGE_SAMPLING)
        """})
        assert codes(report) == ["REP403"]
        assert "STAGE_ORPHAN" in report.findings[0].message

    def test_cross_module_attribution_counts(self, tmp_path):
        report = run_lint(tmp_path, {
            "core/executor.py": 'STAGE_SCHEDULER = "scheduler"\n',
            "core/service.py": """
                from core.executor import STAGE_SCHEDULER

                def account(state, seconds):
                    state.stage_ms[STAGE_SCHEDULER] = seconds * 1000.0
            """,
        })
        assert report.clean

    def test_keyword_argument_attribution_counts(self, tmp_path):
        report = run_lint(tmp_path, {"core/executor.py": """
            STAGE_GUARANTEE = "guarantee"

            def run(attribute):
                attribute(stage=STAGE_GUARANTEE)
        """})
        assert report.clean


# ---------------------------------------------------------------------------
# --changed mode
# ---------------------------------------------------------------------------
class TestChangedMode:
    def _git(self, cwd, *argv):
        subprocess.run(
            ["git", "-c", "user.email=t@t", "-c", "user.name=t", *argv],
            cwd=cwd, check=True, capture_output=True,
        )

    def test_reports_only_changed_files_but_analyses_all(self, tmp_path):
        committed = "def f(:\n"
        (tmp_path / "old.py").write_text(committed)
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "add", "old.py")
        self._git(tmp_path, "commit", "-qm", "seed")
        (tmp_path / "new.py").write_text("def g(:\n")

        report = lint_paths([tmp_path], root=tmp_path, since="HEAD")
        assert [f.path for f in report.findings] == ["new.py"]
        assert report.files_checked == 2
        assert report.files_reported == 1

    def test_project_rules_stay_sound_in_changed_mode(self, tmp_path):
        # the STAGE constant lives in a committed file; its use site is
        # the changed file — a naive universe filter would cry orphan
        (tmp_path / "core").mkdir()
        (tmp_path / "core/executor.py").write_text(
            'STAGE_SAMPLING = "sampling"\n'
        )
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "add", "-A")
        self._git(tmp_path, "commit", "-qm", "seed")
        (tmp_path / "use.py").write_text(
            "from core.executor import STAGE_SAMPLING\n"
            "def run(measure):\n"
            "    measure(STAGE_SAMPLING)\n"
        )
        report = lint_paths([tmp_path], root=tmp_path, since="HEAD")
        assert report.clean


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------
class TestCli:
    def test_exit_codes(self, tmp_path, capsys):
        clean = tmp_path / "clean.py"
        clean.write_text("x = 1\n")
        assert lint_main([str(clean)]) == 0
        dirty = tmp_path / "dirty.py"
        dirty.write_text("def f(:\n")
        assert lint_main([str(dirty)]) == 1
        assert lint_main([str(tmp_path / "missing.py")]) == 2
        capsys.readouterr()

    def test_json_output_parses(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("def f(:\n")
        assert lint_main(["--format", "json", str(dirty)]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["findings"][0]["code"] == "REP000"

    def test_list_rules_prints_the_catalogue(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in RULE_DESCRIPTIONS:
            assert code in out

    def test_select_filters_codes(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("def f(:\n")
        assert lint_main(["--select", "REP501", str(dirty)]) == 0
        assert lint_main(["--select", "REP000", str(dirty)]) == 1
        assert lint_main(["--select", "REP999", str(dirty)]) == 2
        capsys.readouterr()

    def test_repro_cli_exposes_lint(self):
        from repro.cli import _build_parser

        args = _build_parser().parse_args(["lint", "--list-rules"])
        assert args.command == "lint"
        assert args.list_rules is True


# ---------------------------------------------------------------------------
# Self-lint: the committed baseline is empty in both directions
# ---------------------------------------------------------------------------
class TestSelfLint:
    def test_src_repro_is_clean(self):
        report = lint_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
        assert report.findings == [], report.render()

    def test_no_unused_suppressions(self):
        report = lint_paths([REPO_ROOT / "src" / "repro"], root=REPO_ROOT)
        assert report.unused_suppressions == []

    def test_every_suppression_carries_a_justification(self):
        files = discover_files([REPO_ROOT / "src" / "repro"])
        project = load_project(files, root=REPO_ROOT)
        for module in project:
            for suppression in module.suppressions:
                assert suppression.justification, (
                    f"{suppression.path}:{suppression.line} has a bare "
                    "suppression; say why it is safe"
                )

    def test_the_contract_files_are_present(self):
        # the rules silently no-op if their contract files move; pin them
        files = discover_files([REPO_ROOT / "src" / "repro"])
        project = load_project(files, root=REPO_ROOT)
        config = LintConfig()
        for suffix in (
            config.validation_modules
            + config.sanctioned_rng_modules
            + config.lock_order_modules
            + (config.errors_module, config.status_module,
               config.stage_module)
        ):
            assert project.find(suffix) is not None, suffix

    def test_the_deterministic_modules_are_present(self):
        # REP301 skips a module it cannot find: a deleted one must leave
        # the list with it
        files = discover_files([REPO_ROOT / "src" / "repro"])
        project = load_project(files, root=REPO_ROOT)
        for suffix in LintConfig().deterministic_modules:
            assert project.find(suffix) is not None, suffix

    def test_every_guarded_class_is_defined(self):
        # REP201 checks classes by name: a guard on a class that no longer
        # exists checks nothing
        files = discover_files([REPO_ROOT / "src" / "repro"])
        project = load_project(files, root=REPO_ROOT)
        defined = {
            node.name
            for module in project
            for node in ast.walk(module.tree)
            if isinstance(node, ast.ClassDef)
        }
        missing = set(LintConfig().guarded_classes) - defined
        assert not missing, sorted(missing)

    def test_every_lock_order_module_acquires_a_lock(self):
        # REP202 builds its graph from these modules' ``with <lock>:``
        # blocks: a module that acquires no lock adds nothing to it
        files = discover_files([REPO_ROOT / "src" / "repro"])
        project = load_project(files, root=REPO_ROOT)
        for suffix in LintConfig().lock_order_modules:
            module = project.find(suffix)
            assert module is not None, suffix
            assert any(
                LockOrderRule._direct_locks("", node)
                for node in ast.walk(module.tree)
                if isinstance(node, ast.ClassDef)
            ), suffix
