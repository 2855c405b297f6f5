"""Project lint layer: each rule on synthetic sources, plus src/ cleanliness."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.analysis.lint import RULES, lint_file, lint_source, run_lint

SRC = Path(__file__).resolve().parents[1] / "src"


def rules_of(findings):
    return {finding.rule for finding in findings}


def render(findings):
    return "\n".join(finding.render() for finding in findings)


def lint(source, path):
    return lint_source(textwrap.dedent(source), path)


# ---------------------------------------------------------------------------
# LT200 — syntax errors become findings, not crashes


def test_syntax_error_is_lt200():
    findings = lint("def broken(:\n", "src/repro/broken.py")
    assert rules_of(findings) == {"LT200"}
    assert findings[0].severity == "error"


# ---------------------------------------------------------------------------
# LT201 — registry mutation outside register_* functions


def test_registry_mutation_at_module_level_is_flagged():
    report = lint(
        """
        from repro.cost.platform import PLATFORMS

        PLATFORMS["rogue"] = object()
        """,
        "src/repro/rogue.py",
    )
    assert "LT201" in rules_of(report)


def test_registry_mutation_inside_register_function_is_allowed():
    report = lint(
        """
        from repro.cost.platform import PLATFORMS

        def register_custom(name, platform):
            PLATFORMS[name] = platform

        def unregister_custom(name):
            PLATFORMS.pop(name, None)
        """,
        "src/repro/ok.py",
    )
    assert not report, render(report)


def test_registry_mutator_method_call_is_flagged():
    report = lint(
        """
        from repro.core.strategies import STRATEGIES

        def sneaky():
            STRATEGIES.update(other)
        """,
        "src/repro/sneaky.py",
    )
    assert "LT201" in rules_of(report)


def test_table_mutation_message_points_at_the_literal():
    findings = lint(
        """
        from repro.core.strategies import STRATEGIES

        STRATEGIES["rogue"] = object()
        """,
        "src/repro/rogue.py",
    )
    [finding] = findings
    assert finding.rule == "LT201"
    assert finding.message == (
        "table STRATEGIES is assigned into outside a register_* function; "
        "add a row to the STRATEGIES literal instead"
    )


def test_platform_mutation_message_points_at_register_platform():
    findings = lint(
        """
        from repro.cost.platform import PLATFORMS

        PLATFORMS.pop("gpu-sim")
        """,
        "src/repro/rogue.py",
    )
    [finding] = findings
    assert finding.rule == "LT201"
    assert finding.message.endswith("; publish through register_platform instead")


# ---------------------------------------------------------------------------
# LT202 — unseeded randomness in multiobj/


def test_unseeded_random_in_multiobj_is_flagged():
    source = """
    import random

    def jitter():
        return random.random()
    """
    report = lint(source, "src/repro/multiobj/sampler.py")
    assert "LT202" in rules_of(report)
    # The same source outside multiobj/ is not this rule's business.
    assert not lint(source, "src/repro/cost/sampler.py")


def test_seeded_random_in_multiobj_is_allowed():
    report = lint(
        """
        import random

        def generator(seed):
            return random.Random(seed)
        """,
        "src/repro/multiobj/sampler.py",
    )
    assert not report, render(report)


def test_argless_random_constructor_is_flagged():
    report = lint(
        """
        import random

        rng = random.Random()
        """,
        "src/repro/multiobj/sampler.py",
    )
    assert "LT202" in rules_of(report)


# ---------------------------------------------------------------------------
# LT203 — serialization without sort_keys


def test_unsorted_dumps_on_serialization_path_is_flagged():
    source = """
    import json

    def save(document):
        return json.dumps(document, indent=2)
    """
    report = lint(source, "src/repro/cost/serialize.py")
    assert "LT203" in rules_of(report)
    # Non-serialization modules may order keys however they like.
    assert not lint(source, "src/repro/cli.py")


def test_sorted_dumps_is_allowed():
    report = lint(
        """
        import json

        def save(document):
            return json.dumps(document, indent=2, sort_keys=True)
        """,
        "src/repro/cost/serialize.py",
    )
    assert not report, render(report)


# ---------------------------------------------------------------------------
# LT204 — lock discipline in api.py / service/


LOCKED_CLASS = """
import threading


class Cache:
    def __init__(self):
        self._lock = threading.Lock()
        self._items = {}

    def put(self, key, value):
        with self._lock:
            self._items[key] = value

    def drop(self, key):
        %s
"""


def test_unlocked_mutation_of_guarded_attribute_is_flagged():
    source = LOCKED_CLASS % "self._items.pop(key, None)"
    report = lint(source, "src/repro/service/cache.py")
    assert "LT204" in rules_of(report)
    # The identical class outside api.py / service/ is out of scope.
    assert not lint(source, "src/repro/cost/cache.py")


def test_locked_mutation_everywhere_is_clean():
    source = LOCKED_CLASS % (
        "with self._lock:\n            self._items.pop(key, None)"
    )
    report = lint(source, "src/repro/service/cache.py")
    assert not report, render(report)


# ---------------------------------------------------------------------------
# noqa suppression


def test_noqa_suppresses_named_rule():
    report = lint(
        """
        from repro.cost.platform import PLATFORMS

        PLATFORMS["rogue"] = object()  # noqa: LT201
        """,
        "src/repro/rogue.py",
    )
    assert not report, render(report)


def test_noqa_with_other_rule_does_not_suppress():
    report = lint(
        """
        from repro.cost.platform import PLATFORMS

        PLATFORMS["rogue"] = object()  # noqa: LT999
        """,
        "src/repro/rogue.py",
    )
    assert "LT201" in rules_of(report)


def test_bare_noqa_suppresses_everything():
    report = lint(
        """
        from repro.cost.platform import PLATFORMS

        PLATFORMS["rogue"] = object()  # noqa
        """,
        "src/repro/rogue.py",
    )
    assert not report, render(report)


# ---------------------------------------------------------------------------
# the project itself is lint-clean


def test_src_tree_is_lint_clean():
    report = run_lint([SRC])
    assert report.ok, report.to_json()
    assert not report.findings, report.to_json()


def test_lint_file_reads_real_modules(tmp_path):
    path = tmp_path / "bad.py"
    path.write_text("from repro.models import MODEL_BUILDERS\nMODEL_BUILDERS.clear()\n")
    report = lint_file(path)
    assert "LT201" in rules_of(report)


# ---------------------------------------------------------------------------
# the rule table


def test_rules_table_lists_each_rule_once():
    names = [rule.__name__ for rule in RULES]
    assert names == [
        "lint_registry_mutation",
        "lint_unseeded_random",
        "lint_unsorted_json",
        "lint_lock_discipline",
    ]
