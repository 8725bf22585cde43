#!/usr/bin/env python3
"""Meta-test: every lint rule has both firing and clean fixture coverage.

The two linters (tools/dmx_lint.py, tools/dmx_deep_lint.py) are themselves
tested against seeded fixture trees, but nothing used to stop a new rule from
shipping with no fixture at all — or with only a firing fixture, so a later
refactor that makes the rule fire on *compliant* code would go unnoticed.
This script closes that gap. For every rule id in each linter's ALL_RULES it
asserts:

  * firing coverage — at least one fixture EXPECT file names the rule in a
    `rule:path:line` line (the linter's --self-test replays these, so the
    rule demonstrably still detects its violation);
  * clean coverage — at least one clean fixture (EXPECT == "clean") lists
    the rule in its COVERS file, declaring that the fixture contains code in
    the rule's domain that must NOT be reported.

It also validates the fixture metadata itself: COVERS files may only appear
in clean fixtures, and both EXPECT and COVERS may only name rule ids the
owning linter actually defines (a misspelled id here would silently provide
no coverage).

With --check-gates it additionally cross-checks the static-analysis gate
list: the `== Gate N:` markers in tools/run_static_analysis.sh must be
numbered 1..N with no gaps, the gate table in README.md must have exactly
one row per gate, and each row must name exactly one CI job that exists as
a job key in .github/workflows/ci.yml (every gate runs in exactly one job).

Exit status 0 when everything holds; 1 with a per-problem report otherwise.
Registered in ctest as lint_rule_coverage.
"""

import argparse
import importlib.util
import re
import sys
from pathlib import Path

TOOLS_DIR = Path(__file__).resolve().parent
REPO_ROOT = TOOLS_DIR.parent

# (linter module file, fixtures directory) — ALL_RULES is read from the
# module so a rule added to a linter fails here until its fixtures exist.
LINTERS = (
    ("dmx_lint.py", "lint_fixtures"),
    ("dmx_deep_lint.py", "deep_lint_fixtures"),
)


def load_rules(module_file):
    """Imports a linter module and returns its ALL_RULES tuple."""
    path = TOOLS_DIR / module_file
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return tuple(module.ALL_RULES)


def parse_expect(path):
    """Returns (is_clean, firing_rule_ids) for one EXPECT file."""
    is_clean = False
    rules = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line == "clean":
            is_clean = True
            continue
        rules.add(line.split(":", 1)[0])
    return is_clean, rules


def parse_covers(path):
    """Returns the declared rule ids from one COVERS file."""
    rules = set()
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        rules.add(line)
    return rules


def check_linter(module_file, fixtures_name, problems):
    rules = load_rules(module_file)
    fixtures_dir = TOOLS_DIR / fixtures_name
    firing = {}   # rule -> [fixture names]
    covered = {}  # rule -> [fixture names]

    for fixture in sorted(p for p in fixtures_dir.iterdir() if p.is_dir()):
        expect = fixture / "EXPECT"
        rel = f"tools/{fixtures_name}/{fixture.name}"
        if not expect.is_file():
            problems.append(f"{rel}: fixture has no EXPECT file")
            continue
        is_clean, expect_rules = parse_expect(expect)
        if is_clean and expect_rules:
            problems.append(f"{rel}/EXPECT: mixes 'clean' with rule lines")
        for rule in expect_rules:
            if rule not in rules:
                problems.append(f"{rel}/EXPECT: unknown rule id '{rule}' "
                                f"(not in {module_file} ALL_RULES)")
            else:
                firing.setdefault(rule, []).append(fixture.name)

        covers = fixture / "COVERS"
        if covers.is_file():
            if not is_clean:
                problems.append(f"{rel}/COVERS: COVERS files belong in clean "
                                "fixtures only (this EXPECT lists findings)")
            for rule in parse_covers(covers):
                if rule not in rules:
                    problems.append(f"{rel}/COVERS: unknown rule id '{rule}' "
                                    f"(not in {module_file} ALL_RULES)")
                else:
                    covered.setdefault(rule, []).append(fixture.name)

    for rule in rules:
        if rule not in firing:
            problems.append(
                f"{module_file}: rule '{rule}' has no firing fixture — no "
                f"EXPECT under tools/{fixtures_name}/ names it")
        if rule not in covered:
            problems.append(
                f"{module_file}: rule '{rule}' has no clean coverage — no "
                f"clean fixture's COVERS under tools/{fixtures_name}/ "
                "declares it")
    return len(rules)


def check_gates(problems):
    """Gate markers in the driver script must match the README gate table."""
    script = REPO_ROOT / "tools" / "run_static_analysis.sh"
    markers = re.findall(r"^echo \"== Gate (\d+):",
                         script.read_text(encoding="utf-8"), re.MULTILINE)
    numbers = [int(n) for n in markers]
    if numbers != list(range(1, len(numbers) + 1)):
        problems.append(f"run_static_analysis.sh: gate markers {numbers} are "
                        "not numbered 1..N without gaps")

    readme = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
    rows = re.findall(r"^\| *(\d+) *\|.*\|(.*)\| *$", readme, re.MULTILINE)
    table = [int(n) for n, _ in rows]
    if table != numbers:
        problems.append(
            f"README.md gate table rows {table} do not match the "
            f"`== Gate N:` markers {numbers} in run_static_analysis.sh — "
            "keep the two lists in sync")

    jobs = ci_job_keys()
    for n, job_cell in rows:
        named = re.findall(r"`([^`]+)`", job_cell)
        if len(named) != 1:
            problems.append(
                f"README.md gate {n} names CI jobs {named}; each gate must "
                "run in exactly one CI job")
        for job in named:
            if job not in jobs:
                problems.append(
                    f"README.md gate {n} names CI job '{job}', which is not "
                    "a job in .github/workflows/ci.yml")
    return len(numbers)


def ci_job_keys():
    """The job ids under `jobs:` in the CI workflow (two-space indented)."""
    workflow = REPO_ROOT / ".github" / "workflows" / "ci.yml"
    keys = set()
    in_jobs = False
    for line in workflow.read_text(encoding="utf-8").splitlines():
        if re.match(r"^\S", line):
            in_jobs = line.rstrip() == "jobs:"
            continue
        match = re.match(r"^  ([A-Za-z0-9_-]+):\s*$", line)
        if in_jobs and match:
            keys.add(match.group(1))
    return keys


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check-gates", action="store_true",
                        help="also cross-check the static-analysis gate list "
                             "against the README gate table")
    args = parser.parse_args(argv)

    problems = []
    total = 0
    for module_file, fixtures_name in LINTERS:
        total += check_linter(module_file, fixtures_name, problems)
    gates = check_gates(problems) if args.check_gates else None

    if problems:
        for problem in problems:
            print(f"lint_rule_coverage: {problem}", file=sys.stderr)
        print(f"lint_rule_coverage: {len(problems)} problem(s)",
              file=sys.stderr)
        return 1
    suffix = f", {gates} gates consistent" if gates is not None else ""
    print(f"lint_rule_coverage: {total} rules covered (firing + clean)"
          f"{suffix}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
