"""Guard rails keeping the documentation honest: every artefact the docs
promise (bench targets, examples, docs pages, workload queries) exists."""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def read(name):
    return (ROOT / name).read_text()


class TestDesignPromises:
    def test_every_bench_target_exists(self):
        design = read("DESIGN.md")
        targets = re.findall(r"`benchmarks/(bench_\w+\.py)`", design)
        assert targets, "DESIGN.md lost its per-experiment index"
        for target in targets:
            assert (ROOT / "benchmarks" / target).exists(), target

    def test_every_bench_file_is_indexed(self):
        design = read("DESIGN.md")
        for path in (ROOT / "benchmarks").glob("bench_*.py"):
            assert path.name in design, f"{path.name} missing from DESIGN.md index"

    def test_subsystem_packages_exist(self):
        design = read("DESIGN.md")
        for package in re.findall(r"`repro\.(\w+)`", design):
            assert (ROOT / "src" / "repro" / package).exists() or (
                ROOT / "src" / "repro" / f"{package}.py"
            ).exists(), package

    def test_inventory_identifiers_are_defined(self):
        """Every backticked CamelCase identifier in the §2 inventory table
        names a class or function that exists under ``src/repro``."""
        design = read("DESIGN.md")
        table = design[
            design.index("## 2. What we build"):design.index("### Non-goals")
        ]
        named = set(re.findall(r"`([A-Z][A-Za-z0-9]*[a-z][A-Za-z0-9]*)`", table))
        assert named, "DESIGN.md §2 lost its inventory table"
        defined = set()
        for path in (ROOT / "src" / "repro").rglob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, (ast.ClassDef, ast.FunctionDef)):
                    defined.add(node.name)
        assert named <= defined, sorted(named - defined)


class TestReadmePromises:
    def test_examples_exist(self):
        readme = read("README.md")
        for name in re.findall(r"`(\w+\.py)`", readme):
            if (ROOT / "examples" / name).exists():
                continue
            # Non-example code files mentioned by name must exist somewhere.
            hits = list(ROOT.glob(f"**/{name}"))
            assert hits, f"README mentions missing file {name}"

    def test_docs_pages_exist(self):
        for page in ("architecture.md", "pgql.md", "metrics.md"):
            assert (ROOT / "docs" / page).exists()

    def test_readme_links_resolve(self):
        readme = read("README.md")
        for link in re.findall(r"\]\(([\w/.]+)\)", readme):
            assert (ROOT / link).exists(), f"broken README link: {link}"


class TestExperimentsPromises:
    def test_references_real_bench_modules(self):
        experiments = read("EXPERIMENTS.md")
        for target in re.findall(r"`(bench_\w+\.py)`", experiments):
            assert (ROOT / "benchmarks" / target).exists(), target

    def test_mentions_every_paper_artefact(self):
        experiments = read("EXPERIMENTS.md")
        for artefact in ("Figure 2", "Figure 3", "Table 2", "Table 3",
                         "Section 4.2", "Section 4.3", "Section 4.4",
                         "Section 5"):
            assert artefact in experiments, artefact


class TestWorkloadDocumentation:
    def test_nine_queries_run_and_match_design_claim(self):
        from repro.datagen import BENCHMARK_QUERIES

        design = read("DESIGN.md")
        assert "nine" in design.lower() or "9" in design
        assert len(BENCHMARK_QUERIES) == 9

    def test_figure3_axis_documented(self):
        from repro.datagen import FIGURE3_HOPS

        experiments = read("EXPERIMENTS.md")
        for hops in [(0, 0), (1, 3), (3, 3)]:
            assert hops in FIGURE3_HOPS
            assert f"{{{hops[0]},{hops[1]}}}" in experiments


class TestCommandsAndArtefactsExist:
    """The user-facing docs name only subcommands the parser defines and no
    artefact of the deleted ``repro bench`` harness."""

    DOCS = [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
        *sorted(f"docs/{p.name}" for p in (ROOT / "docs").glob("*.md")),
    ]

    @staticmethod
    def subcommands():
        import argparse

        from repro.cli import build_parser

        (action,) = [
            a for a in build_parser()._actions
            if isinstance(a, argparse._SubParsersAction)
        ]
        return set(action.choices)

    def test_there_are_seven_subcommands(self):
        assert self.subcommands() == {
            "generate", "query", "explain", "workload", "trace", "chaos",
            "analyze",
        }

    @pytest.mark.parametrize("doc", DOCS)
    def test_every_named_subcommand_is_defined(self, doc):
        named = set(
            re.findall(r"python3? -m repro (\w+)", read(doc))
            + re.findall(r"`repro (\w+)", read(doc))
        )
        assert named <= self.subcommands(), (doc, named - self.subcommands())

    @pytest.mark.parametrize("doc", DOCS)
    def test_no_doc_mentions_the_deleted_bench_baseline(self, doc):
        assert "BENCH_smoke_baseline" not in read(doc)
