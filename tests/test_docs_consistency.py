"""Guardrails keeping the documentation honest about the code."""

import dataclasses
import importlib
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).parent.parent


def read(name: str) -> str:
    return (ROOT / name).read_text()


class TestDesignDoc:
    def test_per_experiment_bench_targets_exist(self):
        design = read("DESIGN.md")
        for target in re.findall(r"`benchmarks/(bench_\w+\.py)`", design):
            assert (ROOT / "benchmarks" / target).exists(), target

    def test_inventory_modules_exist(self):
        design = read("DESIGN.md")
        block = design.split("```")[1]
        for line in block.splitlines():
            m = re.match(r"\s+(\w+\.py)\s", line)
            if not m:
                continue
            name = m.group(1)
            hits = list((ROOT / "src" / "repro").rglob(name))
            assert hits, f"DESIGN.md lists {name} but it does not exist"

    def test_every_table_and_figure_indexed(self):
        design = read("DESIGN.md")
        for exp in ("Table 1", "Table 2", "Table 3", "Table 4", "Fig 3",
                    "Fig 4", "Fig 5(a)", "Fig 5(b)", "Fig 6(a)", "Fig 6(b)",
                    "Fig 6(c)", "Fig 7", "Fig 8(a)", "Fig 8(b)"):
            assert exp in design, f"{exp} missing from the experiment index"


class TestReadme:
    def test_example_commands_reference_real_files(self):
        readme = read("README.md")
        for path in re.findall(r"python (examples/\w+\.py)", readme):
            assert (ROOT / path).exists(), path

    def test_env_knobs_match_harness(self):
        readme = read("README.md")
        harness = read("src/repro/bench/harness.py")
        for var in ("REPRO_SCALE", "REPRO_MACHINES", "REPRO_FULL"):
            assert var in readme and var in harness

    def test_quickstart_snippet_imports_resolve(self):
        import repro

        for name in ("ClusterConfig", "PgxdCluster", "rmat", "InNbrIterTask",
                     "ReduceOp", "TaskJob"):
            assert hasattr(repro, name), name


class TestExperimentsDoc:
    def test_covers_every_figure_and_table(self):
        exp = read("EXPERIMENTS.md")
        for section in ("Table 1", "Table 2", "Table 3", "Table 4",
                        "Figure 3", "Figure 4", "Figure 5(a)", "Figure 5(b)",
                        "Figure 6(a)", "Figure 6(b)", "Figure 6(c)",
                        "Figure 7", "Figure 8(a)", "Figure 8(b)"):
            assert section in exp, f"{section} missing from EXPERIMENTS.md"

    def test_deviations_section_present(self):
        assert "Deviations" in read("EXPERIMENTS.md")


class TestApiReference:
    def test_documented_modules_import(self):
        for mod in ("repro.dsl", "repro.query", "repro.server",
                    "repro.patterns", "repro.dynamic", "repro.obs.profiler",
                    "repro.core.checkpoint", "repro.cli",
                    "repro.graph.preprocess", "repro.graph.stats"):
            importlib.import_module(mod)

    def test_reference_mentions_each_extension_module(self):
        ref = read("docs/api_reference.md")
        for mod in ("repro.dsl", "repro.query", "repro.server",
                    "repro.patterns", "repro.dynamic",
                    "repro.obs.profiler"):
            assert mod in ref

    CONFIGS = {"ClusterConfig": "repro.runtime.config",
               "MachineConfig": "repro.runtime.config",
               "NetworkConfig": "repro.runtime.config",
               "EngineConfig": "repro.runtime.config",
               "SchedulerConfig": "repro.core.scheduler",
               "CacheConfig": "repro.core.result_cache",
               "IncrementalConfig": "repro.core.incremental",
               "FaultPlan": "repro.core.faults"}

    def config_tables(self) -> dict:
        section = read("docs/api_reference.md").split(
            "## Configuration dataclasses")[1].split("\n## ")[0]
        tables = {}
        for block in section.split("\n### ")[1:]:
            name = re.match(r"`(\w+)`", block).group(1)
            tables[name] = re.findall(r"^\| `(\w+)` \|", block, re.M)
        return tables

    def test_config_tables_list_every_field(self):
        tables = self.config_tables()
        assert list(tables) == list(self.CONFIGS)
        for name, module in self.CONFIGS.items():
            cls = getattr(importlib.import_module(module), name)
            assert tables[name] == [f.name for f in dataclasses.fields(cls)], \
                name


class TestObservabilityDoc:
    """The hook table mirrors ``KNOWN_HOOKS`` row for row."""

    ROW = re.compile(r"^\| ((?:`[\w.]+`(?: / )?)+) \| `([^`]*)`(.*)\|$")

    def rows(self) -> dict:
        section = read("docs/observability.md").split(
            "### Hook points and payloads")[1].split("\n## ")[0]
        out = {}
        for line in section.splitlines():
            if not line.startswith("| `"):
                continue
            m = self.ROW.match(line)
            assert m, f"malformed hook-table row: {line}"
            for name in re.findall(r"`([\w.]+)`", m.group(1)):
                out[name] = (tuple(m.group(2).split(", ")), m.group(3))
        return out

    def test_hook_table_matches_the_schema(self):
        from repro.obs.hooks import KNOWN_HOOKS

        rows = self.rows()
        assert list(rows) == list(KNOWN_HOOKS)
        for name, (fields, _) in rows.items():
            assert fields == KNOWN_HOOKS[name], name

    def test_optional_fields_are_documented(self):
        from repro.obs.hooks import OPTIONAL_FIELDS

        rows = self.rows()
        for name, extra in OPTIONAL_FIELDS.items():
            for field in extra:
                assert field in rows[name][1], (name, field)


class TestCliSamples:
    """The output samples in the docs are what the CLI prints."""

    @staticmethod
    def sample(doc: str, first_line: str) -> list[str]:
        for block in read(doc).split("```")[1::2]:
            lines = block.strip("\n").splitlines()
            if lines and lines[0].startswith(first_line):
                return lines
        raise AssertionError(f"{doc} shows no sample starting {first_line!r}")

    @staticmethod
    def cli(capsys, *argv: str) -> list[str]:
        from repro.cli import main

        assert main([*argv, "--graph", "LJ", "--scale", "0.0001",
                     "--machines", "2"]) == 0
        return capsys.readouterr().out.splitlines()

    def test_profile_sample(self, capsys):
        shown = self.sample("docs/profiling.md", "profile: two-session")
        assert self.cli(capsys, "profile", "--iterations", "2") == shown

    def test_serve_sample(self, capsys):
        shown = self.sample("docs/serving.md", "serve: skewed trace")
        out = self.cli(capsys, "serve", "--workload", "skewed", "--seed", "7")
        # "..." stands for the dispatch rows the sample leaves out
        cut = [line.strip() for line in shown].index("...")
        head, tail = shown[:cut], shown[cut + 1:]
        assert out[:cut] == head
        assert out[len(out) - len(tail):] == tail
        left_out = out[cut:len(out) - len(tail)]
        assert left_out and all(re.match(r"  \[\s*\d+\] t=", line)
                                for line in left_out)
