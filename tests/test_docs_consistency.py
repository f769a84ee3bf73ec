"""Documentation consistency checks — docs cannot rot silently.

DESIGN.md's per-experiment index, the README's bench table, and the
benchmarks directory must agree; every example the README lists must
exist; EXPERIMENTS.md must mention every bench's experiment; every
``repro`` command line the documents and CI show must parse, every
``repro.`` dotted name they show must resolve, and every engine spec
they show must name a factory that takes its options.
"""

import importlib
import inspect
import itertools
import pathlib
import re
import shlex

import pytest

REPO = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def design_text():
    return (REPO / "DESIGN.md").read_text()


@pytest.fixture(scope="module")
def readme_text():
    return (REPO / "README.md").read_text()


class TestDesignIndex:
    def test_every_indexed_bench_exists(self, design_text):
        for match in re.finditer(r"benchmarks/(bench_\w+\.py)", design_text):
            assert (REPO / "benchmarks" / match.group(1)).is_file(), match.group(0)

    def test_every_bench_file_is_indexed(self, design_text):
        for path in (REPO / "benchmarks").glob("bench_*.py"):
            assert path.name in design_text, f"{path.name} missing from DESIGN.md"

    def test_inventory_mentions_every_subpackage(self, design_text):
        src = REPO / "src" / "repro"
        for package_dir in src.iterdir():
            if package_dir.is_dir() and (package_dir / "__init__.py").exists():
                assert f"repro.{package_dir.name}" in design_text, package_dir.name


class TestReadme:
    def test_listed_examples_exist(self, readme_text):
        for match in re.finditer(r"`(\w+\.py)`", readme_text):
            name = match.group(1)
            if (REPO / "examples" / name).exists():
                continue
            # Only example scripts are referenced with bare .py names.
            assert not name.startswith(("quickstart", "iot", "accel", "seed",
                                        "security", "distributed", "secure",
                                        "capacity", "session")), name

    def test_all_examples_are_listed(self, readme_text):
        for path in (REPO / "examples").glob("*.py"):
            assert path.name in readme_text, f"{path.name} missing from README"

    def test_bench_table_complete(self, readme_text):
        for path in (REPO / "benchmarks").glob("bench_*.py"):
            assert path.stem in readme_text, f"{path.stem} missing from README"

    def test_license_file_exists(self, readme_text):
        assert "MIT" in readme_text
        assert (REPO / "LICENSE").is_file()


class TestExperimentsDoc:
    def test_mentions_every_bench(self):
        text = (REPO / "EXPERIMENTS.md").read_text()
        for path in (REPO / "benchmarks").glob("bench_*.py"):
            assert path.name in text, f"{path.name} missing from EXPERIMENTS.md"

    def test_exact_seed_counts_are_correct(self):
        """The numbers quoted in EXPERIMENTS.md must match the code."""
        from repro.combinatorics.binomial import (
            average_seed_count,
            exhaustive_seed_count,
        )

        text = (REPO / "EXPERIMENTS.md").read_text()
        assert f"{exhaustive_seed_count(5):,}" in text
        assert f"{average_seed_count(5):,}" in text


#: Documents whose code blocks show ``repro`` command lines.
COMMAND_DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md",
                ".claude/skills/verify/SKILL.md")


def code_lines(text):
    """The lines of ``text``'s code blocks, fenced or indented four spaces,
    with ``\\``-continuations joined."""
    inside, pending = False, ""
    for line in text.splitlines():
        if line.lstrip().startswith("```"):
            inside, pending = not inside, ""
        elif inside or pending or line.startswith("    "):
            if line.rstrip().endswith("\\"):
                pending += line.rstrip()[:-1] + " "
                continue
            yield pending + line
            pending = ""


def ci_run_lines(text):
    """The shell lines of the workflow's ``run:`` steps: inline, folded
    (``>``, lines joined by spaces) or literal (``|``, one per line)."""
    lines = text.splitlines()
    for index, line in enumerate(lines):
        match = re.match(r"(\s*)(?:- )?run: ?(.*)$", line)
        if not match:
            continue
        indent, value = len(match.group(1)), match.group(2).strip()
        if value not in (">", "|"):
            yield value
            continue
        body = []
        for following in lines[index + 1:]:
            if following.strip() and (
                len(following) - len(following.lstrip()) <= indent
            ):
                break
            body.append(following.strip())
        if value == ">":
            yield " ".join(body)
        else:
            yield from body


def repro_argvs(line):
    """Each ``python -m repro …`` / ``repro …`` command in one shell line,
    as the argv ``repro`` would get (redirections and pipes cut off)."""
    lexer = shlex.shlex(line, posix=True, punctuation_chars=True)
    lexer.whitespace_split = True
    try:
        tokens = list(lexer)
    except ValueError:  # unbalanced quotes: a code line, not a command
        assert "-m repro " not in line, line
        return
    command: list[str] = []
    for token in [*tokens, ";"]:
        if token and set(token) <= set("();<>|&"):
            words = list(itertools.dropwhile(re.compile(r"\w+=").match, command))
            if words[:3] in (["python", "-m", "repro"], ["python3", "-m", "repro"]):
                yield words[3:]
            elif words[:1] == ["repro"]:
                yield words[1:]
            command = []
        else:
            command.append(token)


def parses(argv):
    """Whether the CLI's own parsers accept ``argv`` (nothing is run)."""
    from repro import cli
    from repro.gates import gate_parser, select_gate

    gate = select_gate(argv)
    try:
        if gate is not None:
            gate_parser(gate).parse_args([a for a in argv[1:] if a not in gate.flags])
        else:
            cli._parser().parse_args(argv)
    except SystemExit as exc:  # argparse's usage error, or --help's exit 0
        return exc.code == 0
    return True


def documented_commands():
    for name in COMMAND_DOCS:
        for line in code_lines((REPO / name).read_text()):
            for argv in repro_argvs(line):
                yield name, argv
    for line in ci_run_lines((REPO / ".github/workflows/ci.yml").read_text()):
        for argv in repro_argvs(line):
            yield "ci.yml", argv


class TestCommandLines:
    def test_every_documented_command_line_parses(self, capsys):
        commands = list(documented_commands())
        assert {"README.md", "EXPERIMENTS.md", "ci.yml"} <= {
            source for source, _argv in commands
        }
        refused = [
            f"{source}: repro {shlex.join(argv)}"
            for source, argv in commands
            if not parses(argv) or "--crash" in argv
        ]
        assert refused == []

    @pytest.mark.parametrize(
        "line",
        [
            "PYTHONPATH=src python -m repro sched --requests 8 --budget 2",
            "python -m repro directory --bench --clients 128   # the gate",
            "repro fleet --bench --requests 8 --depths 1,2 > out.txt",
            "python -m repro deploy --storm --crash --clients 4 --crashes 2",
        ],
    )
    def test_a_command_of_a_deleted_gate_is_refused(self, line, capsys):
        [argv] = repro_argvs(line)
        assert not parses(argv)

    def test_the_extractors_see_continuations_and_folded_steps(self):
        doc = "```bash\npython -m repro fleet --storm \\\n  --seed 0\n```\n"
        assert [list(repro_argvs(line)) for line in code_lines(doc)] == [
            [["fleet", "--storm", "--seed", "0"]]
        ]
        ci = ("      - name: x\n        run: >\n          python -m repro tenants\n"
              "          --seed 0\n      - name: y\n")
        assert list(ci_run_lines(ci)) == ["python -m repro tenants --seed 0"]


#: A ``repro.`` dotted name (not part of a path, a URL or a longer word).
DOTTED_NAME = re.compile(r"(?<![\w./-])repro(?:\.\w+)+")
#: Where a document shows an engine spec, besides its engine table.
SPEC_SITES = (
    re.compile(r"build_engine\(\s*[\"']([^\"']+)[\"']"),
    re.compile(r"--engine[ =]([\w.:,=-]+)"),
)


def doc_lines():
    """``(file:line, text)`` for every line of the documents."""
    for name in COMMAND_DOCS:
        text = (REPO / name).read_text()
        for number, line in enumerate(text.splitlines(), 1):
            yield f"{pathlib.Path(name).name}:{number}", line


def resolve(dotted):
    """The object ``dotted`` names: its longest importable module prefix,
    then attributes (raises ``ImportError`` / ``AttributeError``)."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attribute in parts[cut:]:
            target = getattr(target, attribute)
        return target
    raise ImportError(dotted)


def documented_specs():
    """``(file:line, spec)`` for each ``build_engine("…")``, ``--engine …``
    and first cell of a ``| spec | engine |`` table."""
    in_table = False
    for where, line in doc_lines():
        for site in SPEC_SITES:
            for spec in site.findall(line):
                yield where, spec
        if line.replace(" ", "") == "|spec|engine|":
            in_table = True
        elif not line.startswith("|"):
            in_table = False
        elif in_table and (cell := re.match(r"\| `([^`]+)` \|", line)):
            yield where, cell.group(1)


def spec_refusal(spec):
    """Why ``spec`` would not build, or ``None``; nothing is built."""
    from repro.engines import EngineConfig, get_entry
    from repro.engines.registry import _COMMON_ALIASES

    try:
        config = EngineConfig.parse(spec)
        if "." in config.name:
            aliases = dict(_COMMON_ALIASES)
            parameters = [
                p.name
                for p in inspect.signature(resolve(config.name)).parameters.values()
                if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)
            ]
        else:
            entry = get_entry(config.name)
            aliases = entry.alias_map()
            parameters = [name for name, _default, _type in entry.schema]
    except (ValueError, KeyError, ImportError, AttributeError) as exc:
        return repr(exc)
    unknown = [k for k, _ in config.options if aliases.get(k, k) not in parameters]
    return f"no option {unknown}" if unknown else None


class TestNamesAndSpecs:
    def test_every_dotted_name_resolves(self):
        unresolved = []
        for where, line in doc_lines():
            for dotted in DOTTED_NAME.findall(line):
                try:
                    resolve(dotted)
                except (ImportError, AttributeError):
                    unresolved.append(f"{where}: {dotted}")
        assert unresolved == []

    def test_every_engine_spec_names_a_factory_that_takes_its_options(self):
        specs = list(documented_specs())
        assert {where.split(":")[0] for where, _spec in specs} >= {
            "README.md", "DESIGN.md", "SKILL.md"
        }
        refused = [
            f"{where}: {spec} ({why})"
            for where, spec in specs
            if (why := spec_refusal(spec)) is not None
        ]
        assert refused == []

    @pytest.mark.parametrize(
        "spec",
        [
            "repro.runtime.no_such_module.Engine:4,bs=8192",
            "repro.runtime.executor.NoSuchEngine:sha1",
            "nosuch:sha1",
            "sched:sha1,cache=yes",
            "batch:bs=4096,sha1",
        ],
    )
    def test_a_spec_that_would_not_build_is_refused(self, spec):
        assert spec_refusal(spec) is not None

    def test_the_extractors_see_names_specs_and_the_table(self):
        line = "see repro.fleet.batcher.UnitCursor, src/repro/x.py, github.com/a/repro.git"
        assert DOTTED_NAME.findall(line) == ["repro.fleet.batcher.UnitCursor"]
        assert resolve("repro.fleet.batcher.UnitCursor").__name__ == "UnitCursor"
        assert spec_refusal("pool:sha1,w=2,bs=4096") is None
        assert spec_refusal(
            "repro.runtime.original_batch.BatchOriginalRBCSearch:aes-128,bs=8192"
        ) is None
        # Shown only in the README's engine table.
        assert ("README.md", "gpu-model:sha3-256") in {
            (where.split(":")[0], spec) for where, spec in documented_specs()
        }
