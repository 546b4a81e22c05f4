"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main
from tests.conftest import (
    FIGURE1_SOURCE,
    SIMPLE_LEAK_SOURCE,
    canonical_pairs,
    sequential_source,
)


def _canonical_loop_pairs(scan):
    """A ``scan --json --canonical`` document's regions in the form of
    :func:`~tests.conftest.canonical_pairs`."""
    return canonical_pairs(
        (
            entry["method"] if entry["loop"] is None
            else "%s:%s" % (entry["method"], entry["loop"]),
            entry["report"],
        )
        for entry in scan["loops"]
    )


@pytest.fixture
def leak_file(tmp_path):
    path = tmp_path / "leak.wl"
    path.write_text(SIMPLE_LEAK_SOURCE)
    return str(path)


@pytest.fixture
def figure1_file(tmp_path):
    path = tmp_path / "fig1.wl"
    path.write_text(FIGURE1_SOURCE)
    return str(path)


class TestCheck:
    def test_leak_found_exit_code(self, leak_file, capsys):
        code = main(["check", leak_file, "--region", "Main.main:L"])
        assert code == 1
        out = capsys.readouterr().out
        assert "leaking allocation site: item" in out

    def test_clean_program_exit_zero(self, tmp_path, capsys):
        path = tmp_path / "clean.wl"
        path.write_text(
            """entry Main.main;
            class Main { static method main() {
              loop L (*) { x = new Main @local; }
            } }"""
        )
        assert main(["check", str(path), "--region", "Main.main:L"]) == 0

    def test_figure1(self, figure1_file, capsys):
        code = main(["check", figure1_file, "--region", "Main.main:L1"])
        assert code == 1
        assert "a5" in capsys.readouterr().out

    def test_region_spec(self, figure1_file, capsys):
        code = main(["check", figure1_file, "--region", "Transaction.process"])
        assert code in (0, 1)

    def test_bad_region(self, leak_file, capsys):
        assert main(["check", leak_file, "--region", "Ghost.m"]) == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["check", "/nonexistent.wl", "--region", "A.m"]) == 2

    def test_flags_accepted(self, leak_file):
        code = main(
            [
                "check",
                leak_file,
                "--region",
                "Main.main:L",
                "--callgraph",
                "cha",
                "--demand-driven",
                "--context-depth",
                "3",
                "--no-pivot",
                "--model-threads",
            ]
        )
        assert code == 1

    def test_parse_error_reported(self, tmp_path, capsys):
        path = tmp_path / "broken.wl"
        path.write_text("class {")
        assert main(["check", str(path), "--region", "A.m"]) == 2

    def test_long_method_checks_clean(self, tmp_path, capsys):
        # Validation's CFG walk once recursed once per block: a traceback
        # and exit 1, the "leaks found" code.
        path = tmp_path / "long.wl"
        path.write_text(sequential_source(ifs=2000, loops=1))
        assert main(["check", str(path), "--region", "Main.main:L0"]) == 0
        assert "no leaks detected" in capsys.readouterr().out


class TestLoops:
    def test_lists_labelled_loops(self, figure1_file, capsys):
        assert main(["loops", figure1_file]) == 0
        out = capsys.readouterr().out
        assert "Main.main:L1" in out
        assert "Transaction.txInit:LC" in out


class TestRun:
    def test_executes_and_reports_ground_truth(self, leak_file, capsys):
        code = main(["run", leak_file, "--loop", "L", "--trips", "4"])
        assert code == 0
        out = capsys.readouterr().out
        assert "executed:" in out
        assert "item" in out

    def test_run_without_loop(self, leak_file, capsys):
        assert main(["run", leak_file]) == 0
        assert "leaking sites" not in capsys.readouterr().out

    def test_negative_trips_is_a_usage_error(self, leak_file, capsys):
        assert main(["run", leak_file, "--loop", "L", "--trips", "0"]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as excinfo:
            main(["run", leak_file, "--loop", "L", "--trips", "-1"])
        assert excinfo.value.code == 2
        assert "argument --trips" in capsys.readouterr().err


class TestScanAndRank:
    @pytest.fixture
    def two_loops_file(self, tmp_path):
        path = tmp_path / "two.wl"
        path.write_text(
            """entry Main.main;
            class Main {
              static method main() {
                h = new Holder @holder;
                loop LEAKY (*) { x = new Item @item; h.slot = x; }
                loop CLEAN (*) { y = new Item @local; }
              }
            }
            class Holder { field slot; }
            class Item { }"""
        )
        return str(path)

    def test_scan_finds_leaky_loop(self, two_loops_file, capsys):
        code = main(["scan", two_loops_file])
        assert code == 1
        out = capsys.readouterr().out
        assert "[LEAKS] Main.main:LEAKY" in out
        assert "[clean] Main.main:CLEAN" in out

    def test_scan_ranked_with_limit(self, two_loops_file, capsys):
        code = main(["scan", two_loops_file, "--ranked", "--limit", "1"])
        assert code == 1
        out = capsys.readouterr().out
        assert "LEAKY" in out
        assert "CLEAN" not in out

    def test_rank_lists_scores(self, two_loops_file, capsys):
        assert main(["rank", two_loops_file]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2
        assert "LEAKY" in lines[0]

    def test_check_json_output(self, two_loops_file, capsys):
        import json

        code = main(
            ["check", two_loops_file, "--region", "Main.main:LEAKY", "--json"]
        )
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["findings"][0]["site"] == "item"

    def test_check_strong_updates_flag(self, tmp_path, capsys):
        path = tmp_path / "nulled.wl"
        path.write_text(
            """entry Main.main;
            class Main {
              static method main() {
                h = new Holder @holder;
                loop L (*) { x = new Item @item; h.slot = x; h.slot = null; }
              }
            }
            class Holder { field slot; }
            class Item { }"""
        )
        assert main(["check", str(path), "--region", "Main.main:L"]) == 1
        assert (
            main(
                ["check", str(path), "--region", "Main.main:L", "--strong-updates"]
            )
            == 0
        )

    def test_scan_json_output(self, two_loops_file, capsys):
        import json

        code = main(["scan", two_loops_file, "--json"])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert data["leaking_sites"] == ["item"]
        assert [loop["loop"] for loop in data["loops"]] == ["LEAKY", "CLEAN"]
        assert "stages" in data["profile"]

    def test_scan_profile_output(self, two_loops_file, capsys):
        code = main(["scan", two_loops_file, "--profile"])
        assert code == 1
        out = capsys.readouterr().out
        assert "pipeline stages" in out
        assert "flows_out" in out
        assert "var_queries" in out

    def test_scan_parallel_matches_serial(
        self, two_loops_file, capsys, process_fleet
    ):
        """Every region line of ``scan``'s text output, rebuilt from the
        fleet's answer for the same file."""
        assert main(["scan", two_loops_file]) == 1
        serial = capsys.readouterr().out.splitlines()
        with open(two_loops_file) as handle:
            fanned = process_fleet(handle.read())
        lines = []
        for region, report in fanned:
            sites = [finding["site"] for finding in json.loads(report)["findings"]]
            lines.append("  [%s] %s -> %s" % (
                "LEAKS" if sites else "clean", region, ", ".join(sites) or "-"
            ))
        assert serial[1:1 + len(lines)] == lines
        assert serial[0] == "scanned %d regions, %d findings total" % (
            len(lines), sum(line.count("[LEAKS]") for line in lines)
        )

    def test_scan_process_backend_matches_serial(
        self, two_loops_file, capsys, process_fleet
    ):
        assert main(["scan", two_loops_file, "--json", "--canonical"]) == 1
        serial = json.loads(capsys.readouterr().out)
        with open(two_loops_file) as handle:
            fanned = process_fleet(handle.read())
        assert fanned == _canonical_loop_pairs(serial)

    def test_canonical_json_byte_stable(self, two_loops_file, capsys):
        assert main(["scan", two_loops_file, "--json", "--canonical"]) == 1
        first = capsys.readouterr().out
        assert main(["scan", two_loops_file, "--json", "--canonical"]) == 1
        assert capsys.readouterr().out == first

    def test_check_profile_output(self, two_loops_file, capsys):
        code = main(
            [
                "check",
                two_loops_file,
                "--region",
                "Main.main:LEAKY",
                "--profile",
            ]
        )
        assert code == 1
        out = capsys.readouterr().out
        assert "leaking allocation site: item" in out
        assert "pipeline stages" in out

    def test_check_budget_flag(self, two_loops_file):
        code = main(
            [
                "check",
                two_loops_file,
                "--region",
                "Main.main:LEAKY",
                "--demand-driven",
                "--budget",
                "1",
            ]
        )
        assert code == 1  # budget exhaustion falls back, same verdict

    def test_check_otf_callgraph_flag(self, two_loops_file):
        code = main(
            [
                "check",
                two_loops_file,
                "--region",
                "Main.main:LEAKY",
                "--callgraph",
                "otf",
            ]
        )
        assert code == 1


class TestComponentCommand:
    @pytest.fixture
    def component_file(self, tmp_path):
        path = tmp_path / "component.wl"
        path.write_text(
            """class Registry {
              field store;
              method regInit() {
                l = new Record[] @store_arr;
                this.store = l;
              }
              method handle(sink) {
                r = new Record @record;
                l = this.store;
                l.elem = r;
              }
            }
            class Record { }"""
        )
        return str(path)

    def test_component_check(self, component_file, tmp_path, capsys):
        setup = tmp_path / "setup.wl"
        setup.write_text("call recv.regInit() @setup;")
        code = main(
            [
                "component",
                component_file,
                "--method",
                "Registry.handle",
                "--setup",
                str(setup),
            ]
        )
        assert code == 1
        assert "record" in capsys.readouterr().out

    def test_component_json(self, component_file, capsys):
        import json

        code = main(
            [
                "component",
                component_file,
                "--method",
                "Registry.handle",
                "--json",
            ]
        )
        assert code in (0, 1)
        json.loads(capsys.readouterr().out)  # must be valid JSON

    def test_component_unknown_method(self, component_file, capsys):
        assert (
            main(["component", component_file, "--method", "Ghost.run"]) == 2
        )


class TestTable1Command:
    def test_table_printed_and_clean(self, capsys):
        code = main(["table1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "average FPR: 49.8%" in out
        assert "specjbb2000" in out
        assert "derby" in out


class TestCompile:
    def test_compile_with_optimize_flag(self, leak_file, tmp_path, capsys):
        out = str(tmp_path / "opt.jbc")
        assert main(["compile", leak_file, "-O", "-o", out]) == 0
        text = capsys.readouterr().out
        assert "optimizer:" in text
        # the optimized container still checks identically
        assert main(["check", out, "--region", "Main.main:L"]) == 1

    def test_compile_and_check_bytecode(self, leak_file, tmp_path, capsys):
        out = str(tmp_path / "prog.jbc")
        assert main(["compile", leak_file, "-o", out]) == 0
        # the .jbc file is directly checkable
        code = main(["check", out, "--region", "Main.main:L"])
        assert code == 1
        assert "item" in capsys.readouterr().out

    def test_compile_output_is_json(self, leak_file, tmp_path):
        import json

        out = str(tmp_path / "prog.jbc")
        main(["compile", leak_file, "-o", out])
        with open(out) as handle:
            data = json.load(handle)
        assert data["version"] == 1
        assert data["entry"] == "Main.main"


class TestMalformedBytecode:
    """A ``.jbc`` file that is not JSON, or whose parts have the wrong
    JSON types, is invalid bytecode: exit 2 with the issue, where each
    of these used to end in a traceback and exit 1, the findings code."""

    @pytest.mark.parametrize(
        "text, issue",
        [
            (
                "this is not json",
                "not a JSON document: Expecting value: line 1 column 1 (char 0)",
            ),
            ("[1, 2]", "container is an array, not an object"),
            (
                '{"version": 1, "entry": "A.m", "classes": 5}',
                "container.classes is an integer, not an array",
            ),
            (
                '{"version": 1, "entry": "A.m", "classes": [{"name": "A", '
                '"methods": [{"name": "m", "static": true, "code": 7}]}]}',
                "container.classes[0].methods[0].code is an integer, not an array",
            ),
        ],
        ids=["not-json", "top-level-array", "classes-number", "code-number"],
    )
    def test_exits_2_with_the_issue(self, tmp_path, capsys, text, issue):
        path = tmp_path / "bad.jbc"
        path.write_text(text)
        assert main(["check", str(path), "--region", "A.m"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: invalid bytecode:\n  %s\n" % issue

    def test_json_nested_past_the_recursion_limit(self, tmp_path, capsys):
        path = tmp_path / "deep.jbc"
        path.write_text("[" * 100_000)
        assert main(["check", str(path), "--region", "A.m"]) == 2
        assert capsys.readouterr().err.startswith(
            "error: invalid bytecode:\n  not a JSON document: maximum recursion"
        )


class TestDeepBytecode:
    """A container nested past ``MAX_NESTING`` is invalid bytecode: exit
    2 with one issue, where it used to end in a ``RecursionError``
    traceback and exit 1, the findings code."""

    def _write(self, tmp_path, depth):
        code = [["loop", "L%d" % i, "*", ""] for i in range(depth)]
        code += [["end"]] * depth
        container = {
            "version": 1,
            "entry": "Main.main",
            "classes": [
                {
                    "name": "Main",
                    "methods": [{"name": "main", "static": True, "code": code}],
                }
            ],
        }
        path = tmp_path / "deep.jbc"
        path.write_text(json.dumps(container))
        return str(path)

    def test_max_nesting_checks(self, tmp_path, capsys):
        from repro.lang.parser import MAX_NESTING

        path = self._write(tmp_path, MAX_NESTING)
        assert main(["check", path, "--region", "Main.main:L0"]) == 0
        assert "no leaks detected" in capsys.readouterr().out

    @pytest.mark.parametrize("depth", [201, 3000])
    def test_deeper_exits_2_with_one_issue(self, tmp_path, capsys, depth):
        from repro.lang.parser import MAX_NESTING

        path = self._write(tmp_path, depth)
        assert main(["check", path, "--region", "Main.main:L0"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: invalid bytecode:\n"
            "  Main.main[%d]: blocks nested more than %d deep\n"
            % (MAX_NESTING, MAX_NESTING)
        )


class TestJavalibFlag:
    def test_javalib_prepended(self, tmp_path, capsys):
        path = tmp_path / "uses_lib.wl"
        path.write_text(
            """entry Main.main;
            class Main { static method main() {
              m = new HashMap @map;
              call m.hmInit() @mi;
              loop L (*) {
                x = new Item @item;
                call m.put(x, x) @p;
              }
            } }
            class Item { }"""
        )
        code = main(["check", str(path), "--region", "Main.main:L", "--javalib"])
        assert code == 1
        assert "item" in capsys.readouterr().out


LOOP_FREE_SOURCE = """entry Main.main;
class Main { static method main() { x = new Main @only; return; } }
"""


class TestRegionsCommand:
    def test_lists_scored_candidates(self, figure1_file, capsys):
        assert main(["regions", figure1_file]) == 0
        out = capsys.readouterr().out
        assert "candidate regions" in out
        assert "Main.main:L1" in out
        assert "Transaction.txInit:LC" in out

    def test_json_output(self, figure1_file, capsys):
        import json

        assert main(["regions", figure1_file, "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        texts = [c["region"] for c in doc["candidates"]]
        assert "Main.main:L1" in texts
        scores = [c["score"] for c in doc["candidates"]]
        assert scores == sorted(scores, reverse=True)

    def test_loop_free_program(self, tmp_path, capsys):
        path = tmp_path / "flat.wl"
        path.write_text(LOOP_FREE_SOURCE)
        assert main(["regions", str(path)]) == 0
        assert "0 candidate regions" in capsys.readouterr().out


class TestAutoRegions:
    def test_scan_auto_regions_finds_leaks(self, figure1_file, capsys):
        code = main(["scan", figure1_file, "--auto-regions"])
        assert code == 1
        out = capsys.readouterr().out
        assert "Main.main:L1" in out
        assert "triage" in out

    def test_auto_regions_loop_free_exits_zero(self, tmp_path, capsys):
        path = tmp_path / "flat.wl"
        path.write_text(LOOP_FREE_SOURCE)
        assert main(["scan", str(path), "--auto-regions"]) == 0
        assert "0 candidate regions" in capsys.readouterr().out

    def test_auto_regions_loop_free_json_empty(self, tmp_path, capsys):
        import json

        path = tmp_path / "flat.wl"
        path.write_text(LOOP_FREE_SOURCE)
        code = main(
            ["scan", str(path), "--auto-regions", "--json", "--canonical"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["loops"] == []
        assert doc["triage"] == []
        assert doc["total_findings"] == 0

    def test_long_method_of_loops(self, tmp_path, capsys):
        # Region inference finds loops through the dominators, which
        # read the CFG's reverse post-order: once a recursive walk that
        # raised past about 500 sequential loops.
        import json

        path = tmp_path / "loops.wl"
        path.write_text(sequential_source(loops=600))
        code = main(["scan", str(path), "--auto-regions", "--json", "--canonical"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert len(doc["loops"]) == 600
        assert doc["total_findings"] == 0

    def test_top_limits_candidates(self, figure1_file, capsys):
        code = main(["scan", figure1_file, "--auto-regions", "--top", "1"])
        assert code in (0, 1)
        out = capsys.readouterr().out
        assert "scanned 1 regions" in out

    def test_auto_regions_rejects_region_flag(self, figure1_file, capsys):
        code = main(
            ["scan", figure1_file, "--auto-regions", "--region", "Main.main:L1"]
        )
        assert code == 2
        assert "--auto-regions" in capsys.readouterr().err

    def test_explicit_region_scan(self, figure1_file, capsys):
        code = main(["scan", figure1_file, "--region", "Main.main:L1"])
        assert code == 1
        out = capsys.readouterr().out
        assert "scanned 1 regions" in out

    def test_auto_regions_canonical_matches_backends(
        self, figure1_file, capsys, process_fleet
    ):
        from repro.core.regions import region_text
        from repro.core.scan import scan_all_loops
        from repro.lang import parse_program

        main(["scan", figure1_file, "--auto-regions", "--json", "--canonical"])
        cli = json.loads(capsys.readouterr().out)
        serial = scan_all_loops(parse_program(FIGURE1_SOURCE), auto_regions=True)
        assert cli == json.loads(serial.to_json(canonical=True))
        # Inference picks the regions in the caller; the fleet checks them.
        fanned = process_fleet(
            FIGURE1_SOURCE, [region_text(spec) for spec, _ in serial.entries]
        )
        assert fanned == _canonical_loop_pairs(cli)


class TestRegionSuggestions:
    def test_check_bad_region_suggests(self, figure1_file, capsys):
        assert main(["check", figure1_file, "--region", "Main.main:L9"]) == 2
        err = capsys.readouterr().err
        assert "did you mean" in err
        assert "--region Main.main:L1" in err

    def test_scan_bad_region_suggests(self, figure1_file, capsys):
        assert main(["scan", figure1_file, "--region", "Main.mian"]) == 2
        err = capsys.readouterr().err
        assert "did you mean" in err
        assert "Main.main" in err


class TestBaselineGate:
    def test_write_baseline_requires_baseline(self, figure1_file, capsys):
        assert main(["scan", figure1_file, "--write-baseline"]) == 2
        assert "--baseline" in capsys.readouterr().err

    def test_baseline_round_trip(self, figure1_file, tmp_path, capsys):
        baseline = str(tmp_path / "leaks.json")
        # Writing the baseline from the current findings exits 0.
        code = main(
            [
                "scan",
                figure1_file,
                "--auto-regions",
                "--baseline",
                baseline,
                "--write-baseline",
            ]
        )
        assert code == 0
        assert "wrote baseline" in capsys.readouterr().err
        # A repeat run against the baseline suppresses everything.
        code = main(
            ["scan", figure1_file, "--auto-regions", "--baseline", baseline]
        )
        assert code == 0
        assert "suppressed" in capsys.readouterr().out

    def test_new_leak_fails_against_baseline(self, tmp_path, capsys):
        source = """entry Main.main;
        class Main {
          static method main() {
            h = new Holder @holder;
            loop L (*) { x = new Item @item; h.slot = x; %s }
          }
        }
        class Holder { field slot; field extra; }
        class Item { }"""
        before = tmp_path / "before.wl"
        before.write_text(source % "")
        baseline = str(tmp_path / "leaks.json")
        assert (
            main(
                [
                    "scan",
                    str(before),
                    "--baseline",
                    baseline,
                    "--write-baseline",
                ]
            )
            == 0
        )
        capsys.readouterr()
        # The baselined program still gates green...
        assert main(["scan", str(before), "--baseline", baseline]) == 0
        capsys.readouterr()
        # ...but injecting a new leaking site flips the gate red.
        after = tmp_path / "after.wl"
        after.write_text(source % "y = new Item @fresh; h.extra = y;")
        assert main(["scan", str(after), "--baseline", baseline]) == 1
        assert "fresh" in capsys.readouterr().out

    def test_fail_on_severity_threshold(self, figure1_file, tmp_path, capsys):
        # figure1's findings are not all high-severity; a high threshold
        # with an empty baseline still fails only if a high finding exists.
        code_low = main(["scan", figure1_file, "--auto-regions"])
        capsys.readouterr()
        code_high = main(
            [
                "scan",
                figure1_file,
                "--auto-regions",
                "--fail-on-severity",
                "high",
            ]
        )
        capsys.readouterr()
        assert code_low == 1
        assert code_high in (0, 1)


def _scan_doc(finding):
    """A one-loop ``scan --json`` document reporting ``finding``."""
    return {
        "loops": [
            {"method": "Main.main", "loop": "L", "report": {"findings": [finding]}}
        ]
    }


class TestDiffCLI:
    @pytest.fixture
    def leaky_and_clean(self, tmp_path):
        leaky = tmp_path / "leaky.wl"
        leaky.write_text(
            """entry Main.main;
            class Main { static method main() {
              h = new Holder @holder;
              loop L (*) { x = new Item @item; h.slot = x; }
            } }
            class Holder { field slot; }
            class Item { }"""
        )
        clean = tmp_path / "clean.wl"
        clean.write_text(
            """entry Main.main;
            class Main { static method main() {
              h = new Holder @holder;
              loop L (*) { x = new Item @item; }
            } }
            class Holder { field slot; }
            class Item { }"""
        )
        return str(leaky), str(clean)

    def test_identical_inputs_exit_zero(self, leaky_and_clean, capsys):
        leaky, _clean = leaky_and_clean
        code = main(["diff", leaky, leaky])
        out = capsys.readouterr().out
        assert code == 0
        assert "0 new, 0 fixed" in out

    def test_fix_is_clean_regression_is_not(self, leaky_and_clean, capsys):
        leaky, clean = leaky_and_clean
        assert main(["diff", leaky, clean]) == 0
        assert "1 fixed" in capsys.readouterr().out
        assert main(["diff", clean, leaky]) == 1
        assert "1 new" in capsys.readouterr().out

    def test_diff_against_scan_json(self, leaky_and_clean, tmp_path, capsys):
        leaky, _clean = leaky_and_clean
        main(["scan", leaky, "--json", "--canonical"])
        doc = capsys.readouterr().out
        json_path = tmp_path / "before.json"
        json_path.write_text(doc)
        code = main(["diff", str(json_path), leaky])
        out = capsys.readouterr().out
        assert code == 0
        assert "1 unchanged" in out

    def test_diff_of_resource_findings_against_scan_json(
        self, tmp_path, capsys
    ):
        """A resource finding's fingerprint carries its kind in both
        forms, so an unchanged program diffs clean against its own
        ``scan --json`` output."""
        from repro.bench.apps import build_app

        source = tmp_path / "resleak.wl"
        source.write_text(build_app("resleak").source)
        main(["scan", str(source), "--json"])
        json_path = tmp_path / "a.json"
        json_path.write_text(capsys.readouterr().out)
        code = main(["diff", str(json_path), str(source)])
        out = capsys.readouterr().out
        assert "0 new, 0 fixed, 1 unchanged" in out
        assert code == 0

    def test_diff_json_output(self, leaky_and_clean, capsys):
        leaky, clean = leaky_and_clean
        main(["diff", leaky, clean, "--json", "--canonical"])
        import json as json_mod

        doc = json_mod.loads(capsys.readouterr().out)
        assert doc["counts"] == {"new": 0, "fixed": 1, "unchanged": 0}

    def test_malformed_json_input_exits_two(
        self, leaky_and_clean, tmp_path, capsys
    ):
        leaky, _clean = leaky_and_clean
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert main(["diff", str(bad), leaky]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "document",
        [
            [1, 2],
            {"x": 1},
            {"loops": 5},
            {"loops": [1]},
            {"loops": [{"loop": "L", "report": {"findings": []}}]},
            {"loops": [{"method": "M.m", "loop": 3, "report": {"findings": []}}]},
            {"loops": [{"method": "M.m", "loop": None}]},
            {"loops": [{"method": "M.m", "loop": None, "report": {"findings": {}}}]},
            _scan_doc({"redundant_edges": []}),
            _scan_doc({"site": "item"}),
            _scan_doc({"site": "item", "redundant_edges": [["h", "f"]]}),
            _scan_doc({"site": "item", "redundant_edges": [{"base": "h"}]}),
            _scan_doc({"site": 7, "redundant_edges": []}),
        ],
        ids=[
            "list",
            "no-loops",
            "loops-not-a-list",
            "entry-not-an-object",
            "no-method",
            "loop-not-a-string",
            "no-report",
            "findings-not-a-list",
            "no-site",
            "no-edges",
            "edge-not-an-object",
            "edge-without-field",
            "site-not-a-string",
        ],
    )
    def test_malformed_scan_document_exits_two(self, document, tmp_path, capsys):
        """A parsed document without the shape of ``scan --json`` output
        is a usage error naming the file, not a crash or an empty
        analysis whose other operand's findings all read as new.  The
        well-formed operand names a method region (a null ``loop``) and
        is accepted."""
        good = tmp_path / "good.json"
        doc = _scan_doc({"site": "item", "redundant_edges": []})
        doc["loops"][0]["loop"] = None
        good.write_text(json.dumps(doc))
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(document))
        assert main(["diff", str(good), str(bad)]) == 2
        err = capsys.readouterr().err
        assert "bad.json is not a scan JSON document" in err
        assert "good.json" not in err

class TestUniformFlags:
    def test_exit_codes_documented_in_help(self, capsys):
        for cmd in ("check", "scan", "regions", "diff"):
            with pytest.raises(SystemExit):
                main([cmd, "--help"])
            assert "exit codes:" in capsys.readouterr().out

    def test_shared_flags_accepted_everywhere(self, tmp_path, capsys):
        path = tmp_path / "p.wl"
        path.write_text(
            """entry Main.main;
            class Main { static method main() {
              loop L (*) { x = new Main @m; }
            } }"""
        )
        common = ["--json", "--canonical"]
        assert (
            main(["check", str(path), "--region", "Main.main:L"] + common) == 0
        )
        assert main(["scan", str(path)] + common) == 0
        assert main(["regions", str(path)] + common) == 0
        assert main(["diff", str(path), str(path)] + common) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "command", ["check", "scan", "regions", "diff", "serve"]
    )
    def test_removed_cache_dir_is_a_usage_error(
        self, command, tmp_path, capsys, monkeypatch
    ):
        from repro.server import app

        def started(**kwargs):
            raise AssertionError("serve started with %r" % kwargs)

        monkeypatch.setattr(app, "create_server", started)
        path = tmp_path / "p.wl"
        path.write_text(
            """entry Main.main;
            class Main { static method main() {
              loop L (*) { x = new Main @m; }
            } }"""
        )
        operands = {
            "check": [str(path), "--region", "Main.main:L"],
            "scan": [str(path)],
            "regions": [str(path)],
            "diff": [str(path), str(path)],
            "serve": ["--port", "0"],
        }[command]
        cache = str(tmp_path / "cache")
        with pytest.raises(SystemExit) as excinfo:
            main([command] + operands + ["--cache-dir", cache])
        assert excinfo.value.code == 2
        assert "--cache-dir" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()


class TestPivotCycleCLI:
    """The mutual-containment regression through the real CLI: a
    two-site cycle must survive pivot mode as exactly one report."""

    _CYCLE = """
    entry Main.main;
    class Main { static method main() {
        h = new Holder @holder;
        loop L (*) {
          a = new Node @a; b = new Node @b;
          a.next = b; b.prev = a; h.slot = a;
        } } }
    class Holder { field slot; }
    class Node { field next; field prev; }
    """

    @pytest.fixture
    def cycle_file(self, tmp_path):
        path = tmp_path / "cycle.wl"
        path.write_text(self._CYCLE)
        return str(path)

    def test_check_reports_exactly_one_site(self, cycle_file, capsys):
        import json

        code = main(
            ["check", cycle_file, "--region", "Main.main:L", "--json"]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert [f["site"] for f in report["findings"]] == ["a"]

    def test_no_pivot_reports_both(self, cycle_file, capsys):
        import json

        code = main(
            [
                "check",
                cycle_file,
                "--region",
                "Main.main:L",
                "--json",
                "--no-pivot",
            ]
        )
        report = json.loads(capsys.readouterr().out)
        assert code == 1
        assert sorted(f["site"] for f in report["findings"]) == ["a", "b"]


class TestInheritanceCycleCLI:
    """A cyclic ``extends`` chain is a malformed program: exit 2 with the
    cycle named, in source and in bytecode form.  Each command runs in a
    subprocess under a timeout, so a regression to an endless dispatch
    walk fails the test instead of hanging the suite."""

    _SOURCE = """
    entry Main.main;
    class Main { static method main() {
      a = new A @sa;
      call a.m() @c1;
      loop L (*) { x = new A @sx; }
    } }
    class A extends B { }
    class B extends A { method m() { return; } }
    """

    def _run(self, *argv):
        import os
        import subprocess
        import sys

        import repro

        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        return subprocess.run(
            [sys.executable, "-m", "repro", *argv],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
            timeout=60,
        )

    @pytest.fixture
    def source_file(self, tmp_path):
        path = tmp_path / "cycle.wl"
        path.write_text(self._SOURCE)
        return str(path)

    @pytest.fixture
    def bytecode_file(self, tmp_path):
        from repro.bytecode import dump
        from repro.lang import parse_program

        path = str(tmp_path / "cycle.jbc")
        dump(parse_program(self._SOURCE, validate=False), path)
        return path

    @pytest.mark.parametrize("form", ["source_file", "bytecode_file"])
    def test_scan_exits_2(self, form, request):
        proc = self._run("scan", request.getfixturevalue(form))
        assert proc.returncode == 2
        assert "extends cycle: A extends B extends A" in proc.stderr

    def test_compile_refuses_the_cycle(self, source_file, tmp_path):
        out = tmp_path / "cycle.jbc"
        proc = self._run("compile", source_file, "-o", str(out))
        assert proc.returncode == 2
        assert not out.exists()


class TestServeFlags:
    """A ``serve`` flag value that no request could send is a usage
    error: the daemon must not start and then fail every request."""

    @pytest.mark.parametrize(
        "value", ["1" + "0" * 400, "-5"], ids=["too-large", "negative"]
    )
    def test_bad_deadline_is_a_usage_error(self, value, capsys, monkeypatch):
        from repro.server import app

        def started(**kwargs):
            raise AssertionError("serve started with %r" % kwargs)

        monkeypatch.setattr(app, "create_server", started)
        with pytest.raises(SystemExit) as excinfo:
            main(["serve", "--port", "0", "--deadline-ms=%s" % value])
        assert excinfo.value.code == 2
        assert "--deadline-ms" in capsys.readouterr().err


class _Started(Exception):
    """Raised by a stubbed server constructor in place of starting it."""

    def __init__(self, kwargs):
        super().__init__(kwargs)
        self.kwargs = kwargs


class TestNumericFlags:
    """A count or port flag outside its range is a usage error naming
    the flag; the values inside it reach the command unchanged."""

    @pytest.fixture(autouse=True)
    def servers(self, monkeypatch):
        from repro.server import app, remote_worker

        def started(**kwargs):
            raise _Started(kwargs)

        monkeypatch.setattr(app, "create_server", started)
        monkeypatch.setattr(remote_worker, "RemoteWorkerServer", started)

    @pytest.mark.parametrize(
        "command, flag, low, high",
        [
            ("serve", "--jobs", 1, None),
            ("serve", "--max-sessions", 1, None),
            ("serve", "--max-body", 1, None),
            ("serve", "--max-queue", 0, None),
            ("serve", "--port", 0, 65535),
            ("worker", "--port", 0, 65535),
        ],
    )
    def test_server_flag_range(self, command, flag, low, high, capsys):
        key = flag[2:].replace("-", "_")
        for value in (low,) if high is None else (low, high):
            with pytest.raises(_Started) as started:
                main([command, flag, str(value)])
            assert started.value.kwargs[key] == value
        for value in (low - 1,) if high is None else (low - 1, high + 1):
            with pytest.raises(SystemExit) as excinfo:
                main([command, flag, str(value)])
            assert excinfo.value.code == 2
            assert "argument %s" % flag in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags", [["--limit"], ["--auto-regions", "--top"]], ids=["limit", "top"]
    )
    def test_negative_scan_count_is_a_usage_error(
        self, flags, figure1_file, capsys
    ):
        assert main(["scan", figure1_file, "--json"] + flags + ["0"]) == 0
        assert json.loads(capsys.readouterr().out)["loops"] == []
        with pytest.raises(SystemExit) as excinfo:
            main(["scan", figure1_file] + flags + ["-1"])
        assert excinfo.value.code == 2
        assert "argument %s" % flags[-1] in capsys.readouterr().err


class TestDetectorKnobs:
    """An out-of-range detector knob is a usage error naming the field,
    for every command that takes the detector flags, ``serve``
    included; the lowest accepted value still analyzes."""

    _BAD = [
        ("--context-depth", "-1", "context_depth"),
        ("--max-contexts-per-site", "0", "max_contexts_per_site"),
        ("--max-contexts-per-site", "-1", "max_contexts_per_site"),
        ("--budget", "-1", "budget"),
    ]

    @pytest.mark.parametrize(
        "flag, low, field",
        [
            ("--context-depth", 0, "context_depth"),
            ("--max-contexts-per-site", 1, "max_contexts_per_site"),
            ("--budget", 0, "budget"),
        ],
    )
    def test_check_range(self, flag, low, field, leak_file, capsys):
        region = ["check", leak_file, "--region", "Main.main:L", "--json"]
        assert main(region + ["--demand-driven", flag, str(low)]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["findings"]
        assert all(f["contexts"] for f in report["findings"])
        assert main(region + [flag, str(low - 1)]) == 2
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value, field", _BAD)
    def test_serve_does_not_start(self, flag, value, field, capsys, monkeypatch):
        from repro.server import app

        def started(**kwargs):
            raise _Started(kwargs)

        monkeypatch.setattr(app, "create_server", started)
        assert main(["serve", "--port", "0", flag, value]) == 2
        assert field in capsys.readouterr().err
