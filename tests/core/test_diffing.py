"""Unit tests for leak diffing: comparing two analyses by finding
fingerprint."""

from repro.core.diffing import diff_analyses, scan_fingerprints
from repro.core.scan import scan_all_loops
from repro.lang import parse_program

# Two independent leaky loops in unrelated classes with disjoint field
# names: fixing one leak leaves the other reported.
TWO_WORKER_SOURCE = """
entry Main.main;

class Main {
  static method main() {
    a = new AWorker @aw;
    call a.runA() @call_a;
    b = new BWorker @bw;
    call b.runB() @call_b;
  }
}

class AWorker {
  field asink;
  method runA() {
    l = new AList @alist;
    this.asink = l;
    loop LA (*) {
      o = new AObj @aobj;
      s = this.asink;
      s.aelem = o;
    }
  }
}

class BWorker {
  field bsink;
  method runB() {
    l = new BList @blist;
    this.bsink = l;
    loop LB (*) {
      o = new BObj @bobj;
      s = this.bsink;
      s.belem = o;
    }
  }
}

class Helper {
  method help() { x = new AObj @hobj; return x; }
}

class AList { field aelem; }
class BList { field belem; }
class AObj { }
class BObj { }
"""


def _snapshot(source):
    """The program, its cold scan, and the scan's ``--json`` form."""
    program = parse_program(source)
    result = scan_all_loops(program)
    return program, result, result.as_dict()


class TestDiffing:
    def test_identical_analyses_are_clean(self):
        _program, cold, _payload = _snapshot(TWO_WORKER_SOURCE)
        delta = diff_analyses(cold, cold.as_dict())
        assert delta.is_clean
        assert not delta.is_regression
        assert len(delta.unchanged) == cold.total_findings()

    def test_fix_and_regression_detected(self):
        _program, before, _payload = _snapshot(TWO_WORKER_SOURCE)
        # Break the A leak by dropping the store into the sink list.
        fixed_src = TWO_WORKER_SOURCE.replace("      s.aelem = o;\n", "")
        after = scan_all_loops(parse_program(fixed_src))
        delta = diff_analyses(before, after)
        assert delta.fixed and not delta.new
        assert not delta.is_regression
        reverse = diff_analyses(after, before)
        assert reverse.is_regression
        assert reverse.new == delta.fixed

    def test_fingerprints_match_between_result_and_dict(self):
        _program, cold, _payload = _snapshot(TWO_WORKER_SOURCE)
        import json

        round_tripped = json.loads(cold.to_json())
        assert scan_fingerprints(cold) == scan_fingerprints(round_tripped)

    def test_delta_json_counts(self):
        _program, cold, _payload = _snapshot(TWO_WORKER_SOURCE)
        delta = diff_analyses(cold, cold)
        doc = delta.as_dict()
        assert doc["counts"]["unchanged"] == len(delta.unchanged)
        assert doc["counts"]["new"] == 0
        text = delta.format()
        assert "leak diff:" in text
