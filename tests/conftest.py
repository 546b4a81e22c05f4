"""Shared fixtures: canonical programs used across the test suite."""

import json

import pytest

from repro.lang import parse_program

#: The paper's Figure 1 (SPECjbb2000 excerpt), in the while language.
FIGURE1_SOURCE = """
entry Main.main;

class Main {
  static method main() {
    t = new Transaction @a2;
    call t.txInit() @c1;
    loop L1 (*) {
      call t.display() @cd;
      order = new Order @a5;
      call t.process(order) @cp;
    }
  }
}

class Transaction {
  field curr;
  field customers;
  method txInit() {
    cs = new Customer[] @a10;
    this.customers = cs;
    loop LC (*) {
      c = new Customer @a13;
      call c.custInit() @ci;
      cs.elem = c;
    }
  }
  method process(p) {
    this.curr = p;
    custs = this.customers;
    c = custs.elem;
    call c.addOrder(p) @ca;
  }
  method display() {
    o = this.curr;
    if (nonnull o) {
      this.curr = null;
    }
  }
}

class Customer {
  field orders;
  method custInit() {
    arr = new Order[] @a34;
    this.orders = arr;
  }
  method addOrder(y) {
    arr = this.orders;
    arr.elem = y;
  }
}

class Order { }
"""

#: The Section 3.1 worked example (o1..o4), intraprocedural.
WORKED_EXAMPLE_SOURCE = """
entry Main.main;

class Main {
  static method main() {
    b = new C1 @o1;
    loop L (*) {
      c = new C2 @o2;
      d = new C3 @o3;
      e = new C4 @o4;
      m = b.g;
      if (*) {
        n = m.h;
      }
      if (*) {
        b.g = d;
        d.h = e;
      }
    }
  }
}

class C1 { field g; }
class C2 { }
class C3 { field h; }
class C4 { }
"""

#: A minimal single-class loop leak: objects stored into an outside
#: holder's field, never read.
SIMPLE_LEAK_SOURCE = """
entry Main.main;

class Main {
  static method main() {
    h = new Holder @holder;
    loop L (*) {
      x = new Item @item;
      h.slot = x;
    }
  }
}

class Holder { field slot; }
class Item { }
"""

#: Same shape but the reference is read back each iteration: not a leak.
SIMPLE_SHARED_SOURCE = """
entry Main.main;

class Main {
  static method main() {
    h = new Holder @holder;
    loop L (*) {
      y = h.slot;
      x = new Item @item;
      h.slot = x;
    }
  }
}

class Holder { field slot; }
class Item { }
"""

#: A loop whose verdict depends on context sensitivity: the demand-driven
#: analysis keeps the two ``Util.id`` calls apart and reports no leak,
#: while the whole-program fallback merges them and reports ``item``.
#: A query past its deadline answers from that fallback, so this program
#: tells a degraded answer from an exact one.
MERGED_CALLS_SOURCE = """
entry Main.main;
class Main { static method main() {
    h = new Holder @holder; o = new Item @outer;
    loop L (*) {
      t = new Item @item; u = call Util.id(t) @cs1;
      v = call Util.id(o) @cs2; h.slot = v;
    } } }
class Util { static method id(x) { return x; } }
class Holder { field slot; }
class Item { }
"""


@pytest.fixture
def figure1():
    return parse_program(FIGURE1_SOURCE)


@pytest.fixture
def worked_example():
    return parse_program(WORKED_EXAMPLE_SOURCE)


@pytest.fixture
def simple_leak():
    return parse_program(SIMPLE_LEAK_SOURCE)


@pytest.fixture
def simple_shared():
    return parse_program(SIMPLE_SHARED_SOURCE)


@pytest.fixture
def threaded_workers():
    """``threaded_workers(n=1, failpoints="")``: start ``n`` fleet worker
    servers on threads of this process and return their addresses, to
    pass as ``worker_hosts``; they shut down after the test."""
    from repro.server.remote_worker import RemoteWorkerServer

    servers = []

    def start(n=1, failpoints=""):
        started = [
            RemoteWorkerServer(failpoints=failpoints).start() for _ in range(n)
        ]
        servers.extend(started)
        return [server.address for server in started]

    yield start
    for server in servers:
        server.shutdown()


def canonical_pairs(pairs):
    """``(region text, report dict)`` pairs — a fleet answer's form
    (:meth:`~repro.server.coordinator.Coordinator.scan_program`) — with
    each report as canonical JSON, for byte-identity checks."""
    from repro.core.canonical import canonical_report_dict

    return [
        (region, json.dumps(canonical_report_dict(report), sort_keys=True))
        for region, report in pairs
    ]


def report_pairs(result):
    """A serial :class:`~repro.core.scan.ScanResult` in the form of
    :func:`canonical_pairs`."""
    from repro.core.regions import region_text

    return canonical_pairs(
        (region_text(spec), report.as_dict()) for spec, report in result.entries
    )


@pytest.fixture(scope="module")
def process_fleet():
    """``process_fleet(source, regions=None, config=None)``: ``source``
    as one program task on the module's one two-worker local fleet —
    the path ``POST /analyze-batch`` takes for a never-seen program
    under ``serve --workers 2`` — in the form of :func:`canonical_pairs`.
    ``regions`` is a list of region texts; ``None`` checks every
    labelled loop."""
    from repro.server.coordinator import Coordinator

    coordinator = Coordinator(2)

    def fleet(source, regions=None, config=None):
        return canonical_pairs(
            coordinator.scan_program(source, regions, config=config)
        )

    yield fleet
    coordinator.close()
