"""Shared fixtures: canonical programs used across the test suite."""

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


@pytest.fixture(scope="module")
def process_fleet():
    """``process_fleet(config=None)``: a fleet Coordinator for ``config``
    on the module's one two-worker local fleet — the path
    ``POST /analyze-batch`` takes under ``serve --workers 2``.

    Each config gets its own session pool (a pool holds one config);
    the forked workers are shared, and adopt per (digest, config).
    """
    from repro.core.config import DetectorConfig
    from repro.server.coordinator import Coordinator
    from repro.server.pool import SessionPool
    from repro.server.remote import RemoteTransport

    transport = RemoteTransport(workers=2)
    coordinators = {}

    def fleet(config=None):
        config = config or DetectorConfig()
        key = tuple(sorted(config.describe().items()))
        if key not in coordinators:
            coordinators[key] = Coordinator(
                transport=transport, pool=SessionPool(config)
            )
        return coordinators[key]

    yield fleet
    transport.close()
    for coordinator in coordinators.values():
        coordinator.pool.close()
