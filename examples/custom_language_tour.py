#!/usr/bin/env python
"""A tour of the substrate: build a program with the IR builder, inspect
its CFG and natural loops, call graphs, and points-to analyses.

LeakChecker sits on top of a complete mini static-analysis framework;
this example shows each layer individually, which is the starting point
for building *other* analyses over the same IR.
"""

from repro.callgraph import build_cha, build_rta, program_metrics
from repro.cfg import build_cfg, find_loops, immediate_dominators
from repro.ir import ProgramBuilder, program_to_text
from repro.pta import PAG, CFLPointsTo, VarNode, solve


def build_program():
    """A small producer/consumer program built with the fluent builder."""
    pb = ProgramBuilder()

    queue = pb.cls("Queue")
    queue.field("buffer")
    init = queue.method("qInit")
    init.new_array("a", "Object", site="queue_buffer")
    init.store("this", "buffer", "a")
    put = queue.method("put", params=["x"])
    put.load("a", "this", "buffer")
    put.astore("a", "x")
    take = queue.method("take")
    take.load("a", "this", "buffer")
    take.aload("x", "a")
    take.ret("x")

    pb.cls("Job")  # (Object, the array element type, is implicit)

    main = pb.cls("Main").static_method("main")
    main.new("q", "Queue", site="queue")
    main.invoke(None, "q", "qInit", site="init_call")
    with main.loop("WORK") as body:
        body.new("j", "Job", site="job")
        body.invoke(None, "q", "put", ["j"], site="put_call")
        body.invoke("done", "q", "take", site="take_call")
    return pb.build(entry="Main.main")


def main():
    program = build_program()

    print("=== the program, printed back as source ===")
    print(program_to_text(program))

    print("=== CFG + natural loops of Main.main ===")
    cfg = build_cfg(program.method("Main.main"))
    idom = immediate_dominators(cfg)
    loops = find_loops(cfg)
    print("blocks: %d, loops: %s" % (len(cfg.blocks), [l.label for l in loops]))
    print("loop header dominated by entry:", idom[loops[0].header.index] is not None)
    print()

    print("=== call graphs ===")
    cha = build_cha(program)
    rta = build_rta(program)
    print("CHA:", program_metrics(cha))
    print("RTA:", program_metrics(rta))
    print()

    print("=== points-to: whole-program vs demand-driven ===")
    pag = PAG(program, rta)
    andersen = solve(pag)
    cfl = CFLPointsTo(pag, fallback=andersen)
    node = VarNode("Main.main", "done")
    print("Andersen pts(done):", sorted(andersen.pts(node)))
    print("CFL      pts(done):", sorted(cfl.points_to(node)))
    assert cfl.points_to(node) <= set(andersen.pts(node))
    print("\nthe demand-driven answer refines the whole-program one")


if __name__ == "__main__":
    main()
