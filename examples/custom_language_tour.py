#!/usr/bin/env python
"""A tour of the substrate: build a program with the IR builder, inspect
its call graphs, loops and points-to analyses.

LeakChecker sits on top of a complete mini static-analysis framework;
this example shows each layer individually, which is the starting point
for building *other* analyses over the same IR.
"""

from repro.callgraph import build_cha, build_rta, program_metrics
from repro.core.infer import infer_candidates
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

    print("=== call graphs ===")
    cha = build_cha(program)
    rta = build_rta(program)
    print("CHA:", program_metrics(cha))
    print("RTA:", program_metrics(rta))
    print()

    print("=== loops of Main.main, as region inference sees them ===")
    print("loops:", [loop.label for loop in program.method("Main.main").loops()])
    (work,) = infer_candidates(program, rta).loops()
    features = work.features
    print(
        "%s:%s: %s, nest depth %d, %d blocks in its natural loop"
        % (
            work.spec.method_sig,
            work.spec.loop_label,
            features["kind"],
            features["nest_depth"],
            features["blocks"],
        )
    )
    assert features["nest_depth"] == 1 and features["blocks"] == 2
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
