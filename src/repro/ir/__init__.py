"""Jimple-like intermediate representation for the Java-like while language.

This package is the substrate that stands in for Soot/Jimple in the
LeakChecker reproduction: a structured three-address IR with classes,
virtual dispatch, fields, arrays (modeled via the ``elem`` pseudo-field),
labelled loops, and allocation sites.
"""

from repro.ir.builder import ProgramBuilder
from repro.ir.printer import class_to_text, method_to_text, program_to_text
from repro.ir.program import AllocSite, ClassDecl, FieldDecl, Method, Program
from repro.ir.stmts import (
    Block,
    Cond,
    CopyStmt,
    IfStmt,
    InvokeStmt,
    LoadStmt,
    LoopStmt,
    NewStmt,
    NullStmt,
    ReturnStmt,
    Stmt,
    StoreNullStmt,
    StoreStmt,
    THIS_VAR,
    simple_statements,
    walk,
)
from repro.ir.optimize import (
    eliminate_dead_copies,
    optimize_program,
    propagate_copies,
)
from repro.ir.types import ELEM_FIELD, OBJECT_CLASS, RefType, THREAD_CLASS
from repro.ir.validate import check, validate_program

__all__ = [
    "AllocSite",
    "Block",
    "ClassDecl",
    "Cond",
    "CopyStmt",
    "ELEM_FIELD",
    "FieldDecl",
    "IfStmt",
    "InvokeStmt",
    "LoadStmt",
    "LoopStmt",
    "Method",
    "NewStmt",
    "NullStmt",
    "OBJECT_CLASS",
    "Program",
    "ProgramBuilder",
    "RefType",
    "ReturnStmt",
    "Stmt",
    "StoreNullStmt",
    "StoreStmt",
    "THIS_VAR",
    "THREAD_CLASS",
    "check",
    "class_to_text",
    "eliminate_dead_copies",
    "method_to_text",
    "optimize_program",
    "program_to_text",
    "propagate_copies",
    "simple_statements",
    "validate_program",
    "walk",
]
