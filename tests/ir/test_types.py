"""Tests for repro.ir.types."""

import pytest

from repro.errors import IRError
from repro.ir.types import ELEM_FIELD, OBJECT_CLASS, RefType, THREAD_CLASS


class TestRefType:
    def test_plain_class(self):
        t = RefType("Order")
        assert t.class_name == "Order"
        assert not t.is_array
        assert str(t) == "Order"

    def test_array_type(self):
        t = RefType("Order", dims=1)
        assert t.is_array
        assert str(t) == "Order[]"

    def test_multi_dimensional(self):
        t = RefType("Order", dims=2)
        assert str(t) == "Order[][]"
        assert t.element_type() == RefType("Order", 1)

    def test_element_of_non_array_fails(self):
        with pytest.raises(IRError):
            RefType("Order").element_type()

    def test_equality_and_hash(self):
        assert RefType("A") == RefType("A")
        assert RefType("A") != RefType("B")
        assert RefType("A") != RefType("A", 1)
        assert hash(RefType("A", 1)) == hash(RefType("A", 1))

    def test_empty_class_name_rejected(self):
        with pytest.raises(IRError):
            RefType("")

    def test_negative_dims_rejected(self):
        with pytest.raises(IRError):
            RefType("A", dims=-1)

    def test_not_equal_to_other_types(self):
        assert RefType("A") != "A"


def test_module_constants():
    assert ELEM_FIELD == "elem"
    assert OBJECT_CLASS == "Object"
    assert THREAD_CLASS == "Thread"
