"""Reference interpreter for the filter language, used only by tests.

This is the tree-walking evaluator the package used before filters were
compiled into closures: it dispatches on the node type at every step,
re-sorts every step's result and re-evaluates a predicate each time a
path reaches an item. It is kept as the oracle that the compiled
evaluator in ``netcheck.xpath`` is checked against.
"""

from __future__ import annotations

import re
from decimal import Decimal

from netcheck.errors import FilterTypeError
from netcheck.xmldoc import (
    XmlAttribute,
    XmlElement,
    XmlItem,
    XmlText,
)
from netcheck.xpath import (
    And,
    AnyElementTest,
    AnyItemTest,
    Axis,
    Comparison,
    Contains,
    CountExpr,
    FilterExpr,
    LocationPath,
    NameTest,
    NodeTest,
    Not,
    NumberLiteral,
    Operand,
    Or,
    StringLiteral,
)


def doc_order_key(item: XmlItem) -> tuple:
    """Total order on items of one document: elements and text by rank,
    attributes after their owner and before the owner's first child, in
    source order."""
    if isinstance(item, XmlAttribute):
        owner = item.owner
        return (owner.pos, 1, owner.attr_items.index(item))
    return (item.pos, 0, 0)


def string_value(item: XmlItem) -> str:
    """Concatenation of all text beneath the item, in document order,
    found by walking its children, not by reading its ranks."""
    if isinstance(item, XmlText):
        return item.text
    if isinstance(item, XmlAttribute):
        return item.value
    parts: list[str] = []
    stack = list(reversed(item.children))
    while stack:
        node = stack.pop()
        if isinstance(node, XmlText):
            parts.append(node.text)
        else:
            stack.extend(reversed(node.children))
    return "".join(parts)


def eval_path(path: LocationPath, context: XmlItem) -> list[XmlItem]:
    """Evaluate a location path at a context item.

    Returns a duplicate-free list in document order. Each step's
    predicates filter that step's result.
    """
    items: list[XmlItem] = [context]
    for step in path.steps:
        seen: set[int] = set()
        collected: list[XmlItem] = []
        for item in items:
            for cand in _axis_items(step.axis, item):
                if _test_matches(step.test, step.axis, cand):
                    key = id(cand)
                    if key not in seen:
                        seen.add(key)
                        collected.append(cand)
        collected.sort(key=doc_order_key)
        for pred in step.predicates:
            collected = [it for it in collected if _eval_boolean(pred, it)]
        items = collected
    return items


def _descendants(element: XmlElement):
    stack = list(reversed(element.children))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, XmlElement):
            stack.extend(reversed(node.children))


def _axis_items(axis: Axis, item: XmlItem):
    if axis is Axis.CHILD:
        return iter(item.children) if isinstance(item, XmlElement) else iter(())
    if axis is Axis.DESCENDANT:
        return _descendants(item) if isinstance(item, XmlElement) else iter(())
    if axis is Axis.DESCENDANT_OR_SELF:
        def gen():
            yield item
            if isinstance(item, XmlElement):
                yield from _descendants(item)
        return gen()
    if axis is Axis.PARENT:
        parent = item.owner if isinstance(item, XmlAttribute) else item.parent
        return iter(() if parent is None else (parent,))
    if axis is Axis.ANCESTOR:
        def gen():
            node = item.owner if isinstance(item, XmlAttribute) else item.parent
            while node is not None:
                yield node
                node = node.parent
        return gen()
    if axis is Axis.SELF:
        return iter((item,))
    if axis is Axis.ATTRIBUTE:
        return iter(item.attr_items) if isinstance(item, XmlElement) else iter(())
    if axis is Axis.FOLLOWING_SIBLING:
        if isinstance(item, XmlAttribute) or item.parent is None:
            return iter(())
        return iter(item.parent.children[item.index + 1 :])
    if axis is Axis.PRECEDING_SIBLING:
        if isinstance(item, XmlAttribute) or item.parent is None:
            return iter(())
        return iter(item.parent.children[: item.index])
    raise AssertionError(axis)


def _test_matches(test: NodeTest, axis: Axis, item: XmlItem) -> bool:
    if isinstance(test, AnyItemTest):
        return True
    if axis is Axis.ATTRIBUTE:
        if isinstance(test, NameTest):
            return isinstance(item, XmlAttribute) and item.name == test.name
        if isinstance(test, AnyElementTest):
            return isinstance(item, XmlAttribute)
        return False
    if isinstance(test, NameTest):
        return isinstance(item, XmlElement) and item.name == test.name
    if isinstance(test, AnyElementTest):
        return isinstance(item, XmlElement)
    return isinstance(item, XmlText)


def eval_filter(expr: FilterExpr, context: XmlElement) -> bool:
    """Evaluate a filter at an element; raises FilterTypeError when a
    relational comparison meets a value that is not a number."""
    return _eval_boolean(expr, context)


def _eval_boolean(expr: FilterExpr, item: XmlItem) -> bool:
    if isinstance(expr, And):
        return _eval_boolean(expr.left, item) and _eval_boolean(expr.right, item)
    if isinstance(expr, Or):
        return _eval_boolean(expr.left, item) or _eval_boolean(expr.right, item)
    if isinstance(expr, Not):
        return not _eval_boolean(expr.operand, item)
    if isinstance(expr, Comparison):
        return _compare(expr, item)
    if isinstance(expr, Contains):
        return any(expr.needle in string_value(it) for it in eval_path(expr.path, item))
    if isinstance(expr, CountExpr):
        return bool(eval_path(expr.path, item))
    if isinstance(expr, StringLiteral):
        return expr.value != ""
    if isinstance(expr, NumberLiteral):
        return expr.value != 0
    if isinstance(expr, LocationPath):
        return bool(eval_path(expr, item))
    raise AssertionError(expr)


_NUMBER_RE = re.compile(r"[+-]?(\d+(\.\d*)?|\.\d+)\Z")


def _to_number(kind: str, value) -> Decimal:
    if kind == "num":
        return value
    if kind == "bool":
        return Decimal(1 if value else 0)
    s = value.strip(" \t\r\n")
    if not _NUMBER_RE.match(s):
        raise FilterTypeError(f"cannot interpret {value!r} as a number")
    return Decimal(s)


def _to_boolean(kind: str, value) -> bool:
    if kind == "bool":
        return value
    if kind == "num":
        return value != 0
    return value != ""


def _scalar_compare(lkind: str, lval, op: str, rkind: str, rval) -> bool:
    if op in ("<", "<=", ">", ">="):
        a = _to_number(lkind, lval)
        b = _to_number(rkind, rval)
        if op == "<":
            return a < b
        if op == "<=":
            return a <= b
        if op == ">":
            return a > b
        return a >= b
    if lkind == "num" or rkind == "num":
        eq = _to_number(lkind, lval) == _to_number(rkind, rval)
    elif lkind == "bool" or rkind == "bool":
        eq = _to_boolean(lkind, lval) == _to_boolean(rkind, rval)
    else:
        eq = lval == rval
    return eq if op == "=" else not eq


def _operand_value(operand: Operand, item: XmlItem) -> tuple[str, object]:
    if isinstance(operand, LocationPath):
        return ("nodes", eval_path(operand, item))
    if isinstance(operand, StringLiteral):
        return ("str", operand.value)
    if isinstance(operand, NumberLiteral):
        return ("num", operand.value)
    if isinstance(operand, CountExpr):
        return ("num", Decimal(len(eval_path(operand.path, item))))
    if isinstance(operand, Contains):
        return ("bool", _eval_boolean(operand, item))
    raise AssertionError(operand)


def _compare(cmp: Comparison, item: XmlItem) -> bool:
    lkind, lval = _operand_value(cmp.left, item)
    rkind, rval = _operand_value(cmp.right, item)
    if lkind == "nodes" and rkind == "nodes":
        return any(
            _scalar_compare("str", string_value(a), cmp.op, "str", string_value(b))
            for a in lval
            for b in rval
        )
    if lkind == "nodes":
        return any(
            _scalar_compare("str", string_value(a), cmp.op, rkind, rval) for a in lval
        )
    if rkind == "nodes":
        return any(
            _scalar_compare(lkind, lval, cmp.op, "str", string_value(b)) for b in rval
        )
    return _scalar_compare(lkind, lval, cmp.op, rkind, rval)
