"""Reference XML scanner, used only by tests.

This is the per-character scanner the package used before parsing
became one regex-token pass: a ``_Scanner`` that tracks line and column
on every ``advance()`` and an ``_parse_element`` that calls itself once
per nesting level, so it overflows the stack on deep input. It is kept
as the oracle that ``netcheck.xmldoc.parse_xml`` is checked against:
both must build the same tree, or raise ``ParseError`` with the same
message, line and column.
"""

from __future__ import annotations

from netcheck.errors import ParseError
from netcheck.xmldoc import XmlElement, XmlText

_XML_WS = " \t\r\n"
_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}


def _is_name_start(c: str) -> bool:
    # Names: ASCII letters, digits, underscore, hyphen, dot; no leading digit.
    return (c.isascii() and c.isalpha()) or c in "_-."


def _is_name_char(c: str) -> bool:
    return (c.isascii() and (c.isalpha() or c.isdigit())) or c in "_-."


class _Scanner:
    __slots__ = ("text", "n", "i", "line", "col")

    def __init__(self, text: str):
        self.text = text
        self.n = len(text)
        self.i = 0
        self.line = 1
        self.col = 1

    def at_end(self) -> bool:
        return self.i >= self.n

    def peek(self) -> str:
        return self.text[self.i] if self.i < self.n else ""

    def startswith(self, s: str) -> bool:
        return self.text.startswith(s, self.i)

    def advance(self) -> str:
        c = self.text[self.i]
        self.i += 1
        if c == "\n":
            self.line += 1
            self.col = 1
        else:
            self.col += 1
        return c

    def skip(self, k: int) -> None:
        for _ in range(k):
            self.advance()

    def error(self, message: str, line: int | None = None, col: int | None = None):
        raise ParseError(message, line if line is not None else self.line,
                         col if col is not None else self.col)


def parse_xml(data: bytes | str) -> XmlElement:
    """Parse a document and return its root element.

    Accepts bytes (UTF-8, optional BOM) or an already-decoded string.
    Raises ParseError with a 1-based line and column on any violation:
    mismatched or unterminated tags, unquoted or duplicate attributes,
    unknown entities, markup outside the subset, multiple roots.
    """
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc.reason}") from exc
    else:
        text = data
    if text.startswith("﻿"):
        text = text[1:]

    sc = _Scanner(text)
    counter = [0]
    _skip_between_elements(sc, allow_declaration=True)
    if sc.at_end():
        sc.error("document has no root element")
    if sc.peek() != "<":
        sc.error("content outside the root element")
    root = _parse_element(sc, counter)
    _skip_between_elements(sc)
    if not sc.at_end():
        if sc.peek() == "<":
            sc.error("multiple root elements")
        sc.error("content outside the root element")
    return root


def _skip_between_elements(sc: _Scanner, allow_declaration: bool = False) -> None:
    if allow_declaration and sc.startswith("<?xml"):
        line, col = sc.line, sc.col
        while not sc.startswith("?>"):
            if sc.at_end():
                sc.error("unterminated XML declaration", line, col)
            sc.advance()
        sc.skip(2)
    while not sc.at_end():
        c = sc.peek()
        if c in _XML_WS:
            sc.advance()
        elif sc.startswith("<!--"):
            _skip_comment(sc)
        else:
            return


def _skip_comment(sc: _Scanner) -> None:
    line, col = sc.line, sc.col
    sc.skip(4)
    while not sc.startswith("-->"):
        if sc.at_end():
            sc.error("unterminated comment", line, col)
        sc.advance()
    sc.skip(3)


def _read_name(sc: _Scanner, what: str) -> str:
    if sc.at_end() or not _is_name_start(sc.peek()):
        sc.error(f"expected {what}")
    chars = [sc.advance()]
    while not sc.at_end() and _is_name_char(sc.peek()):
        chars.append(sc.advance())
    return "".join(chars)


def _read_entity(sc: _Scanner) -> str:
    line, col = sc.line, sc.col
    sc.advance()  # '&'
    name_chars: list[str] = []
    while True:
        if sc.at_end() or len(name_chars) > 8:
            sc.error("unterminated entity reference", line, col)
        c = sc.advance()
        if c == ";":
            break
        name_chars.append(c)
    name = "".join(name_chars)
    if name not in _ENTITIES:
        sc.error(f"unknown entity &{name};", line, col)
    return _ENTITIES[name]


def _parse_element(sc: _Scanner, counter: list[int]) -> XmlElement:
    start_line, start_col = sc.line, sc.col
    sc.advance()  # '<'
    name = _read_name(sc, "element name")
    pos = counter[0]
    counter[0] += 1

    attrs: dict[str, str] = {}
    while True:
        saw_ws = False
        while not sc.at_end() and sc.peek() in _XML_WS:
            sc.advance()
            saw_ws = True
        if sc.at_end():
            sc.error(f"unterminated start tag <{name}>", start_line, start_col)
        c = sc.peek()
        if c in "/>":
            break
        if not saw_ws:
            sc.error("expected whitespace before attribute")
        attr_line, attr_col = sc.line, sc.col
        attr_name = _read_name(sc, "attribute name")
        while not sc.at_end() and sc.peek() in _XML_WS:
            sc.advance()
        if sc.peek() != "=":
            sc.error(f"expected '=' after attribute {attr_name!r}")
        sc.advance()
        while not sc.at_end() and sc.peek() in _XML_WS:
            sc.advance()
        quote = sc.peek()
        if quote not in ("'", '"'):
            sc.error("attribute value must be quoted")
        q_line, q_col = sc.line, sc.col
        sc.advance()
        value_parts: list[str] = []
        while True:
            if sc.at_end():
                sc.error("unterminated attribute value", q_line, q_col)
            c = sc.peek()
            if c == quote:
                sc.advance()
                break
            if c == "<":
                sc.error("'<' is not allowed in an attribute value")
            if c == "&":
                value_parts.append(_read_entity(sc))
            else:
                value_parts.append(sc.advance())
        if attr_name in attrs:
            sc.error(f"duplicate attribute {attr_name!r}", attr_line, attr_col)
        attrs[attr_name] = "".join(value_parts)

    elem = XmlElement(name, attrs, pos)
    if sc.peek() == "/":
        sc.advance()
        if sc.peek() != ">":
            sc.error("expected '>' after '/'")
        sc.advance()
        return elem
    sc.advance()  # '>'

    text_parts: list[str] = []

    def flush_text() -> None:
        if not text_parts:
            return
        s = "".join(text_parts)
        text_parts.clear()
        if s.strip(_XML_WS) == "":
            return  # inter-tag whitespace is formatting, not data
        node = XmlText(s, counter[0])
        counter[0] += 1
        node.parent = elem
        node.index = len(elem.children)
        elem.children.append(node)

    while True:
        if sc.at_end():
            sc.error(f"unterminated element <{name}>", start_line, start_col)
        c = sc.peek()
        if c == "<":
            if sc.startswith("</"):
                flush_text()
                end_line, end_col = sc.line, sc.col
                sc.skip(2)
                end_name = _read_name(sc, "element name")
                while not sc.at_end() and sc.peek() in _XML_WS:
                    sc.advance()
                if sc.peek() != ">":
                    sc.error("expected '>' in closing tag")
                sc.advance()
                if end_name != name:
                    sc.error(
                        f"mismatched closing tag: expected </{name}>, found </{end_name}>",
                        end_line, end_col,
                    )
                return elem
            if sc.startswith("<!--"):
                # Comments do not break up runs of text.
                _skip_comment(sc)
            elif sc.startswith("<!"):
                sc.error("'<!' markup is not supported")
            elif sc.startswith("<?"):
                sc.error("processing instructions are not supported")
            else:
                flush_text()
                child = _parse_element(sc, counter)
                child.parent = elem
                child.index = len(elem.children)
                elem.children.append(child)
        elif c == "&":
            text_parts.append(_read_entity(sc))
        else:
            text_parts.append(sc.advance())
