"""XML subset parser and document tree.

Parses a closed XML subset into a tree of element and text items with
parent links and a global document order. The subset has no namespaces,
no CDATA sections, no processing instructions, and no DTDs; comments are
skipped; the five predefined entities are decoded and anything else in
entity position is an error. Text consisting entirely of whitespace is
dropped, so indentation between tags never becomes data; all other text
is kept verbatim and adjacent runs are merged.

Parsing is one left-to-right pass of compiled regular expressions over
the whole text. Open elements wait on an explicit stack, so nesting depth
is limited by memory, not by the interpreter's recursion limit; the line
and column of an error are worked out from its offset only when it is
raised. Element content is read one token per match of ``_TOKEN``: a
run of text with the predefined entities in it, decoded by one chain of
``str.replace``; a start tag, which takes in the text run after it and
then its closing tag if that follows, so that a leaf such as
``<title>Notes</title>`` is one token and an element's first text is
read once whatever follows it; or a closing tag. Only what the
token refuses takes the long way, which raises the error for a fault.
An element builds its attribute items on first use. Serializing and
comparing trees are iterative as well.

``parse_xml`` reads its root element with ``_element``, and so does
``_root_children`` with each child of the root that the caller's
pattern does not read, and what lies between two children with
``_char_data``, unless it is only whitespace before a tag, which one
regular expression skips: ``parse_network`` takes a network file's
payloads from it without building a tree of the file.

Each element that ``_element`` reads is a document of its own, ranked
from 0 as the parser makes its items: each element and text item gets
its ``parent``, its ``index`` among the parent's children and its
document-order rank ``pos``, each element the largest rank ``end`` in
its subtree and ``doc``, the list of the document's elements and text
items by rank, which all its elements share. The subtree of an element
is then the slice ``doc[pos : end + 1]``, in document order, which
``string_value`` reads. A tree built by hand has no ranks until
``_rank`` gives it the ones the parser would: a ``Network`` ranks each
payload built by hand once, when it is built, and ``_ranked_call``
ranks a standalone tree for one filter call or ``string_value`` call and
drops its ``doc`` when the call returns, so such a tree may change
between calls.

Trees are treated as immutable once parsing returns.
"""

from __future__ import annotations

import re
from typing import Callable, Iterator, NoReturn

from .errors import ParseError

_XML_WS = " \t\r\n"
_ENTITIES = {"amp": "&", "lt": "<", "gt": ">", "quot": '"', "apos": "'"}
# Names: ASCII letters, digits, underscore, hyphen, dot; no leading digit.
_NAME_RE = r"[A-Za-z_.\-][A-Za-z0-9_.\-]*"
_NAME = re.compile(_NAME_RE)
_WS = re.compile(r"[ \t\r\n]*")
# One attribute with the whitespace before it: name, quoted value. The
# value may still hold entity references, valid or not.
_ATTR_RE = rf"""[ \t\r\n]+({_NAME_RE})[ \t\r\n]*=[ \t\r\n]*("[^"<]*"|'[^'<]*')"""
_ATTR = re.compile(_ATTR_RE)
# A start tag up to its '/' or '>': name and attributes.
_TAG_HEAD_RE = rf"<(?P<name>{_NAME_RE})(?P<attrs>(?:{_ATTR_RE})*)[ \t\r\n]*"
# A whole start tag: name, attributes, and '/' if it closes itself.
_START_TAG = re.compile(rf"{_TAG_HEAD_RE}(?P<close>/?)>")
# A closing tag after its '</': the name and the '>', each if present.
# It always matches, so that a fault is read off the groups.
_END_TAG = re.compile(rf"({_NAME_RE})?[ \t\r\n]*(>?)")
# Whitespace and comments around the root element. An unterminated
# comment is left unmatched, for the caller to report.
_MISC = re.compile(r"(?:[ \t\r\n]+|<!--.*?-->)*", re.S)
# Whitespace up to the '<' of a start or closing tag, not of a comment,
# a '<!' or a '<?' that ``_char_data`` reads or refuses.
_WS_TO_TAG = re.compile(r"[ \t\r\n]*(?=<(?![!?]))")
_ATTR_VALUE = {'"': re.compile(r'[^"<&]*'), "'": re.compile(r"[^'<&]*")}
# A nonempty run of character data and predefined entity references,
# unrolled so that each prefix matches in one way only: the shorter form
# (?:[^<&]+|&...;)+ backtracks exponentially when what follows refuses it.
_PREDEFINED = rf"&(?:{'|'.join(_ENTITIES)});"
_TEXT_RUN_RE = rf"(?:[^<&]|{_PREDEFINED})[^<&]*(?:{_PREDEFINED}[^<&]*)*"
_TEXT_RUN = re.compile(_TEXT_RUN_RE)
# One item of element content: a text run, a whole start tag or a
# closing tag. An open start tag takes in the text run after it, and
# then its closing tag if that follows, as in <title>Notes</title>: a
# leaf is then one item, and an element's first text is read once
# whatever follows it. Each branch is one outer group, so that
# ``lastindex`` names it; the group numbers are the constants below.
_TOKEN = re.compile(
    rf"({_TEXT_RUN_RE})"
    rf"|({_TAG_HEAD_RE}(?:(?P<close>/)>|>({_TEXT_RUN_RE})?(</(?P=name)[ \t\r\n]*>)?))"
    rf"|(</({_NAME_RE})[ \t\r\n]*>)"
)
_T_TEXT, _T_START, _T_END = 1, 2, 10
# At most eight characters between '&' and ';'.
_ENTITY = re.compile(r"&([^;]{0,8});")


class XmlElement:
    """Element item: tag name, attributes, ordered children, parent link,
    and its ranks in the document that holds it."""

    __slots__ = ("name", "attrs", "children", "parent", "pos", "end", "doc", "index",
                 "_attr_items")

    def __init__(self, name: str, attrs: dict[str, str], pos: int):
        self.name = name
        self.attrs = attrs
        self.children: list[XmlElement | XmlText] = []
        self.parent: XmlElement | None = None
        self.pos = pos  # document-order rank of this item
        self.end = pos  # largest rank in this element's subtree
        # The document's elements and text items, indexed by rank, shared
        # by all its elements; None until the tree is ranked.
        self.doc: list[XmlElement | XmlText | None] | None = None
        self.index = 0  # position within parent.children
        self._attr_items: tuple[XmlAttribute, ...] | None = None

    @property
    def attr_items(self) -> tuple[XmlAttribute, ...]:
        """The attributes as items, in source order. Built on first
        access and kept, so every access returns the same tuple."""
        items = self._attr_items
        if items is None:
            items = tuple(XmlAttribute(self, n, v) for n, v in self.attrs.items())
            self._attr_items = items
        return items

    def __repr__(self) -> str:
        return f"XmlElement({self.name!r})"


class XmlText:
    """Text item; always a non-whitespace-only string after parsing."""

    __slots__ = ("text", "parent", "pos", "index")

    def __init__(self, text: str, pos: int):
        self.text = text
        self.parent: XmlElement | None = None
        self.pos = pos
        self.index = 0

    def __repr__(self) -> str:
        return f"XmlText({self.text!r})"


class XmlAttribute:
    """Attribute item as exposed on the attribute axis."""

    __slots__ = ("owner", "name", "value")

    def __init__(self, owner: XmlElement, name: str, value: str):
        self.owner = owner
        self.name = name
        self.value = value

    def __repr__(self) -> str:
        return f"XmlAttribute({self.name!r}={self.value!r})"


XmlItem = XmlElement | XmlText | XmlAttribute


def string_value(item: XmlItem) -> str:
    """Concatenation of all text beneath the item, in document order. An
    element's text is in its ``doc`` slice; a tree built by hand that no
    network or filter call has ranked is ranked for this call."""
    if isinstance(item, XmlText):
        return item.text
    if isinstance(item, XmlAttribute):
        return item.value
    if item.doc is None:
        return _ranked_call(string_value, item)
    return "".join([x.text for x in item.doc[item.pos + 1 : item.end + 1]
                    if x.__class__ is XmlText])


def _ranked_call(run: Callable[[XmlItem], object], item: XmlItem):
    """``run(item)``, with the tree that holds ``item`` ranked by
    ``_rank`` if it is not ranked already. Ranks made here are dropped
    again when ``run`` returns, so that the next call sees a tree built
    by hand as it is then."""
    doc = _rank(item)
    try:
        return run(item)
    finally:
        if doc is not None:
            for node in doc:
                if node.__class__ is XmlElement:
                    node.doc = None


def _rank(item: XmlItem) -> list[XmlElement | XmlText] | None:
    """Rank the tree that holds ``item`` unless it is ranked already, and
    return the ``doc`` it made, or None.

    The parser ranks each document as it reads it. A tree built by hand
    has no ranks; this preorder walk from its top gives it the same ones
    the parser would: each element and text item its ``pos``, ``parent``
    and ``index``, and each element its ``end`` and the shared ``doc``.
    """
    node = item.owner if isinstance(item, XmlAttribute) else item
    if isinstance(node, XmlText):
        node = node.parent
    if node is None or node.doc is not None:
        return None
    while node.parent is not None:
        node = node.parent
    doc: list[XmlElement | XmlText | None] = []
    open_: list[XmlElement] = []  # the elements whose subtree the walk is in
    stack: list[XmlElement | XmlText] = [node]
    while stack:
        node = stack.pop()
        while open_ and open_[-1] is not node.parent:
            open_.pop().end = len(doc) - 1
        node.pos = len(doc)
        doc.append(node)
        if isinstance(node, XmlElement):
            node.doc = doc
            open_.append(node)
            for k, child in enumerate(node.children):
                child.parent, child.index = node, k
            stack += reversed(node.children)
    for element in open_:
        element.end = len(doc) - 1
    return doc


def _error(text: str, i: int, message: str) -> ParseError:
    """ParseError at offset ``i`` of ``text``, with 1-based line and column."""
    return ParseError(message, text.count("\n", 0, i) + 1, i - text.rfind("\n", 0, i))


def parse_xml(data: bytes | str) -> XmlElement:
    """Parse a document and return its root element.

    Accepts bytes (UTF-8, optional BOM) or an already-decoded string.
    Raises ParseError with a 1-based line and column on any violation:
    mismatched or unterminated tags, unquoted or duplicate attributes,
    unknown entities, markup outside the subset, multiple roots.
    """
    text = _decode(data)
    root, i = _element(text, _prolog(text))
    _epilog(text, i)
    return root


def _element(text: str, i: int) -> tuple[XmlElement, int]:
    """Parse the element whose start tag begins at offset ``i`` as a
    document of its own, ranked from 0, and return it with the offset
    after it."""
    element, j, is_open = _start_tag(text, i)
    element.doc = [element]
    if is_open:
        j = _content(text, i, j, element)
    return element, j


def _decode(data: bytes | str) -> str:
    """The text of a document given as UTF-8 bytes or as a string, with
    a leading byte order mark removed."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise ParseError(f"input is not valid UTF-8: {exc.reason}") from exc
    return data[1:] if data.startswith("\ufeff") else data


def _prolog(text: str) -> int:
    """Offset of the root element's start tag: after the XML declaration
    and any whitespace and comments."""
    i = 0
    if text.startswith("<?xml"):
        i = text.find("?>") + 2
        if i == 1:
            raise _error(text, 0, "unterminated XML declaration")
    i = _skip_misc(text, i)
    if i == len(text):
        raise _error(text, i, "document has no root element")
    if text[i] != "<":
        raise _error(text, i, "content outside the root element")
    return i


def _epilog(text: str, i: int) -> None:
    """Check that nothing but whitespace and comments follows the root
    element, which ends before offset ``i``."""
    i = _skip_misc(text, i)
    if i < len(text):
        if text[i] == "<":
            raise _error(text, i, "multiple root elements")
        raise _error(text, i, "content outside the root element")


def _content(text: str, start: int, i: int, element: XmlElement) -> int:
    """Parse the content of the open ``element``, whose start tag begins
    at offset ``start`` and ends before offset ``i``, through its closing
    tag, and return the offset after that tag. Every item made is linked
    under its parent and appended to ``element.doc``, which its rank
    indexes.

    Each item is one ``_TOKEN`` match; what the token refuses takes the
    long way that the module docstring describes."""
    doc = element.doc
    stack = [(element, start)]  # open elements, start offsets
    parent, siblings = element, element.children
    run: list[str] = []  # text of the innermost open element since its last tag
    token = _TOKEN.match
    while True:
        m = token(text, i)
        kind = m.lastindex if m is not None else 0
        if kind == _T_TEXT:
            s = m[1]
            run.append(_unescape(s) if "&" in s else s)
            i = m.end()
            continue
        # Not a '<' that may open a tag (a '<' with nothing after it is
        # left to _reject_start_tag, or the loop would not advance).
        if not kind and (not text.startswith("<", i) or text.startswith(("<!", "<?"), i)):
            i = _char_data(text, i, run, parent, start)
            continue
        if run:
            s = "".join(run)
            run.clear()
            if s.strip(_XML_WS):  # inter-tag whitespace is formatting, not data
                item = XmlText(s, len(doc))
                item.parent, item.index = parent, len(siblings)
                siblings.append(item)
                doc.append(item)
        if kind == _T_START:
            # Groups 3, 4 and 7: name, attributes, '/'; 8 and 9: the text
            # after the tag, and the closing tag of a leaf.
            attrs = _attributes(text, m.start(4), m.end(4)) if m[4] else {}
            if attrs is None:
                _reject_start_tag(text, i)
            child = XmlElement(m[3], attrs, len(doc))
            child.doc, child.parent, child.index = doc, parent, len(siblings)
            doc.append(child)
            siblings.append(child)
            s = m[8]
            if s and "&" in s:
                s = _unescape(s)
            if m[9]:  # a leaf, closed within the token
                if s and s.strip(_XML_WS):
                    item = XmlText(s, len(doc))
                    item.parent = child
                    child.children.append(item)
                    doc.append(item)
                    child.end = item.pos
            elif not m[7]:
                stack.append((child, i))
                parent, siblings, start = child, child.children, i
                if s:  # its first text, which a tag or a fault follows
                    run.append(s)
            i = m.end()
        elif kind == _T_END and m[11] == parent.name:  # group 11: the name
            parent.end = len(doc) - 1
            stack.pop()
            i = m.end()
            if not stack:
                return i
            parent, start = stack[-1]
            siblings = parent.children
        else:  # a tag that the token refused: its reader raises
            if text.startswith("</", i):
                _end_tag(text, i, parent)
                raise AssertionError(f"closing tag at offset {i} is well-formed but was refused")
            _reject_start_tag(text, i)


def _root_children(data: bytes | str, raw: Callable[[str, int], re.Match | None]
                   ) -> Iterator[XmlElement | re.Match | str]:
    """Parse a document as ``parse_xml`` does, with the same errors, and
    yield its root element, then each direct child of the root as soon as
    it is read, in document order:

    - the match of ``raw(text, i)``, where the child's '<' is at offset
      ``i``, if it matches; the children it spans are then not parsed
      any further;
    - otherwise the child element, with its content parsed;
    - a run of text between two children, as a string, unless it is
      whitespace only.

    The root is yielded before its content is read, and is not ranked.
    Each child element is ranked as a document of its own, and has no
    ``parent``. The epilog is checked before the generator ends, so
    every ParseError in the text has been raised once it is exhausted."""
    text = _decode(data)
    start = _prolog(text)
    root, i, is_open = _start_tag(text, start)
    yield root
    run: list[str] = []
    while is_open:
        m = _WS_TO_TAG.match(text, i)
        if m:  # only whitespace before the next tag, the common case
            i = m.end()
        else:
            i = _char_data(text, i, run, root, start)
            s = "".join(run)
            run.clear()
            if s.strip(_XML_WS):
                yield s
        if text.startswith("/", i + 1):
            i = _end_tag(text, i, root)
            break
        m = raw(text, i)
        if m is not None:
            i = m.end()
            yield m
            continue
        child, i = _element(text, i)
        yield child
    _epilog(text, i)


def _unescape(s: str) -> str:
    """``s``, a run of text whose every '&' begins a predefined entity
    reference, with the references decoded. '&amp;' goes last, so that
    the '&' it gives never starts another reference."""
    return (s.replace("&lt;", "<").replace("&gt;", ">").replace("&quot;", '"')
            .replace("&apos;", "'").replace("&amp;", "&"))


def _char_data(text: str, i: int, run: list[str], element: XmlElement, start: int) -> int:
    """Read the character data, entity references and comments from
    offset ``i`` on, inside the open ``element`` whose start tag begins
    at offset ``start``. Appends their characters to ``run`` (comments
    do not break up runs of text) and returns the offset of the '<' of
    the next start or closing tag."""
    n = len(text)
    while True:
        m = _TEXT_RUN.match(text, i)
        if m:
            s = m[0]
            run.append(_unescape(s) if "&" in s else s)
            i = m.end()
        if i == n:
            raise _error(text, start, f"unterminated element <{element.name}>")
        if text[i] == "&":  # not a predefined entity reference
            _entity(text, i)
            raise AssertionError(f"entity reference at offset {i} is valid but was refused")
        mark = text[i + 1:i + 2]  # the character after '<'
        if mark == "!":
            if not text.startswith("--", i + 2):
                raise _error(text, i, "'<!' markup is not supported")
            end = text.find("-->", i + 4)
            if end < 0:
                raise _error(text, i, "unterminated comment")
            i = end + 3
            continue
        if mark == "?":
            raise _error(text, i, "processing instructions are not supported")
        return i


def _end_tag(text: str, i: int, element: XmlElement) -> int:
    """Parse the closing tag at offset ``i``, which must close the open
    ``element``, and return the offset after it."""
    m = _END_TAG.match(text, i + 2)
    name = m[1]
    if name is None:
        raise _error(text, i + 2, "expected element name")
    if not m[2]:
        raise _error(text, m.end(), "expected '>' in closing tag")
    if name != element.name:
        raise _error(text, i, f"mismatched closing tag: expected </{element.name}>, "
                              f"found </{name}>")
    return m.end()


def _skip_misc(text: str, i: int) -> int:
    """Offset of the first character from ``i`` on that is neither
    whitespace nor part of a comment."""
    i = _MISC.match(text, i).end()
    if text.startswith("<!--", i):
        raise _error(text, i, "unterminated comment")
    return i


def _start_tag(text: str, i: int) -> tuple[XmlElement, int, bool]:
    """Parse the start tag whose '<' is at offset ``i`` into an element of
    rank 0. Returns the element, the offset after the tag, and whether
    the element is open (False for ``<a/>``)."""
    m = _START_TAG.match(text, i)
    if m is not None:
        attrs = _attributes(text, m.start("attrs"), m.end("attrs")) if m["attrs"] else {}
        if attrs is not None:
            return XmlElement(m["name"], attrs, 0), m.end(), not m["close"]
    _reject_start_tag(text, i)


def _attributes(text: str, start: int, end: int) -> dict[str, str] | None:
    """The attributes in ``text[start:end]``, the attribute span of a
    start tag that ``_START_TAG`` matched, or None if a name repeats or
    a value holds an unterminated or unknown entity reference."""
    attrs = {}
    pairs = _ATTR.findall(text, start, end)
    for name, value in pairs:
        value = value[1:-1]
        if "&" in value:
            refs = _ENTITY.findall(value)
            if len(refs) != value.count("&") or not all(r in _ENTITIES for r in refs):
                return None
            value = _ENTITY.sub(lambda r: _ENTITIES[r[1]], value)
        attrs[name] = value
    return attrs if len(attrs) == len(pairs) else None


def _reject_start_tag(text: str, i: int) -> NoReturn:
    """Walk the start tag at offset ``i`` token by token and raise the
    ParseError for its first fault. Runs only on tags that
    ``_START_TAG`` or the checks after it refused, so it always raises."""
    m = _NAME.match(text, i + 1)
    if m is None:
        raise _error(text, i + 1, "expected element name")
    name = m[0]
    seen: set[str] = set()
    j = m.end()
    while True:
        k = _WS.match(text, j).end()
        if k == len(text):
            raise _error(text, i, f"unterminated start tag <{name}>")
        if text[k] in "/>":
            break
        if k == j:
            raise _error(text, k, "expected whitespace before attribute")
        m = _NAME.match(text, k)
        if m is None:
            raise _error(text, k, "expected attribute name")
        attr_name = m[0]
        j = _WS.match(text, m.end()).end()
        if not text.startswith("=", j):
            raise _error(text, j, f"expected '=' after attribute {attr_name!r}")
        q = _WS.match(text, j + 1).end()
        quote = text[q:q + 1]
        if quote not in ("'", '"'):
            raise _error(text, q, "attribute value must be quoted")
        plain = _ATTR_VALUE[quote]
        j = q + 1
        while True:
            j = plain.match(text, j).end()
            if j == len(text):
                raise _error(text, q, "unterminated attribute value")
            if text[j] == quote:
                break
            if text[j] == "<":
                raise _error(text, j, "'<' is not allowed in an attribute value")
            j = _entity(text, j)[1]
        if attr_name in seen:
            raise _error(text, k, f"duplicate attribute {attr_name!r}")
        seen.add(attr_name)
        j += 1
    if text[k] == "/" and not text.startswith(">", k + 1):
        raise _error(text, k + 1, "expected '>' after '/'")
    raise AssertionError(f"start tag at offset {i} is well-formed but was refused")


def _entity(text: str, i: int) -> tuple[str, int]:
    """Decode the entity reference at offset ``i``; return its character
    and the offset after it."""
    m = _ENTITY.match(text, i)
    if m is None:
        raise _error(text, i, "unterminated entity reference")
    if m[1] not in _ENTITIES:
        raise _error(text, i, f"unknown entity &{m[1]};")
    return _ENTITIES[m[1]], m.end()


def escape_text(s: str) -> str:
    return s.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attr(s: str) -> str:
    return escape_text(s).replace('"', "&quot;")


def serialize_xml(element: XmlElement) -> str:
    """Serialize a tree back to text; reparsing yields a structurally
    identical tree."""
    out: list[str] = []
    stack: list[XmlElement | XmlText | str] = [element]  # str: a closing tag
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
        elif isinstance(item, XmlText):
            out.append(escape_text(item.text))
        else:
            out.append(f"<{item.name}")
            for n, v in item.attrs.items():
                out.append(f' {n}="{escape_attr(v)}"')
            if not item.children:
                out.append("/>")
                continue
            out.append(">")
            stack.append(f"</{item.name}>")
            stack.extend(reversed(item.children))
    return "".join(out)


def xml_equal(a: XmlElement | XmlText, b: XmlElement | XmlText) -> bool:
    """Structural equality: names, attributes, and merged-text children.

    Attribute order is ignored; document positions and parents are not
    compared.
    """
    pairs = [(a, b)]
    while pairs:
        x, y = pairs.pop()
        if isinstance(x, XmlText) or isinstance(y, XmlText):
            if not (isinstance(x, XmlText) and isinstance(y, XmlText) and x.text == y.text):
                return False
        elif x.name != y.name or x.attrs != y.attrs or len(x.children) != len(y.children):
            return False
        else:
            pairs.extend(zip(x.children, y.children))
    return True
