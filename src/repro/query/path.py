"""Parsing of the XPath subset the engine evaluates.

Supported grammar (the structural core of XPath, Section 1's examples,
plus existential twig predicates)::

    path      := step+
    step      := ("/" | "//") tag predicate*
    predicate := "[" rel-path "]"
    rel-path  := tag (("/" | "//") tag)*      -- leading tag = child axis
    tag       := XML name or "*"

``/`` is the child axis, ``//`` the descendant(-or-self at the top) axis.
A path may also start with a bare tag, which is shorthand for ``//tag``
(the paper writes ``paragraph//section`` in this style).  A predicate keeps
only elements with at least one match for its relative path, e.g.
``//employee[email]/name`` selects names of employees that have an email
child — evaluated as structural semi-joins.
"""

import re
from dataclasses import dataclass, field
from enum import Enum


class PathSyntaxError(Exception):
    """Malformed path expression."""


class Axis(Enum):
    CHILD = "/"
    DESCENDANT = "//"
    PARENT = "/parent::"
    ANCESTOR = "/ancestor::"

    @property
    def is_reverse(self):
        return self in (Axis.PARENT, Axis.ANCESTOR)


@dataclass(frozen=True)
class AttributePredicate:
    """``[@name]`` (existence) or ``[@name=value]`` (equality) — the value
    search the paper's introduction pairs with structure search."""

    name: str
    value: object = None   # None = existence test

    def __str__(self):
        if self.value is None:
            return "@%s" % self.name
        return '@%s="%s"' % (self.name, self.value)


@dataclass(frozen=True)
class PathStep:
    axis: Axis
    tag: str
    predicates: tuple = field(default=())

    def __str__(self):
        return "%s%s%s" % (
            self.axis.value, self.tag,
            "".join("[%s]" % render_predicate(p) for p in self.predicates),
        )


def render_predicate(predicate):
    """Render a predicate — relative path (child axis implicit) or @attr."""
    if isinstance(predicate, AttributePredicate):
        return str(predicate)
    text = str(predicate)
    return text[1:] if text.startswith("/") and not text.startswith("//") \
        else text


@dataclass(frozen=True)
class PathExpression:
    steps: tuple

    def __str__(self):
        return "".join(str(step) for step in self.steps)

    def __len__(self):
        return len(self.steps)


_TOKEN_RE = re.compile(
    r"(//|/)(?:(parent|ancestor|child|descendant)::)?"
    r"|([A-Za-z_][\w.\-]*|\*)"
)


def parse_path(text):
    """Parse ``text`` into a :class:`PathExpression`.

    >>> str(parse_path("paragraph//section"))
    '//paragraph//section'
    >>> [s.axis.name for s in parse_path("//a/b").steps]
    ['DESCENDANT', 'CHILD']
    >>> str(parse_path("//employee[email]/name"))
    '//employee[email]/name'
    """
    expression, pos = _parse_steps(text.strip(), 0, stop_at_bracket=False,
                                   default_first_axis=Axis.DESCENDANT)
    return expression


def _parse_steps(text, pos, stop_at_bracket, default_first_axis):
    if not text:
        raise PathSyntaxError("empty path expression")
    steps = []
    pending_axis = None
    while pos < len(text):
        char = text[pos]
        if char == "]":
            if not stop_at_bracket:
                raise PathSyntaxError("unbalanced ']' at %d" % pos)
            break
        if char == "[":
            if not steps or pending_axis is not None:
                raise PathSyntaxError("predicate without a step at %d" % pos)
            if pos + 1 < len(text) and text[pos + 1] == "@":
                predicate, pos = _parse_attribute_predicate(text, pos + 1)
            else:
                predicate, pos = _parse_steps(text, pos + 1,
                                              stop_at_bracket=True,
                                              default_first_axis=Axis.CHILD)
            if pos >= len(text) or text[pos] != "]":
                raise PathSyntaxError("unterminated predicate")
            pos += 1
            last = steps[-1]
            steps[-1] = PathStep(last.axis, last.tag,
                                 last.predicates + (predicate,))
            continue
        if not steps and pending_axis is None:
            # A relative path (inside a predicate) may lead with an
            # explicit axis: "[parent::emp]".
            leading = _LEADING_AXIS_RE.match(text, pos)
            if leading:
                pending_axis = {
                    "child": Axis.CHILD,
                    "descendant": Axis.DESCENDANT,
                    "parent": Axis.PARENT,
                    "ancestor": Axis.ANCESTOR,
                }[leading.group(1)]
                pos = leading.end()
                continue
        match = _TOKEN_RE.match(text, pos)
        if not match:
            raise PathSyntaxError(
                "unexpected character %r at offset %d" % (text[pos], pos)
            )
        separator, axis_name, name = match.groups()
        if separator:
            if pending_axis is not None:
                raise PathSyntaxError("two separators in a row at %d" % pos)
            if axis_name is not None:
                pending_axis = {
                    "child": Axis.CHILD,
                    "descendant": Axis.DESCENDANT,
                    "parent": Axis.PARENT,
                    "ancestor": Axis.ANCESTOR,
                }[axis_name]
            else:
                pending_axis = (Axis.CHILD if separator == "/"
                                else Axis.DESCENDANT)
        else:
            axis = pending_axis
            if axis is None:
                if steps:
                    raise PathSyntaxError(
                        "missing separator before %r at %d" % (name, pos)
                    )
                axis = default_first_axis
            steps.append(PathStep(axis, name))
            pending_axis = None
        pos = match.end()
    if pending_axis is not None:
        raise PathSyntaxError("path ends with a separator")
    if not steps:
        raise PathSyntaxError("path has no steps")
    return PathExpression(tuple(steps)), pos


_LEADING_AXIS_RE = re.compile(r"(parent|ancestor|child|descendant)::")

_ATTR_NAME_RE = re.compile(r"@([A-Za-z_][\w.\-]*)")


def _parse_attribute_predicate(text, pos):
    """Parse ``@name`` or ``@name=value`` starting at the ``@``."""
    match = _ATTR_NAME_RE.match(text, pos)
    if not match:
        raise PathSyntaxError("malformed attribute name at %d" % pos)
    name = match.group(1)
    pos = match.end()
    if pos < len(text) and text[pos] == "=":
        pos += 1
        if pos < len(text) and text[pos] in "\"'":
            quote = text[pos]
            end = text.find(quote, pos + 1)
            if end == -1:
                raise PathSyntaxError("unterminated attribute value at %d"
                                      % pos)
            value = text[pos + 1 : end]
            pos = end + 1
        else:
            end = pos
            while end < len(text) and text[end] not in "]":
                end += 1
            value = text[pos:end].strip()
            if not value:
                raise PathSyntaxError("empty attribute value at %d" % pos)
            pos = end
        return AttributePredicate(name, value), pos
    return AttributePredicate(name), pos
