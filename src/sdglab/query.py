"""Boolean/phrase/wildcard/proximity query dialect: parsing, printing, evaluation."""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .index import (DOC_SHIFT, FIELD_SHIFT, FIELDS, POS_MASK, PositionalIndex,
                    sorted_distinct)


class ParseError(ValueError):
    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (at offset {offset})")
        self.offset = offset


# The most characters of an input that an error message quotes.
EXCERPT_CHARS = 60


def excerpt(text: str) -> str:
    """`text` quoted for an error message: its repr, or the repr of its
    first EXCERPT_CHARS characters followed by "…" when it is longer."""
    return repr(text) if len(text) <= EXCERPT_CHARS else f"{text[:EXCERPT_CHARS]!r}…"


# ---------------------------------------------------------------------------
# AST


def _check_stems(patterns) -> None:
    """ValueError for a prefix pattern (ending in "*") whose stem is shorter
    than 2 characters."""
    for p in patterns:
        if p.endswith("*") and len(p) < 3:
            raise ValueError(f"wildcard stem {p[:-1]!r} shorter than 2 characters")


@dataclass(frozen=True)
class Term:
    token: str


@dataclass(frozen=True)
class Phrase:
    tokens: tuple[str, ...]  # a token ending in "*" is a prefix pattern

    def __post_init__(self):
        _check_stems(self.tokens)


@dataclass(frozen=True)
class Wildcard:
    stem: str

    def __post_init__(self):
        _check_stems((self.stem + "*",))


@dataclass(frozen=True)
class Proximity:
    tokens: tuple[str, ...]
    window: int

    def __post_init__(self):
        _check_stems(self.tokens)


@dataclass(frozen=True)
class And:
    children: tuple


@dataclass(frozen=True)
class Or:
    children: tuple


@dataclass(frozen=True)
class AndNot:
    left: object
    right: object


@dataclass(frozen=True)
class FieldScope:
    fields: frozenset
    child: object


QueryAst = Term | Phrase | Wildcard | Proximity | And | Or | AndNot | FieldScope

_PRIMARY = (Term, Phrase, Wildcard, Proximity, FieldScope)


# ---------------------------------------------------------------------------
# Lexer

# How deep a query may nest: at most MAX_DEPTH parentheses (a field scope's
# included) open at once, and at most MAX_DEPTH operators (AND, OR, each link
# of an AND NOT chain, field scope) on any path down its tree. Parsing,
# printing, explaining and evaluating recurse once or a few times per level,
# so a query within the limit stays far inside Python's recursion limit. The
# printed form of a query nests no deeper than its tree, so it parses again.
MAX_DEPTH = 100

_LEX_RE = re.compile(
    r"""\s*(?:
        (?P<punct>[()\[\],])
      | (?P<quoted>"[^"]*")
      | (?P<tilde>~\d+)
      | (?P<word>[^\W_]+\*?)
    )""",
    re.VERBOSE | re.UNICODE,
)

# The (kind, value) of a token, by the group of _LEX_RE that matched its text.
_TOKENS = {
    "punct": lambda text: (text, None),
    "quoted": lambda text: ("quoted", text[1:-1]),
    "tilde": lambda text: ("~", int(text[1:])),
    "word": lambda text: (text.upper(), None) if text.upper() in ("AND", "OR", "NOT")
    else ("word", text.lower()),
}

_PHRASE_TOKEN_RE = re.compile(r"[^\W_]+\*?", re.UNICODE)


def _lex(text: str) -> list[tuple[str, object, int]]:
    """The (kind, value, offset) tokens of `text`. ParseError at the first
    text that is no token, or at the first parenthesis opened more than
    MAX_DEPTH deep, before the parse recurses into it."""
    tokens = []
    pos = opened = 0
    while pos < len(text):
        m = _LEX_RE.match(text, pos)
        if m is None:
            rest = text[pos:].strip()
            if not rest:
                break
            if rest.startswith('"'):
                raise ParseError("unbalanced quote", pos)
            raise ParseError(f"unexpected character {rest[0]!r}", pos)
        group = m.lastgroup
        kind, value = _TOKENS[group](m.group(group))
        offset = m.start(group)
        if kind == "(":
            opened += 1
            if opened > MAX_DEPTH:
                raise ParseError(f"query nests more than {MAX_DEPTH} parentheses deep",
                                 offset)
        elif kind == ")":
            opened -= 1
        tokens.append((kind, value, offset))
        pos = m.end()
    return tokens


# ---------------------------------------------------------------------------
# Parser: OR is loosest, then AND, then AND NOT; parentheses group.


def _node(offset: int, node_type, *args):
    """node_type(*args), a ValueError from it raised as a ParseError at the
    offset of the token it comes from."""
    try:
        return node_type(*args)
    except ValueError as exc:
        raise ParseError(str(exc), offset) from None


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _lex(text)
        self.pos = 0

    def peek(self, ahead: int = 0):
        i = self.pos + ahead
        return self.tokens[i] if i < len(self.tokens) else (None, None, len(self.text))

    def next(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect(self, kind: str):
        tok = self.next()
        if tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[0]!r}", tok[2])
        return tok

    def parse(self):
        if not self.tokens:
            raise ParseError("empty query", 0)
        ast = self.parse_or()
        if self.pos < len(self.tokens):
            kind, _, off = self.peek()
            raise ParseError(f"unexpected {kind!r}", off)
        # Each operator takes a token of its own, so a query of at most
        # MAX_DEPTH tokens is within the limit.
        if len(self.tokens) > MAX_DEPTH and _height(ast) > MAX_DEPTH:
            raise ParseError(f"query nests more than {MAX_DEPTH} operators deep", 0)
        return ast

    def parse_or(self):
        children = [self.parse_and()]
        while self.peek()[0] == "OR":
            self.next()
            children.append(self.parse_and())
        return children[0] if len(children) == 1 else Or(tuple(children))

    def parse_and(self):
        children = [self.parse_andnot()]
        while self.peek()[0] == "AND" and self.peek(1)[0] != "NOT":
            self.next()
            children.append(self.parse_andnot())
        return children[0] if len(children) == 1 else And(tuple(children))

    def parse_andnot(self):
        node = self.parse_primary()
        while self.peek()[0] == "AND" and self.peek(1)[0] == "NOT":
            self.next()
            self.next()
            node = AndNot(node, self.parse_primary())
        return node

    def parse_primary(self):
        kind, value, offset = self.next()
        if kind in ("(", "["):
            fields = self.parse_fields(offset) if kind == "[" else None
            node = self.parse_or()
            if self.next()[0] != ")":
                raise ParseError("unbalanced parenthesis", offset)
            return node if fields is None else FieldScope(fields, node)
        if kind == "quoted":
            tokens = tuple(t.lower() for t in _PHRASE_TOKEN_RE.findall(value))
            if not tokens:
                raise ParseError("empty phrase", offset)
            if self.peek()[0] == "~":
                _, n, toff = self.next()
                if n == 0:
                    raise ParseError("proximity window must be >= 1", toff)
                if len(tokens) < 2:
                    raise ParseError("proximity requires at least 2 tokens", offset)
                return _node(offset, Proximity, tokens, n)
            if len(tokens) > 1:
                return _node(offset, Phrase, tokens)
            value = tokens[0]
        elif kind != "word":
            raise ParseError("unexpected end of query" if kind is None
                             else f"unexpected {kind!r}", offset)
        if value.endswith("*"):
            return _node(offset, Wildcard, value[:-1])
        return Term(value)

    def parse_fields(self, offset: int) -> frozenset:
        """The fields of a field scope whose "[" at `offset` was just read,
        reading up to and including the "(" of its query."""
        fields = []
        while True:
            tok = self.expect("word")
            if tok[1] not in FIELDS:
                raise ParseError(f"unknown field {excerpt(tok[1])}", tok[2])
            fields.append(tok[1])
            if self.peek()[0] == ",":
                self.next()
                continue
            break
        self.expect("]")
        if self.next()[0] != "(":
            raise ParseError("field scope requires a parenthesized query", offset)
        return frozenset(fields)


def parse_query(text: str) -> QueryAst:
    """Parse a query string into an AST.

    Grammar: quoted strings are phrases (single-token ones collapse to terms);
    a quoted string followed by ~N is a proximity expression; a trailing "*"
    makes a prefix wildcard; infix AND / OR / AND NOT with precedence
    AND NOT > AND > OR; parentheses group; [field,...](...) scopes fields.
    A query that nests deeper than MAX_DEPTH levels raises ParseError.
    """
    return _Parser(text).parse()


def _height(ast: QueryAst) -> int:
    """The number of operators on the deepest path down the tree, found
    without recursion."""
    deepest, stack = 0, [(ast, 0)]
    while stack:
        node, depth = stack.pop()
        if isinstance(node, (And, Or)):
            stack.extend((child, depth + 1) for child in node.children)
        elif isinstance(node, AndNot):
            stack += [(node.left, depth + 1), (node.right, depth + 1)]
        elif isinstance(node, FieldScope):
            stack.append((node.child, depth + 1))
        else:
            deepest = max(deepest, depth)
    return deepest


def print_query(ast: QueryAst) -> str:
    """Canonical printer; parse_query(print_query(ast)) == ast."""
    def wrap(node):
        s = print_query(node)
        return s if isinstance(node, _PRIMARY) else f"({s})"

    if isinstance(ast, Term):
        return f'"{ast.token}"'
    if isinstance(ast, Wildcard):
        return f'"{ast.stem}*"'
    if isinstance(ast, Phrase):
        return '"' + " ".join(ast.tokens) + '"'
    if isinstance(ast, Proximity):
        return '"' + " ".join(ast.tokens) + f'"~{ast.window}'
    if isinstance(ast, And):
        return " AND ".join(wrap(c) for c in ast.children)
    if isinstance(ast, Or):
        return " OR ".join(wrap(c) for c in ast.children)
    if isinstance(ast, AndNot):
        return f"{wrap(ast.left)} AND NOT {wrap(ast.right)}"
    if isinstance(ast, FieldScope):
        fields = ",".join(f for f in FIELDS if f in ast.fields)
        return f"[{fields}]({print_query(ast.child)})"
    raise TypeError(f"not a query node: {ast!r}")


def explain(ast: QueryAst, indent: int = 0) -> str:
    """Render the AST as an indented tree for audit."""
    pad = "  " * indent
    if isinstance(ast, Term):
        return f"{pad}Term {ast.token}"
    if isinstance(ast, Wildcard):
        return f"{pad}Wildcard {ast.stem}*"
    if isinstance(ast, Phrase):
        return f"{pad}Phrase {' '.join(ast.tokens)}"
    if isinstance(ast, Proximity):
        return f"{pad}Proximity ~{ast.window} {' '.join(ast.tokens)}"
    if isinstance(ast, And):
        return f"{pad}And\n" + "\n".join(explain(c, indent + 1) for c in ast.children)
    if isinstance(ast, Or):
        return f"{pad}Or\n" + "\n".join(explain(c, indent + 1) for c in ast.children)
    if isinstance(ast, AndNot):
        return (f"{pad}AndNot\n" + explain(ast.left, indent + 1) + "\n"
                + explain(ast.right, indent + 1))
    if isinstance(ast, FieldScope):
        fields = ",".join(f for f in FIELDS if f in ast.fields)
        return f"{pad}FieldScope [{fields}]\n" + explain(ast.child, indent + 1)
    raise TypeError(f"not a query node: {ast!r}")


# ---------------------------------------------------------------------------
# Evaluation against the index: sorted arrays of occurrence codes (see
# sdglab.index), reduced to doc numbers, mapped to ids once per leaf node.


def _pattern_codes(pattern: str, index: PositionalIndex) -> np.ndarray:
    """The sorted codes of the tokens a pattern stands for: a term, or a
    stem followed by "*"."""
    if pattern.endswith("*"):
        return np.sort(index.prefix_codes(pattern[:-1]))
    return index.token_codes(pattern)


def _in_fields(values: np.ndarray, fields: tuple[int, ...], shift: int) -> np.ndarray:
    """The values whose two field bits, at bit `shift`, hold one of `fields`."""
    if len(fields) == len(FIELDS):
        return values
    field = values >> shift & 3
    keep = np.zeros(len(values), dtype=bool)
    for f in fields:
        keep |= field == f
    return values[keep]


def _members(needles: np.ndarray, haystack: np.ndarray) -> np.ndarray:
    """For each needle, whether the sorted `haystack` holds it."""
    if not len(haystack):
        return np.zeros(len(needles), dtype=bool)
    i = np.searchsorted(haystack, needles)
    np.minimum(i, len(haystack) - 1, out=i)
    return haystack[i] == needles


def _phrase_docs(tokens: tuple[str, ...], index: PositionalIndex,
                 fields: tuple[int, ...]) -> list[int]:
    """Doc numbers of A(t0) & (A(t1) - 1) & ... & (A(tk) - k): starting from
    the rarest pattern, each candidate start code is kept while start + i is
    an occurrence of pattern i."""
    arrays = [_pattern_codes(p, index) for p in tokens]
    order = sorted(range(len(arrays)), key=lambda i: len(arrays[i]))
    starts = _in_fields(arrays[order[0]], fields, FIELD_SHIFT) - order[0]
    for i in order[1:]:
        if not len(starts):
            break
        starts = starts[_members(starts + i, arrays[i])]
    # A shift that borrows across a field puts the start past the last
    # position a whole phrase can begin at.
    starts = starts[(starts & POS_MASK) <= POS_MASK - (len(tokens) - 1)]
    return sorted_distinct(starts >> DOC_SHIFT).tolist()


def _proximity_docs(tokens: tuple[str, ...], window: int, index: PositionalIndex,
                    fields: tuple[int, ...]) -> list[int]:
    """Doc numbers with a window inside one (doc, field) key (code >>
    FIELD_SHIFT), spanning at most bound = len(tokens) - 1 + window
    positions, that gives each query token a position of its own that it
    matches. No key is wider than POS_MASK, so neither is `bound`.

    Only keys that every pattern occurs in are searched; when there are none
    the search ends there. Each occurrence of a pattern in such a key starts
    a window whose limit is min(start + bound, start | POS_MASK), the latter
    being the last code of the start's key. A start is kept when each
    distinct pattern p occurs at least need[p] times from the start to the
    limit, need[p] being the number of query tokens whose matches lie inside
    p's: the copies of p and, when p is a stem, of each term or stem that it
    prefixes. The token sets that patterns match are laminar (two are nested
    or disjoint), so by Hall's theorem these counts hold exactly when every
    query token can take its own position.
    """
    patterns = list(dict.fromkeys(tokens))
    need = [sum(q.startswith(p[:-1]) for q in tokens) if p.endswith("*")
            else tokens.count(p) for p in patterns]
    arrays = [_pattern_codes(p, index) for p in patterns]
    keys = None
    for arr in arrays:
        k = sorted_distinct(arr >> FIELD_SHIFT)
        keys = _in_fields(k, fields, 0) if keys is None else keys[_members(keys, k)]
        if not len(keys):
            return []
    bound = min(len(tokens) - 1 + window, POS_MASK)
    starts = np.concatenate(arrays) if len(arrays) > 1 else arrays[0]
    starts = starts[_members(starts >> FIELD_SHIFT, keys)]
    limits = np.minimum(starts + bound, starts | POS_MASK)
    keep = None
    for arr, r in zip(arrays, need):
        # occurrences of the pattern from the start to the limit, at least r
        covered = np.searchsorted(arr, limits, side="right") - r >= \
            np.searchsorted(arr, starts)
        keep = covered if keep is None else np.logical_and(keep, covered, out=keep)
    return sorted_distinct(np.sort(starts[keep]) >> DOC_SHIFT).tolist()


def _leaf_docs(ast: QueryAst, index: PositionalIndex, fields: tuple[int, ...]) -> list[int]:
    """Doc numbers of a Term, Wildcard, Phrase or Proximity node."""
    if isinstance(ast, Phrase):
        return _phrase_docs(ast.tokens, index, fields)
    if isinstance(ast, Proximity):
        return _proximity_docs(ast.tokens, ast.window, index, fields)
    codes = index.token_codes(ast.token) if isinstance(ast, Term) \
        else _pattern_codes(ast.stem + "*", index)
    codes = _in_fields(codes, fields, FIELD_SHIFT)
    return sorted_distinct(codes >> DOC_SHIFT).tolist()


def evaluate(ast: QueryAst, index: PositionalIndex,
             default_fields=FIELDS) -> set[str]:
    """Evaluate a query AST to a new set of the matching document ids.

    Fields that are not in FIELDS are ignored.
    """
    fields = tuple(default_fields)
    if isinstance(ast, (Term, Wildcard, Phrase, Proximity)):
        numbers = tuple(i for i, f in enumerate(FIELDS) if f in fields)
        return index.doc_names(_leaf_docs(ast, index, numbers))
    if isinstance(ast, And):
        result = evaluate(ast.children[0], index, fields)
        for child in ast.children[1:]:
            result &= evaluate(child, index, fields)
        return result
    if isinstance(ast, Or):
        result = set()
        for child in ast.children:
            result |= evaluate(child, index, fields)
        return result
    if isinstance(ast, AndNot):
        return evaluate(ast.left, index, fields) - evaluate(ast.right, index, fields)
    if isinstance(ast, FieldScope):
        return evaluate(ast.child, index, tuple(f for f in FIELDS if f in ast.fields))
    raise TypeError(f"not a query node: {ast!r}")
