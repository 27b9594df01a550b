"""Text format for algebra definitions, with position-accurate diagnostics.

Grammar (whitespace-separated tokens, `#` starts a comment to end of line):

    algebra <name>
    size <n>
    labels <l0> ... <l{n-1}>
    bot <label>
    top <label>
    mul
    <n rows of n labels>
    imp
    <n rows of n labels>
    meet          # optional, likewise join
    <n rows>
    end

Row i, column j of a block holds the value of (element i) op (element j) in
label order.  When meet/join blocks are omitted they are derived from the
imp-order.  A file may hold several algebras back to back.
"""

from __future__ import annotations

from .core import FiniteMtlAlgebra, construct


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int = 1):
        super().__init__(f"line {line}, col {col}: {message}")
        self.line = line
        self.col = col


class _Lines:
    """Comment-stripped token lines with original positions."""

    def __init__(self, text: str):
        self.rows: list[tuple[int, list[tuple[str, int]]]] = []
        for lineno, raw in enumerate(text.splitlines(), start=1):
            body = raw.split("#", 1)[0]
            tokens = []
            col = 0
            for tok in body.split():
                col = body.index(tok, col)
                tokens.append((tok, col + 1))
                col += len(tok)
            if tokens:
                self.rows.append((lineno, tokens))
        self.pos = 0
        self.last_line = len(text.splitlines()) or 1

    def peek(self):
        return self.rows[self.pos] if self.pos < len(self.rows) else None

    def take(self):
        row = self.peek()
        if row is None:
            raise ParseError("unexpected end of input", self.last_line)
        self.pos += 1
        return row


def _header(lines: _Lines, key: str, arg: str) -> tuple[str, int, int]:
    """The argument of the next line, which must read `<key> <arg>`, as
    (token, line, col)."""
    lineno, tokens = lines.take()
    if tokens[0][0] != key or len(tokens) != 2:
        raise ParseError(f"expected `{key} <{arg}>`", lineno, tokens[0][1])
    tok, col = tokens[1]
    return tok, lineno, col


def _parse_one(lines: _Lines) -> FiniteMtlAlgebra:
    name, _, _ = _header(lines, "algebra", "name")
    size, lineno, col = _header(lines, "size", "n")
    try:
        n = int(size)
    except ValueError:
        raise ParseError(f"size {size!r} is not an integer", lineno, col)

    lineno, tokens = lines.take()
    if tokens[0][0] != "labels":
        raise ParseError("expected `labels ...`", lineno, tokens[0][1])
    if len(tokens) != n + 1:
        raise ParseError(f"expected {n} labels, got {len(tokens) - 1}", lineno, tokens[0][1])
    labels = tuple(tok for tok, _ in tokens[1:])
    if len(set(labels)) != n:
        raise ParseError("labels are not unique", lineno, tokens[1][1])
    index = {lbl: i for i, lbl in enumerate(labels)}

    def element(tok: str, lineno: int, col: int) -> int:
        if tok not in index:
            raise ParseError(f"unknown label {tok!r}", lineno, col)
        return index[tok]

    bot, top = (element(*_header(lines, key, "label")) for key in ("bot", "top"))

    blocks: dict[str, list[list[int]]] = {}
    while True:
        lineno, tokens = lines.take()
        head, col = tokens[0]
        if head == "end":
            if len(tokens) != 1:
                raise ParseError("`end` takes no arguments", lineno, tokens[1][1])
            break
        if head not in ("mul", "imp", "meet", "join"):
            raise ParseError(f"unexpected keyword {head!r}", lineno, col)
        if len(tokens) != 1:
            raise ParseError(f"`{head}` starts a block and takes no arguments",
                             lineno, tokens[1][1])
        if head in blocks:
            raise ParseError(f"duplicate `{head}` block", lineno, col)
        rows = []
        for _ in range(n):
            rlineno, rtokens = lines.take()
            if len(rtokens) != n:
                raise ParseError(
                    f"table row has {len(rtokens)} entries, expected {n}",
                    rlineno, rtokens[0][1],
                )
            rows.append([element(tok, rlineno, col_) for tok, col_ in rtokens])
        blocks[head] = rows

    for req in ("mul", "imp"):
        if req not in blocks:
            raise ParseError(f"missing required `{req}` block", lineno)
    if ("meet" in blocks) != ("join" in blocks):
        raise ParseError("meet and join blocks must be given together", lineno)

    return construct(
        n,
        blocks["mul"],
        blocks["imp"],
        blocks.get("meet"),
        blocks.get("join"),
        bot=bot,
        top=top,
        labels=labels,
        name=name,
    )


def parse_algebra_file(text: str) -> FiniteMtlAlgebra:
    """Parse exactly one algebra definition (not yet validated)."""
    lines = _Lines(text)
    algebra = _parse_one(lines)
    extra = lines.peek()
    if extra is not None:
        raise ParseError("trailing content after `end`", extra[0], extra[1][0][1])
    return algebra


def parse_corpus(text: str) -> list[FiniteMtlAlgebra]:
    """Parse a stream of algebra definitions."""
    lines = _Lines(text)
    out = []
    while lines.peek() is not None:
        out.append(_parse_one(lines))
    return out


def serialize_algebra(A: FiniteMtlAlgebra, include_lattice: bool = False) -> str:
    """Render an algebra in the text grammar; parse(serialize(A)) == A."""
    out = [f"algebra {A.name or 'unnamed'}"]
    out.append(f"size {A.n}")
    out.append("labels " + " ".join(A.labels))
    out.append(f"bot {A.labels[A.bot]}")
    out.append(f"top {A.labels[A.top]}")
    blocks = [("mul", A.mul), ("imp", A.imp)]
    if include_lattice:
        blocks += [("meet", A.meet), ("join", A.join)]
    for keyword, table in blocks:
        out.append(keyword)
        for row in table:
            out.append(" ".join(A.labels[v] for v in row))
    out.append("end")
    return "\n".join(out) + "\n"


def serialize_corpus(algebras, canon_headers: dict[int, str] | None = None) -> str:
    """Render several algebras; optional `# canon: <hex>` header per record."""
    parts = []
    for i, A in enumerate(algebras):
        if canon_headers and i in canon_headers:
            parts.append(f"# canon: {canon_headers[i]}\n")
        parts.append(serialize_algebra(A))
    return "".join(parts)
