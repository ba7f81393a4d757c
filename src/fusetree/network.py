"""Tensor networks as binary contraction trees.

A network spec declares index extents and one binary contraction per line;
the producing/consuming structure must form a tree whose leaves are input
tensors and whose root is the result. Optional ``layout`` directives pin the
storage order of an input or of the root result.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .errors import (
    DuplicateIndexError,
    ExtentMismatchError,
    InvalidContractionError,
    NotATreeError,
    ParseError,
    TooLargeError,
    UnknownTensorError,
)

_NAME = r"[A-Za-z_][A-Za-z0-9_']*"
_REF_RE = re.compile(rf"({_NAME})\s*\[\s*([^\]]*)\s*\]")
_LINE_RE = re.compile(
    rf"^({_NAME})\s*\[([^\]]*)\]\s*=\s*({_NAME})\s*\[([^\]]*)\]\s*\*\s*({_NAME})\s*\[([^\]]*)\]$"
)


@dataclass(frozen=True)
class TensorRef:
    """A named tensor with its iteration indices, position k = mode k."""

    tensor: str
    indices: tuple[str, ...]

    def __str__(self) -> str:
        return f"{self.tensor}[{','.join(self.indices)}]"


@dataclass(frozen=True)
class Contraction:
    cid: int
    result: TensorRef
    lhs: TensorRef
    rhs: TensorRef

    @property
    def index_set(self) -> frozenset[str]:
        return frozenset(self.result.indices) | frozenset(self.lhs.indices) | frozenset(self.rhs.indices)

    def __str__(self) -> str:
        return f"{self.result} = {self.lhs} * {self.rhs}"


def classify_indices(c: Contraction) -> tuple[frozenset[str], frozenset[str]]:
    """Partition a contraction's indices into (external, contraction) sets.

    External indices appear in the result; contraction indices appear only in
    the operands and are summed over. A pure mask product has an empty
    contraction set.
    """
    external = frozenset(c.result.indices)
    contraction = (frozenset(c.lhs.indices) | frozenset(c.rhs.indices)) - external
    return external, contraction


@dataclass(frozen=True)
class Edge:
    """Producer/consumer pair over one intermediate tensor."""

    tensor: str
    producer: int
    consumer: int
    indices: tuple[str, ...]

    @property
    def order(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class ContractionTree:
    """Validated binary contraction tree with resolved extents and layouts.

    :func:`build_tree` derives the structure once: the root contraction, the
    producer of every result, one edge per intermediate (in the listing order
    of its consumer), the inputs in order of first use, the intermediates in
    listing order, and each tensor's first reference.
    """

    contractions: tuple[Contraction, ...]
    extents: Mapping[str, int]
    layouts: Mapping[str, tuple[str, ...]]
    root: Contraction
    producer_of: Mapping[str, int]
    edges: tuple[Edge, ...]
    input_names: tuple[str, ...]
    intermediate_names: tuple[str, ...]
    first_ref: Mapping[str, TensorRef]

    @property
    def m(self) -> int:
        return len(self.contractions)

    @property
    def layout_constrained(self) -> tuple[str, ...]:
        """Tensors that get mode-position variables: inputs plus the root result."""
        return self.input_names + (self.root.result.tensor,)

    def children_of(self, cid: int) -> tuple[int, ...]:
        return tuple(e.producer for e in self.edges if e.consumer == cid)

    def abstract_ref(self, tensor: str) -> TensorRef:
        """First reference to ``tensor`` (result ref for produced tensors)."""
        try:
            return self.first_ref[tensor]
        except KeyError:
            raise UnknownTensorError(f"tensor '{tensor}' does not appear in the network") from None

    def ref_shape(self, ref: TensorRef) -> tuple[int, ...]:
        try:
            return tuple(self.extents[i] for i in ref.indices)
        except KeyError as exc:
            raise ExtentMismatchError(exc.args[0], f"no extent declared for index '{exc.args[0]}'")


def _check_ref(ref: TensorRef) -> None:
    if len(set(ref.indices)) != len(ref.indices):
        raise DuplicateIndexError(f"repeated index within reference {ref}")


def build_tree(
    contractions: Sequence[Contraction],
    extents: Mapping[str, int],
    layouts: Mapping[str, Sequence[str]] | None = None,
) -> ContractionTree:
    """Validate structure and return an immutable tree.

    Checks: distinct indices per reference, result indices drawn from the
    operands, single-rooted tree shape (each intermediate produced once and
    consumed once), no contraction index escaping its subtree, and layout
    directives naming real, layout-constrained tensors.
    """
    if not contractions:
        raise NotATreeError("network has no contractions")
    produced: dict[str, int] = {}
    first_ref: dict[str, TensorRef] = {}
    for c in contractions:
        for ref in (c.result, c.lhs, c.rhs):
            _check_ref(ref)
            first_ref.setdefault(ref.tensor, ref)
        missing = set(c.result.indices) - set(c.lhs.indices) - set(c.rhs.indices)
        if missing:
            raise InvalidContractionError(
                f"result indices {sorted(missing)} of {c} appear in neither operand"
            )
        if c.result.tensor in produced:
            raise NotATreeError(f"tensor '{c.result.tensor}' is produced twice")
        produced[c.result.tensor] = c.cid

    edges: list[Edge] = []
    consumed: dict[str, int] = {}
    for c in contractions:
        for ref in (c.lhs, c.rhs):
            if ref.tensor in produced:
                consumed[ref.tensor] = consumed.get(ref.tensor, 0) + 1
                prod_ref = contractions[produced[ref.tensor]].result
                if tuple(ref.indices) != tuple(prod_ref.indices):
                    raise InvalidContractionError(
                        f"reference {ref} disagrees with its producer {prod_ref}"
                    )
                edges.append(Edge(ref.tensor, produced[ref.tensor], c.cid, tuple(ref.indices)))
    for name, count in consumed.items():
        if count > 1:
            raise NotATreeError(f"intermediate '{name}' consumed by {count} contractions")
    roots = [c for c in contractions if c.result.tensor not in consumed]
    if len(roots) != 1:
        raise NotATreeError(f"expected exactly one root, found {len(roots)}")
    root = roots[0]
    children: dict[int, list[int]] = {c.cid: [] for c in contractions}
    for e in edges:
        children[e.consumer].append(e.producer)

    # reachability from the root guards against cycles split off the main tree;
    # the walk enters every subtree as one contiguous run, so contraction d
    # lies in the subtree of c iff enter[c] <= enter[d] < enter[c] + size[c]
    enter: dict[int, int] = {}
    stack = [root.cid]
    while stack:
        cid = stack.pop()
        if cid in enter:
            raise NotATreeError("cycle among contractions")
        enter[cid] = len(enter)
        stack.extend(children[cid])
    if len(enter) != len(contractions):
        raise NotATreeError("contractions disconnected from the root")
    size = dict.fromkeys(enter, 1)
    for cid in reversed(enter):
        for child in children[cid]:
            size[cid] += size[child]

    # an index summed away at a node must not occur outside that node's
    # subtree; report the first such contraction and, for it, the first
    # contraction in listing order that reuses one of its summed indices
    users: dict[str, list[int]] = {}
    for c in contractions:
        for index in c.index_set:
            users.setdefault(index, []).append(c.cid)
    for c in contractions:
        _, summed = classify_indices(c)
        low, high = enter[c.cid], enter[c.cid] + size[c.cid]
        first = min(
            (d for index in summed for d in users[index] if not low <= enter[d] < high),
            default=None,
        )
        if first is not None:
            other = contractions[first]
            leak = summed & other.index_set
            raise InvalidContractionError(
                f"indices {sorted(leak)} are summed in {c} but reused outside its subtree"
            )

    for name, ext in extents.items():
        if int(ext) < 1:
            raise ExtentMismatchError(name, f"extent of '{name}' must be >= 1, got {ext}")

    input_names = tuple(
        dict.fromkeys(r.tensor for c in contractions for r in (c.lhs, c.rhs) if r.tensor not in produced)
    )
    norm_layouts: dict[str, tuple[str, ...]] = {}
    if layouts:
        pinnable = set(input_names) | {root.result.tensor}
        for name, order in layouts.items():
            if name not in pinnable and name in produced:
                raise InvalidContractionError(
                    f"layout pin for '{name}' rejected: intermediates are workspace-lowered"
                )
            if name not in pinnable:
                raise UnknownTensorError(f"layout directive names unknown tensor '{name}'")
            ref = first_ref[name]
            if sorted(order) != sorted(ref.indices):
                raise InvalidContractionError(
                    f"layout {tuple(order)} for '{name}' is not a permutation of {ref.indices}"
                )
            norm_layouts[name] = tuple(order)

    return ContractionTree(
        tuple(contractions), dict(extents), norm_layouts, root=root, producer_of=produced,
        edges=tuple(edges), input_names=input_names, first_ref=first_ref,
        intermediate_names=tuple(c.result.tensor for c in contractions if c is not root),
    )


def _parse_ref(text: str, lineno: int | None = None) -> TensorRef:
    m = _REF_RE.fullmatch(text.strip())
    if not m:
        raise ParseError(f"malformed tensor reference {text!r}", line=lineno)
    name, idx = m.groups()
    indices = tuple(tok.strip() for tok in idx.split(",") if tok.strip())
    return TensorRef(name, indices)


def parse_network(text: str) -> ContractionTree:
    """Parse a network spec (text or JSON form) into a validated tree."""
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return _parse_json(stripped)
    extents: dict[str, int] = {}
    layouts: dict[str, tuple[str, ...]] = {}
    contractions: list[Contraction] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("extent"):
            fields = line.split()
            if len(fields) != 3:
                raise ParseError(f"expected 'extent <index> <N>', got {line!r}", line=lineno)
            name, value = fields[1], fields[2]
            try:
                ext = int(value)
            except ValueError:
                raise ParseError(f"extent {value!r} is not an integer", line=lineno) from None
            if name in extents and extents[name] != ext:
                raise ExtentMismatchError(name)
            extents[name] = ext
            continue
        if line.startswith("layout"):
            fields = line.split(None, 2)
            if len(fields) != 3:
                raise ParseError(f"expected 'layout <tensor> <i,j,...>', got {line!r}", line=lineno)
            layouts[fields[1]] = tuple(
                tok.strip() for tok in fields[2].replace(",", " ").split() if tok.strip()
            )
            continue
        m = _LINE_RE.match(line)
        if not m:
            raise ParseError(f"malformed contraction {line!r}", line=lineno)
        out_name, out_idx, lhs_name, lhs_idx, rhs_name, rhs_idx = m.groups()
        cid = len(contractions)
        contractions.append(
            Contraction(
                cid,
                _parse_ref(f"{out_name}[{out_idx}]", lineno),
                _parse_ref(f"{lhs_name}[{lhs_idx}]", lineno),
                _parse_ref(f"{rhs_name}[{rhs_idx}]", lineno),
            )
        )
    return build_tree(contractions, extents, layouts)


def _parse_json(text: str) -> ContractionTree:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON network spec: {exc}") from None
    extents = {str(k): int(v) for k, v in doc.get("extents", {}).items()}
    contractions = []
    for k, item in enumerate(doc.get("contractions", [])):
        contractions.append(
            Contraction(
                k,
                _parse_ref(item["out"]),
                _parse_ref(item["lhs"]),
                _parse_ref(item["rhs"]),
            )
        )
    layouts = {str(k): tuple(v) for k, v in doc.get("layouts", {}).items()}
    return build_tree(contractions, extents, layouts)


def format_network(tree: ContractionTree) -> str:
    """Render the text form; parse_network(format_network(t)) round-trips."""
    lines = [f"extent {name} {tree.extents[name]}" for name in sorted(tree.extents)]
    for name, order in tree.layouts.items():
        lines.append(f"layout {name} {','.join(order)}")
    for c in tree.contractions:
        lines.append(str(c))
    return "\n".join(lines) + "\n"


def network_to_json(tree: ContractionTree) -> dict:
    """Structurally equivalent JSON form of the network spec."""
    doc: dict = {
        "extents": {k: tree.extents[k] for k in sorted(tree.extents)},
        "contractions": [
            {"out": str(c.result), "lhs": str(c.lhs), "rhs": str(c.rhs)}
            for c in tree.contractions
        ],
    }
    if tree.layouts:
        doc["layouts"] = {k: list(v) for k, v in tree.layouts.items()}
    return doc


def topological_orders(tree: ContractionTree, limit: int = 8) -> Iterator[tuple[int, ...]]:
    """Enumerate all child-before-parent orders (cross-checking aid).

    Deterministic: at each step the ready contraction with the lowest id is
    explored first. Guarded to small trees.
    """
    if tree.m > limit:
        raise TooLargeError(f"enumeration limited to {limit} contractions, tree has {tree.m}")
    children = {c.cid: set(tree.children_of(c.cid)) for c in tree.contractions}
    order: list[int] = []
    placed: set[int] = set()

    def extend() -> Iterator[tuple[int, ...]]:
        if len(order) == tree.m:
            yield tuple(order)
            return
        for c in tree.contractions:
            if c.cid in placed or not children[c.cid] <= placed:
                continue
            placed.add(c.cid)
            order.append(c.cid)
            yield from extend()
            order.pop()
            placed.remove(c.cid)

    return extend()
