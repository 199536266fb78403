"""Hierarchical positional mapping (Section V, Figure 11).

An order-statistic B+-tree adapted from counted B-trees / order-statistic
trees: interior nodes store, per child, the number of items in that child's
subtree; leaves store the items (tuple pointers).  Positions are never stored
explicitly — they are derived on the fly while descending the tree — so a row
insert or delete updates only the O(log N) counts on the root-to-leaf path
instead of renumbering every subsequent row.

All three operations (fetch, insert, delete) are O(log N).
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.errors import PositionError
from repro.positional.base import PositionalMapping

DEFAULT_FANOUT = 64


class _Node:
    """A node of the counted B+-tree."""

    __slots__ = ("is_leaf", "items", "children", "counts")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.items: list[Any] = []          # leaf only
        self.children: list["_Node"] = []   # interior only
        self.counts: list[int] = []         # interior only: subtree sizes

    def size(self) -> int:
        """Number of items in this subtree."""
        if self.is_leaf:
            return len(self.items)
        return sum(self.counts)

    def arity(self) -> int:
        """Number of entries (items or children) directly in this node."""
        return len(self.items) if self.is_leaf else len(self.children)


class HierarchicalMapping(PositionalMapping):
    """Order-statistic B+-tree mapping 1-based positions to items."""

    def __init__(self, fanout: int = DEFAULT_FANOUT) -> None:
        if fanout < 3:
            raise ValueError("fanout must be >= 3")
        self._fanout = fanout
        self._root = _Node(is_leaf=True)
        self._size = 0

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._size

    def height(self) -> int:
        """Number of levels (1 for a lone leaf root)."""
        node = self._root
        levels = 1
        while not node.is_leaf:
            node = node.children[0]
            levels += 1
        return levels

    # ------------------------------------------------------------------ #
    # fetch
    # ------------------------------------------------------------------ #
    def fetch(self, position: int) -> Any:
        self._check_position(position)
        node = self._root
        remaining = position
        while not node.is_leaf:
            for index, count in enumerate(node.counts):
                if remaining <= count:
                    node = node.children[index]
                    break
                remaining -= count
            else:  # pragma: no cover - defensive; counts always cover the size
                raise PositionError(f"position {position} beyond subtree counts")
        return node.items[remaining - 1]

    def fetch_range(self, start: int, end: int) -> list[Any]:
        """Range fetch by walking leaves once after one root-to-leaf descent."""
        self._check_position(start)
        self._check_position(end)
        if end < start:
            raise PositionError(f"inverted range [{start}, {end}]")
        result: list[Any] = []
        self._collect(self._root, start, end, result)
        return result

    def _collect(self, node: _Node, start: int, end: int, out: list[Any]) -> None:
        if node.is_leaf:
            out.extend(node.items[start - 1: end])
            return
        offset = 0
        for index, count in enumerate(node.counts):
            child_start = offset + 1
            child_end = offset + count
            if child_end >= start and child_start <= end:
                self._collect(
                    node.children[index],
                    max(start - offset, 1),
                    min(end - offset, count),
                    out,
                )
            offset = child_end
            if offset >= end:
                break

    def replace_at(self, position: int, item: Any) -> Any:
        """In-place value replacement: one descent, no count updates."""
        self._check_position(position)
        node = self._root
        remaining = position
        while not node.is_leaf:
            for index, count in enumerate(node.counts):
                if remaining <= count:
                    node = node.children[index]
                    break
                remaining -= count
        old = node.items[remaining - 1]
        node.items[remaining - 1] = item
        return old

    # ------------------------------------------------------------------ #
    # insert
    # ------------------------------------------------------------------ #
    def insert_at(self, position: int, item: Any) -> None:
        if position < 1 or position > self._size + 1:
            raise PositionError(
                f"position {position} out of range for insert into {self._size} item(s)"
            )
        split = self._insert(self._root, position, item)
        if split is not None:
            left_count, right = split
            new_root = _Node(is_leaf=False)
            new_root.children = [self._root, right]
            new_root.counts = [left_count, right.size()]
            self._root = new_root
        self._size += 1

    def _insert(self, node: _Node, position: int, item: Any) -> tuple[int, _Node] | None:
        if node.is_leaf:
            node.items.insert(position - 1, item)
            if len(node.items) > self._fanout:
                return self._split_leaf(node)
            return None
        remaining = position
        child_index = len(node.children) - 1
        for index, count in enumerate(node.counts):
            # An insert position may equal count+1 for the last child reached;
            # prefer the earliest child that can absorb the position.
            if remaining <= count or index == len(node.counts) - 1:
                child_index = index
                break
            remaining -= count
        split = self._insert(node.children[child_index], remaining, item)
        node.counts[child_index] += 1
        if split is not None:
            left_count, right = split
            node.counts[child_index] = left_count
            node.children.insert(child_index + 1, right)
            node.counts.insert(child_index + 1, right.size())
            if len(node.children) > self._fanout:
                return self._split_interior(node)
        return None

    def _split_leaf(self, node: _Node) -> tuple[int, _Node]:
        middle = len(node.items) // 2
        right = _Node(is_leaf=True)
        right.items = node.items[middle:]
        node.items = node.items[:middle]
        return len(node.items), right

    def _split_interior(self, node: _Node) -> tuple[int, _Node]:
        middle = len(node.children) // 2
        right = _Node(is_leaf=False)
        right.children = node.children[middle:]
        right.counts = node.counts[middle:]
        node.children = node.children[:middle]
        node.counts = node.counts[:middle]
        return sum(node.counts), right

    # ------------------------------------------------------------------ #
    # delete
    # ------------------------------------------------------------------ #
    def delete_at(self, position: int) -> Any:
        self._check_position(position)
        removed = self._delete(self._root, position)
        self._size -= 1
        if not self._root.is_leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]
        return removed

    def _delete(self, node: _Node, position: int) -> Any:
        if node.is_leaf:
            return node.items.pop(position - 1)
        remaining = position
        child_index = len(node.children) - 1
        for index, count in enumerate(node.counts):
            if remaining <= count:
                child_index = index
                break
            remaining -= count
        removed = self._delete(node.children[child_index], remaining)
        node.counts[child_index] -= 1
        self._rebalance(node, child_index)
        return removed

    def _rebalance(self, parent: _Node, child_index: int) -> None:
        child = parent.children[child_index]
        minimum = max(self._fanout // 2, 1)
        if child.arity() >= minimum:
            return
        left = parent.children[child_index - 1] if child_index > 0 else None
        right = (
            parent.children[child_index + 1]
            if child_index + 1 < len(parent.children)
            else None
        )
        if left is not None and left.arity() > minimum:
            self._shift_from_left(parent, child_index)
        elif right is not None and right.arity() > minimum:
            self._shift_from_right(parent, child_index)
        elif left is not None:
            self._merge(parent, child_index - 1)
        elif right is not None:
            self._merge(parent, child_index)

    def _shift_from_left(self, parent: _Node, child_index: int) -> None:
        child = parent.children[child_index]
        left = parent.children[child_index - 1]
        if child.is_leaf:
            child.items.insert(0, left.items.pop())
            moved = 1
        else:
            child.children.insert(0, left.children.pop())
            moved = left.counts.pop()
            child.counts.insert(0, moved)
        parent.counts[child_index - 1] -= moved
        parent.counts[child_index] += moved

    def _shift_from_right(self, parent: _Node, child_index: int) -> None:
        child = parent.children[child_index]
        right = parent.children[child_index + 1]
        if child.is_leaf:
            child.items.append(right.items.pop(0))
            moved = 1
        else:
            child.children.append(right.children.pop(0))
            moved = right.counts.pop(0)
            child.counts.append(moved)
        parent.counts[child_index + 1] -= moved
        parent.counts[child_index] += moved

    def _merge(self, parent: _Node, left_index: int) -> None:
        left = parent.children[left_index]
        right = parent.children[left_index + 1]
        if left.is_leaf:
            left.items.extend(right.items)
        else:
            left.children.extend(right.children)
            left.counts.extend(right.counts)
        parent.counts[left_index] += parent.counts[left_index + 1]
        parent.children.pop(left_index + 1)
        parent.counts.pop(left_index + 1)

    # ------------------------------------------------------------------ #
    def items(self) -> Iterator[Any]:
        """Iterate items in position order by an in-order walk."""
        yield from self._walk(self._root)

    def _walk(self, node: _Node) -> Iterator[Any]:
        if node.is_leaf:
            yield from node.items
            return
        for child in node.children:
            yield from self._walk(child)

    def check_invariants(self) -> None:
        """Validate subtree counts and uniform leaf depth (used by tests)."""
        depth = self._check(self._root)
        if self._root.size() != self._size:
            raise AssertionError("root count does not match size")
        del depth

    def _check(self, node: _Node) -> int:
        if node.is_leaf:
            return 1
        if len(node.children) != len(node.counts):
            raise AssertionError("children/counts length mismatch")
        depths = set()
        for child, count in zip(node.children, node.counts):
            if child.size() != count:
                raise AssertionError("stored count does not match child subtree size")
            depths.add(self._check(child))
        if len(depths) != 1:
            raise AssertionError("leaves at non-uniform depth")
        return depths.pop() + 1
