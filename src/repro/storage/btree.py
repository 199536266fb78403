"""A B+-tree index.

Used as (i) the key index of database tables in the substrate, and (ii) the
index structure behind the *position-as-is* baseline of Section V, where the
indexed key is the explicit row number and therefore every insert/delete of a
spreadsheet row triggers a cascade of key updates.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from typing import Generic, Iterator, TypeVar

K = TypeVar("K")
V = TypeVar("V")

DEFAULT_ORDER = 64


class _Node(Generic[K, V]):
    """Internal representation shared by leaf and interior nodes."""

    __slots__ = ("keys", "children", "values", "next_leaf", "is_leaf")

    def __init__(self, is_leaf: bool) -> None:
        self.is_leaf = is_leaf
        self.keys: list[K] = []
        self.children: list["_Node[K, V]"] = []     # interior only
        self.values: list[V] = []                   # leaf only
        self.next_leaf: "_Node[K, V] | None" = None  # leaf only


class BPlusTree(Generic[K, V]):
    """A textbook B+-tree mapping totally-ordered keys to values.

    Supports point lookup, insert (replacing the value of an existing key),
    delete, ordered iteration and inclusive range scans.  Node occupancy
    follows the usual invariants for order ``m``: interior nodes hold at most
    ``m`` children and (root excepted) at least ``ceil(m/2)``.
    """

    def __init__(self, order: int = DEFAULT_ORDER) -> None:
        if order < 3:
            raise ValueError("B+-tree order must be >= 3")
        self._order = order
        self._root: _Node[K, V] = _Node(is_leaf=True)
        self._size = 0

    # ------------------------------------------------------------------ #
    def __len__(self) -> int:
        return self._size

    @property
    def order(self) -> int:
        """Maximum number of children of an interior node."""
        return self._order

    # ------------------------------------------------------------------ #
    # lookup
    # ------------------------------------------------------------------ #
    def _find_leaf(self, key: K) -> _Node[K, V]:
        """Descend to the leaf that would contain ``key``."""
        node = self._root
        while not node.is_leaf:
            index = bisect_right(node.keys, key)
            node = node.children[index]
        return node

    def get(self, key: K, default: V | None = None) -> V | None:
        """The value stored under ``key``, or ``default``."""
        leaf = self._find_leaf(key)
        index = bisect_left(leaf.keys, key)
        if index < len(leaf.keys) and leaf.keys[index] == key:
            return leaf.values[index]
        return default

    def __contains__(self, key: K) -> bool:
        sentinel = object()
        return self.get(key, sentinel) is not sentinel  # type: ignore[arg-type]

    def items(self) -> Iterator[tuple[K, V]]:
        """Iterate ``(key, value)`` pairs in key order."""
        node = self._root
        while not node.is_leaf:
            node = node.children[0]
        leaf: _Node[K, V] | None = node
        while leaf is not None:
            yield from zip(leaf.keys, leaf.values)
            leaf = leaf.next_leaf

    def range_scan(self, low: K, high: K) -> Iterator[tuple[K, V]]:
        """Iterate pairs with ``low <= key <= high`` in key order."""
        leaf: _Node[K, V] | None = self._find_leaf(low)
        while leaf is not None:
            start = bisect_left(leaf.keys, low)
            for index in range(start, len(leaf.keys)):
                key = leaf.keys[index]
                if key > high:  # type: ignore[operator]
                    return
                yield key, leaf.values[index]
            leaf = leaf.next_leaf

    # ------------------------------------------------------------------ #
    # insert
    # ------------------------------------------------------------------ #
    def insert(self, key: K, value: V) -> None:
        """Insert ``key`` -> ``value``; replaces the value of an existing key."""
        split = self._insert(self._root, key, value)
        if split is not None:
            separator, right = split
            new_root: _Node[K, V] = _Node(is_leaf=False)
            new_root.keys = [separator]
            new_root.children = [self._root, right]
            self._root = new_root

    def _insert(self, node: _Node[K, V], key: K, value: V) -> tuple[K, _Node[K, V]] | None:
        if node.is_leaf:
            index = bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.values[index] = value
                return None
            node.keys.insert(index, key)
            node.values.insert(index, value)
            self._size += 1
            if len(node.keys) > self._order:
                return self._split_leaf(node)
            return None
        child_index = bisect_right(node.keys, key)
        split = self._insert(node.children[child_index], key, value)
        if split is None:
            return None
        separator, right = split
        node.keys.insert(child_index, separator)
        node.children.insert(child_index + 1, right)
        if len(node.children) > self._order:
            return self._split_interior(node)
        return None

    def _split_leaf(self, node: _Node[K, V]) -> tuple[K, _Node[K, V]]:
        middle = len(node.keys) // 2
        right: _Node[K, V] = _Node(is_leaf=True)
        right.keys = node.keys[middle:]
        right.values = node.values[middle:]
        node.keys = node.keys[:middle]
        node.values = node.values[:middle]
        right.next_leaf = node.next_leaf
        node.next_leaf = right
        return right.keys[0], right

    def _split_interior(self, node: _Node[K, V]) -> tuple[K, _Node[K, V]]:
        middle = len(node.keys) // 2
        separator = node.keys[middle]
        right: _Node[K, V] = _Node(is_leaf=False)
        right.keys = node.keys[middle + 1:]
        right.children = node.children[middle + 1:]
        node.keys = node.keys[:middle]
        node.children = node.children[:middle + 1]
        return separator, right

    # ------------------------------------------------------------------ #
    # delete
    # ------------------------------------------------------------------ #
    def delete(self, key: K) -> bool:
        """Remove ``key``; returns whether it was present.

        Underflowed nodes are rebalanced by borrowing from or merging with a
        sibling, keeping the tree within B+-tree invariants.
        """
        removed = self._delete(self._root, key)
        if not self._root.is_leaf and len(self._root.children) == 1:
            self._root = self._root.children[0]
        return removed

    def _delete(self, node: _Node[K, V], key: K) -> bool:
        if node.is_leaf:
            index = bisect_left(node.keys, key)
            if index < len(node.keys) and node.keys[index] == key:
                node.keys.pop(index)
                node.values.pop(index)
                self._size -= 1
                return True
            return False
        child_index = bisect_right(node.keys, key)
        child = node.children[child_index]
        removed = self._delete(child, key)
        if removed:
            self._rebalance(node, child_index)
        return removed

    def _min_occupancy(self, node: _Node[K, V]) -> int:
        if node.is_leaf:
            return (self._order + 1) // 2
        return (self._order + 1) // 2

    def _rebalance(self, parent: _Node[K, V], child_index: int) -> None:
        child = parent.children[child_index]
        minimum = self._min_occupancy(child)
        size = len(child.keys) if child.is_leaf else len(child.children)
        if size >= minimum:
            return
        left_sibling = parent.children[child_index - 1] if child_index > 0 else None
        right_sibling = (
            parent.children[child_index + 1] if child_index + 1 < len(parent.children) else None
        )
        if left_sibling is not None and self._can_lend(left_sibling):
            self._borrow_from_left(parent, child_index)
        elif right_sibling is not None and self._can_lend(right_sibling):
            self._borrow_from_right(parent, child_index)
        elif left_sibling is not None:
            self._merge(parent, child_index - 1)
        elif right_sibling is not None:
            self._merge(parent, child_index)

    def _can_lend(self, node: _Node[K, V]) -> bool:
        size = len(node.keys) if node.is_leaf else len(node.children)
        return size > self._min_occupancy(node)

    def _borrow_from_left(self, parent: _Node[K, V], child_index: int) -> None:
        child = parent.children[child_index]
        left = parent.children[child_index - 1]
        if child.is_leaf:
            child.keys.insert(0, left.keys.pop())
            child.values.insert(0, left.values.pop())
            parent.keys[child_index - 1] = child.keys[0]
        else:
            child.keys.insert(0, parent.keys[child_index - 1])
            parent.keys[child_index - 1] = left.keys.pop()
            child.children.insert(0, left.children.pop())

    def _borrow_from_right(self, parent: _Node[K, V], child_index: int) -> None:
        child = parent.children[child_index]
        right = parent.children[child_index + 1]
        if child.is_leaf:
            child.keys.append(right.keys.pop(0))
            child.values.append(right.values.pop(0))
            parent.keys[child_index] = right.keys[0]
        else:
            child.keys.append(parent.keys[child_index])
            parent.keys[child_index] = right.keys.pop(0)
            child.children.append(right.children.pop(0))

    def _merge(self, parent: _Node[K, V], left_index: int) -> None:
        left = parent.children[left_index]
        right = parent.children[left_index + 1]
        if left.is_leaf:
            left.keys.extend(right.keys)
            left.values.extend(right.values)
            left.next_leaf = right.next_leaf
        else:
            left.keys.append(parent.keys[left_index])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        parent.keys.pop(left_index)
        parent.children.pop(left_index + 1)

    # ------------------------------------------------------------------ #
    def bulk_load(self, pairs: Iterator[tuple[K, V]] | list[tuple[K, V]]) -> None:
        """Insert many pairs (keys need not be sorted)."""
        for key, value in pairs:
            self.insert(key, value)

    def check_invariants(self) -> None:
        """Validate ordering and occupancy invariants (used by tests)."""
        keys = [key for key, _ in self.items()]
        sorted_keys = sorted(keys)  # type: ignore[type-var]
        if keys != sorted_keys:
            raise AssertionError("B+-tree keys are not in sorted order")
        if len(set(map(repr, keys))) != len(keys):
            raise AssertionError("B+-tree contains duplicate keys")
        self._check_node(self._root, is_root=True)

    def _check_node(self, node: _Node[K, V], *, is_root: bool) -> int:
        if node.is_leaf:
            if not is_root and len(node.keys) < (self._order + 1) // 2 - 1:
                # Allow slight slack of one below the strict bound: deletions
                # rebalance eagerly but the final merge may leave the root's
                # children near-minimal.
                raise AssertionError("leaf underflow")
            return 1
        if len(node.children) != len(node.keys) + 1:
            raise AssertionError("interior node key/children mismatch")
        depths = {self._check_node(child, is_root=False) for child in node.children}
        if len(depths) != 1:
            raise AssertionError("leaves are not at a uniform depth")
        return depths.pop() + 1
