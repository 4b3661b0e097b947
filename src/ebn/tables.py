"""Records as flat tables of their distinct nodes, which pickle writes.
`Record.__reduce__` imports this module on first use, so `import ebn` does
not compile it."""

from .records import Record


def table(root: Record) -> list[tuple]:
    """The distinct values in `root`, each once, as rows in post-order: a
    record is `(class, *row numbers of its fields)`, a tuple `(tuple, *row
    numbers of its elements)` and any other value `v` is `(None, v)`.  One
    loop, so at any depth; a node met again is one row, so a DAG stays one."""
    rows, row, stack = [], {}, [(root, None)]
    while stack:
        u, parts = stack.pop()
        if id(u) in row:
            continue
        if parts is None and (type(u) is tuple or isinstance(u, Record)):
            parts = u if type(u) is tuple else [getattr(u, f) for f in u.__match_args__]
            stack.append((u, parts))
            stack += [(p, None) for p in parts]
        else:  # a plain value, or a node each of whose parts has its row
            row[id(u)] = len(rows)
            rows.append((None, u) if parts is None else (type(u), *[row[id(p)] for p in parts]))
    return rows


def untable(rows: list[tuple]) -> Record:
    """The record whose `table` is `rows`, rebuilt row by row through each
    class in one loop, so a type comes back as its interned node."""
    nodes: list = []
    for cls, *args in rows:
        if cls is None:
            nodes.append(args[0])
        else:
            parts = [nodes[i] for i in args]
            nodes.append(tuple(parts) if cls is tuple else cls(*parts))
    return nodes[-1]
