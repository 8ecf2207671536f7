"""Edge-list file round-trip.

Real deployments feed HybridGraph from a distributed file system; here a
plain text edge-list format (``src dst [weight]`` per line, ``#``
comments allowed) lets users bring their own graphs to the library.
"""

from __future__ import annotations

from pathlib import Path
from typing import Union

from repro.core.graph import Graph

__all__ = ["write_edge_list", "read_edge_list"]


def write_edge_list(graph: Graph, path: Union[str, Path]) -> None:
    """Write *graph* as a text edge list with a header comment."""
    path = Path(path)
    with path.open("w", encoding="ascii") as handle:
        handle.write(f"# {graph.name} {graph.num_vertices} vertices\n")
        for src, dst, weight in graph.edges():
            if weight == 1.0:
                handle.write(f"{src} {dst}\n")
            else:
                handle.write(f"{src} {dst} {weight!r}\n")


def read_edge_list(
    path: Union[str, Path], num_vertices: int = 0, name: str = ""
) -> Graph:
    """Read a text edge list.

    ``num_vertices`` may be omitted, in which case it is inferred as
    ``max id + 1``.  A malformed row raises :class:`ValueError` naming
    ``path:line``.
    """
    path = Path(path)
    edges = []
    max_id = -1
    with path.open("r", encoding="ascii") as handle:
        for lineno, line in enumerate(handle, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            try:
                src, dst = int(parts[0]), int(parts[1])
                weight = float(parts[2]) if len(parts) > 2 else 1.0
            except (IndexError, ValueError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: malformed edge {line!r}, expected "
                    f"'src dst [weight]' ({exc})"
                ) from None
            edges.append((src, dst, weight))
            max_id = max(max_id, src, dst)
    n = num_vertices or (max_id + 1)
    return Graph(n, edges, name=name or path.stem)
