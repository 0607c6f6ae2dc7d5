"""Islands, clustered colorings, and discharging audits on embedded graphs."""

from archipelago.graphs import Graph, Embedding, trace_faces, euler_characteristic, girth

__all__ = [
    "Graph",
    "Embedding",
    "trace_faces",
    "euler_characteristic",
    "girth",
]
