"""k-wise independent hashing for the pseudo-random partition, plus
content fingerprints for graphs (cache keys, store-entry integrity)."""

from .fingerprint import FINGERPRINT_VERSION, graph_fingerprint
from .kwise import PRIME, KWiseHash

__all__ = [
    "FINGERPRINT_VERSION",
    "PRIME",
    "KWiseHash",
    "graph_fingerprint",
]
