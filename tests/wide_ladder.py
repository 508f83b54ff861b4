"""Build the 5- and 6-wide ladders and check their lumped quotients.

Run as ``PYTHONPATH=src python tests/wide_ladder.py``. It is not a pytest
module (the 6-wide build takes seconds and over 100 MB), so Tier-1 does not
collect it. For each width it builds the ladder's 4^width-state transfer
system, checks the quotient's dimension, the SHA-256 of its fields and the
SHA-256 of the sorted term maps of T and v (TransferSystem.columns and
.vector), and prints the build time and the process's peak RSS so far; it
exits 1 on the first mismatch.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

from sldgf import build_transfer_system, parse_family_spec

# quotient dimension and digest of each width, as the dense build gave
# them, and the digest of T and v, as the pair-list build gave it
EXPECTED = {
    5: (135, "503badb12bce3541112c47db08fa3fea"
             "97d5a5873a2e3b2223c2a7e0812da8f9",
        "9a2c5e881cee3d367810fac86ce6488d"
        "22fcab06e272ef72dd2b202b51cd22f6"),
    6: (378, "3a0d08d34dc3c82029d87af439d5eecb"
             "1b06753c6a83c52db6924a7d7f0e9fd0",
        "455e12a585b1c0cec69071875efd7949"
        "40c3e326df9fe21305d34a9012938f35"),
}


def ladder(width: int) -> dict:
    """Spec document of the ladder of the given width: a path of width
    vertices, grown by one rung of width new vertices per member."""
    rails = [[u, u + 1] for u in range(width - 1)]
    return {
        "name": f"ladder_{width}",
        "base_graph": {"n": width, "edges": rails},
        "boundary": list(range(width)),
        "replacement": {"n": 2 * width, "edges": rails + [
            [u + width, v + width] for u, v in rails] + [
            [u, u + width] for u in range(width)]},
        "glue_map": {str(u): u for u in range(width)},
        "next_boundary_map": {str(u): u + width for u in range(width)},
        "prefix_weps": [{"vars": ["x", "y", "z"],
                         "terms": [{"e": [0, 0, 0], "c": "1"}]}],
        "recursion_start": 1,
        "qubit_count": {"offset": 0, "step": width},
    }


def quotient_digest(q) -> str:
    return hashlib.sha256(repr((q.block_of, q.rows, q.v, q.step,
                                q.start)).encode()).hexdigest()


def terms_digest(sys_) -> str:
    """SHA-256 of T and v, each entry's terms and each column's rows in
    sorted order."""
    columns = [sorted((i, sorted(e.items())) for i, e in c.items())
               for c in sys_.columns]
    vector = [sorted(e.items()) for e in sys_.vector]
    return hashlib.sha256(repr((columns, vector)).encode()).hexdigest()


def main() -> int:
    for width, expected in EXPECTED.items():
        spec = parse_family_spec(json.dumps(ladder(width)))
        begin = time.perf_counter()
        sys_ = build_transfer_system(spec)
        seconds = time.perf_counter() - begin
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        q = sys_.quotient
        ok = (q.dimension, quotient_digest(q), terms_digest(sys_)) == expected
        print(f"ladder_{width}: quotient {q.dimension}, build {seconds:.1f} s, "
              f"peak RSS {rss_mb:.0f} MB, {'ok' if ok else 'MISMATCH'}")
        if not ok:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
