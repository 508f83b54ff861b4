"""Build the 5-, 6- and 7-wide ladders and check their lumped quotients.

Run as ``PYTHONPATH=src python tests/wide_ladder.py``. It is not a pytest
module (the 7-wide build takes seconds and over 200 MB), so Tier-1 does not
collect it. For each width it builds the ladder's 3^width-state transfer
system, checks the quotient's dimension, the SHA-256 of its fields, the
SHA-256 of the sorted term maps of T and v (TransferSystem.columns and
.vector) and the SHA-256 of the members up to r = 12 (iter_weps), and
prints the build time and the process's peak RSS so far; it exits 1 on the
first mismatch.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time

from sldgf import build_transfer_system, iter_weps, parse_family_spec

MEMBERS = 12  # the members digested, r = 0 .. MEMBERS

# quotient dimension and digests of the quotient and of T and v of each
# width, as the 3-letter build gave them, and the digest of its members,
# as the paper's 4^width-state build gave it for widths 5 and 6
EXPECTED = {
    5: (135,
        "48b37ce7d03126c6c1932eaf27925b81"
        "9c7756958e2c5e76aa85c6adb2f5e7a8",
        "f4d7e4207ef184105e83689970668db1"
        "acf0278f3277ceaa5d728ebc7ba5f97b",
        "644a8bd7faead31dc48f3ac48935e3dd"
        "f526224c77c34e8ef312eff4efeb855e"),
    6: (378,
        "acfe684524b2b5619859e105a60b9878"
        "8d2b69114844d41ed60dc86efce10746",
        "e3fb73a01557d83018440d1469dfc562"
        "f94cd407320eaaea82ac422b513ecafc",
        "c7e348e290eddd1aa3a82dc675bb3e81"
        "b586926a60d34c393799f15895c804ef"),
    7: (1134,
        "472ee5575bd9a48e0dcb9759c6be8f1f"
        "b13e2519aff41cce3b2642db7fe9eb83",
        "d9e79692fe511fabeb7674d37c0858d9"
        "bae37becef23a2f43f4e7e2a9692c1e5",
        "19e23d2c21cb16b7422a3dcaa277518b"
        "401242e1a67cf7883e1d5932eaf7d658"),
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


def members_digest(sys_) -> str:
    """SHA-256 of members 0 .. MEMBERS, each as its sorted terms."""
    return hashlib.sha256(repr([sorted(w.terms.items()) for w in iter_weps(
        sys_, MEMBERS)]).encode()).hexdigest()


def main() -> int:
    for width, expected in EXPECTED.items():
        spec = parse_family_spec(json.dumps(ladder(width)))
        begin = time.perf_counter()
        sys_ = build_transfer_system(spec)
        seconds = time.perf_counter() - begin
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        q = sys_.quotient
        ok = (q.dimension, quotient_digest(q), terms_digest(sys_),
              members_digest(sys_)) == expected
        print(f"ladder_{width}: quotient {q.dimension}, build {seconds:.1f} s, "
              f"peak RSS {rss_mb:.0f} MB, {'ok' if ok else 'MISMATCH'}")
        if not ok:
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
