"""Pure-Python subset-BFS kernel (fallback for the compiled extension).

Subsets are machine-word bit masks of at most 24 states, so a mask is three
bytes.  Each letter has three 256-entry byte tables (states 0-7, 8-15 and
16-23; the tables of states beyond n map to 0), and the image of a mask is
three unrolled lookups OR-ed together: the byte indices are computed once
per mask and shared by every letter.

The parent map stores only the mask a subset was first reached from, not
the letter.  Letters are tried in order for each mask, so the letter that
first reached t from m is the least a with image(m, a) == t; the witness
walk recomputes it, which costs at most k images per witness letter.
"""

BACKEND = "python"

MAX_STATES = 24


def _byte_tables(n, k, trans_flat):
    """Per letter a, the triple of tables tab[bv] = image under a of the
    states encoded by byte value bv at byte position 0, 1 and 2."""
    tables = []
    for a in range(k):
        tbit = [0] * MAX_STATES
        for q in range(n):
            t = trans_flat[q * k + a]
            if t >= 0:
                tbit[q] = 1 << t
        triple = []
        for base in (0, 8, 16):
            tab = [0] * 256
            for bv in range(1, 256):
                low = bv & -bv
                tab[bv] = tab[bv ^ low] | tbit[base + low.bit_length() - 1]
            triple.append(tab)
        tables.append(tuple(triple))
    return tables


def bfs_thresholds(n, k, trans_flat):
    """Breadth-first search over the subset lattice from the full set.

    trans_flat is the row-major n*k transition table with -1 for undefined.
    Returns a list indexed by subset size 0..n whose entries are the letter
    sequence of the first word reaching that size (the lexicographically
    least among the shortest), or None when unreachable.  Raises ValueError
    unless 1 <= n <= 24.
    """
    if not 1 <= n <= MAX_STATES:
        raise ValueError(f"subset BFS needs 1 <= n <= {MAX_STATES}, got {n}")
    tables = _byte_tables(n, k, trans_flat)
    full = (1 << n) - 1

    parent = {full: None}
    queue = [full]
    while queue:
        nxt = []
        for m in queue:
            b0 = m & 0xFF
            b1 = (m >> 8) & 0xFF
            b2 = m >> 16
            for t0, t1, t2 in tables:
                t = t0[b0] | t1[b1] | t2[b2]
                if t not in parent:
                    parent[t] = m
                    nxt.append(t)
        queue = nxt

    # parent is in discovery (BFS) order: the first mask of each size wins
    first_mask = [None] * (n + 1)
    for t in reversed(parent):
        first_mask[t.bit_count()] = t

    out = [None] * (n + 1)
    for c, t in enumerate(first_mask):
        if t is None:
            continue
        letters = []
        while t != full:
            m = parent[t]
            b0 = m & 0xFF
            b1 = (m >> 8) & 0xFF
            b2 = m >> 16
            for a, (t0, t1, t2) in enumerate(tables):
                if t0[b0] | t1[b1] | t2[b2] == t:
                    break
            letters.append(a)
            t = m
        out[c] = letters[::-1]
    return out
