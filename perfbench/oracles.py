"""Reference answers computed from the definitions, without orderlab.

Every function here takes plain data (order rows as bit masks, relations
as pair lists) so that the benchmark can check orderlab's answers without
trusting any orderlab computation.  A poset on 0..n-1 is given by its
``up`` rows: bit j of ``up[i]`` is set exactly when i <= j.
"""

from __future__ import annotations

from itertools import product


def down_rows(up):
    """Transpose of the order rows: bit i of ``down[j]`` is set when i <= j."""
    n = len(up)
    down = [0] * n
    for i in range(n):
        for j in range(n):
            if up[i] >> j & 1:
                down[j] |= 1 << i
    return down


def order_pairs(up):
    return [(i, j) for i in range(len(up)) for j in range(len(up)) if up[i] >> j & 1]


def upper_sets(up):
    """Every upper set as a mask, sorted ascending.

    Elements are decided from the top down (fewest elements above first),
    so an element may join the set only when everything strictly above it
    already has; excluding an element is always allowed.  Each leaf of the
    search is a distinct upper set, so the cost follows the output size.
    """
    n = len(up)
    order = sorted(range(n), key=lambda x: bin(up[x]).count("1"))
    strict = [up[x] & ~(1 << x) for x in range(n)]
    out = []

    def rec(k, mask):
        if k == n:
            out.append(mask)
            return
        x = order[k]
        rec(k + 1, mask)
        if strict[x] & ~mask == 0:
            rec(k + 1, mask | 1 << x)

    rec(0, 0)
    out.sort()
    return out


def is_upper_literal(up, mask):
    return all(up[x] & ~mask == 0 for x in range(len(up)) if mask >> x & 1)


def labeled_posets(n):
    """All partial orders on 0..n-1 by brute force over relations, as up rows."""
    off = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for choice in product((0, 1), repeat=len(off)):
        up = [1 << i for i in range(n)]
        for (i, j), bit in zip(off, choice):
            if bit:
                up[i] |= 1 << j
        if any(up[i] >> j & 1 and up[j] >> i & 1 for i, j in off):
            continue
        if all(
            up[j] & ~up[i] == 0
            for i in range(n)
            for j in range(n)
            if up[i] >> j & 1
        ):
            out.append(tuple(up))
    return out


def bottom(up):
    full = (1 << len(up)) - 1
    for i, row in enumerate(up):
        if row == full:
            return i
    return None


def aux_relations(up):
    """Every auxiliary relation as a tuple of sections (``sec[j]`` = {i : i R j}).

    An auxiliary relation is a set of order pairs closed under
    u <= x R y <= z  =>  u R z, that relates the bottom (if any) to every
    element.  Closure means it is an upper set of the order pairs ordered
    by (x, y) <= (u, z) iff u <= x and y <= z, so the relations are the
    upper sets of that pair order which contain every (bottom, x).
    """
    pairs = order_pairs(up)
    index = {pr: k for k, pr in enumerate(pairs)}
    down = down_rows(up)
    pair_up = []
    for x, y in pairs:
        row = 0
        for u in range(len(up)):
            if down[x] >> u & 1:
                for z in range(len(up)):
                    if up[y] >> z & 1:
                        row |= 1 << index[(u, z)]
        pair_up.append(row)
    bot = bottom(up)
    need = 0
    if bot is not None:
        for z in range(len(up)):
            need |= 1 << index[(bot, z)]
    out = []
    for mask in upper_sets(pair_up):
        if mask & need != need:
            continue
        sec = [0] * len(up)
        for k, (i, j) in enumerate(pairs):
            if mask >> k & 1:
                sec[j] |= 1 << i
        out.append(tuple(sec))
    return out


def is_aux_literal(up, sec):
    """The three axioms checked pair by pair, straight from the definition."""
    n = len(up)
    rel = {(i, j) for j in range(n) for i in range(n) if sec[j] >> i & 1}
    if any(not up[i] >> j & 1 for i, j in rel):
        return False
    for x, y in rel:
        for u in range(n):
            for z in range(n):
                if up[u] >> x & 1 and up[y] >> z & 1 and (u, z) not in rel:
                    return False
    bot = bottom(up)
    return bot is None or all((bot, z) in rel for z in range(n))


def _directed(up, mask):
    members = [i for i in range(len(up)) if mask >> i & 1]
    if not members:
        return False
    return all(any(up[a] >> c & 1 and up[b] >> c & 1 for c in members)
               for a in members for b in members)


def _supremum(up, mask):
    ubs = [c for c in range(len(up)) if all(up[i] >> c & 1 for i in range(len(up)) if mask >> i & 1)]
    least = [c for c in ubs if all(up[c] >> d & 1 for d in ubs)]
    return least[0] if least else None


def classify(up, sec):
    """(pre_approximating, approximating): sections directed / with sup x."""
    pre = all(_directed(up, sec[x]) for x in range(len(up)))
    app = pre and all(_supremum(up, sec[x]) == x for x in range(len(up)))
    return pre, app


def campaign_instances(up, rels):
    """Instances the law campaign decides for one poset, suite by suite."""
    n = len(up)
    subsets = 1 << n
    classes = [classify(up, sec) for sec in rels]
    return {
        "algebra": len(rels) * (2 + subsets),
        "chain": 1 + sum(subsets for _, app in classes if app),
        "continuity": 1,
        "cspace": sum(1 for pre, _ in classes if pre),
        "int-char": len(rels),
        "mu-topology": sum(1 for pre, _ in classes if pre),
        "partition": len(rels) * subsets,
        "sec5": 1,
    }


def exhaustive_campaign(max_n):
    """(posets, relations, instances) of the exhaustive campaign up to max_n."""
    posets = relations = instances = 0
    for n in range(1, max_n + 1):
        for up in labeled_posets(n):
            rels = aux_relations(up)
            posets += 1
            relations += len(rels)
            instances += sum(campaign_instances(up, rels).values())
    return posets, relations, instances


def sections(n, pairs):
    """``sec[x]`` = {y : y R x} as a mask, read off the pair list."""
    sec = [0] * n
    for i, j in pairs:
        sec[j] |= 1 << i
    return sec


def lap(sec, a):
    """{x in A : the section of x meets A}."""
    return sum(1 << x for x in range(len(sec)) if a >> x & 1 and sec[x] & a)


def uap(up, sec, a):
    """{x : the section of x lies inside the down closure of A}."""
    below_a = 0
    for y in range(len(up)):
        if up[y] & a:
            below_a |= 1 << y
    return sum(1 << x for x in range(len(sec)) if sec[x] & ~below_a == 0)


def catalan(k):
    c = 1
    for i in range(k):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c
