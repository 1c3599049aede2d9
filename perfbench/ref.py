"""Independent reference computations for the benchmark's checks.

Everything here is written from the definitions in the contred README and
never calls a contred decider, ``verify_witness*`` or invariant.  A finite
space is a preorder held as per-point up-masks (bit j of ``up[i]`` set when
point i lies below point j); a map is a tuple of codomain indices with -1
where it is undefined; continuity is monotonicity on the domain of
definition.
"""

from __future__ import annotations

from itertools import product as iproduct


class RefSpace:
    """A preorder on named points, closed reflexively and transitively."""

    __slots__ = ("name", "names", "n", "up", "index")

    def __init__(self, name, names, below=()):
        self.name = name
        self.names = tuple(names)
        self.n = len(self.names)
        self.index = {p: i for i, p in enumerate(self.names)}
        up = [1 << i for i in range(self.n)]
        for a, b in below:
            up[self.index[a]] |= 1 << self.index[b]
        changed = True
        while changed:
            changed = False
            for i in range(self.n):
                acc = up[i]
                for j in range(self.n):
                    if (up[i] >> j) & 1:
                        acc |= up[j]
                if acc != up[i]:
                    up[i], changed = acc, True
        self.up = tuple(up)

    def le(self, i, j):
        return (self.up[i] >> j) & 1 == 1

    def below_pairs(self):
        return [(self.names[i], self.names[j]) for i in range(self.n)
                for j in range(self.n) if i != j and self.le(i, j)]


class RefMap:
    __slots__ = ("name", "dom", "cod", "vals")

    def __init__(self, name, dom, cod, vals):
        self.name, self.dom, self.cod, self.vals = name, dom, cod, tuple(vals)

    def rows(self):
        return [(self.dom.names[i], self.cod.names[v])
                for i, v in enumerate(self.vals) if v >= 0]


def space_of(space) -> RefSpace:
    """Read a contred Space through its public ``points`` and ``below``."""
    pts = space.points
    below = [(a, b) for a in pts for b in pts if a != b and space.below(a, b)]
    return RefSpace(space.name, pts, below)


def map_of(m, dom: RefSpace, cod: RefSpace) -> RefMap:
    vals = [-1] * dom.n
    for x, y in m.table:
        vals[dom.index[x]] = cod.index[y]
    return RefMap(m.name, dom, cod, vals)


def monotone(dom: RefSpace, cod: RefSpace, vals) -> bool:
    for i, v in enumerate(vals):
        if v < 0:
            continue
        for j, w in enumerate(vals):
            if w >= 0 and dom.le(i, j) and not cod.le(v, w):
                return False
    return True


def monotone_maps(dom: RefSpace, cod: RefSpace, options):
    """Every vector with vals[i] in options[i] that is monotone where defined."""
    n = dom.n
    vals = [-1] * n

    def rec(i):
        if i == n:
            yield tuple(vals)
            return
        for v in options[i]:
            if v >= 0:
                bad = False
                for j in range(i):
                    w = vals[j]
                    if w < 0:
                        continue
                    if dom.le(j, i) and not cod.le(w, v):
                        bad = True
                        break
                    if dom.le(i, j) and not cod.le(v, w):
                        bad = True
                        break
                if bad:
                    continue
            vals[i] = v
            yield from rec(i + 1)
        vals[i] = -1

    return rec(0)


def forced_post_ok(X1: RefSpace, Y1: RefSpace, Y2: RefSpace, table) -> bool:
    """``table`` maps (x, y) to a value (-1: undefined); monotone on the product?"""
    keys = [(k, v) for k, v in table.items() if v >= 0]
    for (x, y), v in keys:
        for (x2, y2), v2 in keys:
            if X1.le(x, x2) and Y2.le(y, y2) and not Y1.le(v, v2):
                return False
    return True


# -- maps -------------------------------------------------------------------


def le0(p: RefMap, q: RefMap) -> bool:
    """p = q . G for a continuous G defined exactly on def(p)."""
    options = [[-1] if v < 0 else [j for j, w in enumerate(q.vals) if w == v]
               for v in p.vals]
    return next(monotone_maps(p.dom, q.dom, options), None) is not None


def le2(p: RefMap, q: RefMap) -> bool:
    """Try every continuous G on def(p) into def(q); the forced F must be a
    function on the reached pairs and monotone."""
    reach = [j for j, w in enumerate(q.vals) if w >= 0]
    options = [[-1] if v < 0 else reach for v in p.vals]
    for g in monotone_maps(p.dom, q.dom, options):
        table = {}
        ok = True
        for x, j in enumerate(g):
            if j < 0:
                continue
            key = (x, q.vals[j])
            if table.setdefault(key, p.vals[x]) != p.vals[x]:
                ok = False
                break
        if ok and forced_post_ok(p.dom, p.cod, q.cod, table):
            return True
    return False


def power(m: RefMap, n: int) -> RefMap:
    """The n-fold parallel power on n-ary products, points named "(a,b,...)"."""
    if n == 1:
        return m

    def cube(s):
        combos = list(iproduct(range(s.n), repeat=n))
        names = ["(" + ",".join(s.names[i] for i in c) + ")" for c in combos]
        below = [(names[a], names[b]) for a, ca in enumerate(combos)
                 for b, cb in enumerate(combos)
                 if a != b and all(s.le(i, j) for i, j in zip(ca, cb))]
        return RefSpace(f"{s.name}^{n}", names, below), {c: k for k, c in enumerate(combos)}

    dom, _ = cube(m.dom)
    cod, where = cube(m.cod)
    vals = [where[tuple(m.vals[i] for i in c)]
            for c in iproduct(range(m.dom.n), repeat=n)]
    return RefMap(f"{m.name}^{n}", dom, cod, vals)


# -- witness replay, pointwise ----------------------------------------------


def _table(m, dom: RefSpace, cod: RefSpace):
    """Index form of a contred map's rows, or None if names do not fit."""
    vals = [-1] * dom.n
    for x, y in m.table:
        if x not in dom.index or y not in cod.index:
            return None
        vals[dom.index[x]] = cod.index[y]
    return vals


def _post_table(m, X1: RefSpace, Y2: RefSpace, Y1: RefSpace):
    """F's rows keyed by (x, y); product points are named "(x,y)"."""
    names = {f"({a},{b})": (i, j) for i, a in enumerate(X1.names)
             for j, b in enumerate(Y2.names)}
    if len(m.dom.points) != len(names) or any(p not in names for p in m.dom.points):
        return None
    out = {}
    for pt, v in m.table:
        if v not in Y1.index:
            return None
        out[names[pt]] = Y1.index[v]
    return out


def replay0(p: RefMap, q: RefMap, w) -> bool:
    """G monotone and q(G x) = p(x), undefined exactly off def(p)."""
    g = _table(w.translation, p.dom, q.dom)
    if g is None or not monotone(p.dom, q.dom, g):
        return False
    return all((q.vals[j] if j >= 0 else -1) == v for j, v in zip(g, p.vals))


def replay2(p: RefMap, q: RefMap, w) -> bool:
    """G and F monotone and F(x, q(G x)) = p(x), undefined exactly off def(p)."""
    X1, Y1 = p.dom, p.cod
    g = _table(w.translation, X1, q.dom)
    f = _post_table(w.postprocess, X1, q.cod, Y1)
    if g is None or f is None or not monotone(X1, q.dom, g):
        return False
    if not forced_post_ok(X1, Y1, q.cod, f):
        return False
    for x, j in enumerate(g):
        y = q.vals[j] if j >= 0 else -1
        if (f.get((x, y), -1) if y >= 0 else -1) != p.vals[x]:
            return False
    return True


# -- invariants -------------------------------------------------------------


def level(m: RefMap, variant: int):
    """Peel discontinuity points until empty (a count) or stable (None)."""
    dom, cod, vals = m.dom, m.cod, m.vals
    defined = {i for i, v in enumerate(vals) if v >= 0}
    live = set(defined)
    stages = 0
    while live:
        bad = {i for i in live
               if any(dom.le(i, j) and not cod.le(vals[i], vals[j]) for j in live)}
        if variant == 2:
            bad = {z for z in defined if any(dom.le(z, d) for d in bad)}
        if bad == live:
            return None
        live = bad
        stages += 1
    return stages


def basesize(m: RefMap) -> int:
    """Least number of pieces of def(m) on each of which m is monotone."""
    pts = [i for i, v in enumerate(m.vals) if v >= 0]
    best = len(pts)

    def piece_ok(piece):
        return all(not m.dom.le(i, j) or m.cod.le(m.vals[i], m.vals[j])
                   for i in piece for j in piece)

    def rec(k, blocks):
        nonlocal best
        if len(blocks) >= best:
            return
        if k == len(pts):
            best = len(blocks)
            return
        x = pts[k]
        for b in blocks:
            b.append(x)
            if piece_ok(b):
                rec(k + 1, blocks)
            b.pop()
        blocks.append([x])
        rec(k + 1, blocks)
        blocks.pop()

    rec(0, [])
    return best


def invariants_line(maps) -> str:
    """The `invariants` line the join of ``maps`` must print: family maxima."""
    def top(vals):
        return "unbounded" if None in vals else str(max(vals, default=0))

    return (f"lev1={top([level(m, 1) for m in maps])} "
            f"lev2={top([level(m, 2) for m in maps])} "
            f"bas={max((basesize(m) for m in maps), default=0)}")


# -- posets -----------------------------------------------------------------


def poset_lines(names, below) -> list[str]:
    """`poset` output from a full below-matrix: classes, then covers."""
    n = len(names)
    classes, seen = [], set()
    for i in range(n):
        if i not in seen:
            members = [j for j in range(n) if below[i][j] and below[j][i]]
            seen.update(members)
            classes.append(members)
    classes.sort(key=lambda c: tuple(sorted(names[i] for i in c)))
    m = len(classes)

    def cb(a, b):
        return below[classes[a][0]][classes[b][0]]

    lines = [f"class {c}: " + ", ".join(sorted(names[i] for i in classes[c]))
             for c in range(m)]
    for a in range(m):
        for b in range(m):
            if a != b and cb(a, b) and not any(
                    c not in (a, b) and cb(a, c) and cb(c, b) for c in range(m)):
                lines.append(f"cover: {a} < {b}")
    return lines


# -- corpus text ------------------------------------------------------------


def parse_corpus(text: str):
    """Spaces and maps of a .clt text: ({name: RefSpace}, {name: RefMap})."""
    spaces, maps = {}, {}
    lines = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    k = 0
    while k < len(lines):
        head = lines[k]
        body = []
        k += 1
        while lines[k] != ["end"]:
            body.append(lines[k])
            k += 1
        k += 1
        if head[0] == "space":
            pts = [p for ln in body if ln[0] == "points" for p in ln[1:]]
            below = [(ln[1], ln[2]) for ln in body if ln[0] == "below"]
            spaces[head[1]] = RefSpace(head[1], pts, below)
        elif head[0] == "map":
            dom, cod = spaces[head[3]], spaces[head[5]]
            vals = [-1] * dom.n
            for x, _arrow, y in body:
                vals[dom.index[x]] = cod.index[y]
            maps[head[1]] = RefMap(head[1], dom, cod, vals)
    return spaces, maps
