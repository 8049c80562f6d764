"""The element-wise maps of the differential: the oracles for the edge
records and the assembled columns of d.

d ships one way: HTComplex.records reads each face's cycle rows once and
takes x0 from the two cotrees, and d_columns writes the columns from those
records through templates of wedge positions.  The functions here compute
the same maps one value at a time, wedge by wedge and element by element,
with no record, template or factor: pair reads one entry of the cycle
rows, lost one edge of the cotree table, and restrict the cycles of
Γ∖(S ∪ e) rather than the exchange identity.  A fault injected at the
cycle rows (CoherentCotree.cycles) therefore reaches both routes.
"""

from ckskit.activity import lost_edge


def pair(cc, s, x, e):
    """Coefficient of edge e in the cycle of cotree edge x, inside the
    graph with S deleted: one entry of the cycle rows."""
    return cc.cycles(s).rows[x].get(e, 0)


def lost(cc, s, e):
    """The cotree edge x0 that S loses when e joins it, C(S) ∖ C(S ∪ e).
    Raises IncoherentCotree unless C(S ∪ e) = C(S) ∖ {x0}."""
    s = frozenset(s)
    return lost_edge(cc.C(s), cc.C(s | {e}), s, e)


def restrict(cc, s, e, a):
    """Restriction H¹(Λ_S) -> H¹(Λ_{S∪e}), Λ_S = H_1(Γ∖S), on the
    increasing wedge a of cocycle classes [x], x ∈ C(S), as a sparse dict
    over increasing wedges from C(S ∪ e).

    [x] stays [x] for x ∈ C(S ∪ e); the lost edge x0 goes to Σ_y c_y [y]
    with c_y the coefficient of x0 in the cycle of y in Γ∖(S ∪ e).  So
    a ↦ a when x0 ∉ a; otherwise x0 is replaced by each y ∉ a, with sign
    (−1)^(i+j) for x0 at position i of a and y at position j of the
    result."""
    x0 = lost(cc, s, e)
    if x0 not in a:
        return {a: 1}
    i = a.index(x0)
    rest = a[:i] + a[i + 1:]
    pos = cc.graph.pos
    out = {}
    for y, cycle in cc.cycles(frozenset(s) | {e}).rows.items():
        c = cycle.get(x0, 0)
        if c and y not in rest:
            j = sum(1 for z in rest if pos(z) < pos(y))
            out[rest[:j] + (y,) + rest[j:]] = -c if (i + j) % 2 else c
    return out


def iota(cc, s, e, w):
    """Interior product by edge e on the increasing wedge w over C(S), as
    a sparse dict over increasing wedges from C(S ∪ e).

    Removing x = w[i] gives (−1)^i ⟨γ_x, e⟩ times the rest of w, in the
    coordinates of C(S ∪ e) = C(S) ∖ {x0} (x0 from lost): the coordinate
    projection kills every rest that keeps x0, so when x0 ∈ w only the
    term that removes x0 survives."""
    x0 = lost(cc, s, e)
    out = {}
    for i in [w.index(x0)] if x0 in w else range(len(w)):
        c = pair(cc, s, w[i], e)
        if c:
            out[w[:i] + w[i + 1:]] = -c if i % 2 else c
    return out


def d_element(c, s, w, *a):
    """Differential of a basis element (S, w) of the HT complex c, or
    (S, w, a) of a CKS complex, as a sparse vector: the sum over the edges
    e with S ∪ e a face of the interior product by e on w, tensored with
    the restriction of the cocycle wedge a to C(S ∪ e)."""
    graph, cc = c.graph, c.cc
    out = {}
    for e in graph.sort_edges(graph.eids - s):
        t = s | {e}
        if t not in c.faces:
            continue
        terms = {(t, k): v for k, v in iota(cc, s, e, w).items()}
        for x in a:
            part = restrict(cc, s, e, x)
            terms = {k + (k2,): v * v2 for k, v in terms.items()
                     for k2, v2 in part.items()}
        out.update(terms)
    return out
