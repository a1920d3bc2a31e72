"""Causal graphs over observed vertices and latent confounders.

A graph holds the observed vertices V, the latent confounders (exogenous
vertices with no parents and at least two children) and the directed edges.
Dedicated error terms are never materialized; they travel implicitly with
their child. All vertex sets passed around the package are plain frozensets
of vertex ids; internally everything runs on integer bitmasks.

Every d-separation and closure query in the package runs on two walks
here, over per-vertex parent and child masks: ``_closure`` (ancestor,
descendant and component sets) and ``reach`` (the one ball-passing loop,
the d-separation kernel, which returns the vertices reached from a child
and from a parent as two sets). ``cut_masks`` derives
the masks of an edge-cut graph without building one, so pruning, the
invariance checks and the derivation search all call ``reach`` on cut masks
directly. ``edge_cut`` builds the cut as a ``CausalGraph`` and is kept only
as a public convenience.
"""

from __future__ import annotations


class GraphError(ValueError):
    """Malformed graph input: cycles, bad latents, unknown or duplicate ids."""


def _iter_bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class CausalGraph:
    """Immutable DAG over V (observed) and latent confounders.

    Observed vertices occupy bit indices ``0..n_observed-1`` in lexicographic
    id order, latents follow, also sorted. All queries are pure; instances are
    safe to share across threads.
    """

    __slots__ = (
        "names",
        "n_observed",
        "parent_masks",
        "child_masks",
        "observed_mask",
        "latent_mask",
        "_index",
        "_canon",
    )

    def __init__(self, observed, edges, latent_children=None, *, check_latents=True):
        obs = sorted(set(observed))
        latent_children = dict(latent_children or {})
        lats = sorted(latent_children)
        dup = set(obs) & set(lats)
        if dup:
            raise GraphError(f"duplicate vertex id: {sorted(dup)[0]}")
        names = tuple(obs) + tuple(lats)
        index = {name: i for i, name in enumerate(names)}
        if len(index) != len(names):
            raise GraphError("duplicate vertex id")
        n = len(names)
        m = len(obs)
        par = [0] * n
        ch = [0] * n
        seen_edges = set()
        for p, c in edges:
            if p not in index or c not in index:
                raise GraphError(f"unknown vertex in edge {p} -> {c}")
            if index[p] >= m or index[c] >= m:
                raise GraphError(f"latent vertex in explicit edge {p} -> {c}")
            if p == c:
                raise GraphError(f"self-loop on {p}")
            if (p, c) in seen_edges:
                continue
            seen_edges.add((p, c))
            par[index[c]] |= 1 << index[p]
            ch[index[p]] |= 1 << index[c]
        for u, children in latent_children.items():
            kids = sorted(set(children))
            if check_latents and len(kids) < 2:
                raise GraphError(f"latent {u} has fewer than two children")
            ui = index[u]
            for k in kids:
                ki = index.get(k)
                if ki is None or ki >= m:
                    raise GraphError(f"latent {u} has non-observed child {k}")
                par[ki] |= 1 << ui
                ch[ui] |= 1 << ki
        self.names = names
        self.n_observed = m
        self.parent_masks = tuple(par)
        self.child_masks = tuple(ch)
        self.observed_mask = (1 << m) - 1
        self.latent_mask = ((1 << n) - 1) ^ self.observed_mask
        self._index = index
        self._check_acyclic()
        canon_latents = tuple(sorted(tuple(sorted(set(c))) for c in latent_children.values()))
        self._canon = (names[:m], tuple(sorted(seen_edges)), canon_latents)

    def _check_acyclic(self):
        if len(self.topological_order()) != len(self.names):
            raise GraphError("cycle detected")

    # -- basic queries ------------------------------------------------------

    @property
    def observed(self) -> frozenset:
        return frozenset(self.names[: self.n_observed])

    @property
    def latents(self) -> frozenset:
        return frozenset(self.names[self.n_observed:])

    def has_vertex(self, name: str) -> bool:
        return name in self._index

    def latent_children_map(self) -> dict:
        return {
            self.names[i]: self.names_of(self.child_masks[i])
            for i in range(self.n_observed, len(self.names))
        }

    def edge_list(self):
        """Observed-to-observed directed edges, sorted."""
        out = []
        for i in range(self.n_observed):
            for c in _iter_bits(self.child_masks[i] & self.observed_mask):
                out.append((self.names[i], self.names[c]))
        return sorted(out)

    def _require(self, name: str) -> int:
        i = self._index.get(name)
        if i is None:
            raise GraphError(f"unknown vertex {name}")
        return i

    def mask_of(self, names) -> int:
        m = 0
        for name in names:
            m |= 1 << self._require(name)
        return m

    def names_of(self, mask: int) -> frozenset:
        return frozenset(self.names[i] for i in _iter_bits(mask))

    def ancestors_mask(self, mask: int, *, reflexive=False) -> int:
        if reflexive:
            return _closure(self.parent_masks, mask)
        return _closure(self.parent_masks, _union(self.parent_masks, mask))

    def descendants_mask(self, mask: int, *, reflexive=False) -> int:
        if reflexive:
            return _closure(self.child_masks, mask)
        return _closure(self.child_masks, _union(self.child_masks, mask))

    def is_connected(self) -> bool:
        """Connectivity of the undirected skeleton over V and latents."""
        if len(self.names) <= 1:
            return True
        adj = [p | c for p, c in zip(self.parent_masks, self.child_masks)]
        return _closure(adj, 1) == (1 << len(self.names)) - 1

    def topological_order(self):
        n = len(self.names)
        indeg = [bin(self.parent_masks[i]).count("1") for i in range(n)]
        ready = sorted((i for i in range(n) if indeg[i] == 0), reverse=True)
        order = []
        while ready:
            v = ready.pop()
            order.append(self.names[v])
            added = False
            for c in _iter_bits(self.child_masks[v]):
                indeg[c] -= 1
                if indeg[c] == 0:
                    ready.append(c)
                    added = True
            if added:
                ready.sort(reverse=True)
        return order

    def __eq__(self, other):
        return isinstance(other, CausalGraph) and self._canon == other._canon

    def __hash__(self):
        return hash(self._canon)

    def __repr__(self):
        return (
            f"CausalGraph({self.n_observed} observed, "
            f"{len(self.names) - self.n_observed} latent, "
            f"{len(self._canon[1])} edges)"
        )


# -- reachability core -------------------------------------------------------


def _union(step_masks, mask: int) -> int:
    """Union of ``step_masks`` over the members of mask (one step, no closure)."""
    out = 0
    while mask:
        low = mask & -mask
        out |= step_masks[low.bit_length() - 1]
        mask ^= low
    return out


def _closure(step_masks, mask: int) -> int:
    """Reflexive closure of mask under ``step_masks`` (parents: ancestors)."""
    out = frontier = mask
    while frontier:
        frontier = _union(step_masks, frontier) & ~out
        out |= frontier
    return out


def cut_masks(par, ch, cin: int, cout: int):
    """Parent and child masks with the edges into cin and out of cout removed."""
    n = len(par)
    return (
        [0 if (1 << i) & cin else par[i] & ~cout for i in range(n)],
        [0 if (1 << i) & cout else ch[i] & ~cin for i in range(n)],
    )


def reach(par, ch, src: int, cond: int, stop: int = 0):
    """Ball passing from ``src`` given ``cond``: ``(up, down)``, the vertices reached.

    ``up`` holds ``src`` and the vertices the ball entered from a child,
    ``down`` those it entered from a parent (Shachter's Bayes-ball). A
    vertex outside ``cond`` passes the ball on to its parents (when it came
    up) and its children; a conditioned vertex stops a ball that came up
    and bounces one that came down back up to its parents. So a collider
    with a conditioned descendant is opened by the ball running down to
    that descendant and bouncing back, without an ancestor closure of
    ``cond``. ``up | down`` is the set of vertices joined to ``src`` by a
    path that ``cond`` leaves active, ``src`` included; a conditioned vertex
    is in it when such a path ends there. The walk passes the ball from all
    pending vertices at once, one step of the path length per round.
    With ``stop`` set it returns after the first round that meets a stop
    vertex, so ``up | down`` meets ``stop`` exactly when some stop vertex is
    reachable.
    """
    up = src
    down = pend_down = 0
    pend_up = src & ~cond
    while pend_up or pend_down:
        new_up = new_down = 0
        while pend_up:
            low = pend_up & -pend_up
            v = low.bit_length() - 1
            new_up |= par[v]
            new_down |= ch[v]
            pend_up ^= low
        while pend_down:
            low = pend_down & -pend_down
            v = low.bit_length() - 1
            if low & cond:
                new_up |= par[v]
            else:
                new_down |= ch[v]
            pend_down ^= low
        new_up &= ~up
        new_down &= ~down
        up |= new_up
        down |= new_down
        if (new_up | new_down) & stop:
            break
        pend_up = new_up & ~cond
        pend_down = new_down
    return up, down


def dsep_masks(par, ch, x: int, y: int, z: int) -> bool:
    """Whether z d-separates x from y; the three masks must be disjoint."""
    if x & y or x & z or y & z:
        raise GraphError("d-separation sets must be pairwise disjoint")
    if not x or not y:
        return True
    if bin(x).count("1") > bin(y).count("1"):
        x, y = y, x
    up, down = reach(par, ch, x, z, y)
    return not (up | down) & y


# -- parsing and the public graph operations -----------------------------------


def _lines(text: str):
    """``(file line number, content)`` of each line left nonblank once its ``#`` comment is cut."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _names(text: str, error=GraphError) -> list:
    """The ids of a comma- or whitespace-separated list; the one id rule of every text read.

    An id never holds ``|``, ``(`` or ``)``, so ``p(v)`` names the vertex ``v``;
    it never holds ``->`` and is not ``latent``, so an edge line parses the
    same with the id at either end.
    """
    names = text.replace(",", " ").split()
    for v in names:
        if "|" in v or "(" in v or ")" in v or "->" in v or v == "latent":
            raise error(f"{v!r} is not a vertex id")
    return names


def parse_graph(text: str) -> CausalGraph:
    """Parse the line-oriented graph format.

    ``A -> B`` adds a directed edge, ``A <-> B`` is sugar for a fresh latent
    with children A and B, ``latent U : A B C`` declares an explicit latent,
    ``#`` starts a comment. Blank lines are skipped. Every id follows the
    rule of ``_names``, and an endpoint or a latent name is exactly one id.
    """
    return _graph_of_lines(_lines(text))


def _graph_of_lines(lines) -> CausalGraph:
    """The graph of the ``(line number, content)`` pairs of ``_lines``."""
    observed = set()
    edges = []
    latent_children = {}
    bidirected = []
    for lineno, line in lines:
        try:
            if line.split(None, 1)[0] == "latent":
                name, colon, kids = line[len("latent"):].partition(":")
                if not colon:
                    raise GraphError("expected 'latent NAME : children'")
                names, children = _names(name), _names(kids)
                if len(names) != 1:
                    raise GraphError("latent needs a name")
                name = names[0]
                if name in latent_children:
                    raise GraphError(f"duplicate vertex id: {name}")
                if len(set(children)) < 2:
                    raise GraphError(f"latent {name} has fewer than two children")
                latent_children[name] = children
                observed.update(children)
                continue
            arrow = "<->" if "<->" in line else "->"
            lhs, found, rhs = line.partition(arrow)
            if not found:
                raise GraphError(f"cannot parse {line!r}")
            a, b = _names(lhs), _names(rhs)
            if len(a) != 1 or len(b) != 1:
                raise GraphError(f"malformed {'bidirected edge' if arrow == '<->' else 'edge'}")
        except GraphError as exc:
            raise GraphError(f"line {lineno}: {exc}") from None
        (bidirected if arrow == "<->" else edges).append((a[0], b[0]))
        observed.update((a[0], b[0]))
    taken = observed | latent_children.keys()
    k = 0
    for a, b in bidirected:
        k += 1
        while f"U{k}" in taken:
            k += 1
        latent_children[f"U{k}"] = [a, b]
    return CausalGraph(observed, edges, latent_children)


def relations(g: CausalGraph, s, which: str, include_latents: bool = False) -> frozenset:
    """Union of parents/children/ancestors/descendants over the members of s.

    Ancestors and descendants are strict: a member of s appears in the result
    only when some other member reaches it.
    """
    mask = g.mask_of(s)
    if which == "parents":
        out = _union(g.parent_masks, mask)
    elif which == "children":
        out = _union(g.child_masks, mask)
    elif which == "ancestors":
        out = g.ancestors_mask(mask)
    elif which == "descendants":
        out = g.descendants_mask(mask)
    else:
        raise ValueError(f"unknown relation {which!r}")
    if not include_latents:
        out &= g.observed_mask
    return g.names_of(out)


def edge_cut(g: CausalGraph, cut_in, cut_out) -> CausalGraph:
    """The graph with incoming edges of cut_in and outgoing edges of cut_out removed.

    The vertex set is unchanged, so latents may be left with fewer than two
    children. A public convenience only: the package's own checks run on
    ``cut_masks`` instead of building a graph per check.
    """
    in_mask = g.mask_of(cut_in)
    out_mask = g.mask_of(cut_out)
    if (in_mask | out_mask) & g.latent_mask:
        raise GraphError("cut sets must contain observed vertices only")
    edges = [
        (p, c)
        for p, c in g.edge_list()
        if not (1 << g._index[c]) & in_mask and not (1 << g._index[p]) & out_mask
    ]
    latent_children = {
        u: [c for c in kids if not (1 << g._index[c]) & in_mask]
        for u, kids in g.latent_children_map().items()
    }
    return CausalGraph(g.observed, edges, latent_children, check_latents=False)


def induced_subgraph(g: CausalGraph, w) -> CausalGraph:
    """Subgraph on the vertices in w, keeping edges between members of w.

    Latent vertices that end up with fewer than two children carry no
    confounding any more and are dropped.
    """
    keep = g.mask_of(w)
    obs = [name for name in g.names[: g.n_observed] if 1 << g._index[name] & keep]
    obs_mask = keep & g.observed_mask
    edges = [
        (p, c)
        for p, c in g.edge_list()
        if 1 << g._index[p] & keep and 1 << g._index[c] & keep
    ]
    latent_children = {}
    for u, kids in g.latent_children_map().items():
        if not 1 << g._index[u] & keep:
            continue
        remaining = [c for c in kids if 1 << g._index[c] & obs_mask]
        if len(remaining) >= 2:
            latent_children[u] = remaining
    return CausalGraph(obs, edges, latent_children)


def d_separated(g: CausalGraph, x, y, z, *, allow_latents: bool = False) -> bool:
    """True iff every path between x and y is blocked by z (Bayes-ball)."""
    xm = g.mask_of(x)
    ym = g.mask_of(y)
    zm = g.mask_of(z)
    if not allow_latents and (xm | ym | zm) & g.latent_mask:
        raise GraphError("latent vertices in d-separation sets need allow_latents=True")
    return dsep_masks(g.parent_masks, g.child_masks, xm, ym, zm)
