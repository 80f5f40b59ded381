"""Iterative PageRank built from the engine's bucketed join/agg primitives."""

import numpy as np
import pyarrow as pa
import pytest


def _edges(pairs):
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                "src": pa.array([a for a, b in pairs], pa.string()),
                "dst": pa.array([b for a, b in pairs], pa.string()),
            }
        )
    )


def test_pagerank_cycle_is_uniform(ray_session):
    from jsonld_ex_ray.ops.graph import pagerank

    ranks = pagerank(
        _edges([("a", "b"), ("b", "c"), ("c", "a")]), iterations=4
    ).to_pandas()
    assert ranks["rank"].sum() == pytest.approx(1.0, abs=1e-9)
    assert ranks["rank"].max() - ranks["rank"].min() < 1e-12  # symmetry → uniform


def test_pagerank_star_matches_reference(ray_session):
    from jsonld_ex_ray.ops.graph import pagerank

    # a,b,c all point at hub; hub is dangling
    edges = [("a", "hub"), ("b", "hub"), ("c", "hub")]
    got = pagerank(_edges(edges), iterations=8, damping=0.85).to_pandas().set_index("node")

    # dense reference implementation of the same formulation
    nodes = ["a", "b", "c", "hub"]
    idx = {v: i for i, v in enumerate(nodes)}
    n = len(nodes)
    r = np.full(n, 1 / n)
    out_deg = np.zeros(n)
    for s, _d in edges:
        out_deg[idx[s]] += 1
    for _ in range(8):
        dangling = r[out_deg == 0].sum()
        nxt = np.full(n, (1 - 0.85) / n + 0.85 * dangling / n)
        for s, d in edges:
            nxt[idx[d]] += 0.85 * r[idx[s]] / out_deg[idx[s]]
        r = nxt
    for v in nodes:
        assert got.loc[v, "rank"] == pytest.approx(r[idx[v]], abs=1e-9)
    assert got["rank"].sum() == pytest.approx(1.0, abs=1e-9)


def test_triples_to_edges_filters_literals(ray_session):
    import ray.data

    from jsonld_ex_ray.ops.graph import triples_to_edges

    tbl = pa.table(
        {
            "subj": ["s1", "s1"],
            "pred": ["p", "p"],
            "obj": ["o1", "plain text"],
            "obj_kind": ["iri", "literal"],
        }
    )
    edges = triples_to_edges(ray.data.from_arrow(tbl)).to_pandas()
    assert len(edges) == 1 and edges.dst.iloc[0] == "o1"


def test_connected_components_chain_and_clusters(ray_session):
    from jsonld_ex_ray.ops.graph import connected_components

    # chain a-b-c plus isolated pair x-y: transitive closure finds a for c
    out = (
        connected_components(_edges([("b", "a"), ("c", "b"), ("x", "y")]))
        .to_pandas()
        .set_index("node")["component"]
    )
    assert out["a"] == out["b"] == out["c"] == "a"
    assert out["x"] == out["y"] == "x"

    # star clusters bridged by one edge (diameter 4 -> few iterations),
    # verified against a union-find reference
    pairs = []
    for h in range(4):
        for leaf in range(5):
            pairs.append((f"hub{h}", f"h{h}leaf{leaf}"))
    pairs.append(("hub0", "hub1"))  # bridge two clusters
    got = (
        connected_components(_edges(pairs))
        .to_pandas()
        .set_index("node")["component"]
    )
    parent = {v: v for p in pairs for v in p}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for a, b in pairs:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    comp_members = {}
    for v in parent:
        comp_members.setdefault(find(v), []).append(v)
    want = {v: min(comp_members[find(v)]) for v in parent}
    for v in parent:
        assert got[v] == want[v], v


def test_connected_components_long_chain_logarithmic(ray_session):
    """Pointer doubling: a 256-node chain (diameter 255) must converge
    in ~log2(n) iterations (≤ 11), not O(diameter), with every node
    labeled by the chain head. (Chain length is test-sized — each CC
    iteration is 4 bucketed shuffles whose fixed Ray overhead dominates
    on the 4-CPU test session; convergence-round growth is logarithmic,
    so 10k/1M chains add only ~5/12 more rounds.)"""
    from jsonld_ex_ray.ops.graph import connected_components

    n = 256
    pairs = [(f"n{i:05d}", f"n{i + 1:05d}") for i in range(n - 1)]
    stats: dict = {}
    out = (
        connected_components(_edges(pairs), max_iterations=20, stats=stats)
        .to_pandas()
        .set_index("node")["component"]
    )
    assert stats["iterations"] <= 11, stats
    assert len(out) == n
    assert set(out) == {"n00000"}
