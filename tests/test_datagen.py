import hashlib
import math
from dataclasses import asdict

import numpy as np
import pytest

import mugl.datagen
from mugl.datagen import (
    GRAPH_STREAM,
    RANK_TOL,
    SIGNAL_STREAM,
    GraphSpec,
    SignalSpec,
    gen_graph,
    gen_signals,
    rbf_weights,
    stream_rng,
)
from mugl.laplacian import expand, pair_indices
from oracles import connected_union_find, is_laplacian, path_weights

# distance below which the default RBF weight reaches the 0.75 cutoff
GAUSSIAN_CUTOFF = math.sqrt(-2.0 * 0.5**2 * math.log(0.75))


class ZeroRng:
    """Stub generator whose normal draws are all zero."""

    def standard_normal(self, shape):
        return np.zeros(shape)


def test_graph_spec_validation():
    bad = [
        dict(family="ba", m=5, seed=0),
        dict(family="er", m=1, seed=0),
        dict(family="er", m=5, seed=-1),
        dict(family="er", m=5, seed=0, p=1.5),
        dict(family="gaussian", m=5, seed=0, sigma=0.0),
        dict(family="gaussian", m=5, seed=0, threshold=0.0),
        dict(family="gaussian", m=5, seed=0, threshold=1.1),
        dict(family="pa", m=5, seed=0, theta0=1),
        dict(family="pa", m=5, seed=0, theta0=6),
        dict(family="pa", m=5, seed=0, theta0=3, theta=4),
    ]
    for kwargs in bad:
        with pytest.raises(ValueError):
            GraphSpec(**kwargs)


def test_graph_spec_rejects_parameters_of_other_families():
    for kwargs in [
        dict(family="er", sigma=0.3),
        dict(family="er", threshold=0.5),
        dict(family="gaussian", p=0.5),
        dict(family="gaussian", theta0=3),
        dict(family="pa", p=0.5),
        dict(family="er", theta=2),
    ]:
        family = kwargs.pop("family")
        (name, _), = kwargs.items()
        with pytest.raises(ValueError, match=f"reads {name}; omit it for {family}$"):
            GraphSpec(family, 20, seed=0, **kwargs)
    # a provenance round-trip writes every field at its default
    spec = GraphSpec("er", 20, seed=0, p=0.1)
    assert GraphSpec(**asdict(spec)) == spec


def test_signal_spec_validation():
    for kwargs in [dict(n=0, epsilon=0.1, seed=0), dict(n=5, epsilon=-0.1, seed=0),
                   dict(n=5, epsilon=0.1, seed=-2), dict(n=5, epsilon=math.nan, seed=0)]:
        with pytest.raises(ValueError):
            SignalSpec(**kwargs)


def test_stream_rngs_are_distinct_and_stable():
    a = stream_rng(42, GRAPH_STREAM).random(5)
    b = stream_rng(42, SIGNAL_STREAM).random(5)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, stream_rng(42, GRAPH_STREAM).random(5))


def test_rbf_weight_one_at_identical_coords():
    coords = np.array([[0.3, 0.7], [0.3, 0.7], [0.9, 0.1]])
    w = rbf_weights(coords, sigma=0.5)
    assert w[0] == pytest.approx(1.0)  # pair (2,1) coincides
    assert w[1] < 1.0 and w[2] < 1.0


def test_gaussian_graph_edges_match_distance_cutoff():
    for seed in range(20):
        graph = gen_graph(GraphSpec("gaussian", 12, seed=seed))
        coords = stream_rng(seed, GRAPH_STREAM).random((12, 2))
        rows, cols = pair_indices(12)
        diff = coords[rows] - coords[cols]
        dist = np.sqrt(np.sum(diff * diff, axis=1))
        present = graph.weights > 0
        assert np.all(dist[present] <= GAUSSIAN_CUTOFF + 1e-12)
        assert np.all(dist[~present] > GAUSSIAN_CUTOFF - 1e-12)
        # kept edges carry the raw kernel value
        want = np.exp(-dist[present] ** 2 / (2 * 0.5**2))
        assert np.allclose(graph.weights[present], want, atol=1e-12)
        assert graph.weights[present].min() >= 0.75
        assert is_laplacian(graph.laplacian)


def test_gaussian_graph_threshold_one_is_empty():
    graph = gen_graph(GraphSpec("gaussian", 15, seed=3, threshold=1.0))
    assert graph.n_edges == 0


def test_er_degenerate_probabilities():
    empty = gen_graph(GraphSpec("er", 6, seed=0, p=0.0))
    assert empty.n_edges == 0
    assert not empty.connected
    full = gen_graph(GraphSpec("er", 6, seed=0, p=1.0))
    assert full.n_edges == 15
    assert np.allclose(np.diag(full.laplacian), 5.0)
    assert full.connected


def test_er_edge_count_matches_binomial_mean():
    counts = [gen_graph(GraphSpec("er", 20, seed=s)).n_edges for s in range(10_000)]
    se = math.sqrt(190 * 0.2 * 0.8 / 10_000)
    assert abs(np.mean(counts) - 38.0) <= 3 * se


def test_pa_tree_shape():
    for m in (3, 10, 40):
        graph = gen_graph(GraphSpec("pa", m, seed=m))
        assert graph.n_edges == m - 1
        assert graph.connected
        assert np.trace(graph.laplacian) == pytest.approx(2.0 * (m - 1))


def test_pa_three_nodes_degree_sum():
    graph = gen_graph(GraphSpec("pa", 3, seed=5))
    assert np.diag(graph.laplacian).sum() == pytest.approx(4.0)


def test_pa_general_theta_edge_count():
    graph = gen_graph(GraphSpec("pa", 8, seed=2, theta0=3, theta=2))
    # path seed contributes theta0 - 1 edges, each arrival theta more
    assert graph.n_edges == 2 + 5 * 2
    assert graph.connected


def test_pa_initial_nodes_attract_attachments():
    combined = []
    for seed in range(5000):
        L = gen_graph(GraphSpec("pa", 50, seed=seed)).laplacian
        combined.append(L[0, 0] + L[1, 1])
    # under uniform (degree-blind) attachment the two seed nodes would
    # collect 2 * H_49 expected degree; degree-proportional must beat that
    uniform_baseline = 2.0 * sum(1.0 / k for k in range(1, 50))
    assert np.mean(combined) > uniform_baseline + 1.0


def test_generators_are_deterministic():
    for family, kwargs in [("gaussian", {}), ("er", {}), ("pa", {})]:
        spec = GraphSpec(family, 12, seed=99, **kwargs)
        a, b = gen_graph(spec), gen_graph(spec)
        assert np.array_equal(a.weights, b.weights)
    spec = SignalSpec(n=7, epsilon=0.2, seed=31)
    L = expand(path_weights(6), 6)
    assert np.array_equal(gen_signals(L, spec), gen_signals(L, spec))


def digest(a: np.ndarray) -> str:
    return hashlib.sha256(a.tobytes()).hexdigest()


# sha256 of the float64 bytes of each draw, recorded with numpy 2.4 on
# x86-64.  A change means the seeded draw itself changed: the stream split,
# a family's sampling rule or, for signals, the eigendecomposition.
PINNED_GRAPH_DIGESTS = {
    GraphSpec("gaussian", 20, seed=0):
        "754d3bd9ca2d432fea8c21354feb60a39859fadaa5a215f826e4c1638be044ee",
    GraphSpec("gaussian", 20, seed=7):
        "e7fefd9ae4cfdde500f5bc5bd17a0b5bcdb55f062d8682d4afaeb1a9efc7e92d",
    GraphSpec("er", 20, seed=0):
        "00cc8493554153c65d9394242a40e106976e7227d9751d3aa8d67fd87c7ef3fe",
    GraphSpec("er", 20, seed=7):
        "3289f4aa8837e6557f173bb66469f4fd2a5a2da0efb3ca496f3a7971017817d7",
    GraphSpec("pa", 20, seed=0):
        "6d6d18b7ef5e5ab4c92a01f34136200d4e1b15eab712e77cc539a0d0b340b3f3",
    GraphSpec("pa", 20, seed=7):
        "336917b85e0eaae9a8dd2c03a07a71efb0953e46d49ce9ba5c203338575a718c",
    GraphSpec("gaussian", 15, seed=3, sigma=0.3, threshold=0.5):
        "42aea7e31a47ec30cb733199d57f2cf488f8cda53544c20b853c895f332955b1",
    GraphSpec("er", 15, seed=3, p=0.5):
        "1cdaaedbf71f83956ba468193d3e1d250bb80746b38e4947a9c9f1ea3fb907bc",
    GraphSpec("pa", 15, seed=3, theta0=4, theta=3):
        "9907dc892c20ce97d5a1a3361c488bce8abae87a1e8604ed21a162979f8eb301",
}
PINNED_SIGNAL_DIGESTS = {
    None: "d96bd570d0a1f6ac8289d6defd17b74226e9a1cf675391a4e5001f72a2f9405a",
    "arange": "fde6a6396dd60c140da26b8f598725ca686cf4536165eca06b5e56393fb65f0c",
}


def test_draws_match_pinned_digests():
    got = {spec: digest(gen_graph(spec).weights) for spec in PINNED_GRAPH_DIGESTS}
    assert got == PINNED_GRAPH_DIGESTS
    L = gen_graph(GraphSpec("gaussian", 8, seed=11)).laplacian
    got = {
        key: digest(gen_signals(L, SignalSpec(n=6, epsilon=0.1, seed=5, mu_star=mu)))
        for key, mu in [(None, None), ("arange", np.arange(8.0))]
    }
    assert got == PINNED_SIGNAL_DIGESTS


def test_signals_zero_draws_return_mu_star(monkeypatch):
    monkeypatch.setattr(mugl.datagen, "stream_rng", lambda seed, stream: ZeroRng())
    L = expand(path_weights(4), 4)
    mu = np.array([1.0, -2.0, 0.5, 3.0])
    X = gen_signals(L, SignalSpec(n=3, epsilon=0.0, seed=0, mu_star=mu))
    assert np.array_equal(X, np.column_stack([mu] * 3))


def test_signals_mu_star_size_checked():
    L = expand(path_weights(4), 4)
    with pytest.raises(ValueError, match="mu_star"):
        gen_signals(L, SignalSpec(n=3, epsilon=0.0, seed=0, mu_star=np.ones(3)))


def test_signal_spec_with_mean_is_a_value():
    # any sequence of numbers is stored as one tuple of floats
    specs = [
        SignalSpec(n=3, epsilon=0.1, seed=0, mu_star=mu)
        for mu in (np.array([1.0, -2.0, 0.5]), [1, -2, 0.5], (1.0, -2.0, 0.5))
    ]
    assert all(spec.mu_star == (1.0, -2.0, 0.5) for spec in specs)
    assert all(type(x) is float for x in specs[0].mu_star)
    assert specs[0] == specs[1] == specs[2]
    assert len({hash(spec) for spec in specs}) == 1
    assert specs[0] != SignalSpec(n=3, epsilon=0.1, seed=0, mu_star=(1.0, -2.0, 0.25))


def test_signals_need_a_square_laplacian():
    with pytest.raises(ValueError, match=r"must be square, got shape \(3, 4\)"):
        gen_signals(np.zeros((3, 4)), SignalSpec(n=3, epsilon=0.0, seed=0))


def test_signals_have_no_kernel_direction_variance():
    # the all-ones eigenvector of a connected Laplacian gets zero latent
    # variance, so noiseless signals are flat along it
    L = expand(path_weights(5), 5)
    X = gen_signals(L, SignalSpec(n=2000, epsilon=0.0, seed=8))
    kernel_component = X.sum(axis=0) / math.sqrt(5)
    assert kernel_component.var() <= 1e-20


def test_signal_covariance_matches_model():
    L = expand(path_weights(5), 5)
    eps = 0.3
    X = gen_signals(L, SignalSpec(n=10_000, epsilon=eps, seed=4))
    lam, U = np.linalg.eigh(L)
    keep = lam > RANK_TOL * lam[-1]
    target = (U[:, keep] / lam[keep]) @ U[:, keep].T + eps**2 * np.eye(5)
    emp = np.cov(X, bias=True)
    rel = np.linalg.norm(emp - target) / np.linalg.norm(target)
    assert rel <= 0.1


def test_generated_signals_are_smoother_than_iid():
    gen_total = iid_total = 0.0
    for seed in range(50):
        graph = gen_graph(GraphSpec("gaussian", 20, seed=seed))
        L = graph.laplacian
        lam = np.linalg.eigvalsh(L)
        keep = lam > RANK_TOL * max(lam[-1], 0.0)
        total_var = float(np.sum(1.0 / lam[keep])) + 0.1**2 * 20
        X = gen_signals(L, SignalSpec(n=40, epsilon=0.1, seed=1000 + seed))
        rng = np.random.default_rng(2000 + seed)
        X_iid = math.sqrt(total_var / 20) * rng.standard_normal((20, 40))
        gen_total += np.trace(X.T @ L @ X) / 40
        iid_total += np.trace(X_iid.T @ L @ X_iid) / 40
    assert gen_total / 50 < iid_total / 50


def test_connected_flag():
    assert gen_graph(GraphSpec("pa", 12, seed=0)).connected
    two_components = gen_graph(GraphSpec("er", 4, seed=0, p=0.0))
    assert not two_components.connected
    edgeless_pair = gen_graph(GraphSpec("er", 2, seed=0, p=0.0))
    assert not edgeless_pair.connected
    assert not connected_union_find(edgeless_pair.weights, 2)


@pytest.mark.parametrize(
    "spec",
    [
        GraphSpec("er", 300, seed=0, p=0.02),
        GraphSpec("er", 100, seed=0, p=0.05),
        GraphSpec("er", 30, seed=0, p=0.2),
        GraphSpec("pa", 30, seed=0),
        GraphSpec("gaussian", 12, seed=0),
    ],
    ids=["er_p0.02", "er_p0.05", "er_p0.2", "pa", "gaussian"],
)
def test_connected_flag_matches_union_find(spec):
    # every shape but pa (a tree by construction) draws both outcomes
    flags = set()
    for seed in range(20):
        graph = gen_graph(GraphSpec(**{**vars(spec), "seed": seed}))
        assert graph.connected == connected_union_find(graph.weights, graph.m)
        flags.add(graph.connected)
    assert flags == ({True} if spec.family == "pa" else {True, False})

