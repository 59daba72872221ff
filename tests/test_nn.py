"""Attention layer, pooling, dense layer and hinge-loss behavior."""
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cascade_gnn.autograd as ag
import cascade_gnn.nn as nn
from cascade_gnn.autograd import Tensor

from helpers import (central_difference_grads, dense_gat_oracle, gat_params,
                     reference_edge_arrays, relation, relative_error)


def leaf_tensors(arrays):
    """The arrays as leaves of the autograd tape."""
    return [Tensor(a, requires_grad=True) for a in arrays]


def random_gat_setup(seed, n=3, f_in=5, f_out=4, edges=None):
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(n, f_in))
    params = gat_params(rng, f_in, f_out)
    if edges is None:
        edges = [(0, 1, (True, False, True, False)), (1, 2, (False, True, False, True))]
    ea = nn.build_edge_arrays(relation(n, edges))
    return h, params, edges, ea


@settings(max_examples=150, deadline=None)
@given(n=st.integers(1, 40), seed=st.integers(0, 2**32 - 1),
       density=st.sampled_from([0.0, 0.05, 0.3, 1.0]) | st.floats(0.0, 1.0),
       every_pair=st.booleans())
@example(n=1, seed=0, density=1.0, every_pair=True)
@example(n=40, seed=0, density=0.0, every_pair=False)
@example(n=40, seed=1, density=0.1, every_pair=True)
def test_edge_arrays_equal_per_pair_reference(n, seed, density, every_pair):
    # a relation array as the build makes it: entry [j, i] is entry [i, j]
    # with the flag pairs swapped
    rng = np.random.default_rng(seed)
    upper = rng.random((n, n, 4)) < density
    if every_pair:
        bare = ~upper.any(axis=2)
        upper[bare, rng.integers(0, 4, size=int(bare.sum()))] = True
    r = np.zeros((n, n, 4), dtype=bool)
    i, j = np.triu_indices(n, 1)
    r[i, j] = upper[i, j]
    r[j, i] = upper[i, j][:, [1, 0, 3, 2]]
    assert np.array_equal(r.transpose(1, 0, 2), r[:, :, [1, 0, 3, 2]])

    ea = nn.build_edge_arrays(r)
    ref = reference_edge_arrays(n, [(a, b, tuple(r[a, b])) for a, b in zip(i, j)
                                    if r[a, b].any()])
    for name in ("src", "dst", "flags"):
        assert np.array_equal(getattr(ea, name), getattr(ref, name)), name
    assert (ea.src.dtype, ea.dst.dtype, ea.flags.dtype) == (np.intp, np.intp, np.float64)
    assert ea.num_nodes == ref.num_nodes == n
    if every_pair:
        assert ea.src.size == n + n * (n - 1)


def test_isolated_node_is_affine():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(1, 6))
    params = gat_params(rng, 6, 3)
    out = nn.gat_forward(Tensor(h), nn.build_edge_arrays(relation(1, [])), *leaf_tensors(params))
    weight, _, bias = params
    expected = h @ weight + bias
    np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-14)


def test_symmetric_nodes_identical_outputs():
    rng = np.random.default_rng(1)
    row = rng.normal(size=5)
    h = np.stack([row, row])
    params = gat_params(rng, 5, 4)
    ea = nn.build_edge_arrays(relation(2, [(0, 1, (True, True, False, False))]))
    out = nn.gat_forward(Tensor(h), ea, *leaf_tensors(params)).data
    np.testing.assert_allclose(out[0], out[1], atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_path_graph_matches_dense_oracle(seed):
    edges = [(0, 1, (True, False, False, True)), (1, 2, (False, True, True, False))]
    h, params, edges, ea = random_gat_setup(seed, edges=edges)
    out = nn.gat_forward(Tensor(h), ea, *leaf_tensors(params)).data
    oracle = dense_gat_oracle(h, edges, *params)
    np.testing.assert_allclose(out, oracle, atol=1e-12)
    out, _ = nn.gat_layer(h, ea, *params)
    np.testing.assert_allclose(out, oracle, atol=1e-12)


@pytest.mark.parametrize("seed", range(3))
def test_attention_sums_to_one(seed):
    h, params, edges, ea = random_gat_setup(seed)
    _, alpha = nn.gat_forward(Tensor(h), ea, *leaf_tensors(params), return_attention=True)
    sums = np.zeros(3)
    np.add.at(sums, ea.dst, alpha.data.reshape(-1))
    np.testing.assert_allclose(sums, 1.0, atol=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_permutation_equivariance(seed):
    rng = np.random.default_rng(seed + 100)
    n = 6
    h = rng.normal(size=(n, 5))
    params = gat_params(rng, 5, 4)
    edges = [(0, 2, (True, False, False, False)), (1, 4, (False, True, True, False)),
             (2, 5, (True, True, False, True)), (3, 4, (False, False, False, True))]
    r = relation(n, edges)
    ea = nn.build_edge_arrays(r)
    out = nn.gat_forward(Tensor(h), ea, *leaf_tensors(params)).data
    layer, _ = nn.gat_layer(h, ea, *params)

    perm = rng.permutation(n)
    # place original node v at new index perm[v]
    h_p = np.empty_like(h)
    h_p[perm] = h
    inv = np.argsort(perm)
    ea_p = nn.build_edge_arrays(r[inv][:, inv])
    out_p = nn.gat_forward(Tensor(h_p), ea_p, *leaf_tensors(params)).data
    np.testing.assert_allclose(out_p[perm], out, atol=1e-9)
    layer_p, _ = nn.gat_layer(h_p, ea_p, *params)
    np.testing.assert_allclose(layer_p[perm], layer, atol=1e-9)


def test_gat_gradcheck_through_layer():
    rng = np.random.default_rng(7)
    h0 = rng.normal(size=(4, 3))
    weight, attn, bias = gat_params(rng, 3, 2)
    edges = [(0, 1, (True, False, False, False)), (1, 2, (False, False, True, False)),
             (2, 3, (True, True, False, False))]
    ea = nn.build_edge_arrays(relation(4, edges))
    probe = rng.normal(size=(4, 2))

    arrays = {"h": h0.copy(), "w": weight, "a": attn, "b": bias}

    def run():
        t = dict(zip(arrays, leaf_tensors(arrays.values())))
        loss = ag.sum_all(ag.mul(nn.gat_forward(t["h"], ea, t["w"], t["a"], t["b"]),
                                 Tensor(probe)))
        return loss, t

    loss, tensors = run()
    loss.backward()
    numeric = central_difference_grads(lambda: run()[0].item(), arrays)
    err = relative_error([tensors[k].grad for k in arrays],
                         [numeric[k] for k in arrays])
    assert err <= 1e-4


def test_shape_mismatch_raises():
    rng = np.random.default_rng(0)
    params = leaf_tensors(gat_params(rng, 5, 4))
    with pytest.raises(ValueError):
        nn.gat_forward(Tensor(np.ones((2, 7))), nn.build_edge_arrays(relation(2, [])), *params)


def test_mean_pool_channels_example():
    out = nn.mean_pool_channels(Tensor(np.array([[2.0, 4.0, 6.0, 8.0]])), 2)
    np.testing.assert_array_equal(out.data, [[3.0, 7.0]])


def test_mean_pool_channels_constant():
    out = nn.mean_pool_channels(Tensor(np.full((3, 6), 2.5)), 2)
    np.testing.assert_array_equal(out.data, np.full((3, 3), 2.5))


def test_mean_pool_channels_matches_loop():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(3, 64))
    out = nn.mean_pool_channels(Tensor(x), 2).data
    expected = np.empty((3, 32))
    for r in range(3):
        for c in range(32):
            expected[r, c] = (x[r, 2 * c] + x[r, 2 * c + 1]) / 2.0
    np.testing.assert_allclose(out, expected, atol=1e-15)


def test_mean_pool_channels_indivisible_width():
    with pytest.raises(ValueError):
        nn.mean_pool_channels(Tensor(np.ones((2, 5))), 2)


def test_global_mean_pool_single_node():
    x = np.array([[1.0, -2.0, 3.0]])
    np.testing.assert_array_equal(nn.global_mean_pool(Tensor(x)).data, x)


def test_global_mean_pool_two_rows():
    out = nn.global_mean_pool(Tensor(np.array([[0.0, 2.0], [2.0, 0.0]])))
    np.testing.assert_array_equal(out.data, [[1.0, 1.0]])


def test_global_mean_pool_permutation_exact():
    # dyadic integer-valued data keeps the permuted sums bit-exact
    rng = np.random.default_rng(11)
    x = rng.integers(-1024, 1024, size=(7, 6)).astype(float) / 64.0
    base = nn.global_mean_pool(Tensor(x)).data
    for _ in range(10):
        perm = rng.permutation(7)
        out = nn.global_mean_pool(Tensor(x[perm])).data
        assert (out == base).all()


def test_global_mean_pool_empty_raises():
    with pytest.raises(ValueError):
        nn.global_mean_pool(Tensor(np.zeros((0, 4))))


def test_fc_identity_and_bias():
    x = np.array([[1.0, 2.0, 3.0]])
    w = np.eye(3)
    b = np.zeros((1, 3))
    np.testing.assert_array_equal(nn.fc_forward(Tensor(x), Tensor(w), Tensor(b)).data, x)
    b2 = np.array([[5.0, -1.0, 0.5]])
    np.testing.assert_array_equal(
        nn.fc_forward(Tensor(np.zeros((1, 3))), Tensor(w), Tensor(b2)).data, b2)


def test_fc_matches_dot_loop():
    rng = np.random.default_rng(5)
    x, w, b = rng.normal(size=(1, 4)), rng.normal(size=(4, 3)), rng.normal(size=(1, 3))
    out = nn.fc_forward(Tensor(x), Tensor(w), Tensor(b)).data
    expected = np.array([[sum(x[0, i] * w[i, j] for i in range(4)) + b[0, j]
                          for j in range(3)]])
    np.testing.assert_allclose(out, expected, atol=1e-14)


@pytest.mark.parametrize("margin,expected", [(2.0, 0.0), (0.0, 1.0), (-0.5, 1.5)])
def test_hinge_loss_values(margin, expected):
    # label 0 correct: margin = s_true - s_fake
    scores = Tensor(np.array([[margin, 0.0]]))
    assert nn.hinge_loss(scores, 0).item() == pytest.approx(expected)


def test_hinge_loss_label_symmetry():
    scores = Tensor(np.array([[0.3, 0.9]]))
    assert nn.hinge_loss(scores, 1).item() == pytest.approx(max(0.0, 1.0 - 0.6))
    assert nn.hinge_loss(scores, 0).item() == pytest.approx(1.6)


def test_softmax_normalizes():
    p = nn.softmax(np.array([2.0, -1.0]))
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert p[0] > p[1]
