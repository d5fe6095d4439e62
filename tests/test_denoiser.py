import hashlib
import importlib.machinery
import io
import json
import math
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings, strategies as st

from gradus.denoiser import (
    Adam,
    Checkpoint,
    Denoiser,
    DenoiserHyperparams,
    FlatGrads,
    _ERF_MODULE,
    _erf,
    load_checkpoint,
    param_count,
    save_checkpoint,
    train,
    write_loss_csv,
)
from gradus.errors import CheckpointError, PhraseValidationError
from gradus.graph import build_graph
from gradus.phrase import strip_to_skeleton
from gradus.pitch import NUM_DEGREE_CLASSES

from conftest import make_phrase
from denoiser_oracle import EinsumDenoiser, PerTensorAdam, reference_train

HP_SMALL = DenoiserHyperparams(layers=2, hidden_dim=8, heads=2, T=10, epochs=1)


@pytest.fixture()
def four_node_graph():
    p = make_phrase(
        [(0, 0, 1, "3"), (0, 1, 1, "2"), (0, 2, 2, "1"), (1, 0, 4, "1")]
    )
    return build_graph(p)


def _noisy(graph, classes):
    return graph.with_x(np.array(classes))


def test_hyperparam_validation():
    with pytest.raises(PhraseValidationError):
        DenoiserHyperparams(hidden_dim=30, heads=4)
    with pytest.raises(PhraseValidationError):
        DenoiserHyperparams(val_split=0.0)


def test_forward_shapes_and_rows(four_node_graph):
    den = Denoiser(HP_SMALL)
    params = den.init_params(np.random.default_rng(0), four_node_graph.R.shape[1])
    out = den.forward(four_node_graph, 3, params)
    assert out.p_hat.shape == (4, 18)
    assert np.allclose(out.p_hat.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(np.isfinite(out.logits))


def test_forward_single_node():
    p = make_phrase([(0, 0, 1, "1")], voices=("m",))
    g = build_graph(p)
    den = Denoiser(HP_SMALL)
    params = den.init_params(np.random.default_rng(1), g.R.shape[1])
    out = den.forward(g, 0, params)
    assert out.p_hat.shape == (1, 18)
    assert out.p_hat.sum() == pytest.approx(1.0, abs=1e-9)


def test_forward_dimension_mismatch(four_node_graph):
    den = Denoiser(HP_SMALL)
    params = den.init_params(np.random.default_rng(0), 0)  # built for no-R input
    with pytest.raises(PhraseValidationError):
        den.forward(four_node_graph, 1, params)


def test_permutation_equivariance(four_node_graph):
    from dataclasses import replace

    g = _noisy(four_node_graph, [4, 0, 17, 9])
    den = Denoiser(HP_SMALL)
    params = den.init_params(np.random.default_rng(2), g.R.shape[1])
    base = den.forward(g, 5, params).p_hat
    perm = np.array([2, 0, 3, 1])
    gp = replace(
        g,
        x=g.x[perm],
        ec=g.ec[perm][:, perm],
        R=g.R[perm],
        nodes=tuple(g.nodes[i] for i in perm),
    )
    permuted = den.forward(gp, 5, params).p_hat
    assert np.max(np.abs(permuted - base[perm])) < 1e-9


@settings(max_examples=30, deadline=None)
@given(
    source=st.integers(min_value=0),
    K=st.sampled_from([1, 2, 8]),
    t=st.integers(min_value=0, max_value=100),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_forward_stack_equals_per_graph_forwards(corpus, source, K, t, seed):
    # A (K, n) stack of candidates on one skeleton gives, bit for bit,
    # the K outputs of forward passes on each candidate alone.
    graph = build_graph(strip_to_skeleton(corpus[source % len(corpus)]))
    den = Denoiser(DenoiserHyperparams.toy())
    rng = np.random.default_rng(seed)
    params = den.init_params(rng, graph.R.shape[1])
    stack = _classes(rng, (K, graph.n))
    out = den.forward(graph.with_x(stack), t, params)
    assert out.p_hat.shape == out.logits.shape == stack.shape + (NUM_DEGREE_CLASSES,)
    for k in range(K):
        alone = den.forward(graph.with_x(stack[k]), t, params)
        assert np.array_equal(out.p_hat[k], alone.p_hat)
        assert np.array_equal(out.logits[k], alone.logits)


@settings(max_examples=30, deadline=None)
@given(
    source=st.integers(min_value=0),
    K=st.sampled_from([1, 2, 8]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    data=st.data(),
)
def test_forward_stack_with_per_candidate_steps(corpus, source, K, seed, data):
    # With one step per candidate, each row of the stack is, bit for bit,
    # the forward pass on that candidate alone at its own step.
    graph = build_graph(strip_to_skeleton(corpus[source % len(corpus)]))
    hp = DenoiserHyperparams.toy()
    den = Denoiser(hp)
    rng = np.random.default_rng(seed)
    params = _perturbed_params(den, graph, rng)
    stack = _classes(rng, (K, graph.n))
    steps = data.draw(st.lists(st.integers(0, hp.T), min_size=K, max_size=K, unique=True))
    out = den.forward(graph.with_x(stack), steps, params)
    assert out.p_hat.shape == out.logits.shape == stack.shape + (NUM_DEGREE_CLASSES,)
    for k, t in enumerate(steps):
        alone = den.forward(graph.with_x(stack[k]), t, params)
        assert np.array_equal(out.p_hat[k], alone.p_hat)
        assert np.array_equal(out.logits[k], alone.logits)
    bad = data.draw(st.integers(max_value=-1) | st.integers(min_value=hp.T + 1))
    steps[data.draw(st.integers(0, K - 1))] = bad
    with pytest.raises(PhraseValidationError):
        den.forward(graph.with_x(stack), steps, params)
    with pytest.raises(PhraseValidationError):
        den.forward(graph.with_x(stack), [0] * (K + 1), params)


def _perturbed_params(den, graph, rng):
    # Initial gains, biases and edge biases are constant; noise on every
    # tensor makes each term of the pass matter.
    params = den.init_params(rng, graph.R.shape[1])
    return {k: w + 0.3 * rng.standard_normal(w.shape) for k, w in params.items()}


def _classes(rng, shape):
    return rng.integers(0, NUM_DEGREE_CLASSES, size=shape)


@settings(max_examples=30, deadline=None)
@given(
    source=st.integers(min_value=0),
    K=st.sampled_from([1, 2, 8]),
    spare=st.integers(min_value=0, max_value=8),
    t=st.integers(min_value=0, max_value=100),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_forward_with_graph_constants_equals_without(corpus, source, K, spare, t, seed):
    # Constants built once for stacks of up to K + spare candidates give,
    # bit for bit, what a pass that builds its own gives, for a stack of K
    # and for a single graph. A pass without them reads the parameters as
    # they are now, so in-place updates (Adam's) are never missed.
    graph = build_graph(strip_to_skeleton(corpus[source % len(corpus)]))
    den = Denoiser(DenoiserHyperparams.toy())
    rng = np.random.default_rng(seed)
    params = _perturbed_params(den, graph, rng)
    consts = den.constants(graph, params, K + spare)
    for x in (_classes(rng, (K, graph.n)), _classes(rng, graph.n)):
        given_consts = den.forward(graph.with_x(x), t, params, consts=consts)
        own = den.forward(graph.with_x(x), t, params)
        assert np.array_equal(given_consts.p_hat, own.p_hat)
        assert np.array_equal(given_consts.logits, own.logits)
    for w in params.values():
        w += 0.1 * rng.standard_normal(w.shape)
    fresh = {k: w.copy() for k, w in params.items()}
    updated = den.forward(graph.with_x(x), t, params).logits
    assert np.array_equal(updated, den.forward(graph.with_x(x), t, fresh).logits)
    assert not np.array_equal(updated, own.logits)


@settings(max_examples=30, deadline=None)
@given(
    source=st.integers(min_value=0),
    K=st.sampled_from([1, 2, 8]),
    t=st.integers(min_value=0, max_value=100),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_forward_matches_einsum_reference(corpus, source, K, t, seed):
    graph = build_graph(strip_to_skeleton(corpus[source % len(corpus)]))
    hp = DenoiserHyperparams.toy()
    rng = np.random.default_rng(seed)
    params = _perturbed_params(Denoiser(hp), graph, rng)
    stacked = graph.with_x(_classes(rng, (K, graph.n)))
    out = Denoiser(hp).forward(stacked, t, params)
    ref = EinsumDenoiser(hp).forward(stacked, t, params)
    assert np.max(np.abs(out.p_hat - ref.p_hat)) <= 1e-12
    assert np.max(np.abs(out.logits - ref.logits)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(
    source=st.integers(min_value=0),
    t=st.integers(min_value=1, max_value=100),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_backward_matches_einsum_reference(corpus, source, t, seed):
    graph = build_graph(strip_to_skeleton(corpus[source % len(corpus)]))
    hp = DenoiserHyperparams.toy()
    rng = np.random.default_rng(seed)
    params = _perturbed_params(Denoiser(hp), graph, rng)
    noised = graph.with_x(_classes(rng, graph.n))
    x0 = _classes(rng, graph.n)
    loss, grads = Denoiser(hp).backward(noised, t, params, x0, FlatGrads(params))
    ref_loss, ref_grads = EinsumDenoiser(hp).backward(noised, t, params, x0)
    assert loss == pytest.approx(ref_loss, rel=1e-12)
    assert sorted(grads) == sorted(ref_grads)
    for name, ref in ref_grads.items():
        np.testing.assert_allclose(grads[name], ref, rtol=1e-9, atol=1e-12, err_msg=name)


def test_flat_adam_matches_per_tensor_reference(four_node_graph):
    rng = np.random.default_rng(9)
    init = _perturbed_params(Denoiser(HP_SMALL), four_node_graph, rng)
    flat_params = {k: w.copy() for k, w in init.items()}
    ref_params = {k: w.copy() for k, w in init.items()}
    flat, ref = Adam(flat_params, 2e-3), PerTensorAdam(ref_params, 2e-3)
    grads = FlatGrads(flat_params)
    for _ in range(20):
        for k, w in init.items():
            grads[k][...] = 10.0 ** rng.uniform(-6, 2) * rng.standard_normal(w.shape)
        flat.step(flat_params, grads)
        ref.step(ref_params, grads)
    for k in init:
        assert flat_params[k].shape == ref_params[k].shape
        assert flat_params[k].tobytes() == ref_params[k].tobytes(), k


def test_adam_reads_flat_grads_in_place_and_leaves_them(four_node_graph):
    # FlatGrads made for the parameters are read without a copy; the step
    # is the per-tensor reference's, and the gradients stay as given.
    rng = np.random.default_rng(10)
    init = _perturbed_params(Denoiser(HP_SMALL), four_node_graph, rng)
    flat_params = {k: w.copy() for k, w in init.items()}
    ref_params = {k: w.copy() for k, w in init.items()}
    flat, ref = Adam(flat_params, 2e-3), PerTensorAdam(ref_params, 2e-3)
    grads = FlatGrads(flat_params)
    assert list(grads) == list(init) and grads.flat.size == param_count(init)
    for _ in range(5):
        grads.flat[:] = rng.standard_normal(grads.flat.size)
        given = grads.flat.copy()
        flat.step(flat_params, grads)
        ref.step(ref_params, {k: g.copy() for k, g in grads.items()})
        assert grads.flat.tobytes() == given.tobytes()
    assert flat.flat.tobytes() == b"".join(ref_params[k].tobytes() for k in init)


@pytest.mark.parametrize("batch_size", [1, 4])
def test_train_flat_adam_matches_per_tensor_reference(
    monkeypatch, corpus, schedule, corpus_marginal, batch_size
):
    hp = DenoiserHyperparams(layers=1, hidden_dim=16, heads=2, epochs=3, batch_size=batch_size)
    graphs = [build_graph(p) for p in corpus[:8]]
    flat = train(Denoiser(hp), graphs, schedule, corpus_marginal, np.random.default_rng(42))
    monkeypatch.setattr("gradus.denoiser.Adam", PerTensorAdam)
    ref = train(Denoiser(hp), graphs, schedule, corpus_marginal, np.random.default_rng(42))
    assert flat.history == ref.history
    assert list(flat.params) == list(ref.params)
    for k in ref.params:
        assert flat.params[k].tobytes() == ref.params[k].tobytes(), k


@pytest.mark.parametrize("val_draws", [16, 5])
@pytest.mark.parametrize("batch_size", [1, 4, 8])
def test_train_matches_reference_loop(corpus, schedule, corpus_marginal, batch_size, val_draws):
    # The flat gradient buffer and the stacked validation draws made once
    # give the plain loop's history and parameters, bit for bit; 5 draws
    # leave a partial stack.
    hp = DenoiserHyperparams(
        layers=1, hidden_dim=16, heads=2, epochs=3, batch_size=batch_size, val_split=0.25
    )
    graphs = [build_graph(p) for p in corpus[:12]]
    assert round(hp.val_split * len(graphs)) >= 2
    got = train(Denoiser(hp), graphs, schedule, corpus_marginal, np.random.default_rng(5), val_draws)
    ref = reference_train(
        Denoiser(hp), graphs, schedule, corpus_marginal, np.random.default_rng(5), val_draws
    )
    assert got.history == ref.history
    assert list(got.params) == list(ref.params)
    for k in ref.params:
        assert got.params[k].tobytes() == ref.params[k].tobytes(), k


_TRAIN_GOLDEN = Path(__file__).resolve().parent / "data" / "train_golden.json"


@pytest.mark.parametrize("seed", [1, 7919])
def test_train_golden(corpus, schedule, corpus_marginal, seed):
    # The toy training run's loss history and parameter bytes must not move.
    want = json.loads(_TRAIN_GOLDEN.read_text())["runs"][str(seed)]
    graphs = [build_graph(p) for p in corpus]
    result = train(
        Denoiser(DenoiserHyperparams.toy()), graphs, schedule, corpus_marginal,
        np.random.default_rng(seed),
    )
    assert repr(result.history) == want["history"]
    digest = hashlib.sha256(b"".join(result.params[k].tobytes() for k in sorted(result.params)))
    assert digest.hexdigest() == want["params_sha256"]


def test_backward_accumulates_into_given_grads(four_node_graph):
    # backward adds into the arrays it is given and returns them.
    den = Denoiser(HP_SMALL)
    params = den.init_params(np.random.default_rng(7), four_node_graph.R.shape[1])
    g = _noisy(four_node_graph, [5, 0, 17, 2])
    loss, fresh = den.backward(g, 3, params, four_node_graph.x, FlatGrads(params))
    given = {k: np.ones_like(w) for k, w in params.items()}
    loss2, out = den.backward(g, 3, params, four_node_graph.x, given)
    assert loss2 == loss and out is given
    for k in params:
        assert np.array_equal(given[k], 1.0 + fresh[k]), k


@pytest.fixture()
def fresh_erf():
    """``_erf`` with its cache cleared before and after the test."""
    _erf.cache_clear()
    yield _erf
    _erf.cache_clear()


def test_erf_is_scipys_ufunc_loaded_from_its_extension(fresh_erf, monkeypatch):
    # With the extension not yet in sys.modules, _erf loads it from its
    # file, and every input, edge or not, gets scipy.special's bits.
    monkeypatch.delitem(sys.modules, _ERF_MODULE)
    erf = fresh_erf()
    assert isinstance(sys.modules[_ERF_MODULE].__loader__, importlib.machinery.ExtensionFileLoader)
    tiny = np.finfo(np.float64).smallest_subnormal
    edges = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, tiny, -tiny, 1000 * tiny, 1e-300, -1e-300])
    x = np.concatenate([edges, np.linspace(-8.0, 8.0, 160_001)])
    assert np.array_equal(erf(x).view(np.uint64), scipy.special.erf(x).view(np.uint64))


@pytest.mark.parametrize("lookup", ["no extension file", "extension without erf"])
def test_erf_falls_back_to_scipy_special(fresh_erf, monkeypatch, lookup):
    if lookup == "no extension file":
        monkeypatch.delitem(sys.modules, _ERF_MODULE)
        monkeypatch.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [])
    else:
        monkeypatch.setitem(sys.modules, _ERF_MODULE, types.ModuleType(_ERF_MODULE))
    assert fresh_erf() is scipy.special.erf


def test_time_embedding_changes_output(four_node_graph):
    g = _noisy(four_node_graph, [4, 0, 17, 9])
    den = Denoiser(HP_SMALL)
    params = den.init_params(np.random.default_rng(3), g.R.shape[1])
    a = den.forward(g, 1, params).p_hat
    b = den.forward(g, 9, params).p_hat
    assert np.max(np.abs(a - b)) > 1e-8


def test_loss_zero_iff_one_hot_correct(four_node_graph):
    from gradus.denoiser import DenoiserOutput

    x0 = four_node_graph.x
    one_hot = x0[:, None] == np.arange(NUM_DEGREE_CLASSES)
    logits = np.where(one_hot, 1e4, -1e4)
    out = DenoiserOutput(logits=logits, p_hat=one_hot.astype(float))
    assert Denoiser.loss(out, x0) == pytest.approx(0.0, abs=1e-8)


def test_loss_uniform_closed_form(four_node_graph):
    from gradus.denoiser import DenoiserOutput

    n = four_node_graph.n
    logits = np.zeros((n, 18))
    out = DenoiserOutput(logits=logits, p_hat=np.full((n, 18), 1 / 18))
    assert Denoiser.loss(out, four_node_graph.x) == pytest.approx(n * math.log(18), rel=1e-12)


def test_gradients_match_finite_differences(four_node_graph):
    # Per-tensor relative error: |fd - analytic|_inf over the tensor's
    # gradient magnitude. h = 1e-5 central differences.
    den = Denoiser(HP_SMALL)
    params = den.init_params(np.random.default_rng(4), four_node_graph.R.shape[1])
    g = _noisy(four_node_graph, [5, 0, 17, 2])
    x0 = four_node_graph.x
    _, grads = den.backward(g, 3, params, x0, FlatGrads(params))
    h = 1e-5
    for name, w in params.items():
        fd = np.zeros_like(w)
        it = np.nditer(w, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = w[idx]
            w[idx] = orig + h
            up = Denoiser.loss(den.forward(g, 3, params), x0)
            w[idx] = orig - h
            down = Denoiser.loss(den.forward(g, 3, params), x0)
            w[idx] = orig
            fd[idx] = (up - down) / (2 * h)
        scale = max(np.max(np.abs(fd)), np.max(np.abs(grads[name])), 1e-12)
        rel = np.max(np.abs(fd - grads[name])) / scale
        assert rel < 1e-4, f"{name}: relative error {rel:.3e}"


def test_gradient_zero_at_perfect_fit(four_node_graph):
    # Saturate the output head so every node predicts class 0 exactly,
    # and target class 0: at the zero-loss point the gradient vanishes.
    den = Denoiser(HP_SMALL)
    params = den.init_params(np.random.default_rng(5), four_node_graph.R.shape[1])
    params["out.w"][:] = 0.0
    params["out.b"][:] = -1e3
    params["out.b"][0] = 0.0
    x0 = np.zeros(four_node_graph.n, dtype=np.int64)
    loss, grads = den.backward(four_node_graph, 1, params, x0, FlatGrads(params))
    norm = math.sqrt(sum(float(np.sum(gr * gr)) for gr in grads.values()))
    assert loss < 1e-6
    assert norm < 1e-8


def test_gradients_finite_random(four_node_graph):
    den = Denoiser(HP_SMALL)
    params = den.init_params(np.random.default_rng(6), four_node_graph.R.shape[1])
    g = _noisy(four_node_graph, [1, 2, 3, 4])
    _, grads = den.backward(g, 7, params, four_node_graph.x, FlatGrads(params))
    for name, gr in grads.items():
        assert np.all(np.isfinite(gr)), name


def test_train_deterministic(corpus, schedule, corpus_marginal):
    hp = DenoiserHyperparams(layers=1, hidden_dim=16, heads=2, epochs=3, batch_size=4)
    graphs = [build_graph(p) for p in corpus[:8]]
    runs = []
    for _ in range(2):
        res = train(Denoiser(hp), graphs, schedule, corpus_marginal, np.random.default_rng(42))
        runs.append(res.history)
    assert runs[0] == runs[1]


def test_train_empty_corpus(schedule, corpus_marginal):
    with pytest.raises(PhraseValidationError):
        train(Denoiser(HP_SMALL), [], schedule, corpus_marginal, np.random.default_rng(0))


def test_train_overfits_single_phrase(corpus, schedule, corpus_marginal):
    # Capacity sanity: 2000 steps on a one-phrase corpus reach per-node
    # loss below 0.05 (sum loss below 0.05 * n).
    hp = DenoiserHyperparams(
        layers=2, hidden_dim=32, heads=4, epochs=2000, batch_size=1, learning_rate=2e-3
    )
    g = build_graph(corpus[0])
    result = train(Denoiser(hp), [g], schedule, corpus_marginal, np.random.default_rng(0))
    assert result.history[-1][1] < 0.05


def test_loss_csv_row_count(tmp_path):
    history = [(1, 1.0, 2.0), (2, 0.5, 1.5), (3, 0.25, 1.25)]
    path = tmp_path / "loss.csv"
    write_loss_csv(path, history)
    lines = path.read_text().strip().splitlines()
    assert len(lines) == 3
    assert lines[0].split(",")[0] == "1"


def test_checkpoint_round_trip(tmp_path, four_node_graph):
    den = Denoiser(HP_SMALL)
    params = den.init_params(np.random.default_rng(8), four_node_graph.R.shape[1])
    ckpt = Checkpoint(
        hp=HP_SMALL,
        params=params,
        marginal=np.full(18, 1 / 18),
        r_names=("duration", "offset", "strength"),
        schedule_T=10,
        schedule_s=0.008,
    )
    path = tmp_path / "model.npz"
    save_checkpoint(path, ckpt)
    loaded = load_checkpoint(path)
    assert loaded.hp == HP_SMALL
    assert loaded.r_names == ckpt.r_names
    assert sorted(loaded.params) == sorted(params)
    for k in params:
        assert np.array_equal(loaded.params[k], params[k])
    out_a = den.forward(four_node_graph, 2, params).p_hat
    out_b = den.forward(four_node_graph, 2, loaded.params).p_hat
    assert np.array_equal(out_a, out_b)


def _save_small_checkpoint(path, graph):
    params = Denoiser(HP_SMALL).init_params(np.random.default_rng(8), graph.R.shape[1])
    r_names = ("duration", "offset", "strength")
    save_checkpoint(path, Checkpoint(HP_SMALL, params, np.full(18, 1 / 18), r_names, 10, 0.008))


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.npz"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


@pytest.mark.parametrize("damage", ["truncated", "flipped-byte", "npy-array"])
def test_checkpoint_rejects_damaged_container(tmp_path, four_node_graph, damage):
    # A checkpoint cut in half, one with a byte of a weight member flipped,
    # which fails that member's CRC, and a single .npy array.
    path = tmp_path / "bad.npz"
    _save_small_checkpoint(path, four_node_graph)
    data = bytearray(path.read_bytes())
    if damage == "truncated":
        del data[len(data) // 2 :]
    elif damage == "flipped-byte":
        data[len(data) // 2] ^= 0xFF
    else:
        buffer = io.BytesIO()
        np.save(buffer, np.arange(3))
        data = buffer.getvalue()
    path.write_bytes(bytes(data))
    with pytest.raises(CheckpointError, match="cannot read checkpoint"):
        load_checkpoint(path)


def _edit_meta(edit):
    def apply(arrays):
        meta = edit(json.loads(bytes(arrays["__meta__"]).decode()))
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
    return apply


def _cut(name, shape):
    def apply(arrays):
        arrays[name] = arrays[name][tuple(slice(n) for n in shape)]
    return apply


# Per case: a change to a saved checkpoint's arrays, and the words the
# refusal must hold.
_BROKEN_CHECKPOINTS = {
    "non-json-manifest": (
        lambda a: a.update(__meta__=np.frombuffer(b"{not json", dtype=np.uint8)), "is not JSON"
    ),
    "list-manifest": (_edit_meta(lambda meta: [meta]), "is not a JSON object"),
    "no-hyperparams": (
        _edit_meta(lambda meta: {k: v for k, v in meta.items() if k != "hyperparams"}), "'hyperparams'"
    ),
    "unknown-hyperparameter": (
        _edit_meta(lambda meta: {**meta, "hyperparams": {**meta["hyperparams"], "depth": 3}}),
        "bad hyperparameters",
    ),
    "zero-heads": (
        _edit_meta(lambda meta: {**meta, "hyperparams": {**meta["hyperparams"], "heads": 0}}),
        "bad hyperparameters: heads must be at least 1, not 0",
    ),
    "no-marginal": (lambda a: a.pop("__marginal__"), "is not a recognized checkpoint"),
    "cut-weight": (_cut("w::l0.attn.wq", (8, 4)), "'l0.attn.wq' has shape (8, 4), not (8, 8)"),
    "cut-marginal": (_cut("__marginal__", (17,)), "'__marginal__' has shape (17,), not (18,)"),
}


@pytest.mark.parametrize("case", sorted(_BROKEN_CHECKPOINTS))
def test_checkpoint_refuses_malformed_manifest_or_shapes(tmp_path, four_node_graph, case):
    # Each fault is refused as CheckpointError (exit 1 from the CLI),
    # never as the error the reading code would raise on it.
    path = tmp_path / "model.npz"
    _save_small_checkpoint(path, four_node_graph)
    with np.load(path) as data:
        arrays = {name: data[name] for name in data.files}
    edit, words = _BROKEN_CHECKPOINTS[case]
    edit(arrays)
    np.savez(path, **arrays)
    with pytest.raises(CheckpointError, match=re.escape(words)):
        load_checkpoint(path)


def test_param_count_reported():
    den = Denoiser(HP_SMALL)
    params = den.init_params(np.random.default_rng(0), 3)
    assert param_count(params) == sum(w.size for w in params.values())
    assert param_count(params) > 0
