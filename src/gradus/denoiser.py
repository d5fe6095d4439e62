"""Denoising network predicting clean node classes from a noised graph.

Node classes arrive as integer vectors, as every module keeps them; the
network's input rows are the one place they become one-hot.

A small pre-norm transformer over graph nodes whose attention logits get
an additive learned bias per edge class of each node pair, so the frozen
edge classes shape message passing. Everything is plain numpy with
hand-derived gradients; training therefore stays bit-reproducible for a
fixed seed, and the backward pass is checked against finite differences
in the test suite. Attention, forward and backward, is a batched matmul
with one product per (candidate, head), and the optimizer steps all
parameters as one flat buffer.

Training allocates nothing per parameter per step: ``backward``
accumulates into views of one flat gradient buffer that ``train`` zeroes
before each batch and ``Adam.step`` reads in place. Validation draws its
(t, noise) pairs once per run and forwards them as stacks of candidates,
each with its own step.
"""

from __future__ import annotations

import csv
import importlib.machinery
import importlib.util
import json
import math
import os
import sys
import zipfile
from dataclasses import asdict, dataclass
from functools import lru_cache
from pathlib import Path
from typing import NamedTuple, Optional, Sequence

import numpy as np

from .errors import CheckpointError, PhraseValidationError, _get
from .graph import NUM_EDGE_CLASSES, ScoreGraph
from .pitch import NUM_DEGREE_CLASSES
from .schedule import NoiseSchedule, forward_sample

_LN_EPS = 1e-5
_SQRT2 = math.sqrt(2.0)
_SQRT2PI = math.sqrt(2.0 * math.pi)
# Validation forwards each graph's draws in stacks of at most this many
# candidates, the example config's guidance stack; larger stacks cost
# peak memory for little further speed.
_VAL_STACK = 8


@dataclass(frozen=True)
class DenoiserHyperparams:
    layers: int = 4
    hidden_dim: int = 256
    heads: int = 8
    T: int = 100
    epochs: int = 150
    batch_size: int = 8
    learning_rate: float = 3e-4
    val_split: float = 0.1
    mlp_ratio: int = 4

    def __post_init__(self):
        for name in ("heads", "hidden_dim", "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise PhraseValidationError(f"{name} must be at least 1, not {getattr(self, name)}")
        if self.hidden_dim % self.heads != 0:
            raise PhraseValidationError("hidden_dim must be divisible by heads")
        if not 0.0 < self.val_split < 1.0:
            raise PhraseValidationError("val_split must lie in (0, 1)")

    @staticmethod
    def toy() -> "DenoiserHyperparams":
        """Desk-scale profile for CI and quick experiments; single-graph
        steps and a hotter learning rate suit ~20-phrase corpora."""
        return DenoiserHyperparams(
            layers=2, hidden_dim=32, heads=4, epochs=30, batch_size=1, learning_rate=2e-3
        )


class GraphConstants(NamedTuple):
    """What a forward pass reads from a graph and the parameters but not
    from node classes or the step (``Denoiser.constants``)."""

    edge_bias: tuple[np.ndarray, ...]  # per layer, (heads, n, n): each pair's learned edge-class bias
    rhythm: np.ndarray  # (K*n, |features|): the rhythm columns of a stack of up to K candidates


def _discard(**arrays) -> None:
    """Stands in for a layer cache's update when no cache is kept."""


@dataclass(frozen=True)
class DenoiserOutput:
    logits: np.ndarray
    p_hat: np.ndarray  # row-stochastic (n, |classes|), or (K, n, |classes|) for a stack


def param_count(params: dict[str, np.ndarray]) -> int:
    return sum(int(w.size) for w in params.values())


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


@lru_cache(maxsize=None)
def time_embedding(t: int, T: int, dim: int) -> np.ndarray:
    """Sinusoidal features of the normalized step t/T; memoised, so the
    array is read-only."""
    half = dim // 2
    u = t / T
    if half == 1:
        freqs = np.array([math.pi / 2])
    else:
        freqs = (math.pi / 2) * np.power(1000.0, np.arange(half) / (half - 1))
    out = np.concatenate([np.sin(u * freqs), np.cos(u * freqs)])
    out.flags.writeable = False
    return out


_ERF_MODULE = "scipy.special._special_ufuncs"


@lru_cache(maxsize=None)
def _erf():
    """scipy's erf ufunc, loaded on the first GELU from the one extension
    that defines it, entered in ``sys.modules`` under its own name.

    The extension alone costs about 1 MB and a few ms. The
    ``scipy.special`` package costs about 0.2 s and 25 MB, most of it the
    OpenBLAS that its ``_ufuncs`` links; ``ingest``, ``fuse`` and
    ``render`` load neither. A later ``import scipy.special`` reuses the
    module, so its ``erf`` is this very ufunc. A scipy without that
    extension, or whose erf lives elsewhere, gets the package's."""
    module = sys.modules.get(_ERF_MODULE)
    if module is None:
        scipy_dir = importlib.util.find_spec("scipy").submodule_search_locations[0]
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(scipy_dir, "special", "_special_ufuncs" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(_ERF_MODULE, path)
                spec = importlib.util.spec_from_file_location(_ERF_MODULE, path, loader=loader)
                module = importlib.util.module_from_spec(spec)
                loader.exec_module(module)
                sys.modules[_ERF_MODULE] = module
                break
    erf = getattr(module, "erf", None)
    if erf is None:
        from scipy.special import erf
    return erf


def _gelu(x: np.ndarray, overwrite: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """GELU(x) = 0.5 x (1 + erf(x / sqrt 2)), and the 1 + erf term, which
    the backward pass reuses. With ``overwrite`` the result is written
    into x, with the same rounding."""
    one_erf = np.divide(x, _SQRT2)
    _erf()(one_erf, out=one_erf)
    one_erf += 1.0
    act = np.multiply(x, 0.5, out=x if overwrite else None)
    act *= one_erf
    return act, one_erf


def _gelu_grad(x: np.ndarray, one_erf: np.ndarray) -> np.ndarray:
    """d GELU / dx from x and the 1 + erf(x / sqrt 2) that ``_gelu`` kept."""
    pdf = -0.5 * x
    pdf *= x
    np.exp(pdf, out=pdf)
    pdf /= _SQRT2PI
    pdf *= x
    grad = 0.5 * one_erf
    grad += pdf
    return grad


def _per_candidate(x: np.ndarray, w: np.ndarray, K: int) -> np.ndarray:
    """x @ w over the (K*n, d) rows of K stacked candidates, one BLAS
    product per candidate. BLAS picks its kernels, and so its summation
    order, by matrix size (on OpenBLAS the (K*n, 32) @ (32, 18) output
    projection rounds some rows differently from (n, 32) @ (32, 18)); per
    candidate products give every candidate the bits of its own pass.
    A single graph skips the stacked matmul's dispatch, which costs about
    a microsecond a call and adds up over training."""
    if K == 1:
        return x @ w
    return (x.reshape(K, -1, x.shape[1]) @ w).reshape(x.shape[0], w.shape[1])


def _layer_norm(x: np.ndarray, g: np.ndarray, b: np.ndarray):
    # The steps of x.mean and x.var, with the centred rows computed once.
    d = x.shape[1]
    xhat = x - x.sum(axis=1, keepdims=True) / d
    sigma = np.sqrt((xhat * xhat).sum(axis=1, keepdims=True) / d + _LN_EPS)
    xhat /= sigma
    out = xhat * g
    out += b
    return out, (xhat, sigma)

def _layer_norm_backward(dy: np.ndarray, g: np.ndarray, cache) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xhat, sigma = cache
    d = dy.shape[1]
    dg = (dy * xhat).sum(axis=0)
    db = dy.sum(axis=0)
    dxhat = dy * g
    # The steps of .mean(axis=1), without its per-call dispatch.
    mean_dxhat = dxhat.sum(axis=1, keepdims=True) / d
    mean_dxhat_xhat = (dxhat * xhat).sum(axis=1, keepdims=True) / d
    dx = (dxhat - mean_dxhat - xhat * mean_dxhat_xhat) / sigma
    return dx, dg, db


class Denoiser:
    """phi_theta: noised graph plus step index -> clean-class probabilities."""

    def __init__(self, hp: DenoiserHyperparams):
        self.hp = hp

    # -- parameters ----------------------------------------------------

    def input_dim(self, n_rhythm_features: int) -> int:
        return NUM_DEGREE_CLASSES + n_rhythm_features

    def init_params(self, rng: np.random.Generator, n_rhythm_features: int) -> dict[str, np.ndarray]:
        hp = self.hp
        h = hp.hidden_dim
        din = self.input_dim(n_rhythm_features)
        p: dict[str, np.ndarray] = {
            "in.w": _glorot(rng, din, h),
            "in.b": np.zeros(h),
            "time.w": _glorot(rng, 2 * (h // 2), h),
            "time.b": np.zeros(h),
        }
        for i in range(hp.layers):
            pre = f"l{i}."
            p[pre + "ln1.g"] = np.ones(h)
            p[pre + "ln1.b"] = np.zeros(h)
            p[pre + "attn.wq"] = _glorot(rng, h, h)
            p[pre + "attn.wk"] = _glorot(rng, h, h)
            p[pre + "attn.wv"] = _glorot(rng, h, h)
            p[pre + "attn.wo"] = _glorot(rng, h, h)
            p[pre + "attn.eb"] = np.zeros((hp.heads, NUM_EDGE_CLASSES))
            p[pre + "ln2.g"] = np.ones(h)
            p[pre + "ln2.b"] = np.zeros(h)
            p[pre + "mlp.w1"] = _glorot(rng, h, hp.mlp_ratio * h)
            p[pre + "mlp.b1"] = np.zeros(hp.mlp_ratio * h)
            p[pre + "mlp.w2"] = _glorot(rng, hp.mlp_ratio * h, h)
            p[pre + "mlp.b2"] = np.zeros(h)
        p["out.ln.g"] = np.ones(h)
        p["out.ln.b"] = np.zeros(h)
        p["out.w"] = _glorot(rng, h, NUM_DEGREE_CLASSES)
        p["out.b"] = np.zeros(NUM_DEGREE_CLASSES)
        return p

    # -- forward -------------------------------------------------------

    def constants(self, graph: ScoreGraph, params: dict[str, np.ndarray], K: int = 1) -> GraphConstants:
        """What ``forward`` reads from the graph and the parameters alone,
        for stacks of up to K candidates on ``graph``. Valid while the
        parameters are: training changes them in place, so nothing keeps
        these; a caller that forwards one graph many times with fixed
        parameters builds them once and passes them in."""
        return GraphConstants(
            edge_bias=tuple(params[f"l{i}.attn.eb"][:, graph.ec] for i in range(self.hp.layers)),
            rhythm=np.tile(graph.R, (K, 1)),
        )

    def forward(
        self,
        graph: ScoreGraph,
        t: int | Sequence[int],
        params: dict[str, np.ndarray],
        want_cache: bool = False,
        consts: Optional[GraphConstants] = None,
    ):
        """Clean-class predictions for ``graph`` at step t.

        ``graph.x`` is either one class vector (n,) or a stack (K, n) of
        candidates sharing the graph's edges and rhythm columns; the
        output adds a class axis to that shape. ``t`` is one step for every
        candidate, or a sequence of K steps, one per candidate. Candidates
        never mix: every product is per candidate (attention is a batched
        matmul with one (n, n) or (n, dh) product per candidate and head),
        so each one's rows equal a forward pass on it alone at its step,
        bit for bit. ``consts`` is ``constants(graph, params, K')`` for
        some K' >= K, built here when not given. The cache that
        ``backward`` reads is kept for a single graph only; without it,
        each intermediate is released once the next one is made, and the
        residual adds run in place.
        """
        hp = self.hp
        per_row = np.ndim(t) > 0
        steps = list(t) if per_row else [t]
        for step in steps:
            if not 0 <= step <= hp.T:
                raise PhraseValidationError(f"step {step} outside 0..{hp.T}")
        n = graph.n
        K = graph.x.size // n
        if consts is None:
            consts = self.constants(graph, params, K)
        # [one-hot x || R] rows, one per node of each candidate.
        one_hot = graph.x.reshape(-1, 1) == np.arange(NUM_DEGREE_CLASSES)
        x_in = np.concatenate([one_hot, consts.rhythm[: K * n]], axis=1)
        if x_in.shape[1] != params["in.w"].shape[0]:
            raise PhraseValidationError(
                f"input width {x_in.shape[1]} does not match parameters "
                f"({params['in.w'].shape[0]}); check rhythm feature flags"
            )
        h = hp.hidden_dim
        heads, dh = hp.heads, h // hp.heads
        scale = 1.0 / math.sqrt(dh)

        if per_row and len(steps) != K:
            raise PhraseValidationError(f"{len(steps)} steps for a stack of {K} candidates")
        # One (h,) product per step, as for a single graph; per-candidate
        # steps are each repeated over their candidate's n rows.
        tvecs = [time_embedding(s, hp.T, 2 * (h // 2)) @ params["time.w"] + params["time.b"] for s in steps]
        tvec = np.repeat(tvecs, n, axis=0) if per_row else tvecs[0]
        H = _per_candidate(x_in, params["in.w"], K) + params["in.b"]

        cache = {"x_in": x_in, "layers": []} if want_cache else None
        for i in range(hp.layers):
            pre = f"l{i}."
            # keep() records what backward reads; each ``del`` then frees
            # an array unless the cache holds it.
            lc: dict = {}
            keep = lc.update if want_cache else _discard
            H += tvec  # h_in
            z1, ln1 = _layer_norm(H, params[pre + "ln1.g"], params[pre + "ln1.b"])
            # (K, heads, n, dh) views: one matmul per (candidate, head).
            q, k, v = (
                _per_candidate(z1, params[pre + w], K).reshape(K, n, heads, dh).transpose(0, 2, 1, 3)
                for w in ("attn.wq", "attn.wk", "attn.wv")
            )
            keep(z1=z1, ln1=ln1, q=q[0], k=k[0], v=v[0])
            del z1, ln1
            # Scores become the attention weights in place: a stack of
            # candidates keeps one (K, heads, n, n) array, not four.
            attn = q @ k.transpose(0, 1, 3, 2)
            del q, k
            attn *= scale
            attn += consts.edge_bias[i]
            attn -= attn.max(axis=3, keepdims=True)
            np.exp(attn, out=attn)
            attn /= attn.sum(axis=3, keepdims=True)
            heads_out = (attn @ v).transpose(0, 2, 1, 3).reshape(K * n, h)
            keep(attn=attn[0], heads_out=heads_out)
            del attn, v
            attn_out = _per_candidate(heads_out, params[pre + "attn.wo"], K)
            del heads_out
            H += attn_out  # h_mid = h_in + attn_out
            del attn_out

            z2, ln2 = _layer_norm(H, params[pre + "ln2.g"], params[pre + "ln2.b"])
            mlp_pre = _per_candidate(z2, params[pre + "mlp.w1"], K)
            mlp_pre += params[pre + "mlp.b1"]
            keep(z2=z2, ln2=ln2, mlp_pre=mlp_pre)
            del z2, ln2
            act, one_erf = _gelu(mlp_pre, overwrite=not want_cache)
            keep(act=act, one_erf=one_erf)
            del mlp_pre, one_erf
            mlp_out = _per_candidate(act, params[pre + "mlp.w2"], K)
            del act
            mlp_out += params[pre + "mlp.b2"]
            H += mlp_out  # h_mid + mlp_out
            del mlp_out
            if want_cache:
                cache["layers"].append(lc)

        zf, lnf_c = _layer_norm(H, params["out.ln.g"], params["out.ln.b"])
        logits = _per_candidate(zf, params["out.w"], K) + params["out.b"]
        shifted = logits - logits.max(axis=1, keepdims=True)
        exps = np.exp(shifted)
        p_hat = exps / exps.sum(axis=1, keepdims=True)
        out_shape = graph.x.shape + (logits.shape[1],)
        output = DenoiserOutput(logits=logits.reshape(out_shape), p_hat=p_hat.reshape(out_shape))
        if want_cache:
            cache["zf"] = zf
            cache["lnf"] = lnf_c
            cache["p_hat"] = p_hat
            return output, cache
        return output

    # -- loss and gradients ---------------------------------------------

    @staticmethod
    def loss(output: DenoiserOutput, x0: np.ndarray) -> float:
        """Sum over nodes of categorical cross-entropy against classes x0."""
        logits = output.logits
        logz = np.log(np.exp(logits - logits.max(axis=1, keepdims=True)).sum(axis=1))
        logz += logits.max(axis=1)
        true_logit = logits[np.arange(len(x0)), x0]
        return float(np.sum(logz - true_logit))

    def backward(
        self,
        graph: ScoreGraph,
        t: int,
        params: dict[str, np.ndarray],
        x0: np.ndarray,
        grads: dict[str, np.ndarray],
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Loss against clean classes x0, plus exact analytic gradients for
        every parameter tensor, added (+=) into ``grads`` and returned."""
        hp = self.hp
        output, cache = self.forward(graph, t, params, want_cache=True)
        loss = self.loss(output, x0)
        n = len(x0)
        h = hp.hidden_dim
        heads, dh = hp.heads, h // hp.heads
        scale = 1.0 / math.sqrt(dh)
        ec = graph.ec

        dlogits = cache["p_hat"].copy()
        dlogits[np.arange(n), x0] -= 1.0
        grads["out.w"] += cache["zf"].T @ dlogits
        grads["out.b"] += dlogits.sum(axis=0)
        dzf = dlogits @ params["out.w"].T
        dH, dg, db = _layer_norm_backward(dzf, params["out.ln.g"], cache["lnf"])
        grads["out.ln.g"] += dg
        grads["out.ln.b"] += db

        dtvec = np.zeros(h)
        for i in reversed(range(hp.layers)):
            pre = f"l{i}."
            lc = cache["layers"][i]
            # MLP block
            dmlp_out = dH
            grads[pre + "mlp.w2"] += lc["act"].T @ dmlp_out
            grads[pre + "mlp.b2"] += dmlp_out.sum(axis=0)
            dact = dmlp_out @ params[pre + "mlp.w2"].T
            dmlp_pre = dact * _gelu_grad(lc["mlp_pre"], lc["one_erf"])
            grads[pre + "mlp.w1"] += lc["z2"].T @ dmlp_pre
            grads[pre + "mlp.b1"] += dmlp_pre.sum(axis=0)
            dz2 = dmlp_pre @ params[pre + "mlp.w1"].T
            dh_mid, dg, db = _layer_norm_backward(dz2, params[pre + "ln2.g"], lc["ln2"])
            dh_mid = dh_mid + dH  # residual
            # attention block
            dattn_out = dh_mid
            grads[pre + "attn.wo"] += lc["heads_out"].T @ dattn_out
            grads[pre + "ln2.g"] += dg
            grads[pre + "ln2.b"] += db
            # q, k, v, attn and the head gradients are (heads, n, .) views.
            q, k, v, attn = lc["q"], lc["k"], lc["v"], lc["attn"]
            dheads = (dattn_out @ params[pre + "attn.wo"].T).reshape(n, heads, dh).transpose(1, 0, 2)
            dP = dheads @ v.transpose(0, 2, 1)
            dS = attn * (dP - (dP * attn).sum(axis=2, keepdims=True))
            eb_grad = grads[pre + "attn.eb"]
            for e in range(NUM_EDGE_CLASSES):
                mask = ec == e
                if mask.any():
                    eb_grad[:, e] += dS[:, mask].sum(axis=1)
            dq = (dS @ k * scale).transpose(1, 0, 2).reshape(n, h)
            dk = (dS.transpose(0, 2, 1) @ q * scale).transpose(1, 0, 2).reshape(n, h)
            dv = (attn.transpose(0, 2, 1) @ dheads).transpose(1, 0, 2).reshape(n, h)
            z1 = lc["z1"]
            grads[pre + "attn.wq"] += z1.T @ dq
            grads[pre + "attn.wk"] += z1.T @ dk
            grads[pre + "attn.wv"] += z1.T @ dv
            dz1 = (
                dq @ params[pre + "attn.wq"].T
                + dk @ params[pre + "attn.wk"].T
                + dv @ params[pre + "attn.wv"].T
            )
            dh_in, dg, db = _layer_norm_backward(dz1, params[pre + "ln1.g"], lc["ln1"])
            dh_in = dh_in + dh_mid  # residual
            grads[pre + "ln1.g"] += dg
            grads[pre + "ln1.b"] += db
            dtvec += dh_in.sum(axis=0)
            dH = dh_in

        grads["in.w"] += cache["x_in"].T @ dH
        grads["in.b"] += dH.sum(axis=0)
        grads["time.w"] += np.outer(time_embedding(t, hp.T, 2 * (h // 2)), dtvec)
        grads["time.b"] += dtvec
        return loss, grads


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------

@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    history: list[tuple[int, float, float]]  # (epoch, train_loss, val_loss) per node


def _flat_views(flat: np.ndarray, like: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    """Views of ``flat`` shaped as the tensors of ``like``, in its order."""
    views, offset = {}, 0
    for k, w in like.items():
        views[k] = flat[offset : offset + w.size].reshape(w.shape)
        offset += w.size
    return views


class FlatGrads(dict):
    """Gradient tensors that are views of one flat buffer, ``flat``, laid
    out in the order of the parameters they were made for: the layout of
    ``Adam``'s buffer, so ``Adam.step`` reads ``flat`` whole."""

    def __init__(self, params: dict[str, np.ndarray]):
        self.flat = np.zeros(param_count(params))
        super().__init__(_flat_views(self.flat, params))


class Adam:
    """Adam over one flat float64 buffer.

    The constructor copies the parameter tensors into the buffer and
    rebinds each ``params[k]`` to a view of it, so ``step`` updates every
    tensor with one run of whole-buffer operations. Each element gets the
    operations, and the rounding, of a per-tensor update.
    """

    def __init__(self, params: dict[str, np.ndarray], lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.flat = np.concatenate([np.ravel(w) for w in params.values()])
        params.update(_flat_views(self.flat, params))
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)
        self._scratch = np.empty_like(self.flat)
        self._update = np.empty_like(self.flat)
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: FlatGrads):
        """Update the buffer that ``params`` views, in place, from the flat
        buffer of ``grads``, made for the same parameters, which it reads
        in place and leaves as it is."""
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        m, v, s, u, g = self.m, self.v, self._scratch, self._update, grads.flat
        # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) g g
        m *= self.beta1
        np.multiply(g, 1 - self.beta1, out=s)
        m += s
        v *= self.beta2
        np.multiply(g, 1 - self.beta2, out=s)
        s *= g
        v += s
        # flat -= lr (m / b1c) / (sqrt(v / b2c) + eps), in u and s
        np.divide(m, b1c, out=u)
        u *= self.lr
        np.divide(v, b2c, out=s)
        np.sqrt(s, out=s)
        s += self.eps
        u /= s
        self.flat -= u


def train(
    denoiser: Denoiser,
    graphs: Sequence[ScoreGraph],
    schedule: NoiseSchedule,
    marginal: np.ndarray,
    rng: np.random.Generator,
    val_draws: int = 16,
) -> TrainResult:
    """Noise-and-reconstruct training over corpus graphs.

    Per step a graph and a uniform step t in 1..T are drawn, the clean
    node matrix is corrupted through the schedule, and the summed node
    cross-entropy is minimized with Adam. The gradients of a batch add up
    in one flat buffer, zeroed before the batch and divided by its size.
    Validation uses (t, noise) draws fixed once per run, so its loss is
    comparable across epochs. Reported losses are per node.
    """
    hp = denoiser.hp
    if not graphs:
        raise PhraseValidationError("empty corpus")
    for g in graphs:
        if not g.has_labels:
            raise PhraseValidationError("training graphs must carry node labels")
    n_features = graphs[0].R.shape[1]
    perm = rng.permutation(len(graphs))
    n_val = min(int(round(hp.val_split * len(graphs))), len(graphs) - 1)
    val_idx = perm[:n_val]
    train_idx = perm[n_val:]
    if len(train_idx) == 0:
        raise PhraseValidationError("empty training set")

    # Fixed before parameter init so runs that differ only in feature
    # width still validate on identical (t, noise) draws.
    val_seed = int(rng.integers(2**63))
    params = denoiser.init_params(rng, n_features)
    opt = Adam(params, hp.learning_rate)
    grads = FlatGrads(params)

    # Every validation (t, x_t) pair, drawn once in graph-then-draw order,
    # as (clean x, stacked graph, steps) per stack of one graph's draws.
    vrng = np.random.default_rng(val_seed)
    val_stacks = []
    for gi in val_idx:
        g = graphs[gi]
        draws = []
        for _ in range(val_draws):
            t = int(vrng.integers(1, hp.T + 1))
            draws.append((t, forward_sample(g.x, t, schedule, marginal, vrng)))
        for start in range(0, val_draws, _VAL_STACK):
            chunk = draws[start : start + _VAL_STACK]
            val_stacks.append((g.x, g.with_x(np.stack([xt for _, xt in chunk])), [t for t, _ in chunk]))
    val_nodes = val_draws * sum(graphs[gi].n for gi in val_idx)

    def validation_loss() -> float:
        if len(val_idx) == 0:
            return float("nan")
        total = 0.0
        for x0, stack, steps in val_stacks:
            out = denoiser.forward(stack, steps, params)
            for logits, p_hat in zip(out.logits, out.p_hat):
                total += denoiser.loss(DenoiserOutput(logits, p_hat), x0)
        return total / val_nodes

    history: list[tuple[int, float, float]] = []
    for epoch in range(1, hp.epochs + 1):
        order = rng.permutation(train_idx)
        total, nodes = 0.0, 0
        for start in range(0, len(order), hp.batch_size):
            batch = order[start : start + hp.batch_size]
            grads.flat.fill(0.0)
            for gi in batch:
                g = graphs[gi]
                t = int(rng.integers(1, hp.T + 1))
                xt = forward_sample(g.x, t, schedule, marginal, rng)
                loss, _ = denoiser.backward(g.with_x(xt), t, params, g.x, grads)
                total += loss
                nodes += g.n
            grads.flat /= len(batch)
            opt.step(params, grads)
        history.append((epoch, total / nodes, validation_loss()))
    return TrainResult(params=params, history=history)


def write_loss_csv(path: str | Path, history: Sequence[tuple[int, float, float]]) -> None:
    """One row per epoch: epoch, train_loss, val_loss (no header row)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for epoch, tr, va in history:
            writer.writerow([epoch, f"{tr:.10g}", f"{va:.10g}"])


# ----------------------------------------------------------------------
# Checkpoints
# ----------------------------------------------------------------------

CHECKPOINT_VERSION = "gradus-checkpoint-v1"


@dataclass(frozen=True)
class Checkpoint:
    hp: DenoiserHyperparams
    params: dict[str, np.ndarray]
    marginal: np.ndarray
    r_names: tuple[str, ...]
    schedule_T: int
    schedule_s: float


def save_checkpoint(path: str | Path, ckpt: Checkpoint) -> None:
    meta = {
        "version": CHECKPOINT_VERSION,
        "hyperparams": asdict(ckpt.hp),
        "r_names": list(ckpt.r_names),
        "schedule_T": ckpt.schedule_T,
        "schedule_s": ckpt.schedule_s,
        "weights": sorted(ckpt.params),
    }
    arrays = {f"w::{k}": v for k, v in ckpt.params.items()}
    with open(path, "wb") as fh:
        np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8),
                 __marginal__=ckpt.marginal, **arrays)


def load_checkpoint(path: str | Path) -> Checkpoint:
    """The checkpoint saved at path. A file that is not one or is damaged,
    a malformed manifest, or an array whose shape the manifest does not
    give raises CheckpointError, naming the first fault."""
    try:
        with open(path, "rb") as fh, np.lib.npyio.NpzFile(fh, allow_pickle=False) as npz:
            data = {name: npz[name] for name in npz.files}
    except (OSError, ValueError, zipfile.BadZipFile) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if "__meta__" not in data or "__marginal__" not in data:
        raise CheckpointError(f"{path} is not a recognized checkpoint")
    where = f"checkpoint manifest of {path}"
    try:
        meta = json.loads(bytes(data["__meta__"]).decode())
    except ValueError as exc:  # not UTF-8, or not JSON
        raise CheckpointError(f"{where} is not JSON: {exc}") from exc
    if not isinstance(meta, dict):
        raise CheckpointError(f"{where} is not a JSON object")
    if meta.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {meta.get('version')!r}")
    r_names = tuple(_get(meta, "r_names", list, where, error=CheckpointError))
    try:
        hp = DenoiserHyperparams(**_get(meta, "hyperparams", dict, where, error=CheckpointError))
        expected = Denoiser(hp).init_params(np.random.default_rng(0), len(r_names))
    except (TypeError, ValueError, PhraseValidationError) as exc:
        raise CheckpointError(f"{where} has bad hyperparameters: {exc}") from exc
    params = {k[3:]: v for k, v in data.items() if k.startswith("w::")}
    names = _get(meta, "weights", list, where, error=CheckpointError)
    if sorted(params) != names or params.keys() != expected.keys():
        raise CheckpointError("checkpoint weight arrays do not match its manifest")
    marginal = data["__marginal__"]
    shapes = {k: v.shape for k, v in expected.items()} | {"__marginal__": (NUM_DEGREE_CLASSES,)}
    for name, array in [*sorted(params.items()), ("__marginal__", marginal)]:
        if array.shape != shapes[name]:
            raise CheckpointError(f"checkpoint array {name!r} has shape {array.shape}, not {shapes[name]}")
    return Checkpoint(
        hp=hp,
        params=params,
        marginal=marginal,
        r_names=r_names,
        schedule_T=_get(meta, "schedule_T", int, where, error=CheckpointError),
        schedule_s=_get(meta, "schedule_s", float, where, error=CheckpointError),
    )
