"""Reference denoiser pass and optimizer: what gradus.denoiser is tested against.

``EinsumDenoiser`` computes attention, forward and backward, with one
4-index ``np.einsum`` per product, the plainest statement of each sum,
and GELU from its formula; it builds its own one-hot input rows and
targets from the graph's class vectors. ``PerTensorAdam`` updates each
parameter tensor on its own with fresh temporaries. ``reference_train``
is the plain training loop: a zeroed gradient dict per graph and per
batch, stepped by ``PerTensorAdam``, and validation that redraws its
(t, noise) pairs every epoch and forwards them one at a time. The package's batched-matmul attention, flat-buffer
Adam and allocation-free training loop must agree with these: the
attention within rounding, the optimizer and the training run bit for
bit.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import erf

from gradus.denoiser import (
    Denoiser,
    DenoiserOutput,
    TrainResult,
    _layer_norm,
    _layer_norm_backward,
    _per_candidate,
    time_embedding,
)
from gradus.errors import PhraseValidationError
from gradus.graph import NUM_EDGE_CLASSES
from gradus.pitch import NUM_DEGREE_CLASSES
from gradus.schedule import forward_sample


def _gelu(x):
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def _gelu_grad(x):
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return cdf + x * pdf


def _one_hot(classes):
    return np.eye(NUM_DEGREE_CLASSES)[classes]


class EinsumDenoiser(Denoiser):
    def forward(self, graph, t, params, want_cache=False):
        hp = self.hp
        n = graph.n
        K = graph.x.size // n
        x_in = np.hstack([_one_hot(graph.x.reshape(-1)), np.vstack([graph.R] * K)])
        h = hp.hidden_dim
        heads, dh = hp.heads, h // hp.heads
        scale = 1.0 / math.sqrt(dh)
        ec = graph.ec

        temb = time_embedding(t, hp.T, 2 * (h // 2))
        tvec = temb @ params["time.w"] + params["time.b"]
        H = _per_candidate(x_in, params["in.w"], K) + params["in.b"]

        cache = {"x_in": x_in, "temb": temb, "layers": []} if want_cache else None
        for i in range(hp.layers):
            pre = f"l{i}."
            h_in = H + tvec
            z1, ln1_c = _layer_norm(h_in, params[pre + "ln1.g"], params[pre + "ln1.b"])
            q = _per_candidate(z1, params[pre + "attn.wq"], K).reshape(K, n, heads, dh)
            k = _per_candidate(z1, params[pre + "attn.wk"], K).reshape(K, n, heads, dh)
            v = _per_candidate(z1, params[pre + "attn.wv"], K).reshape(K, n, heads, dh)
            scores = np.einsum("kiad,kjad->kaij", q, k) * scale
            scores = scores + params[pre + "attn.eb"][:, ec]
            scores -= scores.max(axis=3, keepdims=True)
            exps = np.exp(scores)
            attn = exps / exps.sum(axis=3, keepdims=True)
            heads_out = np.einsum("kaij,kjad->kiad", attn, v).reshape(K * n, h)
            attn_out = _per_candidate(heads_out, params[pre + "attn.wo"], K)
            h_mid = h_in + attn_out

            z2, ln2_c = _layer_norm(h_mid, params[pre + "ln2.g"], params[pre + "ln2.b"])
            mlp_pre = _per_candidate(z2, params[pre + "mlp.w1"], K) + params[pre + "mlp.b1"]
            act = _gelu(mlp_pre)
            mlp_out = _per_candidate(act, params[pre + "mlp.w2"], K) + params[pre + "mlp.b2"]
            H = h_mid + mlp_out

            if want_cache:
                cache["layers"].append(
                    {
                        "z1": z1, "ln1": ln1_c, "q": q[0], "k": k[0], "v": v[0], "attn": attn[0],
                        "heads_out": heads_out, "z2": z2, "ln2": ln2_c,
                        "mlp_pre": mlp_pre, "act": act,
                    }
                )

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

    def backward(self, graph, t, params, x0):
        hp = self.hp
        output, cache = self.forward(graph, t, params, want_cache=True)
        loss = self.loss(output, x0)
        n = len(x0)
        h = hp.hidden_dim
        heads, dh = hp.heads, h // hp.heads
        scale = 1.0 / math.sqrt(dh)
        ec = graph.ec
        grads = {name: np.zeros_like(w) for name, w in params.items()}

        dlogits = cache["p_hat"] - _one_hot(x0)
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
            dmlp_out = dH
            grads[pre + "mlp.w2"] += lc["act"].T @ dmlp_out
            grads[pre + "mlp.b2"] += dmlp_out.sum(axis=0)
            dact = dmlp_out @ params[pre + "mlp.w2"].T
            dmlp_pre = dact * _gelu_grad(lc["mlp_pre"])
            grads[pre + "mlp.w1"] += lc["z2"].T @ dmlp_pre
            grads[pre + "mlp.b1"] += dmlp_pre.sum(axis=0)
            dz2 = dmlp_pre @ params[pre + "mlp.w1"].T
            dh_mid, dg, db = _layer_norm_backward(dz2, params[pre + "ln2.g"], lc["ln2"])
            dh_mid = dh_mid + dH
            dattn_out = dh_mid
            grads[pre + "attn.wo"] += lc["heads_out"].T @ dattn_out
            grads[pre + "ln2.g"] += dg
            grads[pre + "ln2.b"] += db
            dheads = (dattn_out @ params[pre + "attn.wo"].T).reshape(n, heads, dh)
            dP = np.einsum("iad,jad->aij", dheads, lc["v"])
            dv = np.einsum("aij,iad->jad", lc["attn"], dheads)
            attn = lc["attn"]
            dS = attn * (dP - (dP * attn).sum(axis=2, keepdims=True))
            eb_grad = grads[pre + "attn.eb"]
            for e in range(NUM_EDGE_CLASSES):
                mask = ec == e
                if mask.any():
                    eb_grad[:, e] += dS[:, mask].sum(axis=1)
            dq = np.einsum("aij,jad->iad", dS, lc["k"]) * scale
            dk = np.einsum("aij,iad->jad", dS, lc["q"]) * scale
            z1 = lc["z1"]
            grads[pre + "attn.wq"] += z1.T @ dq.reshape(n, h)
            grads[pre + "attn.wk"] += z1.T @ dk.reshape(n, h)
            grads[pre + "attn.wv"] += z1.T @ dv.reshape(n, h)
            dz1 = (
                dq.reshape(n, h) @ params[pre + "attn.wq"].T
                + dk.reshape(n, h) @ params[pre + "attn.wk"].T
                + dv.reshape(n, h) @ params[pre + "attn.wv"].T
            )
            dh_in, dg, db = _layer_norm_backward(dz1, params[pre + "ln1.g"], lc["ln1"])
            dh_in = dh_in + dh_mid
            grads[pre + "ln1.g"] += dg
            grads[pre + "ln1.b"] += db
            dtvec += dh_in.sum(axis=0)
            dH = dh_in

        grads["in.w"] += cache["x_in"].T @ dH
        grads["in.b"] += dH.sum(axis=0)
        grads["time.w"] += np.outer(cache["temb"], dtvec)
        grads["time.b"] += dtvec
        return loss, grads


class PerTensorAdam:
    def __init__(self, params, lr, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params, grads):
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for k in params:
            g = grads[k]
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            params[k] -= self.lr * (self.m[k] / b1c) / (np.sqrt(self.v[k] / b2c) + self.eps)


def reference_train(denoiser, graphs, schedule, marginal, rng, val_draws=16):
    """The training loop of ``gradus.denoiser.train``, written plainly."""
    hp = denoiser.hp
    if not graphs:
        raise PhraseValidationError("empty corpus")
    n_features = graphs[0].R.shape[1]
    perm = rng.permutation(len(graphs))
    n_val = min(int(round(hp.val_split * len(graphs))), len(graphs) - 1)
    val_idx = perm[:n_val]
    train_idx = perm[n_val:]
    val_seed = int(rng.integers(2**63))
    params = denoiser.init_params(rng, n_features)
    opt = PerTensorAdam(params, hp.learning_rate)

    def validation_loss():
        if len(val_idx) == 0:
            return float("nan")
        vrng = np.random.default_rng(val_seed)
        total, nodes = 0.0, 0
        for gi in val_idx:
            g = graphs[gi]
            for _ in range(val_draws):
                t = int(vrng.integers(1, hp.T + 1))
                xt = forward_sample(g.x, t, schedule, marginal, vrng)
                out = denoiser.forward(g.with_x(xt), t, params)
                total += denoiser.loss(out, g.x)
                nodes += g.n
        return total / nodes

    history = []
    for epoch in range(1, hp.epochs + 1):
        order = rng.permutation(train_idx)
        total, nodes = 0.0, 0
        for start in range(0, len(order), hp.batch_size):
            batch = order[start : start + hp.batch_size]
            acc = {k: np.zeros_like(w) for k, w in params.items()}
            for gi in batch:
                g = graphs[gi]
                t = int(rng.integers(1, hp.T + 1))
                xt = forward_sample(g.x, t, schedule, marginal, rng)
                grads = {k: np.zeros_like(w) for k, w in params.items()}
                loss, grads = denoiser.backward(g.with_x(xt), t, params, g.x, grads)
                for k in acc:
                    acc[k] += grads[k]
                total += loss
                nodes += g.n
            for k in acc:
                acc[k] /= len(batch)
            opt.step(params, acc)
        history.append((epoch, total / nodes, validation_loss()))
    return TrainResult(params=params, history=history)
