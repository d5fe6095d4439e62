"""Reference denoiser pass and optimizer: what gradus.denoiser is tested against.

``EinsumDenoiser`` computes attention, forward and backward, with one
4-index ``np.einsum`` per product, the plainest statement of each sum.
``PerTensorAdam`` updates each parameter tensor on its own with fresh
temporaries. The package's batched-matmul attention and flat-buffer Adam
must agree with these: the attention within rounding, the optimizer bit
for bit.
"""

from __future__ import annotations

import math

import numpy as np

from gradus.denoiser import (
    Denoiser,
    DenoiserOutput,
    _gelu,
    _gelu_grad,
    _layer_norm,
    _layer_norm_backward,
    _per_candidate,
    time_embedding,
)
from gradus.graph import NUM_EDGE_CLASSES


class EinsumDenoiser(Denoiser):
    def forward(self, graph, t, params, want_cache=False):
        hp = self.hp
        x_in = self._input_features(graph)
        n = graph.X.shape[-2]
        K = x_in.shape[0] // n
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
        out_shape = graph.X.shape[:-1] + (logits.shape[1],)
        output = DenoiserOutput(logits=logits.reshape(out_shape), p_hat=p_hat.reshape(out_shape))
        if want_cache:
            cache["zf"] = zf
            cache["lnf"] = lnf_c
            cache["p_hat"] = p_hat
            return output, cache
        return output

    def backward(self, graph, t, params, X0):
        hp = self.hp
        output, cache = self.forward(graph, t, params, want_cache=True)
        loss = self.loss(output, X0)
        n = X0.shape[0]
        h = hp.hidden_dim
        heads, dh = hp.heads, h // hp.heads
        scale = 1.0 / math.sqrt(dh)
        ec = graph.ec
        grads = {name: np.zeros_like(w) for name, w in params.items()}

        dlogits = cache["p_hat"] - X0
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
