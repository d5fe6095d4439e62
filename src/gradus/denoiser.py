"""Denoising network predicting clean node classes from a noised graph.

A small pre-norm transformer over graph nodes whose attention logits get
an additive learned bias per edge class of each node pair, so the frozen
edge tensor shapes message passing. Everything is plain numpy with
hand-derived gradients; training therefore stays bit-reproducible for a
fixed seed, and the backward pass is checked against finite differences
in the test suite.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy.special import erf

from .errors import CheckpointError, PhraseValidationError
from .graph import NUM_EDGE_CLASSES, ScoreGraph
from .pitch import NUM_DEGREE_CLASSES
from .schedule import NoiseSchedule, forward_sample

_LN_EPS = 1e-5


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


@dataclass(frozen=True)
class DenoiserOutput:
    logits: np.ndarray
    p_hat: np.ndarray  # row-stochastic (n, |classes|), or (K, n, |classes|) for a stack


def param_count(params: dict[str, np.ndarray]) -> int:
    return sum(int(w.size) for w in params.values())


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def time_embedding(t: int, T: int, dim: int) -> np.ndarray:
    """Sinusoidal features of the normalized step t/T."""
    half = dim // 2
    u = t / T
    if half == 1:
        freqs = np.array([math.pi / 2])
    else:
        freqs = (math.pi / 2) * np.power(1000.0, np.arange(half) / (half - 1))
    return np.concatenate([np.sin(u * freqs), np.cos(u * freqs)])


def _gelu(x: np.ndarray) -> np.ndarray:
    return 0.5 * x * (1.0 + erf(x / math.sqrt(2.0)))


def _gelu_grad(x: np.ndarray) -> np.ndarray:
    cdf = 0.5 * (1.0 + erf(x / math.sqrt(2.0)))
    pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    return cdf + x * pdf


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
    xc = x - x.sum(axis=1, keepdims=True) / d
    sigma = np.sqrt((xc * xc).sum(axis=1, keepdims=True) / d + _LN_EPS)
    xhat = xc / sigma
    return xhat * g + b, (xhat, sigma)

def _layer_norm_backward(dy: np.ndarray, g: np.ndarray, cache) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    xhat, sigma = cache
    dg = (dy * xhat).sum(axis=0)
    db = dy.sum(axis=0)
    dxhat = dy * g
    mean_dxhat = dxhat.mean(axis=1, keepdims=True)
    mean_dxhat_xhat = (dxhat * xhat).mean(axis=1, keepdims=True)
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

    def _input_features(self, graph: ScoreGraph) -> np.ndarray:
        """[X || R] rows, one per node of each candidate, with
        duration/offset columns scaled by the bar length."""
        x = graph.X.reshape(-1, graph.X.shape[-1])
        if graph.R.shape[1] == 0:
            return x.copy()
        r = graph.R.copy()
        for col, name in enumerate(graph.r_names):
            if name in ("duration", "offset"):
                r[:, col] /= graph.bar_length
        return np.concatenate([x, np.concatenate([r] * (len(x) // len(r)))], axis=1)

    def forward(
        self,
        graph: ScoreGraph,
        t: int,
        params: dict[str, np.ndarray],
        want_cache: bool = False,
    ):
        """Clean-class predictions for ``graph`` at step t.

        ``graph.X`` is either one node matrix (n, C) or a stack (K, n, C)
        of candidates sharing the graph's edges and rhythm columns; the
        output has the same leading shape. Candidates never mix: each
        one's rows equal a forward pass on it alone, bit for bit. The
        cache that ``backward`` reads is kept for a single graph only.
        """
        hp = self.hp
        if not 0 <= t <= hp.T:
            raise PhraseValidationError(f"step {t} outside 0..{hp.T}")
        x_in = self._input_features(graph)
        if x_in.shape[1] != params["in.w"].shape[0]:
            raise PhraseValidationError(
                f"input width {x_in.shape[1]} does not match parameters "
                f"({params['in.w'].shape[0]}); check rhythm feature flags"
            )
        n = graph.X.shape[-2]
        K = x_in.shape[0] // n
        h = hp.hidden_dim
        heads, dh = hp.heads, h // hp.heads
        scale = 1.0 / math.sqrt(dh)
        ec = graph.edge_class_matrix()

        temb = time_embedding(t, hp.T, 2 * (h // 2))
        tvec = temb @ params["time.w"] + params["time.b"]
        H = _per_candidate(x_in, params["in.w"], K) + params["in.b"]

        cache = {"x_in": x_in, "temb": temb, "ec": ec, "layers": []} if want_cache else None
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

    # -- loss and gradients ---------------------------------------------

    @staticmethod
    def loss(output: DenoiserOutput, X0: np.ndarray) -> float:
        """Sum over nodes of categorical cross-entropy against one-hot X0."""
        logits = output.logits
        logz = np.log(np.exp(logits - logits.max(axis=1, keepdims=True)).sum(axis=1))
        logz += logits.max(axis=1)
        true_logit = (logits * X0).sum(axis=1)
        return float(np.sum(logz - true_logit))

    def backward(
        self,
        graph: ScoreGraph,
        t: int,
        params: dict[str, np.ndarray],
        X0: np.ndarray,
    ) -> tuple[float, dict[str, np.ndarray]]:
        """Loss plus exact analytic gradients for every parameter tensor."""
        hp = self.hp
        output, cache = self.forward(graph, t, params, want_cache=True)
        loss = self.loss(output, X0)
        n = X0.shape[0]
        h = hp.hidden_dim
        heads, dh = hp.heads, h // hp.heads
        scale = 1.0 / math.sqrt(dh)
        ec = cache["ec"]
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
            # MLP block
            dmlp_out = dH
            grads[pre + "mlp.w2"] += lc["act"].T @ dmlp_out
            grads[pre + "mlp.b2"] += dmlp_out.sum(axis=0)
            dact = dmlp_out @ params[pre + "mlp.w2"].T
            dmlp_pre = dact * _gelu_grad(lc["mlp_pre"])
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
            dh_in = dh_in + dh_mid  # residual
            grads[pre + "ln1.g"] += dg
            grads[pre + "ln1.b"] += db
            dtvec += dh_in.sum(axis=0)
            dH = dh_in

        grads["in.w"] += cache["x_in"].T @ dH
        grads["in.b"] += dH.sum(axis=0)
        grads["time.w"] += np.outer(cache["temb"], dtvec)
        grads["time.b"] += dtvec
        return loss, grads


# ----------------------------------------------------------------------
# Training
# ----------------------------------------------------------------------

@dataclass
class TrainResult:
    params: dict[str, np.ndarray]
    history: list[tuple[int, float, float]]  # (epoch, train_loss, val_loss) per node


class Adam:
    def __init__(self, params: dict[str, np.ndarray], lr: float, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, params: dict[str, np.ndarray], grads: dict[str, np.ndarray]):
        self.t += 1
        b1c = 1.0 - self.beta1**self.t
        b2c = 1.0 - self.beta2**self.t
        for k in params:
            g = grads[k]
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            params[k] -= self.lr * (self.m[k] / b1c) / (np.sqrt(self.v[k] / b2c) + self.eps)


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
    cross-entropy is minimized with Adam. Validation uses frozen (t,
    noise) draws so its loss is comparable across epochs. Reported losses
    are per node.
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

    def validation_loss() -> float:
        if len(val_idx) == 0:
            return float("nan")
        vrng = np.random.default_rng(val_seed)
        total, nodes = 0.0, 0
        for gi in val_idx:
            g = graphs[gi]
            for _ in range(val_draws):
                t = int(vrng.integers(1, hp.T + 1))
                xt = forward_sample(g.X, t, schedule, marginal, vrng)
                out = denoiser.forward(g.with_x(xt), t, params)
                total += denoiser.loss(out, g.X)
                nodes += g.n
        return total / nodes

    history: list[tuple[int, float, float]] = []
    for epoch in range(1, hp.epochs + 1):
        order = rng.permutation(train_idx)
        total, nodes = 0.0, 0
        for start in range(0, len(order), hp.batch_size):
            batch = order[start : start + hp.batch_size]
            acc = {k: np.zeros_like(w) for k, w in params.items()}
            for gi in batch:
                g = graphs[gi]
                t = int(rng.integers(1, hp.T + 1))
                xt = forward_sample(g.X, t, schedule, marginal, rng)
                loss, grads = denoiser.backward(g.with_x(xt), t, params, g.X)
                for k in acc:
                    acc[k] += grads[k]
                total += loss
                nodes += g.n
            for k in acc:
                acc[k] /= len(batch)
            opt.step(params, acc)
        history.append((epoch, total / nodes, validation_loss()))
    return TrainResult(params=params, history=history)


def write_loss_csv(path: str | Path, history: Sequence[tuple[int, float, float]]) -> None:
    """One row per epoch: epoch, train_loss, val_loss (no header row)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for epoch, tr, va in history:
            writer.writerow([epoch, f"{tr:.10g}", f"{va:.10g}"])


def read_loss_csv(path: str | Path) -> list[tuple[int, float, float]]:
    with open(path, newline="") as fh:
        return [(int(e), float(t), float(v)) for e, t, v in csv.reader(fh)]


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
        "hyperparams": {
            "layers": ckpt.hp.layers,
            "hidden_dim": ckpt.hp.hidden_dim,
            "heads": ckpt.hp.heads,
            "T": ckpt.hp.T,
            "epochs": ckpt.hp.epochs,
            "batch_size": ckpt.hp.batch_size,
            "learning_rate": ckpt.hp.learning_rate,
            "val_split": ckpt.hp.val_split,
            "mlp_ratio": ckpt.hp.mlp_ratio,
        },
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
    try:
        data = np.load(path, allow_pickle=False)
    except (OSError, ValueError) as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if "__meta__" not in data:
        raise CheckpointError(f"{path} is not a recognized checkpoint")
    meta = json.loads(bytes(data["__meta__"]).decode())
    if meta.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {meta.get('version')!r}")
    hp = DenoiserHyperparams(**meta["hyperparams"])
    params = {k[3:]: data[k] for k in data.files if k.startswith("w::")}
    if sorted(params) != meta["weights"]:
        raise CheckpointError("checkpoint weight arrays do not match its manifest")
    return Checkpoint(
        hp=hp,
        params=params,
        marginal=data["__marginal__"],
        r_names=tuple(meta["r_names"]),
        schedule_T=int(meta["schedule_T"]),
        schedule_s=float(meta["schedule_s"]),
    )
