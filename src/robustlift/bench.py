"""Reduced adversarial-training experiment and reduction validation.

Data path: digits `DIGITS` (0..4), images area-pooled to `POOLED_SIDE`
(12x12), flattened to 144 features, then a fixed random projection down
to `PROJECTED_DIM` (10) dimensions.  When no IDX files are available the
loader synthesizes Gaussian blob images with the same shapes, so every
downstream consumer sees one format.

The classifier is bias-free 10 -> `HIDDEN_DIM` (4) -> `N_CLASSES` (5),
60 parameters.  Choices the experiment leaves open are fixed here and
recorded in run metadata: tanh hidden activation, softmax cross-entropy,
plain SGD, and the projection scale.  Training-time attacks reuse the
evaluation PGD configuration.
"""

from __future__ import annotations

import csv
import gzip
import math
import os
import struct
from dataclasses import dataclass, field

import numpy as np

from . import carleman, horizon, solver
from .dynamics import folded_poly_step, one_step_delta_bound
from .polyapprox import achieved_delta

__all__ = [
    "BenchDataError",
    "ReducedDataset",
    "load_mnist_reduced",
    "area_average_pool",
    "random_projection",
    "synthetic_blob_images",
    "ReducedTask",
    "ReducedModel",
    "pgd_attack",
    "pgd_evaluate",
    "MetricsRow",
    "TrainResult",
    "train_reduced",
    "write_metrics_csv",
    "plateau_ratio",
    "ReductionReport",
    "compare_reduction",
    "MODE_ALPHA",
]

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

# the evaluation ball of 0.025 should move points by a quarter of the
# typical feature scale, otherwise the attack barely grades the model
PROJECTION_SCALE = 0.08

# the reduced task's data and architecture (see the module docstring)
DIGITS = (0, 1, 2, 3, 4)
POOLED_SIDE = 12
PROJECTED_DIM = 10
HIDDEN_DIM = 4
N_CLASSES = 5
_BLOBS_PER_CLASS = 400  # synthetic fallback images per class
_PLATEAU_TAIL = 0.2  # share of a curve that `plateau_ratio` calls its tail

MODE_ALPHA = {"clean": 0.0, "mixed": 0.5, "robust": 1.0}


class BenchDataError(OSError):
    """Unreadable or malformed dataset files."""


def _open_maybe_gzip(path: str):
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def read_idx_images(path: str) -> np.ndarray:
    with _open_maybe_gzip(path) as fh:
        header = fh.read(16)
        if len(header) != 16:
            raise BenchDataError(f"{path}: truncated header")
        magic, count, rows, cols = struct.unpack(">IIII", header)
        if magic != IMAGE_MAGIC:
            raise BenchDataError(f"{path}: bad image magic {magic:#010x}")
        data = fh.read(count * rows * cols)
    if len(data) != count * rows * cols:
        raise BenchDataError(f"{path}: truncated image payload")
    return np.frombuffer(data, dtype=np.uint8).reshape(count, rows, cols)


def read_idx_labels(path: str) -> np.ndarray:
    with _open_maybe_gzip(path) as fh:
        header = fh.read(8)
        if len(header) != 8:
            raise BenchDataError(f"{path}: truncated header")
        magic, count = struct.unpack(">II", header)
        if magic != LABEL_MAGIC:
            raise BenchDataError(f"{path}: bad label magic {magic:#010x}")
        data = fh.read(count)
    if len(data) != count:
        raise BenchDataError(f"{path}: truncated label payload")
    return np.frombuffer(data, dtype=np.uint8)


def _overlap_weights(n_in: int, n_out: int) -> np.ndarray:
    """Row i holds the fraction of each source cell inside target cell i."""
    w = np.zeros((n_out, n_in))
    ratio = n_in / n_out
    for i in range(n_out):
        lo, hi = i * ratio, (i + 1) * ratio
        for j in range(math.floor(lo), math.ceil(hi)):
            w[i, j] = min(hi, j + 1) - max(lo, j)
    return w / ratio


def area_average_pool(images: np.ndarray, out_side: int = 12) -> np.ndarray:
    """Exact area-average downsample, any input size."""
    images = np.asarray(images, dtype=float)
    w = _overlap_weights(images.shape[1], out_side)
    wc = w if images.shape[2] == images.shape[1] \
        else _overlap_weights(images.shape[2], out_side)
    return np.einsum("oi,nij,pj->nop", w, images, wc)


def random_projection(seed: int) -> np.ndarray:
    """Pooled features to PROJECTED_DIM: Gaussian entries scaled by
    PROJECTION_SCALE / sqrt(PROJECTED_DIM)."""
    rng = np.random.default_rng(seed)
    return (rng.standard_normal((PROJECTED_DIM, POOLED_SIDE**2))
            * (PROJECTION_SCALE / math.sqrt(PROJECTED_DIM)))


def synthetic_blob_images(seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Gaussian bumps at class-specific positions plus pixel noise."""
    rng = np.random.default_rng(seed)
    centers = [(3, 3), (3, 8), (8, 3), (8, 8), (5.5, 5.5)]
    yy, xx = np.mgrid[0:POOLED_SIDE, 0:POOLED_SIDE]
    images, labels = [], []
    for c in range(N_CLASSES):
        cy, cx = centers[c]
        for _ in range(_BLOBS_PER_CLASS):
            jy = cy + rng.normal(0, 0.9)
            jx = cx + rng.normal(0, 0.9)
            width = 2.0 + rng.normal(0, 0.25)
            bump = np.exp(-((yy - jy) ** 2 + (xx - jx) ** 2) / (2 * width**2))
            img = bump + rng.normal(0, 0.12, size=bump.shape)
            images.append(np.clip(img, 0.0, 1.0))
            labels.append(c)
    order = rng.permutation(len(images))
    return np.stack(images)[order], np.asarray(labels, dtype=np.int64)[order]


@dataclass(frozen=True)
class ReducedDataset:
    features: np.ndarray
    labels: np.ndarray
    metadata: dict

    def __len__(self) -> int:
        return len(self.labels)


def load_mnist_reduced(path: str | None = None, seed: int = 0,
                       limit: int | None = None) -> ReducedDataset:
    """Digits subset, pooled and projected; synthetic fallback if no files.

    `path` names a directory holding train-images-idx3-ubyte and
    train-labels-idx1-ubyte (optionally gzipped).  A present-but-broken
    file is an error; an absent path falls back to blobs.  `limit` caps
    how many of the kept images are used.
    """
    source = "synthetic"
    if path is not None:
        img_file = lab_file = None
        for img_name in ("train-images-idx3-ubyte", "train-images.idx3-ubyte"):
            for suffix in ("", ".gz"):
                cand = os.path.join(path, img_name + suffix)
                if os.path.exists(cand):
                    img_file = cand
        for lab_name in ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte"):
            for suffix in ("", ".gz"):
                cand = os.path.join(path, lab_name + suffix)
                if os.path.exists(cand):
                    lab_file = cand
        if img_file and lab_file:
            images = read_idx_images(img_file).astype(float) / 255.0
            labels = read_idx_labels(lab_file).astype(np.int64)
            keep = np.isin(labels, DIGITS)
            images, labels = images[keep], labels[keep]
            source = "idx"
    if source == "synthetic":
        # one blob class per digit, labelled with the digit
        images, labels = synthetic_blob_images(seed)
    if limit is not None:
        images, labels = images[:limit], labels[:limit]
    pooled = area_average_pool(images, POOLED_SIDE)
    flat = pooled.reshape(len(pooled), -1)
    features = flat @ random_projection(seed).T
    counts = {d: int((labels == d).sum()) for d in DIGITS}
    meta = {
        "source": source,
        "digits": list(DIGITS),
        "resize": "area-average-pool",
        "out_side": POOLED_SIDE,
        "feature_dim": flat.shape[1],
        "projected_dim": PROJECTED_DIM,
        "projection": "gaussian/sqrt(out_dim)",
        "projection_scale": PROJECTION_SCALE,
        "seed": seed,
        "counts": counts,
    }
    return ReducedDataset(features, labels, meta)


# ----------------------------------------------------------------------
# model


@dataclass(frozen=True)
class ReducedTask:
    batch_size: int = 5
    n_steps: int = 10_000
    learning_rate: float = 0.15
    log_every: int = 250
    eval_size: int = 400
    pgd_eps: float = 0.025
    pgd_step: float = 0.01
    pgd_steps: int = 10


class ReducedModel:
    """Bias-free two-layer tanh classifier."""

    def __init__(self, w1: np.ndarray, w2: np.ndarray):
        self.w1 = np.asarray(w1, dtype=float)
        self.w2 = np.asarray(w2, dtype=float)

    @classmethod
    def init(cls, seed: int) -> "ReducedModel":
        rng = np.random.default_rng(seed)
        w1 = rng.standard_normal((HIDDEN_DIM, PROJECTED_DIM))
        w2 = rng.standard_normal((N_CLASSES, HIDDEN_DIM))
        return cls(w1 / math.sqrt(PROJECTED_DIM), w2 / math.sqrt(HIDDEN_DIM))

    @property
    def param_count(self) -> int:
        return self.w1.size + self.w2.size

    def logits(self, x: np.ndarray) -> np.ndarray:
        return np.tanh(x @ self.w1.T) @ self.w2.T

    def loss_and_grads(self, x: np.ndarray, y: np.ndarray,
                       want_input_grad: bool = False):
        """Mean softmax cross-entropy with hand-rolled backprop."""
        h = np.tanh(x @ self.w1.T)
        logits = h @ self.w2.T
        shifted = logits - logits.max(axis=1, keepdims=True)
        expl = np.exp(shifted)
        probs = expl / expl.sum(axis=1, keepdims=True)
        n = len(y)
        loss = float(-np.log(probs[np.arange(n), y] + 1e-300).mean())
        dlogits = probs.copy()
        dlogits[np.arange(n), y] -= 1.0
        dlogits /= n
        g_w2 = dlogits.T @ h
        dh = (dlogits @ self.w2) * (1.0 - h * h)
        g_w1 = dh.T @ x
        g_x = dh @ self.w1 if want_input_grad else None
        return loss, g_w1, g_w2, g_x

    def accuracy(self, x: np.ndarray, y: np.ndarray) -> float:
        return float((self.logits(x).argmax(axis=1) == y).mean())


def pgd_attack(model: ReducedModel, x: np.ndarray, y: np.ndarray,
               eps: float, step: float, steps: int) -> np.ndarray:
    """Sign-gradient ascent from zero with per-step ball projection."""
    delta = np.zeros_like(x)
    for _ in range(steps):
        _, _, _, g_x = model.loss_and_grads(x + delta, y, want_input_grad=True)
        delta = np.clip(delta + step * np.sign(g_x), -eps, eps)
    return delta


def pgd_evaluate(model: ReducedModel, dataset: ReducedDataset,
                 eps: float = 0.025, step: float = 0.01, steps: int = 10) -> float:
    x, y = dataset.features, dataset.labels
    delta = pgd_attack(model, x, y, eps, step, steps)
    return model.accuracy(x + delta, y)


# ----------------------------------------------------------------------
# training


@dataclass(frozen=True)
class MetricsRow:
    step: int
    mode: str
    alpha: float
    clean_acc: float
    robust_acc: float
    clean_loss: float


@dataclass
class TrainResult:
    rows: list
    model: ReducedModel
    diverged: bool
    metadata: dict


def train_reduced(task: ReducedTask, mode: str, dataset: ReducedDataset,
                  seed: int = 0) -> TrainResult:
    """Alternating attack-then-descent loop on the mixed objective.

    mode picks alpha; the same PGD configuration crafts training and
    evaluation attacks.  Everything draws from one seeded generator, so
    equal seeds give bit-identical metrics.
    """
    if mode not in MODE_ALPHA:
        raise ValueError(f"unknown mode {mode!r}")
    alpha = MODE_ALPHA[mode]
    rng = np.random.default_rng(seed)
    model = ReducedModel.init(seed)
    eval_idx = rng.permutation(len(dataset))[: task.eval_size]
    eval_set = ReducedDataset(dataset.features[eval_idx],
                              dataset.labels[eval_idx], dataset.metadata)
    rows: list[MetricsRow] = []
    diverged = False

    def log(step: int) -> None:
        clean_acc = model.accuracy(eval_set.features, eval_set.labels)
        robust_acc = pgd_evaluate(model, eval_set, task.pgd_eps,
                                  task.pgd_step, task.pgd_steps)
        clean_loss, _, _, _ = model.loss_and_grads(eval_set.features,
                                                   eval_set.labels)
        rows.append(MetricsRow(step, mode, alpha, clean_acc, robust_acc,
                               clean_loss))

    log(0)
    for step in range(1, task.n_steps + 1):
        idx = rng.integers(0, len(dataset), size=task.batch_size)
        xb, yb = dataset.features[idx], dataset.labels[idx]
        g_w1 = np.zeros_like(model.w1)
        g_w2 = np.zeros_like(model.w2)
        loss_val = 0.0
        if alpha < 1.0:
            loss, g1, g2, _ = model.loss_and_grads(xb, yb)
            g_w1 += (1.0 - alpha) * g1
            g_w2 += (1.0 - alpha) * g2
            loss_val += (1.0 - alpha) * loss
        if alpha > 0.0:
            delta = pgd_attack(model, xb, yb, task.pgd_eps, task.pgd_step,
                               task.pgd_steps)
            loss, g1, g2, _ = model.loss_and_grads(xb + delta, yb)
            g_w1 += alpha * g1
            g_w2 += alpha * g2
            loss_val += alpha * loss
        if not math.isfinite(loss_val):
            diverged = True
            break
        model.w1 = model.w1 - task.learning_rate * g_w1
        model.w2 = model.w2 - task.learning_rate * g_w2
        if step % task.log_every == 0:
            log(step)

    meta = {
        "mode": mode,
        "alpha": alpha,
        "seed": seed,
        "steps": task.n_steps,
        "batch_size": task.batch_size,
        "learning_rate": task.learning_rate,
        "activation": "tanh",
        "loss": "softmax-cross-entropy",
        "optimizer": "sgd",
        "train_attack": {"eps": task.pgd_eps, "step": task.pgd_step,
                         "steps": task.pgd_steps},
        "dataset": dataset.metadata,
        "diverged": diverged,
    }
    return TrainResult(rows, model, diverged, meta)


def write_metrics_csv(path: str, rows) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "mode", "alpha", "clean_acc", "robust_acc",
                         "clean_loss"])
        for r in rows:
            writer.writerow([r.step, r.mode, repr(r.alpha), repr(r.clean_acc),
                             repr(r.robust_acc), repr(r.clean_loss)])


def plateau_ratio(values) -> float:
    """Tail variance over head variance; small means the curve plateaued."""
    values = np.asarray(values, dtype=float)
    if len(values) < 5:
        raise ValueError("too few points to assess a plateau")
    cut = int(math.ceil(len(values) * (1.0 - _PLATEAU_TAIL)))
    head, tail = values[:cut], values[cut:]
    hv, tv = float(head.var()), float(tail.var())
    if hv < 1e-18:
        return 0.0 if tv < 1e-18 else math.inf
    return tv / hv


# ----------------------------------------------------------------------
# reduction validation


@dataclass(frozen=True)
class ReductionReport:
    t_window: int
    n_levels: int
    rho: float
    gamma_n: float
    step_error_max: float
    step_error_bound: float
    stacked_truncation_error: float
    stacked_truncation_bound: float
    step_ok: bool
    truncation_ok: bool
    solve_residual: float


def compare_reduction(instance, delta_s: float, delta_c: float,
                      n_levels: int = 4) -> ReductionReport:
    """Exact iteration vs polynomial surrogate vs lifted horizon solve.

    The surrogate distance is graded per step against the one-step ball
    bound; the lifted solve is graded against the stacked truncation
    bound at the measured contraction.
    """
    sched, grads = instance.sched, instance.grads
    t_window = sched.t_window
    p_s, p_c = instance.design_polys(delta_s, delta_c)
    exact = instance.exact_states()
    dev = instance.deviations(instance.model_states(p_s, p_c))

    m = grads.m
    step_err = 0.0
    for t in range(t_window):
        one = folded_poly_step(exact[t], t, sched, grads, p_s, p_c)
        step_err = max(step_err, float(
            np.linalg.norm(one.delta - exact[t + 1].delta)))
    d_s = max(delta_s, achieved_delta(p_s) or 0.0)
    d_c = max(delta_c, achieved_delta(p_c) or 0.0)
    step_bound = one_step_delta_bound(m, sched.eta_delta_max, d_s,
                                      sched.eps_ball, d_c)

    vbar = float(np.linalg.norm(dev, axis=1).max())
    coeffs = instance.build_expansion(p_s, p_c)
    major = carleman.majorant_and_contractivity(coeffs, n_levels)
    rho = min(major.rho, 0.999999)
    tail = carleman.tail_constant_and_cutoff(coeffs, n_levels, vbar, t_window,
                                             rho, 1e-12)
    _, system = horizon.lift_window(coeffs, n_levels, dev[0], t_window,
                                    major.rho)
    sol = solver.solve_linear_system(system)
    reference = np.concatenate([carleman.lift_state(v, n_levels) for v in dev])
    stacked_err = float(np.linalg.norm(reference - sol.stacked))

    return ReductionReport(
        t_window=t_window,
        n_levels=n_levels,
        rho=major.rho,
        gamma_n=tail.gamma_n,
        step_error_max=step_err,
        step_error_bound=step_bound,
        stacked_truncation_error=stacked_err,
        stacked_truncation_bound=tail.horizon_bound,
        step_ok=bool(step_err <= step_bound),
        truncation_ok=bool(stacked_err <= tail.horizon_bound
                           or not major.h1_pass),
        solve_residual=sol.residual,
    )

