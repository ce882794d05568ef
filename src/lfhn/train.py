"""SGD-with-momentum training loop, crop/mirror augmentation, and the
finite-difference gradient checker."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import data, graph, layers


class TrainingDiverged(RuntimeError):
    """A batch loss became inf or nan; the parameters are no longer usable."""


@dataclass
class TrainConfig:
    lr: float = 0.01
    momentum: float = 0.9
    batch_size: int = 32
    epochs: int = 10
    seed: int = 0
    freeze_root: bool = False
    augment: bool = False
    lr_decay_every: int = 0      # 0 disables the step decay
    lr_decay_factor: float = 0.1

    def __post_init__(self):
        # lr 0 is allowed as an explicit no-op smoke path
        if not 0 <= self.lr < np.inf:
            raise ValueError(f"learning rate must be finite and >= 0, got {self.lr}")
        if not 0 <= self.momentum < 1:
            raise ValueError("momentum must be in [0, 1)")
        if self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.epochs < 0:
            raise ValueError("epoch count must be >= 0")
        if self.lr_decay_every < 0:
            raise ValueError("lr_decay_every must be >= 0")
        if not 0 < self.lr_decay_factor < np.inf:
            raise ValueError(f"lr_decay_factor must be finite and > 0, "
                             f"got {self.lr_decay_factor}")


def sgd_step(params, grads, velocity, lr, momentum):
    """In-place update: v <- momentum*v - lr*g; p <- p + v, per named tensor.

    Consumes grads: each gradient array is overwritten with lr*g, so the
    update allocates no full-size temporary.
    """
    for name, g in grads.items():
        if name not in params:
            raise KeyError(f"unknown parameter {name!r} in gradients")
        v = velocity.get(name)
        if v is None:
            v = velocity[name] = np.zeros_like(params[name])
        v *= momentum
        g *= lr
        v -= g
        params[name] += v
    return params, velocity


def center_crop(image, target_h, target_w) -> np.ndarray:
    """The centered target_h x target_w window of an (h, w, c) image, as a view;
    the whole image when its extents already match."""
    h, w = image.shape[:2]
    if target_h > h or target_w > w:
        raise ValueError(f"crop target {target_h}x{target_w} larger than source {h}x{w}")
    oy = (h - target_h) // 2
    ox = (w - target_w) // 2
    return image[oy:oy + target_h, ox:ox + target_w, :]


def augment(image, target_h, target_w, rng) -> np.ndarray:
    """Training-path augmentation: uniform random crop, then a coin-flip mirror.

    Returns a view of image, like center_crop; stacking the batch makes the
    one copy. When source and target extents match the crop offset is forced
    to zero. The evaluation path uses center_crop and no mirror instead.
    """
    h, w = image.shape[:2]
    if target_h > h or target_w > w:
        raise ValueError(f"crop target {target_h}x{target_w} larger than source {h}x{w}")
    oy = int(rng.integers(0, h - target_h + 1))
    ox = int(rng.integers(0, w - target_w + 1))
    out = image[oy:oy + target_h, ox:ox + target_w, :]
    if rng.random() < 0.5:
        out = out[:, ::-1, :]
    return out


def train(net, samples, cfg: TrainConfig):
    """Train in place over seeded shuffled epochs; writes no file.

    Returns (net, log) where log is a list of (epoch, mean_loss, train_acc)
    rows, which write_log saves; train_acc counts the predictions made
    during the epoch's own forward passes. With a fixed seed the run is
    fully reproducible. Raises TrainingDiverged at the first non-finite
    batch loss, before its update.
    Sample images are uint8 as loaded or float in [0, 1]; data.network_input
    stacks and converts each batch on its own, and refuses one that mixes
    dtypes.
    """
    if not samples:
        raise ValueError("empty dataset")
    labels = np.array([s.identity for s in samples], dtype=np.int64)
    k = net.config.num_classes
    bad = labels[(labels < 0) | (labels >= k)]
    if bad.size:
        raise ValueError(f"label {bad[0]} out of range [0, {k}) for {k} classes")
    images = [s.image for s in samples]

    if cfg.freeze_root:
        net.frozen.add("conv1")
    target_h, target_w = net.config.input_height, net.config.input_width
    rng = np.random.default_rng(cfg.seed)
    velocity = {}
    n = len(samples)
    log = []
    for epoch in range(cfg.epochs):
        lr = cfg.lr
        if cfg.lr_decay_every:
            lr = cfg.lr * cfg.lr_decay_factor ** (epoch // cfg.lr_decay_every)
        order = rng.permutation(n)
        total_loss = 0.0
        correct = 0
        for start in range(0, n, cfg.batch_size):
            idx = order[start:start + cfg.batch_size]
            if cfg.augment:
                batch = [augment(images[i], target_h, target_w, rng) for i in idx]
            else:
                batch = [images[i] for i in idx]
            logits, cache = graph.forward(net, data.network_input(batch))
            loss, grad_logits = layers.softmax_xent(logits, labels[idx])
            if not np.isfinite(loss):
                raise TrainingDiverged(f"training diverged: loss {loss} at epoch {epoch}, "
                                       f"batch {start // cfg.batch_size}")
            correct += int((np.argmax(logits, axis=1) == labels[idx]).sum())
            total_loss += loss * len(idx)
            grads = graph.backward(net, cache, grad_logits)
            sgd_step(net.params, grads, velocity, lr, cfg.momentum)
            # free this batch's activations and gradients before the next forward
            del cache, grads
        log.append((epoch, total_loss / n, correct / n))
    return net, log


def write_log(log, path):
    """Epoch log as CSV: epoch,mean_loss,train_acc."""
    lines = ["epoch,mean_loss,train_acc"]
    lines += [f"{epoch},{loss!r},{acc!r}" for epoch, loss, acc in log]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class ParamCheck:
    """Worst finite-difference disagreement found in one parameter tensor."""

    name: str
    max_rel_err: float
    worst_index: tuple
    analytic: float
    numeric: float
    n_checked: int


@dataclass
class GradReport:
    checks: list

    @property
    def max_rel_err(self) -> float:
        return max((c.max_rel_err for c in self.checks), default=0.0)

    def passed(self, tol: float = 1e-5) -> bool:
        return self.max_rel_err < tol

    def format_lines(self):
        lines = []
        for c in self.checks:
            lines.append(
                f"{c.name:<16} max_rel_err={c.max_rel_err:.3e} at {c.worst_index} "
                f"(analytic={c.analytic:.6e}, numeric={c.numeric:.6e}, "
                f"checked {c.n_checked})"
            )
        return lines


def relative_error(a: float, b: float) -> float:
    """|a - b| over the larger magnitude, or inf where a nan or inf input makes that nan."""
    err = abs(a - b) / max(abs(a), abs(b), 1e-8)
    return np.inf if np.isnan(err) else err


def randomize_biases(net, seed=0):
    """Move biases to a generic point before a finite-difference check.

    Freshly built networks have all-zero biases, which parks 1x1 conv
    pre-activations exactly on the rectifier kink wherever the previous ReLU
    zeroed a whole pixel; central differences then disagree with the
    subgradient convention. Random biases keep the checked point away from
    every kink with overwhelming probability.
    """
    rng = np.random.default_rng(seed)
    for name in net.params:
        if name.endswith(".bias"):
            net.params[name] = rng.normal(0.0, 0.1, net.params[name].shape)
    return net


def grad_check(net, images, labels, epsilon=1e-5, max_per_tensor=32, seed=0,
               param_filter=None) -> GradReport:
    """Compare analytic parameter gradients against central differences.

    For every parameter tensor (optionally narrowed by param_filter, a
    predicate on the parameter name) at most max_per_tensor elements are
    sampled; smaller tensors are checked exhaustively. The loss is the mean
    softmax cross-entropy on the given batch. Cost is two forward passes per
    checked element, so use a tiny configuration. Raises ValueError for
    settings that would check nothing.
    """
    if max_per_tensor < 1:
        raise ValueError(f"max_per_tensor must be >= 1, got {max_per_tensor}")
    if epsilon == 0 or not np.isfinite(epsilon):
        raise ValueError(f"epsilon must be finite and non-zero, got {epsilon}")
    images = data.network_input(images)
    labels = np.asarray(labels, dtype=np.int64)

    def loss_at():
        logits, _ = graph.forward(net, images, inference=True)
        loss, _ = layers.softmax_xent(logits, labels)
        return loss

    logits, cache = graph.forward(net, images)
    _, grad_logits = layers.softmax_xent(logits, labels)
    analytic = graph.backward(net, cache, grad_logits)

    rng = np.random.default_rng(seed)
    checks = []
    for name in analytic:
        if param_filter is not None and not param_filter(name):
            continue
        param = net.params[name]
        grad = analytic[name]
        if param.size <= max_per_tensor:
            offsets = np.arange(param.size)
        else:
            offsets = np.sort(rng.choice(param.size, size=max_per_tensor, replace=False))
        worst = ParamCheck(name, -1.0, (), 0.0, 0.0, len(offsets))
        flat = param.reshape(-1)
        for off in offsets:
            original = flat[off]
            flat[off] = original + epsilon
            loss_plus = loss_at()
            flat[off] = original - epsilon
            loss_minus = loss_at()
            flat[off] = original
            numeric = (loss_plus - loss_minus) / (2.0 * epsilon)
            analytic_value = float(grad.reshape(-1)[off])
            rel = relative_error(analytic_value, numeric)
            if rel > worst.max_rel_err:
                index = tuple(int(i) for i in np.unravel_index(off, param.shape))
                worst = ParamCheck(name, rel, index, analytic_value, numeric,
                                   len(offsets))
        checks.append(worst)
    return GradReport(checks)
