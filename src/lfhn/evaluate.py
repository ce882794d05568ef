"""Rank-1 identification rates sliced per pose bin."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import graph
from .data import check_image_dtypes, default_pose_roster, network_input
from .train import center_crop


@dataclass
class PoseBin:
    pose_id: int
    yaw_deg: float
    n_samples: int
    correct: int

    @property
    def rank1_pct(self) -> float:
        return 100.0 * self.correct / self.n_samples


@dataclass
class RankTable:
    """Per-pose rank-1 rates ordered by ascending yaw, plus the bin mean.

    absent lists, in ascending order, the pose ids of the yaw mapping that had
    no samples; they are excluded from the mean.
    """

    bins: list
    absent: tuple = ()

    @property
    def mean_pct(self) -> float:
        if not self.bins:
            raise ValueError("empty table has no mean")
        return sum(b.rank1_pct for b in self.bins) / len(self.bins)


def default_yaws():
    """pose_id -> yaw mapping for the default 13-bin roster."""
    return {i: p.yaw_deg for i, p in enumerate(default_pose_roster())}


def rank_table_from_predictions(predictions, samples, yaws=None) -> RankTable:
    """Count rank-1 hits per pose bin from precomputed identity predictions.

    yaws maps pose ids to yaw labels; ids missing from the mapping fall back
    to the id itself. A mapped pose with no samples is listed in the table's
    absent field and excluded from the mean. The mean is the unweighted
    average over the present bins.
    """
    predictions = np.asarray(predictions)
    if len(predictions) != len(samples):
        raise ValueError("one prediction per sample required")
    if yaws is None:
        yaws = default_yaws()
    per_pose = {}
    for pred, sample in zip(predictions, samples):
        hit = int(pred) == sample.identity
        correct, total = per_pose.get(sample.pose_id, (0, 0))
        per_pose[sample.pose_id] = (correct + hit, total + 1)
    bins = [
        PoseBin(pose_id, float(yaws.get(pose_id, pose_id)), total, correct)
        for pose_id, (correct, total) in per_pose.items()
    ]
    bins.sort(key=lambda b: (b.yaw_deg, b.pose_id))
    return RankTable(bins, tuple(sorted(set(yaws) - set(per_pose))))


def predict(net, images, batch_size=64) -> np.ndarray:
    """Identity decisions: argmax over the class logits, ties to lowest index.

    images is an array or a list of same-shape images, all uint8 or all
    float; a list that mixes dtypes raises ValueError. Each batch is stacked
    and converted on its own and runs an inference forward, which holds only
    the tensors still to be read.
    """
    check_image_dtypes(images)
    predictions = np.empty(len(images), dtype=np.intp)
    for start in range(0, len(images), batch_size):
        batch = network_input(images[start:start + batch_size])
        logits = graph.forward(net, batch, inference=True)[0]
        predictions[start:start + batch_size] = np.argmax(logits, axis=1)
    return predictions


def evaluate(net, samples, yaws=None, batch_size=64) -> RankTable:
    """Rank-1 table for a trained network on labeled samples.

    Images larger than the network input are center-cropped (the
    deterministic evaluation path); evaluation never mutates the network.
    """
    if not samples:
        raise ValueError("no samples to evaluate")
    k = net.config.num_classes
    bad = next((s.identity for s in samples if not 0 <= s.identity < k), None)
    if bad is not None:
        raise ValueError(f"model was trained for {k} classes but the corpus contains "
                         f"identity {bad}, a label out of range [0, {k})")
    target = (net.config.input_height, net.config.input_width)
    images = [s.image if s.image.shape[:2] == target else center_crop(s.image, *target)
              for s in samples]
    return rank_table_from_predictions(predict(net, images, batch_size), samples, yaws)


def _fmt_yaw(yaw: float) -> str:
    return str(int(yaw)) if float(yaw).is_integer() else f"{yaw:g}"


def format_table(table: RankTable, style: str = "csv") -> str:
    """Render a RankTable as machine CSV or an aligned text table."""
    if style == "csv":
        lines = ["pose_id,yaw_deg,n_samples,rank1_pct"]
        for b in table.bins:
            lines.append(f"{b.pose_id},{_fmt_yaw(b.yaw_deg)},{b.n_samples},{b.rank1_pct!r}")
        if table.bins:
            lines.append(f"mean,,,{table.mean_pct!r}")
        return "\n".join(lines)
    if style == "paper":
        headers = ["Yaw"] + [_fmt_yaw(b.yaw_deg) for b in table.bins] + ["Mean"]
        values = ["Rank-1"] + [f"{b.rank1_pct:.2f}" for b in table.bins]
        values.append(f"{table.mean_pct:.2f}" if table.bins else "")
        widths = [max(len(h), len(v)) for h, v in zip(headers, values)]
        top = "  ".join(h.rjust(w) for h, w in zip(headers, widths))
        bottom = "  ".join(v.rjust(w) for v, w in zip(values, widths))
        return top + "\n" + bottom
    raise ValueError(f"unknown table style {style!r}")
