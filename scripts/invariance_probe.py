#!/usr/bin/env python3
"""Generalization probes: train with held-out lightings or held-out profile
poses and report rank-1 on the unseen factor.

The interesting comparison is how little the per-pose rates move between the
seen and unseen bins; the 1x1 streams are supposed to carry factors that
survive pose and lighting changes.
"""

import argparse
import os

from lfhn import data, evaluate, graph, train
from lfhn.train import TrainConfig


def probe(samples, protocol, ids, epochs, lr, seed):
    train_part, test_part = data.split(samples, protocol)
    net = graph.build_lfhn(graph.desk_config(ids), seed=seed)
    cfg = TrainConfig(lr=lr, momentum=0.9, batch_size=32, epochs=epochs, seed=seed)
    _, log = train.train(net, train_part, cfg)
    table = evaluate.evaluate(net, test_part)
    final = f" (final train acc {log[-1][2]:.3f})" if log else ""
    print(f"\n{protocol}: trained on {len(train_part)}, tested on {len(test_part)}{final}")
    print(evaluate.format_table(table, "paper"))
    return table


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="runs/invariance")
    parser.add_argument("--ids", type=int, default=10)
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--lr", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--light-ids", default="3,7")
    parser.add_argument("--pose-ids", default="0,12")
    args = parser.parse_args()

    # one corpus per (ids, seed): a workdir reused with other values gets its own
    corpus_dir = os.path.join(args.workdir, f"corpus-ids{args.ids}-seed{args.seed}")
    if not os.path.isdir(corpus_dir) or not os.listdir(corpus_dir):
        print(f"generating corpus in {corpus_dir}")
        data.generate_corpus(corpus_dir, args.ids, seed=args.seed + 7)
    samples = data.load_corpus(corpus_dir)

    light = probe(samples, f"holdout-light:{args.light_ids}", args.ids,
                  args.epochs, args.lr, args.seed)
    pose = probe(samples, f"holdout-pose:{args.pose_ids}", args.ids,
                 args.epochs, args.lr, args.seed)
    print(f"\nsummary: unseen lights {light.mean_pct:.2f}% | "
          f"unseen profiles {pose.mean_pct:.2f}%")


if __name__ == "__main__":
    main()
