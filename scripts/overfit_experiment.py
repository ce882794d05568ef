#!/usr/bin/env python3
"""Capacity experiment: overfit a desk-scale model on a synthetic corpus.

Generates (or reuses) a 10-identity corpus, trains until the model memorizes
it, and prints the epoch curve plus the rank-1 table on the training factors.
"""

import argparse
import os
import time

from lfhn import data, evaluate, graph, train
from lfhn.train import TrainConfig


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workdir", default="runs/overfit")
    parser.add_argument("--ids", type=int, default=10)
    parser.add_argument("--epochs", type=int, default=60)
    parser.add_argument("--lr", type=float, default=0.02)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    corpus_dir = os.path.join(args.workdir, "corpus")
    if not os.path.isdir(corpus_dir) or not os.listdir(corpus_dir):
        print(f"generating corpus in {corpus_dir}")
        data.generate_corpus(corpus_dir, args.ids, seed=args.seed)
    samples = data.load_corpus(corpus_dir)
    print(f"{len(samples)} samples, {args.ids} identities")

    net = graph.build_lfhn(graph.desk_config(args.ids), seed=args.seed)
    cfg = TrainConfig(lr=args.lr, momentum=0.9, batch_size=32,
                      epochs=args.epochs, seed=args.seed)
    started = time.perf_counter()
    _, log = train.train(net, samples, cfg)
    print(f"trained {args.epochs} epochs in {time.perf_counter() - started:.1f}s")
    for epoch, loss, acc in log[:: max(1, args.epochs // 10)] + [log[-1]]:
        print(f"  epoch {epoch:3d}  loss {loss:.4f}  acc {acc:.4f}")

    graph.save_checkpoint(net, os.path.join(args.workdir, "model.lfhn"))
    train.write_log(log, os.path.join(args.workdir, "epochs.csv"))
    table = evaluate.evaluate(net, samples)
    print(evaluate.format_table(table, "paper"))


if __name__ == "__main__":
    main()
