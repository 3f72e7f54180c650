"""Command line entry point.

Verbs: selftest, synth, ingest, train, embed, eval.
Exit codes: 0 success, 1 validation failure (usage errors included), 2 numeric
failure, 3 I/O failure.
"""

from __future__ import annotations

import argparse
import sys

from . import data, retrieval, train as training
from .config import RunConfig, load_config

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_NUMERIC = 2
EXIT_IO = 3


def cmd_selftest(args):
    from . import selftest
    failures = selftest.run(seed=args.seed)
    if failures:
        print(f"selftest FAILED: {', '.join(failures)}")
        return EXIT_VALIDATION
    print("selftest passed")
    return EXIT_OK


def cmd_synth(args):
    data.generate_synthetic_dataset(
        args.root, num_classes=args.classes, drone_per_class=args.drone,
        satellite_per_class=args.satellite, size=args.size, seed=args.seed)
    print(f"wrote synthetic dataset with {args.classes} classes under {args.root}")
    return EXIT_OK


def cmd_ingest(args):
    manifest = data.ingest(args.root)
    problems = manifest.validate_pairing("train")
    if problems:
        for p in problems:
            print(f"validation: {p}", file=sys.stderr)
        return EXIT_VALIDATION
    data.save_manifest(manifest, args.out)
    n, m, p = manifest.counts()
    print(f"manifest: {n} drone + {m} satellite images, {p} classes -> {args.out}")
    return EXIT_OK


def cmd_train(args):
    cfg = load_config(args.config) if args.config else RunConfig()
    manifest = data.load_manifest(args.manifest)
    log_path = args.log or (args.out + ".log.csv")
    _, _, logs = training.train(cfg, manifest, args.out, log_path=log_path)
    print(f"trained {len(logs)} steps; final loss {logs[-1].total:.4f} "
          f"-> {args.out}")
    return EXIT_OK


def cmd_embed(args):
    manifest = data.load_manifest(args.manifest)
    entries = manifest.subset(split=args.split,
                              view=None if args.view == "both" else args.view)
    if not entries:
        print(f"no manifest entries for split={args.split} view={args.view}",
              file=sys.stderr)
        return EXIT_VALIDATION
    records = training.embed_from_checkpoint(args.ckpt, entries, args.out)
    print(f"wrote {len(records)} embeddings (dim {len(records[0].vector)}) "
          f"-> {args.out}")
    return EXIT_OK


def cmd_eval(args):
    queries = retrieval.load_embeddings(args.query)
    gallery = retrieval.load_embeddings(args.gallery)
    k_values = [int(k) for k in args.k.split(",")]
    report = retrieval.evaluate(queries, gallery, k_values)
    training.write_reports(report, args.out)
    for k in sorted(report.recall_at):
        print(f"R@{k}: {report.recall_at[k]:.4f}")
    print(f"AP: {report.mean_ap:.4f} ({report.skipped_queries} queries skipped)")
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error is a validation error: exit 1, not argparse's 2, which
    means a numeric failure here. Subparsers are built from this class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_VALIDATION, f"{self.prog}: error: {message}\n")


def _count(least):
    """An int flag value of at least `least`; below it is a usage error."""
    def parse(text):
        n = int(text)
        if n < least:
            raise argparse.ArgumentTypeError(f"must be at least {least}, got {n}")
        return n
    parse.__name__ = "int"  # argparse's "invalid int value" for a non-int
    return parse


def build_parser():
    parser = _Parser(prog="sfde")
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("selftest", help="run the built-in invariant suite")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_selftest)

    p = sub.add_parser("synth", help="generate a procedural paired-view dataset")
    p.add_argument("--root", required=True)
    p.add_argument("--classes", type=_count(1), default=8)
    p.add_argument("--drone", type=_count(1), default=2)
    p.add_argument("--satellite", type=_count(1), default=1)
    p.add_argument("--size", type=_count(2), default=128)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("ingest", help="scan a dataset tree into a manifest CSV")
    p.add_argument("--root", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_ingest)

    p = sub.add_parser("train", help="train a model from a manifest")
    p.add_argument("--config")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--log")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("embed", help="extract embeddings with a checkpoint")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", required=True)
    p.add_argument("--view", choices=["drone", "satellite", "both"],
                   default="both")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("eval", help="rank queries against a gallery")
    p.add_argument("--query", required=True)
    p.add_argument("--gallery", required=True)
    p.add_argument("--k", default="1,5,10")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_eval)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as e:  # every validation error of the package is one
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION
    except (training.NumericError, FloatingPointError) as e:
        print(f"numeric error: {e}", file=sys.stderr)
        return EXIT_NUMERIC
    except OSError as e:
        print(f"i/o error: {e}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
