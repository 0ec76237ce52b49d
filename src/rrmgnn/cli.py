"""Command-line interface: training, evaluation, generalization sweeps, and
standalone baseline runs."""

import argparse
import sys
from dataclasses import replace

from . import chansim, engnn, harness


def _add_common(p):
    p.add_argument("--seed", type=int, default=None, help="override the config seed")
    p.add_argument("--debug", action="store_true",
                   help="re-raise errors with the full traceback")


def build_parser():
    parser = argparse.ArgumentParser(prog="rrmgnn",
                                     description="edge-update GNN radio resource toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model per the config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", default=None, help="checkpoint path (overrides config)")
    p.add_argument("--metrics", default=None, help="write per-epoch metrics CSV here")
    _add_common(p)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a seeded test set")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", default=None, help="override the embedded geometry")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--out", default=None, help="per-sample CSV path")
    _add_common(p)

    p = sub.add_parser("sweep", help="evaluate a checkpoint across an axis")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--axis", required=True, choices=harness.SWEEP_AXES)
    p.add_argument("--values", required=True,
                   help="comma-separated axis values, e.g. 4,6,8")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--baseline", choices=("wmmse", "gp", "none"), default="none")
    p.add_argument("--out", default=None)
    _add_common(p)

    p = sub.add_parser("baseline", help="run a classical solver standalone")
    p.add_argument("--config", required=True)
    p.add_argument("--baseline", choices=("wmmse", "gp"), default="wmmse")
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--out", default=None)
    _add_common(p)
    return parser


def _train_cfg(args):
    cfg = harness.load_config(args.config)
    return cfg if args.seed is None else replace(cfg, seed=args.seed)


def _restore(args):
    """(net, params, scenario, geometry, eval seed) for eval and sweep: the
    scenario, geometry and seed come from --config, else from the checkpoint's
    `train` config; --seed replaces the seed."""
    net, params, meta = engnn.load_checkpoint(args.checkpoint)
    if args.config is not None:
        cfg = harness.load_config(args.config)
        scenario, geometry, seed = cfg.scenario, cfg.geometry, cfg.seed
    else:
        path, train_meta = args.checkpoint, meta.get("train")
        if not train_meta:
            raise ValueError(f"{path}: checkpoint has no embedded 'train' config; "
                             f"pass --config")
        try:
            scenario, seed = train_meta["scenario"], train_meta["seed"]
            geometry = chansim.GeometryConfig(**train_meta["geometry"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad 'train' config in checkpoint ({exc!r}); "
                             f"pass --config") from exc
    return net, params, scenario, geometry, seed if args.seed is None else args.seed


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            cfg = _train_cfg(args)
            if args.out is not None:
                cfg = replace(cfg, checkpoint_path=args.out)
            _, _, rows = harness.train(cfg, log=print)
            if args.metrics:
                harness.write_csv(args.metrics, harness.METRICS_HEADER,
                                  [[getattr(r, c) for c in harness.METRICS_HEADER]
                                   for r in rows])
            print(f"checkpoint written to {cfg.checkpoint_path}")
        elif args.command == "eval":
            net, params, scenario, geometry, seed = _restore(args)
            row, _ = harness.evaluate(net, params, scenario, geometry,
                                      args.samples, seed, out_csv=args.out)
            print(f"mean sum rate {row.mean_sum_rate:.6f} bits/s/Hz over "
                  f"{args.samples} samples (max residual {row.residual_max:.2e})")
        elif args.command == "sweep":
            net, params, scenario, geometry, seed = _restore(args)
            values = [float(v) for v in args.values.split(",") if v]
            train_cfg = harness.load_config(args.config) if args.config else None
            harness.sweep(net, params, scenario, geometry, args.axis, values,
                          args.samples, seed, baseline=args.baseline,
                          train_cfg=train_cfg, out_csv=args.out, log=print)
        elif args.command == "baseline":
            cfg = _train_cfg(args)
            columns, results = harness.solve_set(cfg.scenario, cfg.geometry, args.samples,
                                                 cfg.seed, args.baseline)
            rate, unconverged, iterations, extrapolations = columns.values()
            print(f"{args.baseline} mean sum rate {rate:.6f} bits/s/Hz over {args.samples} "
                  f"samples ({unconverged} stopped unconverged, mean {iterations:.1f} "
                  f"iterations), mean {extrapolations:.1f} extrapolated steps accepted")
            if args.out:
                harness.write_csv(args.out, ["sample", "iteration", "sum_rate"],
                                  [[i, t, r] for i, res in enumerate(results)
                                   for t, r in enumerate(res.trace)])
        return 0
    except Exception as exc:  # argparse handles usage errors separately
        if args.debug:
            raise
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
