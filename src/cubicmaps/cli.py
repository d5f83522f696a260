"""Command-line entry point for the full pipeline.

Subcommands: dataset (generate and label), check (label one triple),
oracle (uncovered-target report or full label/oracle sweep), train,
predict, verify (exact certificates), stats.  Every successful run
appends one JSON line to the manifest file recording the subcommand,
the resolved configuration, the tool version, wall time, input/output
paths, and the SHA-256 of the dataset file it read or wrote.

Exit codes: 0 success, 1 check or certificate failure (an inconclusive
check label included), 2 usage error (a scan or source bound above 9, an
oracle --all scan bound or an oracle source bound below the exhaustive
bound 9, and a reference case over a prime other than 2).
"""

import argparse
import hashlib
import json
import math
import os
import sys
import time

from . import __version__
from .certify import numeric_preimage, verify_case
from .dataset import (
    NO_FILTER,
    NORM_ONLY,
    STRICT_ORTHONORMAL,
    EnumConfig,
    generate_dataset,
    read_output,
    stats,
    write_output,
)
from .finitefield import ProjPoint, build_field
from .linsys import (
    DEFAULT_SCAN_BOUND,
    FIVE_POINT,
    SIX_POINT,
    PointConfig,
    SystemPencils,
    iter_subspaces,
    make_plane,
    vanishing_cubics,
    walk_planes,
)
from .network import (
    TrainConfig,
    evaluate,
    load_checkpoint,
    mean_prediction,
    save_checkpoint,
    train,
    write_history,
)
from .surjectivity import (
    NOT_UNRULY,
    POSITIVE_DIMENSIONAL,
    UNRULY,
    forward_oracle,
    label_plane,
    pencil_normal,
)

_CASES = {"five": FIVE_POINT, "six": SIX_POINT}
_FILTERS = {"norm": NORM_ONLY, "strict": STRICT_ORTHONORMAL, "none": NO_FILTER}


class UsageError(Exception):
    pass


def _parse_vector(text):
    parts = [p.strip() for p in text.strip().strip("()[]").split(",")]
    if not parts or any(not p for p in parts):
        raise UsageError(f"malformed vector {text!r}; expected comma-separated integers")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise UsageError(f"malformed vector {text!r}; expected comma-separated integers") from None


def parse_triple(text):
    """Parse "v;u;t" with comma-separated integer components."""
    parts = text.split(";")
    if len(parts) != 3:
        raise UsageError(f"malformed triple {text!r}; expected three ';'-separated vectors")
    return tuple(_parse_vector(p) for p in parts)


def _parse_points(text):
    return tuple(_parse_vector(p) for p in text.split(";"))


def _resolve_config(args):
    if args.case != "custom" and args.p != 2:
        raise UsageError(f"--case {args.case} is a fixture pinned over GF(2); reduced mod {args.p} "
                         "it is not the system of cubics through its points: use "
                         "--case custom --points \"x,y,z;...\" over other primes")
    if args.case == "custom":
        if not getattr(args, "points", None):
            raise UsageError("--case custom requires --points \"x,y,z;x,y,z;...\"")
        cfg_points = PointConfig(_parse_points(args.points))
        system = vanishing_cubics(cfg_points, build_field(args.p))
        case = system
    else:
        case = _CASES[args.case]
    return EnumConfig(
        case,
        p=args.p,
        filter_mode=_FILTERS[args.filter] if hasattr(args, "filter") else NORM_ONLY,
    )


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _write_manifest(args, config, paths, dataset_path, started, **extra):
    entry = {
        "subcommand": args.subcommand,
        "config": config,
        "version": __version__,
        "wall_time_s": round(time.time() - started, 3),
        "paths": paths,
        "dataset_sha256": _sha256(dataset_path) if dataset_path else None,
        **extra,
    }
    with open(args.manifest, "a") as fh:
        fh.write(json.dumps(entry, sort_keys=True) + "\n")


def _plane_for(cfg, args):
    v, u, t = parse_triple(args.triple)
    want = len(cfg.system.basis)
    if any(len(vec) != want for vec in (v, u, t)):
        raise UsageError(f"triple vectors must have length {want} for this case")
    if any(c < 0 or c >= cfg.p for vec in (v, u, t) for c in vec):
        raise UsageError(f"triple entries must lie in 0..{cfg.p - 1}")
    plane = make_plane(cfg.system, v, u, t)
    if plane is None:
        raise UsageError("triple does not span an admissible plane (rank < 3 or common factor)")
    return plane


def _require_exhaustive(flag, bound, unproved):
    """Refuse a bound below the exhaustive one where its result is reported as proved."""
    if bound < DEFAULT_SCAN_BOUND:
        raise UsageError(f"{flag} {bound} is below the exhaustive bound {DEFAULT_SCAN_BOUND}: "
                         f"{unproved} up to that degree may have one above it")


def _iter_admissible_planes(cfg, pencils):
    """Distinct admissible planes of a system, one per coefficient 3-subspace, through the memo pencils."""
    planes = walk_planes(cfg.system, iter_subspaces(cfg.p, cfg.system.dim, 3), pencils)
    return (plane for plane in planes if plane is not None)


def cmd_dataset(args):
    started = time.time()
    cfg = _resolve_config(args)
    t0 = time.perf_counter()
    walk_counters = {}
    records = generate_dataset(cfg, counters=walk_counters)
    t1 = time.perf_counter()
    write_output(records, args.out)
    t2 = time.perf_counter()
    summary = stats(records)
    print(f"wrote {summary['count']} records to {args.out}")
    print(f"positives: {summary['positives']}  negatives: {summary['negatives']}  "
          f"positive_rate: {summary['positive_rate']:.6f}")
    if summary["count"] == 0:
        print("no subspace spans an admissible plane")
    elif summary["positives"] == 0:
        print("all labels are 0")
    _write_manifest(
        args,
        {"case": args.case, "p": args.p, "filter": _FILTERS[args.filter]},
        {"out": os.path.abspath(args.out)},
        args.out,
        started,
        stages={"dataset_s": round(t1 - t0, 6), "write_s": round(t2 - t1, 6)},
        counters={"records": summary["count"], "positives": summary["positives"],
                  **walk_counters},
    )
    return 0


def _verdict_counters(label):
    """Pencils tested, a count per verdict status, and witnesses by extension degree.

    Below the exhaustive bound a pencil without a witness is counted as
    no_witness, not unruly, as check prints it.
    """
    verdicts = [verdict for _, verdict in label.verdicts]
    witness_degree = {}
    for verdict in verdicts:
        if verdict.witness is not None:
            key = f"d{verdict.witness.field.k}"
            witness_degree[key] = witness_degree.get(key, 0) + 1
    unruly_key = UNRULY if label.scan_bound >= DEFAULT_SCAN_BOUND else "no_witness"
    counters = {"pencils": len(verdicts), unruly_key: len(label.unruly_pencils)}
    for status in (NOT_UNRULY, POSITIVE_DIMENSIONAL):
        counters[status] = sum(verdict.status == status for verdict in verdicts)
    counters["witness_degree"] = witness_degree
    return counters


def cmd_check(args):
    started = time.time()
    cfg = _resolve_config(args)
    plane = _plane_for(cfg, args)
    t0 = time.perf_counter()
    label = label_plane(plane, scan_bound=args.scan_bound, find_all=True)
    label_s = time.perf_counter() - t0
    if label.value is None:
        print(f"label: inconclusive (scan bound {args.scan_bound} < {DEFAULT_SCAN_BOUND}: "
              f"a pencil without a witness up to degree {args.scan_bound} may have one above it)")
        pencil_line = f"no witness up to degree {args.scan_bound}"
    else:
        print(f"label: {label.value}")
        pencil_line = "unruly pencil"
    for a, b in label.unruly_pencils:
        print(f"{pencil_line}: a={a} b={b}")
    if args.witness:
        for (a, b), verdict in label.verdicts:
            status = verdict.status
            if status == NOT_UNRULY:
                status += f" witness {verdict.witness} over {verdict.witness.field}"
            elif status == UNRULY and label.value is None:
                status = pencil_line
            print(f"pencil a={a} b={b}: {status}")
    _write_manifest(
        args,
        {"case": args.case, "p": args.p, "triple": args.triple, "scan_bound": args.scan_bound},
        {},
        None,
        started,
        stages={"label_s": round(label_s, 6)},
        counters={**_verdict_counters(label), "scanned_points": plane.pencils.scanned_points},
        label=label.value,
    )
    return 1 if label.value is None else 0


def cmd_oracle(args):
    started = time.time()
    cfg = _resolve_config(args)
    _require_exhaustive("--source-bound", args.source_bound, "a target without a preimage")
    code = 0
    if args.all:
        _require_exhaustive("--scan-bound", args.scan_bound, "a pencil without a witness")
        planes = disagreements = uncovered_targets = 0
        label_s = oracle_s = 0.0
        pencils = SystemPencils(cfg.system)
        for plane in _iter_admissible_planes(cfg, pencils):
            planes += 1
            t0 = time.perf_counter()
            label = label_plane(plane, scan_bound=args.scan_bound)
            t1 = time.perf_counter()
            uncovered = forward_oracle(plane, source_bound=args.source_bound)
            t2 = time.perf_counter()
            label_s += t1 - t0
            oracle_s += t2 - t1
            uncovered_targets += len(uncovered)
            # an unruly pencil's normal is exactly a target without a preimage
            if label.value == 1:
                agrees = not uncovered
            else:
                normal = pencil_normal(*label.unruly_pencils[0])
                agrees = ProjPoint(plane.field, normal) in uncovered
            if not agrees:
                disagreements += 1
                print(f"DISAGREEMENT: plane {plane.vectors} label {label.value}, "
                      f"{len(uncovered)} uncovered targets")
        print(f"planes checked: {planes}")
        print(f"{disagreements} disagreements")
        code = 1 if disagreements else 0
        stages = {"label_s": round(label_s, 6), "oracle_s": round(oracle_s, 6)}
        counters = {"planes": planes, "disagreements": disagreements,
                    "uncovered_targets": uncovered_targets, **pencils.counters()}
    else:
        if not args.triple:
            raise UsageError("oracle requires --triple or --all")
        plane = _plane_for(cfg, args)
        t0 = time.perf_counter()
        uncovered = forward_oracle(plane, source_bound=args.source_bound)
        stages = {"oracle_s": round(time.perf_counter() - t0, 6)}
        counters = {"uncovered_targets": len(uncovered)}
        print(f"uncovered targets: {len(uncovered)}")
        for point in uncovered:
            print(f"  {point}")
    _write_manifest(
        args,
        {"case": args.case, "p": args.p, "triple": args.triple, "all": args.all,
         "source_bound": args.source_bound, "scan_bound": args.scan_bound},
        {},
        None,
        started,
        stages=stages,
        counters=counters,
    )
    return code


def cmd_train(args):
    started = time.time()
    records = read_output(args.data)
    cfg = TrainConfig(epochs=args.epochs, batch_size=args.batch_size, seed=args.seed)
    t0 = time.perf_counter()
    model, test_idx, history = train(records, cfg)
    t1 = time.perf_counter()
    save_checkpoint(model, args.model_out)
    t2 = time.perf_counter()
    paths = {"data": os.path.abspath(args.data), "model": os.path.abspath(args.model_out)}
    if args.history_out:
        write_history(history, args.history_out)
        paths["history"] = os.path.abspath(args.history_out)
    t3 = time.perf_counter()
    mse = evaluate(model, records, test_idx)
    mean_pred = mean_prediction(model, records, test_idx)
    t4 = time.perf_counter()
    n_train = len(records) - len(test_idx)
    stages = {
        "train_s": round(t1 - t0, 6),
        "checkpoint_s": round(t2 - t1, 6),
        "evaluate_s": round(t4 - t3, 6),
    }
    counters = {
        "epochs": cfg.epochs,
        "adam_steps": cfg.epochs * math.ceil(n_train / cfg.batch_size),
        "train_records": n_train,
    }
    print(f"trained on {n_train} records, held out {len(test_idx)}")
    print(f"final train mse: {history[-1][1]:.6f}")
    print(f"test mse: {mse:.6f}")
    print(f"mean prediction: {mean_pred:.6f}")
    print(f"checkpoint written to {args.model_out}")
    _write_manifest(args, cfg.to_dict(), paths, args.data, started,
                    stages=stages, counters=counters)
    return 0


def cmd_predict(args):
    started = time.time()
    model = load_checkpoint(args.model)
    triple = parse_triple(args.triple)
    if any(len(vec) != model.params.w for vec in triple):
        raise UsageError(f"triple vectors must have length {model.params.w} for this model")
    value = model.predict_raw(triple)
    print(f"{value!r}")
    _write_manifest(
        args,
        {"model": os.path.abspath(args.model), "triple": args.triple},
        {"model": os.path.abspath(args.model)},
        None,
        started,
    )
    return 0


def cmd_verify(args):
    started = time.time()
    cases = (FIVE_POINT, SIX_POINT) if args.case == "all" else (_CASES[args.case],)
    ok = True
    checks = failed_checks = numeric_targets = 0
    t0 = time.perf_counter()
    for case in cases:
        cert = verify_case(case)
        print(cert.report())
        ok = ok and cert.passed
        checks += len(cert.checks)
        failed_checks += sum(not c.passed for c in cert.checks)
    t1 = time.perf_counter()
    if args.targets:
        for case in cases:
            triples = [(1.5, 1.0, -2.25), (0.0, 1.0, 0.0), (1.0, 0.0, 0.0), (-3.0, 1.0, 7.0)]
            worst = 0.0
            for target in triples:
                _, residual = numeric_preimage(case, target)
                worst = max(worst, residual)
                numeric_targets += 1
            print(f"{case}: numeric spot checks worst residual {worst:.3e}")
            ok = ok and worst < 1e-9
    t2 = time.perf_counter()
    stages = {"certify_s": round(t1 - t0, 6), "numeric_s": round(t2 - t1, 6)}
    counters = {"cases": len(cases), "checks": checks, "failed_checks": failed_checks,
                "numeric_targets": numeric_targets}
    _write_manifest(args, {"case": args.case, "targets": args.targets}, {}, None, started,
                    stages=stages, counters=counters)
    return 0 if ok else 1


def cmd_stats(args):
    started = time.time()
    records = read_output(args.data)
    summary = stats(records)
    for key in ("count", "positives", "negatives"):
        print(f"{key}: {summary[key]}")
    print(f"positive_rate: {summary['positive_rate']:.6f}")
    _write_manifest(args, {"data": os.path.abspath(args.data)}, {}, args.data, started)
    return 0


def _positive_int(text):
    """argparse type: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _bound(text):
    """argparse type: an extension-degree bound, 1..9."""
    value = _positive_int(text)
    if value > DEFAULT_SCAN_BOUND:
        raise argparse.ArgumentTypeError(
            f"must be at most {DEFAULT_SCAN_BOUND}, got {value}: by Bezout's bound two coprime "
            f"cubics meet only in points of degree at most {DEFAULT_SCAN_BOUND}")
    return value


def _add_case_args(sub):
    sub.add_argument("--case", choices=sorted(_CASES) + ["custom"], default="five")
    sub.add_argument("--p", type=int, default=2, help="base field characteristic (prime)")
    sub.add_argument("--points", help="custom case: ';'-separated projective points \"x,y,z\"")


def _add_scan_bound_arg(sub):
    sub.add_argument("--scan-bound", type=_bound, default=DEFAULT_SCAN_BOUND,
                     dest="scan_bound", help="largest extension degree scanned for witnesses")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cubicmaps",
        description="Surjectivity of cubic rational self-maps of the projective plane "
                    "over finite fields: datasets, oracles, a learned score, and exact "
                    "certificates for two explicit maps.",
    )
    parser.add_argument("--manifest", default="cubicmaps-runs.jsonl",
                        help="JSON-lines file that records every run")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sub = subs.add_parser("dataset", help="enumerate triples, label planes, write output.txt")
    _add_case_args(sub)
    sub.add_argument("--filter", choices=sorted(_FILTERS), default="norm")
    sub.add_argument("--out", default="output.txt")
    sub.set_defaults(func=cmd_dataset)

    sub = subs.add_parser("check", help="label the plane spanned by one coefficient triple")
    _add_case_args(sub)
    _add_scan_bound_arg(sub)
    sub.add_argument("--triple", required=True, help="\"v;u;t\", comma-separated entries")
    sub.add_argument("--witness", action="store_true",
                     help="print every tested pencil's verdict and witness point")
    sub.set_defaults(func=cmd_check)

    sub = subs.add_parser("oracle", help="uncovered-target report, or full label/oracle sweep")
    _add_case_args(sub)
    _add_scan_bound_arg(sub)
    sub.add_argument("--triple", help="\"v;u;t\", comma-separated entries")
    sub.add_argument("--all", action="store_true",
                     help="sweep every admissible plane and compare labels against the oracle")
    sub.add_argument("--source-bound", type=_bound, default=DEFAULT_SCAN_BOUND,
                     dest="source_bound",
                     help="largest source extension degree for the forward oracle")
    sub.set_defaults(func=cmd_oracle)

    sub = subs.add_parser("train", help="train the surjectivity score on a dataset file")
    sub.add_argument("--data", required=True)
    sub.add_argument("--epochs", type=_positive_int, default=150)
    sub.add_argument("--batch-size", type=int, default=32, dest="batch_size")
    sub.add_argument("--seed", type=int, default=42)
    sub.add_argument("--model-out", default="model.ckpt", dest="model_out")
    sub.add_argument("--history-out", default=None, dest="history_out",
                     help="optional CSV of per-epoch training loss")
    sub.set_defaults(func=cmd_train)

    sub = subs.add_parser("predict", help="score one coefficient triple with a trained model")
    sub.add_argument("--model", required=True)
    sub.add_argument("--triple", required=True, help="\"v;u;t\", comma-separated entries")
    sub.set_defaults(func=cmd_predict)

    sub = subs.add_parser("verify", help="run the exact certificates for the explicit maps")
    sub.add_argument("--case", choices=["five", "six", "all"], default="all")
    sub.add_argument("--targets", action="store_true",
                     help="also run numeric preimage spot checks")
    sub.set_defaults(func=cmd_verify)

    sub = subs.add_parser("stats", help="summarize a dataset file")
    sub.add_argument("--data", required=True)
    sub.set_defaults(func=cmd_stats)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse has printed its usage error (code 2) or help (code 0)
        return exc.code
    try:
        return args.func(args)
    except (UsageError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
