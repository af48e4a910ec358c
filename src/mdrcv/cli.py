"""Command-line entry point.

Subcommands:
  simulate    sample a dataset from a distribution and write it as CSV
  search      rank all r-element factor subsets of a CSV by cross-validated error
  clt-verify  Monte Carlo check of the limit law of the error estimate
  oracle      print exact quantities for a known distribution

Exit codes: 0 success, 1 usage/input error or out of memory; clt-verify
counts a degenerate replication in its report.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .dataio import ingest_csv, write_dataset_csv
from .errors import ValidationError
from .estimator import DEFAULT_EPS_BETA, DEFAULT_EPS_C0, EpsilonSchedule
from .mcverify import SELF_NORM_KS_LIMIT, text_histogram, verify_clt
from .model import (
    FactorSubset,
    JointDistribution,
    label_marginal,
    load_distribution,
    sample,
)
from .oracle import (
    asymptotic_moments,
    balanced_penalty,
    high_risk_set,
    significance,
    subset_oracle,
)
from .scenarios import PRESET_PARAMS, PRESETS, generate_scenario
from .search import rank_subsets


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with code 2 on usage errors; the contract here is 1.
    def error(self, message):
        raise _UsageError(message)


def _check_flags(args, **least: int) -> None:
    """Refuse the first flag below its least value, e.g. ``K=2`` for --K."""
    for flag, low in least.items():
        if getattr(args, flag) < low:
            raise ValidationError(f"--{flag} must be >= {low}")


def _add_source_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dist", help="distribution JSON file")
    p.add_argument("--preset", choices=PRESETS, help="named scenario generator")
    p.add_argument("--n", type=int, help="factor count (with --preset)")
    p.add_argument("--q", type=int, help="max factor level (with --preset)")
    p.add_argument("--p-pos", type=float, help="null preset P(Y=1)")
    p.add_argument("--p-low", type=float, help="low penetrance")
    p.add_argument("--p-high", type=float, help="high penetrance")
    p.add_argument("--effect", type=float, help="independent preset per-factor effect")


def _add_schedule_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--eps-c0", type=float, default=DEFAULT_EPS_C0,
                   help="threshold inflation scale c0 (eps = c0 * N^-beta)")
    p.add_argument("--eps-beta", type=float, default=DEFAULT_EPS_BETA,
                   help="threshold inflation exponent beta, in (0, 1/2)")


def _resolve_distribution(args) -> JointDistribution:
    if args.dist and args.preset:
        raise ValidationError("give either --dist or --preset, not both")
    # the preset flags given; generate_scenario holds the defaults
    given = {k: v for k in ("n", "q", "p_pos", "p_low", "p_high", "effect")
             if (v := getattr(args, k)) is not None}
    if args.dist:
        if given:
            flag = next(iter(given)).replace("_", "-")
            raise ValidationError(f"--dist cannot be combined with --{flag}")
        return load_distribution(args.dist)
    if args.preset:
        if args.n is None or args.q is None:
            raise ValidationError("--preset requires --n and --q")
        unread = [k for k in given if k not in ("n", "q", *PRESET_PARAMS[args.preset])]
        if unread:
            readers = [p for p, params in PRESET_PARAMS.items() if unread[0] in params]
            raise ValidationError(f"--{unread[0].replace('_', '-')} applies only to "
                                  f"--preset {' or '.join(readers)}")
        return generate_scenario(args.preset, **given)
    raise ValidationError("provide a distribution via --dist FILE or --preset NAME")


def _parse_subsets(text: str) -> list[FactorSubset]:
    try:
        groups = [g for g in text.split(";") if g.strip()]
        if not groups:
            raise ValidationError("no subset given")
        return [
            FactorSubset(tuple(int(t) for t in g.split(","))) for g in groups
        ]
    except (ValueError, ValidationError) as exc:
        raise ValidationError(
            f"--subsets must look like '1,2' or '1,2;1,3': {exc}"
        ) from exc


def _write_json(doc: dict, path: str | None) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _cmd_simulate(args) -> int:
    dist = _resolve_distribution(args)
    dataset = sample(dist, args.N, args.seed)
    write_dataset_csv(dataset, args.out)
    print(f"wrote {len(dataset)} records to {args.out}")
    return 0


def _cmd_search(args) -> int:
    schedule = EpsilonSchedule(args.eps_c0, args.eps_beta)
    _check_flags(args, K=2)
    dataset = ingest_csv(args.data)
    report = rank_subsets(dataset, args.r, args.K, schedule)
    print(f"ranked {len(report.values)} subsets of size {report.r} "
          f"(N={len(dataset)}, K={args.K})")
    for i, (indices, value) in enumerate(report.entries):
        marker = " <- selected" if i == 0 else ""
        print(f"  {{{','.join(map(str, indices))}}}  "
              f"estimated error {value:.6f}{marker}")
    if args.out:
        _write_json(report.to_dict(), args.out)
        print(f"report written to {args.out}")
    return 0


def _cmd_clt_verify(args) -> int:
    schedule = EpsilonSchedule(args.eps_c0, args.eps_beta)
    _check_flags(args, N=1, K=2, M=1, workers=1)
    dist = _resolve_distribution(args)
    subsets = _parse_subsets(args.subsets)
    report, reps = verify_clt(
        dist, subsets, args.N, args.K, args.M, args.seed, schedule=schedule,
        scenario=args.preset or args.dist or "", workers=args.workers,
    )
    for u in report.univariate:
        tag = "PASS" if u.passed else "FAIL"
        notes = {"with a one-class fold": u.one_class_folds, "with plug-in scale 0": u.zero_scale}
        counts = "".join(f", {k} of {u.n_replications} {what}" for what, k in notes.items() if k)
        if u.degenerate:
            print(f"subset {u.subset}: degenerate (oracle variance 0){counts} [{tag}]")
        else:
            ks_self = "n/a" if u.ks_self_norm is None else f"{u.ks_self_norm:.4f}"
            print(f"subset {u.subset}: KS={u.ks_oracle:.4f} (limit {u.ks_limit:.4f}), "
                  f"self-normalized KS={ks_self} (limit {SELF_NORM_KS_LIMIT:.4f}), "
                  f"var ratio={u.var_ratio:.3f}{counts} [{tag}]")
    if report.multivariate is not None:
        mv = report.multivariate
        tag = "PASS" if mv.passed else "FAIL"
        whitened = ("skipped" if mv.whitening_skipped
                    else ", ".join(f"{k:.4f}" for k in mv.whitened_ks))
        if mv.near_singular:
            whitened += f", {mv.near_singular} of {mv.n_replications} near-singular"
        print(f"joint: max covariance discrepancy {mv.max_abs_discrepancy:.4f} "
              f"(limit {mv.entry_limit:.4f}), whitened KS {whitened} [{tag}]")
    if args.histogram:
        for i, u in enumerate(report.univariate):
            if not u.degenerate:  # degenerate: oracle variance 0
                print(f"standardized deviations, subset {u.subset}:")
                print(text_histogram(reps.z[:, i] / u.oracle_var**0.5))
    if args.out:
        _write_json(report.to_dict(), args.out)
        print(f"report written to {args.out}")
    return 0


def _cmd_oracle(args) -> int:
    dist = _resolve_distribution(args)
    psi = balanced_penalty(dist)
    full = FactorSubset(tuple(range(1, dist.space.n + 1)))
    subsets = _parse_subsets(args.subsets) if args.subsets is not None else [full]
    doc = {
        "n": dist.space.n,
        "q": dist.space.q,
        "label_marginal_pos": label_marginal(dist, 1),
        "penalty": {"neg": psi.psi_neg, "pos": psi.psi_pos},
        "threshold": psi.threshold,
    }
    errors, tables = subset_oracle(dist, subsets)
    variances, cov = asymptotic_moments(dist, tables)
    doc["subsets"] = [
        {
            "indices": list(s.indices),
            "significant": flag,
            "error": err,
            "asymptotic_variance": var,
        }
        for s, flag, err, var in zip(subsets, significance(dist, subsets), errors, variances)
    ]
    if len(subsets) > 1:
        doc["asymptotic_covariance"] = cov.tolist()
    print(f"threshold: {doc['threshold']:.6f}   "
          f"P(Y=1): {doc['label_marginal_pos']:.6f}")
    for entry in doc["subsets"]:
        print(f"subset {entry['indices']}: error {entry['error']:.6f}, "
              f"variance {entry['asymptotic_variance']:.6f}, "
              f"significant={entry['significant']}")
    if args.out:
        doc["high_risk_set"] = high_risk_set(dist, psi).tolist()
        _write_json(doc, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mdrcv", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", help="sample a dataset and write CSV")
    _add_source_flags(p)
    p.add_argument("--N", type=int, required=True, help="sample size")
    p.add_argument("--seed", type=int, required=True, help="sampler seed")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("search", help="rank factor subsets of a CSV by estimated error")
    p.add_argument("--data", required=True, help="dataset CSV, as simulate writes it")
    _add_schedule_flags(p)
    p.add_argument("--r", type=int, required=True, help="subset size")
    p.add_argument("--K", type=int, default=5, help="fold count")
    p.add_argument("--out", help="write the report as JSON")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("clt-verify", help="Monte Carlo limit-law verification")
    _add_source_flags(p)
    _add_schedule_flags(p)
    p.add_argument("--subsets", required=True,
                   help="semicolon-separated subsets, e.g. '1,2;1,3'")
    p.add_argument("--N", type=int, required=True, help="sample size per replication")
    p.add_argument("--K", type=int, default=5, help="fold count")
    p.add_argument("--M", type=int, required=True, help="replication count")
    p.add_argument("--seed", type=int, required=True, help="master seed")
    p.add_argument("--workers", type=int, default=1, help="parallel workers")
    p.add_argument("--histogram", action="store_true",
                   help="print a text histogram of standardized deviations")
    p.add_argument("--out", help="write the report as JSON")
    p.set_defaults(func=_cmd_clt_verify)

    p = sub.add_parser("oracle", help="print exact quantities for a distribution")
    _add_source_flags(p)
    p.add_argument("--subsets", help="semicolon-separated subsets (default: all factors)")
    p.add_argument("--out", help="write the result as JSON")
    p.set_defaults(func=_cmd_oracle)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "seed", 0) < 0:  # numpy seeds only from nonnegative ints
            raise ValidationError(f"--seed must be >= 0, got {args.seed}")
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
        return code
    except (_UsageError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # the reader left early, as `| head` does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # quiet exit
        return 0
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
